//! A fixed reference workload that gauges the machine's speed during a
//! run, so that the gated metrics can be put on a reference machine's
//! clock.
//!
//! On a shared host the CPU time of the same work drifts by a fifth or
//! more over minutes, as neighbours load the shared cores, caches and
//! memory. The reference pass is the benchmark's own code and never
//! changes with the program: a small discrete-event loop (a binary heap
//! of timed events, each reading a random slot of a 4 MB table, past the
//! private caches) that loads the processor the way the simulator does.
//! [`crate::run_rounds`] runs it before each round of measured
//! operations; the best pass of the run over [`REFERENCE_MS`] is the
//! run's slowdown, and [`crate::gate`] divides it out.

use crate::{cpu_now, stats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Table slots (8 bytes each): past the private caches, so that cache
/// contention shows in the reference pass as it does in the program.
/// `peak_rss_mb` includes the table.
const SLOTS: usize = 1 << 19;
/// Events in flight and events processed per pass.
const IN_FLIGHT: u64 = 4096;
const STEPS: usize = 400_000;
/// The reference machine: CPU milliseconds of its best pass, about what
/// a run measured on a 2-vCPU x86-64 host (Intel Xeon, 2.1 GHz nominal).
/// Any fixed value would do; it only sets the scale of the metrics.
pub const REFERENCE_MS: f64 = 40.0;

/// The reference workload and the CPU time of each pass run so far.
pub struct Gauge {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    passes_ms: Vec<f64>,
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

impl Gauge {
    pub fn new() -> Self {
        Self {
            table: (0..SLOTS as u64).map(mix).collect(),
            heap: BinaryHeap::with_capacity(IN_FLIGHT as usize),
            passes_ms: Vec::new(),
        }
    }

    /// Runs one reference pass and records its CPU time. Every pass does
    /// the same work: same events, same table.
    pub fn pass(&mut self) {
        let t = cpu_now();
        self.heap.clear();
        self.heap
            .extend((0..IN_FLIGHT).map(|id| Reverse((mix(id) % 1024, id))));
        let mask = SLOTS as u64 - 1;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            let Reverse((time, id)) = self.heap.pop().expect("events stay in flight");
            let slot = (mix(time ^ (id << 20)) & mask) as usize;
            let v = self.table[slot];
            acc = acc.wrapping_add(v);
            self.heap.push(Reverse((time + 1 + (v & 1023), id)));
        }
        black_box(acc);
        self.passes_ms.push((cpu_now() - t) * 1e3);
    }

    /// How much slower than the reference machine this run's best pass
    /// was (below 1 when faster).
    pub fn slowdown(&self) -> f64 {
        self.best_ms() / REFERENCE_MS
    }

    /// CPU milliseconds of the run's best reference pass.
    pub fn best_ms(&self) -> f64 {
        stats::min(&self.passes_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_slowdown_is_the_best_pass_over_the_reference() {
        let mut g = Gauge::new();
        g.pass();
        g.pass();
        assert_eq!(g.passes_ms.len(), 2);
        assert!(g.passes_ms.iter().all(|&ms| ms > 0.0));
        let best = g.passes_ms[0].min(g.passes_ms[1]);
        assert_eq!(g.best_ms(), best);
        assert_eq!(g.slowdown(), best / REFERENCE_MS);
    }
}

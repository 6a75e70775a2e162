//! Parallel fan-out: run many independent work items across OS threads.
//!
//! Parameter sweeps (CosmoFlow's instance scaling, contention sweeps,
//! scheduler ablations, the `wrm sweep` grids, Monte-Carlo batches) are
//! embarrassingly parallel. `par_map_ordered` is the one executor
//! they all share: workers in a crossbeam scope claim chunks of item
//! indices off a [`ChunkClaim`], each accumulates `(index, output)`
//! pairs in its own vector — there is no shared results lock — and the
//! caller merges them in index order at join time, so the output is the
//! same at every thread count. A panic in any worker is re-raised on
//! the caller thread with its original payload.

use crate::engine::{simulate_with_base, Scenario, SimArena, SimError, SimResult};
use crate::index::BaseIndex;
use wrm_mc::sync::atomic::{AtomicUsize, Ordering};

/// Scenarios a [`run_all`] worker claims per counter increment. Small
/// enough to balance uneven scenario costs, large enough that the
/// atomic counter is not contended for sub-millisecond simulations.
const SCENARIO_CHUNK: usize = 4;

/// Resolves a requested thread count to the worker count actually
/// spawned for `jobs` work units.
///
/// * `requested == 0` means **auto**: one worker per available CPU.
/// * Explicit values are capped at the host's available parallelism —
///   oversubscribing OS threads onto fewer cores never helps a
///   CPU-bound sweep and measurably hurts on small hosts (`--threads 8`
///   ran 0.88x *serial* on a 1-CPU runner before this cap).
/// * Both are capped at `jobs` (no idle workers) and floored at 1.
#[must_use]
pub fn effective_workers(requested: usize, jobs: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let want = if requested == 0 {
        cores
    } else {
        requested.min(cores)
    };
    want.min(jobs).max(1)
}

/// `par_map_ordered`'s work-stealing claimer: a shared cursor over
/// `total` work items, handed out in chunks of `chunk` consecutive
/// indices per atomic increment. Kept apart from the executor (and
/// built on the `wrm_mc` facade) so the model checker can verify the
/// claiming protocol: every index is claimed exactly once, no matter
/// how the workers interleave.
pub struct ChunkClaim {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
}

impl ChunkClaim {
    /// A cursor over `total` indices claimed `chunk` at a time
    /// (`chunk == 0` is treated as 1).
    #[must_use]
    pub fn new(total: usize, chunk: usize) -> Self {
        Self {
            next: AtomicUsize::new(0),
            total,
            chunk: chunk.max(1),
        }
    }

    /// Claims the next chunk; `None` once the range is exhausted. The
    /// single fetch-add makes each index the property of exactly one
    /// caller (Relaxed suffices: uniqueness comes from the RMW's
    /// atomicity, and the inputs read through the indices are shared
    /// immutably).
    pub fn next_range(&self) -> Option<std::ops::Range<usize>> {
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if lo >= self.total {
            return None;
        }
        Some(lo..(lo + self.chunk).min(self.total))
    }
}

/// Maps `f` over the indices `0..total` on up to `threads` workers
/// and returns the outputs in index order.
///
/// Each worker builds its own state with `init` (a warmed arena, a
/// patchable index clone) and claims `chunk` consecutive indices per
/// [`ChunkClaim`] increment (`chunk == 0` is treated as 1). `threads`
/// resolves through [`effective_workers`]; one worker runs inline on
/// the caller thread. A worker panic is re-raised on the caller with
/// its original payload.
pub(crate) fn par_map_ordered<S, T, I, F>(
    total: usize,
    chunk: usize,
    threads: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = effective_workers(threads, total);
    if workers == 1 {
        let mut state = init();
        return (0..total).map(|i| f(&mut state, i)).collect();
    }
    let claim = ChunkClaim::new(total, chunk);
    let worker_outputs = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut state = init();
                    let mut out = Vec::new();
                    while let Some(range) = claim.next_range() {
                        for i in range {
                            out.push((i, f(&mut state, i)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(std::thread::ScopedJoinHandle::join)
            .collect::<Vec<_>>()
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for joined in worker_outputs {
        let out = joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (i, t) in out {
            slots[i] = Some(t);
        }
    }
    slots
        .into_iter()
        .map(|t| t.expect("every index was claimed"))
        .collect()
}

/// Runs every scenario, using up to `threads` worker threads, and
/// returns the results in input order.
///
/// `threads == 0` means auto (one worker per available CPU); `1` runs
/// inline; explicit counts are capped at the available parallelism
/// ([`effective_workers`]). If a worker panics, the panic is propagated
/// to the caller with its original payload.
pub fn run_all(scenarios: &[Scenario], threads: usize) -> Vec<Result<SimResult, SimError>> {
    // One arena per worker: every simulation after the first reuses the
    // warmed buffers.
    par_map_ordered(
        scenarios.len(),
        SCENARIO_CHUNK,
        threads,
        SimArena::new,
        |arena, i| {
            let s = &scenarios[i];
            let base = BaseIndex::build(&s.machine, &s.workflow)?;
            simulate_with_base(s, &base, arena)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::spec::{Phase, TaskSpec, WorkflowSpec};
    use wrm_core::machines;

    fn scenario(n_tasks: usize) -> Scenario {
        let mut wf = WorkflowSpec::new(format!("bag{n_tasks}"));
        for i in 0..n_tasks {
            wf = wf.task(TaskSpec::new(format!("t{i}"), 1).phase(Phase::overhead("work", 5.0)));
        }
        Scenario::new(machines::perlmutter_cpu(), wf)
    }

    fn assert_same(a: &[Result<SimResult, SimError>], b: &[Result<SimResult, SimError>]) {
        assert_eq!(a.len(), b.len());
        for (a, b) in a.iter().zip(b) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let scenarios: Vec<Scenario> = (1..20).map(scenario).collect();
        let serial = run_all(&scenarios, 1);
        for threads in [1, 2, 4] {
            assert_same(&serial, &run_all(&scenarios, threads));
            for chunk in [0, 1, 3, 64] {
                let chunked = par_map_ordered(
                    scenarios.len(),
                    chunk,
                    threads,
                    SimArena::new,
                    |arena, i| {
                        let s = &scenarios[i];
                        simulate_with_base(s, &BaseIndex::build(&s.machine, &s.workflow)?, arena)
                    },
                );
                assert_same(&serial, &chunked);
            }
        }
    }

    #[test]
    fn chunk_claim_is_exhaustive_inline() {
        let claim = ChunkClaim::new(5, 2);
        let mut all = Vec::new();
        while let Some(r) = claim.next_range() {
            all.extend(r);
        }
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(claim.next_range(), None);
    }

    #[test]
    fn empty_input() {
        assert!(run_all(&[], 8).is_empty());
        assert!(par_map_ordered(0, 1, 4, || (), |(), i| i).is_empty());
    }

    #[test]
    fn effective_workers_resolves_auto_and_caps() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // Auto: capped at both the core count and the job count.
        assert_eq!(effective_workers(0, 1), 1);
        assert_eq!(effective_workers(0, usize::MAX), cores);
        // Explicit requests never exceed the available parallelism...
        assert!(effective_workers(1_000_000, 1_000_000) <= cores);
        // ...nor the job count, and never drop to zero.
        assert_eq!(effective_workers(8, 3), 3.min(cores));
        assert_eq!(effective_workers(1, 0), 1);
        assert_eq!(effective_workers(0, 0), 1);
    }

    #[test]
    fn auto_threads_matches_serial() {
        let scenarios: Vec<Scenario> = (1..6).map(scenario).collect();
        assert_same(&run_all(&scenarios, 1), &run_all(&scenarios, 0));
    }

    #[test]
    fn errors_are_returned_in_place() {
        let mut bad = scenario(1);
        bad.workflow.tasks[0].nodes = 10_000_000;
        let scenarios = vec![scenario(1), bad, scenario(2)];
        let results = run_all(&scenarios, 3);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert_eq!(results[1], simulate(&scenarios[1]));
    }

    #[test]
    fn worker_panic_keeps_payload_and_executor_recovers() {
        // A panic inside a worker must reach the caller with its
        // original payload…
        let caught = std::panic::catch_unwind(|| {
            par_map_ordered(
                8,
                1,
                2,
                || (),
                |(), i| {
                    assert!(i != 5, "boom at {i}");
                    i
                },
            )
        });
        let payload = caught.expect_err("the worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 5"), "payload: {msg}");
        // …and the executor must still work afterwards.
        let out = par_map_ordered(8, 1, 2, || (), |(), i| i);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }
}

//! The fixed simulation worker pool.
//!
//! All CPU-heavy work — simulations, certifications, sweep columns —
//! funnels through one pool of `effective_workers` threads, each
//! owning a warmed [`SimArena`] that every job it runs reuses. The
//! connection threads do only I/O and JSON assembly; they submit
//! closures here and block on a per-request `std::sync::mpsc` channel
//! for the results. Jobs never submit jobs, so the pool cannot
//! deadlock on itself regardless of queue depth. A job that panics
//! costs only its own request: the worker catches the unwind and goes
//! on with a fresh arena.

use crossbeam::channel::{unbounded, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wrm_mc::thread::JoinHandle;
use wrm_sim::SimArena;

/// A unit of simulation work, run with a worker's warmed arena.
pub type Job = Box<dyn FnOnce(&mut SimArena) + Send + 'static>;

/// A fixed pool of simulation workers fed by an MPMC job channel.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads (floored at 1), each with its own
    /// [`SimArena`].
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<Job>();
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                wrm_mc::thread::Builder::new()
                    .name(format!("wrm-sim-{i}"))
                    .spawn(move || {
                        let mut arena = SimArena::new();
                        while let Ok(job) = rx.recv() {
                            // A panicking job must not take its worker
                            // down with it. Its result sender drops in
                            // the unwind, so the waiting request sees
                            // its channel disconnect; the arena the job
                            // may have left half-mutated is replaced.
                            if catch_unwind(AssertUnwindSafe(|| job(&mut arena))).is_err() {
                                arena = SimArena::new();
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a job. Returns `false` if the pool has shut down (the
    /// job is dropped; its result channel disconnects, which the
    /// waiting request observes as an error).
    pub fn submit(&self, job: Job) -> bool {
        match &self.tx {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    }

    /// Stops accepting jobs, drains the queue, and joins every worker.
    pub fn shutdown(&mut self) {
        self.tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_results_come_back() {
        let pool = WorkerPool::new(3);
        let (tx, rx) = mpsc::channel();
        for i in 0..20u64 {
            let tx = tx.clone();
            assert!(pool.submit(Box::new(move |_arena| {
                let _ = tx.send(i * 2);
            })));
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_keeps_its_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel::<u32>();
        assert!(pool.submit(Box::new(move |_| {
            // The job owns its result sender, as request jobs do.
            let _sender = tx;
            panic!("job panics");
        })));
        assert!(
            rx.recv().is_err(),
            "the panicking job's channel disconnects"
        );
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(Box::new(move |_| {
            let _ = tx.send(7u32);
        })));
        assert_eq!(rx.recv(), Ok(7), "the one worker still runs jobs");
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let mut pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..50u32 {
            let tx = tx.clone();
            pool.submit(Box::new(move |_| {
                let _ = tx.send(i);
            }));
        }
        drop(tx);
        pool.shutdown();
        assert_eq!(rx.iter().count(), 50, "queued jobs run before join");
        assert!(
            !pool.submit(Box::new(|_| {})),
            "pool rejects after shutdown"
        );
    }
}

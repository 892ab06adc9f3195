//! Std-thread worker pools shared by the batch drivers and the daemon.
//!
//! Two shapes of parallelism live here:
//!
//! * [`run_indexed`] — the batch pool `oneqc` and `/v1/compile-batch`
//!   use: a shared atomic cursor hands out item indices to scoped
//!   workers, and every result lands in its input slot, so output order
//!   is input order no matter which thread finishes first.
//! * [`WorkerPool`] — the long-lived pool `oneqd` uses: N named threads
//!   drain one unbounded FIFO queue of boxed jobs. [`WorkerPool::execute`]
//!   never blocks, so the event loop dispatches from its own thread; the
//!   queue needs no bound of its own because a connection holds at most
//!   one dispatched request. Dropping the pool joins the workers after
//!   the queue drains — the mechanism behind graceful shutdown. A job
//!   that panics ends its worker thread, so `oneqd`'s jobs catch their
//!   own panics (see `server.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Runs `f` over every item of `items` on up to `jobs` scoped worker
/// threads and returns the results in input order.
///
/// # Example
///
/// ```
/// let squares = oneq_service::pool::run_indexed(4, &[1u64, 2, 3], |i, v| (i, v * v));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9)]);
/// ```
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(slots);
    let workers = jobs.max(1).min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                    // ORDERING: Relaxed — the cursor only needs fetch_add's
                    // atomicity for unique indices; results are published
                    // through the slots Mutex.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let result = f(i, &items[i]);
                    slots.lock().expect("pool slot mutex poisoned")[i] = Some(result);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("pool slot mutex poisoned")
        .into_iter()
        .map(|slot| slot.expect("every slot filled by the pool"))
        .collect()
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of long-lived worker threads draining one FIFO job queue.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    depth: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// Spawns `workers` threads (named `{name}-{i}`) behind an unbounded
    /// queue.
    pub fn new(name: &str, workers: usize) -> WorkerPool {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let depth = Arc::new(AtomicUsize::new(0));
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let depth = Arc::clone(&depth);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&rx, &depth))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            depth,
        }
    }

    /// Enqueues a job behind every job already queued, without blocking.
    /// Returns `false` only after [`WorkerPool::shutdown`].
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        match &self.tx {
            Some(tx) => {
                // ORDERING: Relaxed — depth is a statistics gauge; job
                // handoff is ordered by the channel itself.
                self.depth.fetch_add(1, Ordering::Relaxed);
                let sent = tx.send(Box::new(job)).is_ok();
                if !sent {
                    self.depth.fetch_sub(1, Ordering::Relaxed);
                }
                sent
            }
            None => false,
        }
    }

    /// Jobs enqueued but not yet picked up by a worker — the queue-depth
    /// gauge the event loop publishes each iteration. Momentarily over by
    /// jobs mid-handoff; exact once the queue settles.
    pub fn depth(&self) -> usize {
        // ORDERING: Relaxed — momentarily-stale reads are fine per the doc
        // comment above.
        self.depth.load(Ordering::Relaxed)
    }

    /// Closes the queue and joins every worker; jobs already enqueued
    /// still run (drain-then-exit).
    pub fn shutdown(&mut self) {
        self.tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, depth: &AtomicUsize) {
    loop {
        // Hold the receiver lock only while dequeuing, never while running
        // the job, so workers drain the queue concurrently.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => break,
        };
        match job {
            Ok(job) => {
                // ORDERING: Relaxed — statistics gauge decrement; the recv
                // above already ordered the job's memory.
                depth.fetch_sub(1, Ordering::Relaxed);
                job();
            }
            Err(_) => break, // sender dropped and queue drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_indexed_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = run_indexed(8, &items, |i, v| {
            assert_eq!(i, *v);
            v * 2
        });
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(4, &empty, |_, v| *v).is_empty());
        assert_eq!(run_indexed(0, &[7], |_, v| *v), vec![7]);
    }

    #[test]
    fn queued_jobs_run_in_enqueue_order() {
        // One worker held behind a gate while 100 jobs queue up: every
        // execute returns at once, and the jobs run in the order queued.
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        let mut pool = WorkerPool::new("test-fifo", 1);
        let gate_for_worker = Arc::clone(&gate);
        assert!(pool.execute(move || {
            let _held = gate_for_worker.lock();
        }));
        let ran = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100 {
            let ran = Arc::clone(&ran);
            assert!(pool.execute(move || ran.lock().unwrap().push(i)));
        }
        assert!(pool.depth() >= 100, "all 100 jobs wait behind the gate");
        drop(hold);
        pool.shutdown();
        assert_eq!(*ran.lock().unwrap(), (0..100).collect::<Vec<_>>());
        assert_eq!(pool.depth(), 0, "drained pool reads zero depth");
    }

    #[test]
    fn depth_reports_waiting_jobs_and_drains_to_zero() {
        // One worker parked behind a gate; two queued jobs behind it must
        // show up in depth(), and a drained pool must read zero.
        let gate = Arc::new(Mutex::new(()));
        let hold = gate.lock().unwrap();
        let mut pool = WorkerPool::new("test-depth", 1);
        let gate_for_worker = Arc::clone(&gate);
        assert!(pool.execute(move || {
            let _held = gate_for_worker.lock();
        }));
        assert!(pool.execute(|| {}));
        assert!(pool.execute(|| {}));
        // The blocker may or may not have been dequeued yet, so depth is
        // 2 or 3 — never less, never more.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while pool.depth() > 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "blocker never dequeued"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(pool.depth(), 2, "two jobs waiting behind the blocker");
        drop(hold);
        pool.shutdown();
        assert_eq!(pool.depth(), 0, "drained pool reads zero depth");
    }

    #[test]
    fn worker_pool_runs_all_jobs_before_shutdown() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut pool = WorkerPool::new("test", 4);
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            assert!(pool.execute(move || {
                // ORDERING: SeqCst — test assertion counter.
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        // ORDERING: SeqCst — test assertion read after join.
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert!(!pool.execute(|| {}), "execute after shutdown is refused");
    }
}

//! The stream's executor: one earliest-deadline-first queue served by
//! every worker, and one job that every task runs. See the crate docs for
//! how the stream uses it.

use crate::affinity;
use crate::stream::{lock, StreamDead};
use geosphere_core::DetectorWorkspace;
use gs_prof::hist::{HistogramSnapshot, LogHistogram};
use gs_prof::trace as gtrace;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Deadline key meaning "no deadline": sorts after every real deadline, so
/// deadline-free tasks run FIFO behind deadline-bearing ones.
pub(crate) const NO_DEADLINE: u64 = u64::MAX;

/// One queued task: the frame's slot, ordered by `(key, arrival)`.
struct Task {
    key: u64,
    /// Arrival ordinal: the tie-break that keeps equal-deadline (and
    /// deadline-free) tasks FIFO.
    arrival: u64,
    slot: usize,
    /// [`gs_prof::ticks`] at submit (`0` with profiling compiled out): the
    /// popping worker attributes the submit→pop time to
    /// [`gs_prof::Stage::Queue`].
    submitted_at: u64,
    /// Wall-clock submit stamp, always recorded: the popping worker feeds
    /// the submit→pop wait into the queue-wait histogram.
    submitted_wall: Instant,
    /// The submitter's flight-recorder identity, adopted by the popping
    /// worker for the span of the job.
    trace_ctx: gtrace::FrameCtx,
}

// `BinaryHeap` pops its maximum, so tasks compare by reversed
// `(key, arrival)`: the earliest deadline, then the earliest arrival, is
// the maximum. `arrival` is unique, so this is a total order.
impl Ord for Task {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.key, other.arrival).cmp(&(self.key, self.arrival))
    }
}

impl PartialOrd for Task {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Task {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Task {}

struct Queue {
    heap: BinaryHeap<Task>,
    arrivals: u64,
    shutdown: bool,
}

/// The queue, its wait histogram and the dead flag, shared by the pool
/// and its workers.
struct Shared {
    q: Mutex<Queue>,
    cv: Condvar,
    /// Submit→pop wall wait per task, in nanoseconds.
    queue_wait: LogHistogram,
    /// Set when a worker panics; the pool then refuses every task.
    dead: AtomicBool,
}

/// Marks the pool dead when the worker unwinds, whether through a
/// panicking job or an injected fault.
struct DeadOnPanic<'a>(&'a AtomicBool);

impl Drop for DeadOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
            // Black-box the worker death against the frame it was holding.
            gtrace::emit(gtrace::TracePoint::Fault);
            gtrace::trigger(gtrace::Trigger::Fault, gtrace::context().frame);
        }
    }
}

/// The worker pool. [`DetectionPool::new`] sizes and places it,
/// [`DetectionPool::spawn`] starts the workers with the pool's one job,
/// and [`DetectionPool::submit`] queues a slot.
pub(crate) struct DetectionPool {
    shared: Arc<Shared>,
    /// Each worker's CPU to pin it to, if any.
    placement: Vec<Option<usize>>,
    /// Behind a mutex so the owner can join the workers by `&self`.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl DetectionPool {
    /// Sizes a pool of `workers` (≥ 1) over one queue of `capacity`
    /// tasks; no thread starts until [`DetectionPool::spawn`]. With `pin`,
    /// worker `k` is pinned to the `k mod n`-th of the process's `n`
    /// allowed CPUs, best-effort; without it the pool reads no affinity
    /// mask.
    pub(crate) fn new(workers: usize, capacity: usize, pin: bool) -> Self {
        let n_workers = workers.max(1);
        let cpus = if pin { affinity::allowed_cpus() } else { Vec::new() };
        let placement =
            (0..n_workers).map(|k| (!cpus.is_empty()).then(|| cpus[k % cpus.len()])).collect();
        DetectionPool {
            shared: Arc::new(Shared {
                q: Mutex::new(Queue {
                    heap: BinaryHeap::with_capacity(capacity.max(1)),
                    arrivals: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
                queue_wait: LogHistogram::new(),
                dead: AtomicBool::new(false),
            }),
            placement,
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Starts the workers, once per pool. Each runs `job(slot, ws)` for
    /// every task it pops, with `ws` its long-lived detector workspace.
    /// Worker `k` is named `gs-worker{k}`.
    pub(crate) fn spawn<J>(&self, job: J)
    where
        J: Fn(usize, &mut DetectorWorkspace) + Clone + Send + 'static,
    {
        let mut handles = lock(&self.handles);
        for (k, &cpu) in self.placement.iter().enumerate() {
            let shared = Arc::clone(&self.shared);
            let job = job.clone();
            let handle = std::thread::Builder::new()
                .name(format!("gs-worker{k}"))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        // Best-effort: a rejected mask leaves the worker
                        // unpinned, never broken.
                        affinity::pin_current_thread(cpu);
                    }
                    worker_loop(&shared, &job)
                })
                .expect("spawn pool worker");
            handles.push(handle);
        }
    }

    /// Stops every worker and joins them from the calling thread.
    /// Idempotent; also invoked by `Drop`. Queued tasks no worker has
    /// picked up are discarded; a task already running finishes first.
    /// Must not be called from a worker (it would join itself).
    pub(crate) fn shutdown_and_join(&self) {
        lock(&self.shared.q).shutdown = true;
        self.shared.cv.notify_all();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The worker count.
    pub(crate) fn workers(&self) -> usize {
        self.placement.len()
    }

    /// Whether a worker has panicked. A dead pool refuses every task, and
    /// the tasks a dead worker held never complete.
    pub(crate) fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }

    /// Queues `slot` with EDF key `key` ([`NO_DEADLINE`] for
    /// deadline-free FIFO). Never allocates.
    ///
    /// Returns [`StreamDead`] when a worker has panicked: the pool will
    /// never run the task.
    ///
    /// # Panics
    /// Panics when the queue already holds `capacity` tasks (an owner
    /// bug: capacity must bound the owner's in-flight frames).
    pub(crate) fn submit(&self, key: u64, slot: usize) -> Result<(), StreamDead> {
        if self.is_dead() {
            return Err(StreamDead);
        }
        // Capture the submitter's frame identity and stamp the enqueue on
        // the flight recorder (no-ops without an ambient context).
        let trace_ctx = gtrace::context();
        if trace_ctx.frame != gtrace::NO_FRAME {
            gtrace::emit_for(gtrace::TracePoint::Enqueue, gtrace::EventKind::Instant, trace_ctx);
        }
        let mut q = lock(&self.shared.q);
        // At capacity a push would reallocate the heap.
        assert!(
            q.heap.len() < q.heap.capacity(),
            "pool queue over capacity: submit more slots than the pool was sized for"
        );
        let arrival = q.arrivals;
        q.arrivals += 1;
        q.heap.push(Task {
            key,
            arrival,
            slot,
            submitted_at: gs_prof::ticks(),
            submitted_wall: Instant::now(),
            trace_ctx,
        });
        drop(q);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// The queued-task count, read under the queue lock.
    pub(crate) fn queue_depth(&self) -> usize {
        lock(&self.shared.q).heap.len()
    }

    /// A snapshot of the submit→pop queue-wait histogram (nanoseconds).
    pub(crate) fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.shared.queue_wait.snapshot()
    }
}

impl Drop for DetectionPool {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn worker_loop(shared: &Shared, job: &impl Fn(usize, &mut DetectorWorkspace)) {
    let mut ws = DetectorWorkspace::new();
    loop {
        let task = {
            let mut q = lock(&shared.q);
            loop {
                // Shutdown wins over queued work: un-started tasks are
                // discarded (their frames are being abandoned).
                if q.shutdown {
                    return;
                }
                if let Some(task) = q.heap.pop() {
                    break task;
                }
                q = shared.cv.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        gs_prof::record(
            gs_prof::Stage::Queue,
            gs_prof::ticks().saturating_sub(task.submitted_at),
            1,
            0,
        );
        shared.queue_wait.record_duration(task.submitted_wall.elapsed());
        // Stamp the EDF pop and adopt the frame's identity for the span
        // of the job (the stream's detect scope reads it ambiently).
        if task.trace_ctx.frame != gtrace::NO_FRAME {
            gtrace::emit_for(gtrace::TracePoint::Pop, gtrace::EventKind::Instant, task.trace_ctx);
        }
        gtrace::set_context(task.trace_ctx);
        // A panicking job must mark the pool dead rather than silently
        // dropping the task (its frame would otherwise wait forever).
        let guard = DeadOnPanic(&shared.dead);
        job(task.slot, &mut ws);
        drop(guard);
        gtrace::clear_context();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Records the order slots were run in.
    struct Recorder {
        order: Mutex<Vec<usize>>,
        ran: AtomicU64,
        /// Blocks the gate task (slot `usize::MAX`) long enough for later
        /// submissions to queue up behind it, making the pop order
        /// observable.
        gate: Mutex<bool>,
        gate_cv: Condvar,
    }

    impl Recorder {
        fn new() -> Arc<Self> {
            Arc::new(Recorder {
                order: Mutex::new(Vec::new()),
                ran: AtomicU64::new(0),
                gate: Mutex::new(false),
                gate_cv: Condvar::new(),
            })
        }

        fn run(&self, slot: usize) {
            if slot == usize::MAX {
                let mut open = self.gate.lock().unwrap();
                while !*open {
                    open = self.gate_cv.wait(open).unwrap();
                }
            } else {
                self.order.lock().unwrap().push(slot);
            }
            self.ran.fetch_add(1, Ordering::SeqCst);
        }

        fn open_gate(&self) {
            *self.gate.lock().unwrap() = true;
            self.gate_cv.notify_all();
        }

        fn wait_ran(&self, n: u64) {
            wait_until("tasks never completed", || self.ran.load(Ordering::SeqCst) >= n);
        }
    }

    /// An unpinned pool whose job records into `rec`.
    fn recording_pool(workers: usize, capacity: usize, rec: &Arc<Recorder>) -> DetectionPool {
        let pool = DetectionPool::new(workers, capacity, false);
        let rec = Arc::clone(rec);
        pool.spawn(move |slot, _| rec.run(slot));
        pool
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Spin until the queue is drained (tasks may still be running; only
    /// queue occupancy is awaited).
    fn wait_queue_empty(pool: &DetectionPool) {
        wait_until("queue never drained", || pool.queue_depth() == 0);
    }

    #[test]
    fn edf_orders_the_queue() {
        let rec = Recorder::new();
        let pool = recording_pool(1, 16, &rec);
        // Occupy the single worker so the rest queue up (wait until the
        // gate task has been popped, so the depth below is exact).
        pool.submit(0, usize::MAX).unwrap();
        wait_queue_empty(&pool);
        // Mixed submission order: late deadline, none, early deadline,
        // another none, mid deadline.
        pool.submit(900, 1).unwrap();
        pool.submit(NO_DEADLINE, 2).unwrap();
        pool.submit(100, 3).unwrap();
        pool.submit(NO_DEADLINE, 4).unwrap();
        pool.submit(500, 5).unwrap();
        assert_eq!(pool.queue_depth(), 5);

        rec.open_gate();
        rec.wait_ran(6);
        // EDF: deadlines ascending first, then deadline-free FIFO.
        assert_eq!(*rec.order.lock().unwrap(), vec![3, 5, 1, 2, 4]);
        assert_eq!(pool.queue_depth(), 0);
    }

    /// Work conservation: while one worker is parked on a long task, its
    /// sibling drains every other queued task.
    #[test]
    fn idle_worker_drains_the_queue_while_a_sibling_is_parked() {
        let rec = Recorder::new();
        let pool = recording_pool(2, 8, &rec);
        pool.submit(0, usize::MAX).unwrap();
        wait_queue_empty(&pool); // one worker holds the gate task
        for t in 0..6 {
            pool.submit(NO_DEADLINE, t).unwrap();
        }
        wait_until("the free worker left tasks queued", || rec.order.lock().unwrap().len() == 6);
        assert_eq!(*rec.order.lock().unwrap(), (0..6).collect::<Vec<_>>(), "FIFO, each once");
        assert_eq!(rec.ran.load(Ordering::SeqCst), 6, "the gate task is still parked");
        rec.open_gate();
        rec.wait_ran(7);
    }

    #[test]
    fn queue_wait_histogram_records_every_pop() {
        let rec = Recorder::new();
        rec.open_gate();
        let pool = recording_pool(2, 16, &rec);
        for t in 0..10 {
            pool.submit(NO_DEADLINE, t).unwrap();
        }
        rec.wait_ran(10);
        let waits = pool.queue_wait_snapshot();
        assert_eq!(waits.count(), 10, "every pop recorded");
        assert!(waits.quantile(1.0) <= waits.max());
    }

    #[test]
    fn pinning_cycles_the_allowed_cpus() {
        assert_eq!(DetectionPool::new(3, 4, false).placement, vec![None; 3]);
        let cpus = affinity::allowed_cpus();
        let expect: Vec<Option<usize>> =
            (0..3).map(|k| (!cpus.is_empty()).then(|| cpus[k % cpus.len()])).collect();
        assert_eq!(DetectionPool::new(3, 4, true).placement, expect);
    }

    #[test]
    fn workers_are_named_by_index() {
        let names = Arc::new(Mutex::new(Vec::new()));
        let pool = DetectionPool::new(2, 4, false);
        let seen = Arc::clone(&names);
        // Each task waits for the other, so the two run on different
        // workers.
        let both = Arc::new(std::sync::Barrier::new(2));
        pool.spawn(move |_, _| {
            let name = std::thread::current().name().unwrap_or("<unnamed>").to_string();
            seen.lock().unwrap().push(name);
            both.wait();
        });
        pool.submit(NO_DEADLINE, 0).unwrap();
        pool.submit(NO_DEADLINE, 1).unwrap();
        wait_until("tasks never ran", || names.lock().unwrap().len() == 2);
        let mut seen = names.lock().unwrap().clone();
        seen.sort();
        assert_eq!(seen, vec!["gs-worker0".to_string(), "gs-worker1".to_string()]);
    }

    #[test]
    fn worker_panic_poisons_the_pool() {
        let pool = DetectionPool::new(1, 4, false);
        pool.spawn(|_, _| panic!("intentional test panic"));
        pool.submit(NO_DEADLINE, 0).unwrap();
        wait_until("dead flag never set", || pool.is_dead());
        assert_eq!(
            pool.submit(NO_DEADLINE, 1),
            Err(StreamDead),
            "a dead pool must refuse further tasks with a typed error"
        );
        drop(pool); // must not hang joining the dead worker's siblings
    }

    #[test]
    fn heap_capacity_is_enforced() {
        let rec = Recorder::new();
        let pool = recording_pool(1, 2, &rec);
        pool.submit(0, usize::MAX).unwrap(); // parks the worker
        wait_queue_empty(&pool); // the gate task is running, queue empty
        pool.submit(1, 1).unwrap();
        pool.submit(2, 2).unwrap();
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.submit(3, 3);
        }));
        assert!(overflow.is_err(), "submitting past capacity must fail fast");
        rec.open_gate();
        rec.wait_ran(3);
    }
}

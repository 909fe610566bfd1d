//! The stream's executor: one earliest-deadline-first queue per shard,
//! workers pinned inside their shard's memory domain, and one job that
//! every task runs. See the crate docs for how the stream uses it.

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
    /// Per-shard arrival ordinal: the tie-break that keeps equal-deadline
    /// (and deadline-free) tasks FIFO.
    arrival: u64,
    slot: usize,
    /// [`gs_prof::ticks`] at submit (`0` with profiling compiled out): the
    /// popping worker attributes the submit→pop time to
    /// [`gs_prof::Stage::Queue`].
    submitted_at: u64,
    /// Wall-clock submit stamp, always recorded: the popping worker feeds
    /// the submit→pop wait into the shard's queue-wait histogram.
    submitted_wall: Instant,
    /// The submitter's flight-recorder identity, adopted by the popping
    /// worker for the span of the job.
    trace_ctx: gtrace::FrameCtx,
}

// `BinaryHeap` pops its maximum, so tasks compare by reversed
// `(key, arrival)`: the earliest deadline, then the earliest arrival, is
// the maximum. `arrival` is unique per shard, so this is a total order.
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

struct ShardQueue {
    heap: BinaryHeap<Task>,
    arrivals: u64,
    shutdown: bool,
}

struct ShardState {
    q: Mutex<ShardQueue>,
    cv: Condvar,
    /// Submit→pop wall wait per task, in nanoseconds.
    queue_wait: LogHistogram,
}

/// The queues and the dead flag, shared by the pool and its workers.
struct Queues {
    shards: Vec<ShardState>,
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

/// The domain-sharded worker pool. [`ShardedDetectionPool::new`] sizes
/// and places it, [`ShardedDetectionPool::spawn`] starts the workers with
/// the pool's one job, and [`ShardedDetectionPool::submit`] queues a slot
/// on a shard.
pub(crate) struct ShardedDetectionPool {
    queues: Arc<Queues>,
    /// Each worker's `(shard, CPU to pin it to)`.
    placement: Vec<(usize, Option<usize>)>,
    /// Behind a mutex so the owner can join the workers by `&self`.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ShardedDetectionPool {
    /// Sizes a pool of `workers` (≥ 1) spread round-robin over `shards`
    /// queues of `capacity` tasks each; no thread starts until
    /// [`ShardedDetectionPool::spawn`].
    ///
    /// `shards == 0` resolves to one shard per memory domain; any count is
    /// clamped to `1..=workers` so every shard owns a worker. Shard `s`
    /// draws its CPUs from domain `s mod n_domains`, and shards sharing a
    /// domain partition its CPUs ([`shard_cpu_slice`]). With `pin`, worker
    /// `k` of a shard is pinned to the shard's `k mod |cpus|`-th CPU,
    /// best-effort.
    pub(crate) fn new(shards: usize, workers: usize, capacity: usize, pin: bool) -> Self {
        let n_workers = workers.max(1);
        let domains = affinity::memory_domains();
        let n_domains = domains.len();
        let n_shards = if shards == 0 { n_domains } else { shards }.clamp(1, n_workers);
        let shard_cpus: Vec<Vec<usize>> = (0..n_shards)
            .map(|s| {
                if !pin {
                    return Vec::new();
                }
                // Shards mapped to this domain, and this shard's rank
                // among them.
                let siblings = (n_shards - s % n_domains).div_ceil(n_domains);
                shard_cpu_slice(&domains[s % n_domains], siblings, s / n_domains)
            })
            .collect();
        let placement = (0..n_workers)
            .map(|w| {
                let cpus = &shard_cpus[w % n_shards];
                (w % n_shards, (!cpus.is_empty()).then(|| cpus[(w / n_shards) % cpus.len()]))
            })
            .collect();
        let shards = (0..n_shards)
            .map(|_| ShardState {
                q: Mutex::new(ShardQueue {
                    heap: BinaryHeap::with_capacity(capacity.max(1)),
                    arrivals: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
                queue_wait: LogHistogram::new(),
            })
            .collect();
        ShardedDetectionPool {
            queues: Arc::new(Queues { shards, dead: AtomicBool::new(false) }),
            placement,
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Starts the workers, once per pool. Each runs `job(slot, ws)` for
    /// every task it pops, with `ws` its long-lived detector workspace.
    /// Worker `k` of shard `s` is named `gs-shard{s}-w{k}`.
    pub(crate) fn spawn<J>(&self, job: J)
    where
        J: Fn(usize, &mut DetectorWorkspace) + Clone + Send + 'static,
    {
        let n_shards = self.shards();
        let mut handles = lock(&self.handles);
        for (w, &(shard, cpu)) in self.placement.iter().enumerate() {
            let queues = Arc::clone(&self.queues);
            let job = job.clone();
            let handle = std::thread::Builder::new()
                .name(format!("gs-shard{shard}-w{}", w / n_shards))
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        // Best-effort: a rejected mask leaves the worker
                        // unpinned, never broken.
                        affinity::pin_current_thread(cpu);
                    }
                    worker_loop(&queues, shard, &job)
                })
                .expect("spawn shard worker");
            handles.push(handle);
        }
    }

    /// Stops every worker and joins them from the calling thread.
    /// Idempotent; also invoked by `Drop`. Queued tasks no worker has
    /// picked up are discarded; a task already running finishes first.
    /// Must not be called from a worker (it would join itself).
    pub(crate) fn shutdown_and_join(&self) {
        for state in &self.queues.shards {
            lock(&state.q).shutdown = true;
            state.cv.notify_all();
        }
        let handles = std::mem::take(&mut *lock(&self.handles));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The resolved shard count.
    pub(crate) fn shards(&self) -> usize {
        self.queues.shards.len()
    }

    /// The total worker count.
    pub(crate) fn workers(&self) -> usize {
        self.placement.len()
    }

    /// Whether a worker has panicked. A dead pool refuses every task, and
    /// the tasks a dead worker held never complete.
    pub(crate) fn is_dead(&self) -> bool {
        self.queues.dead.load(Ordering::SeqCst)
    }

    /// Queues `slot` on `shard` with EDF key `key` ([`NO_DEADLINE`] for
    /// deadline-free FIFO). Never allocates.
    ///
    /// Returns [`StreamDead`] when a worker has panicked: the pool will
    /// never run the task.
    ///
    /// # Panics
    /// Panics when the shard queue already holds `capacity` tasks (an
    /// owner bug: capacity must bound the owner's in-flight frames).
    pub(crate) fn submit(&self, shard: usize, key: u64, slot: usize) -> Result<(), StreamDead> {
        if self.is_dead() {
            return Err(StreamDead);
        }
        let state = &self.queues.shards[shard];
        // Capture the submitter's frame identity and stamp the enqueue on
        // the flight recorder (no-ops without an ambient context).
        let trace_ctx = gtrace::FrameCtx { shard: shard as u16, ..gtrace::context() };
        if trace_ctx.frame != gtrace::NO_FRAME {
            gtrace::emit_for(gtrace::TracePoint::Enqueue, gtrace::EventKind::Instant, trace_ctx);
        }
        let mut q = lock(&state.q);
        // At capacity a push would reallocate the heap.
        assert!(
            q.heap.len() < q.heap.capacity(),
            "shard queue over capacity: submit more slots than the pool was sized for"
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
        state.cv.notify_one();
        Ok(())
    }

    /// Every shard's queued-task count, in shard order, each read under
    /// its queue lock. Allocates; a scrape-time call.
    pub(crate) fn queue_depths(&self) -> Vec<usize> {
        self.queues.shards.iter().map(|s| lock(&s.q).heap.len()).collect()
    }

    /// Per-shard snapshots of the submit→pop queue-wait histograms
    /// (nanoseconds), in shard order. Allocates; a scrape-time call.
    pub(crate) fn queue_wait_snapshots(&self) -> Vec<HistogramSnapshot> {
        self.queues.shards.iter().map(|s| s.queue_wait.snapshot()).collect()
    }
}

impl Drop for ShardedDetectionPool {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// The CPUs of one domain assigned to the `rank`-th of `siblings` shards
/// sharing it: a contiguous, disjoint, non-empty slice when the domain has
/// at least one CPU per sibling; a round-robin single CPU otherwise
/// (overlap is then unavoidable).
fn shard_cpu_slice(cpus: &[usize], siblings: usize, rank: usize) -> Vec<usize> {
    if cpus.len() >= siblings {
        let lo = rank * cpus.len() / siblings;
        let hi = (rank + 1) * cpus.len() / siblings;
        cpus[lo..hi].to_vec()
    } else {
        vec![cpus[rank % cpus.len()]]
    }
}

fn worker_loop(queues: &Queues, shard: usize, job: &impl Fn(usize, &mut DetectorWorkspace)) {
    let state = &queues.shards[shard];
    let mut ws = DetectorWorkspace::new();
    loop {
        let task = {
            let mut q = lock(&state.q);
            loop {
                // Shutdown wins over queued work: un-started tasks are
                // discarded (their frames are being abandoned).
                if q.shutdown {
                    return;
                }
                if let Some(task) = q.heap.pop() {
                    break task;
                }
                q = state.cv.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        gs_prof::record(
            gs_prof::Stage::Queue,
            gs_prof::ticks().saturating_sub(task.submitted_at),
            1,
            0,
        );
        state.queue_wait.record_duration(task.submitted_wall.elapsed());
        // Stamp the EDF pop and adopt the frame's identity for the span
        // of the job (the stream's detect scope reads it ambiently).
        if task.trace_ctx.frame != gtrace::NO_FRAME {
            gtrace::emit_for(gtrace::TracePoint::Pop, gtrace::EventKind::Instant, task.trace_ctx);
        }
        gtrace::set_context(task.trace_ctx);
        // A panicking job must mark the pool dead rather than silently
        // dropping the task (its frame would otherwise wait forever).
        let guard = DeadOnPanic(&queues.dead);
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
    fn recording_pool(
        shards: usize,
        workers: usize,
        capacity: usize,
        rec: &Arc<Recorder>,
    ) -> ShardedDetectionPool {
        let pool = ShardedDetectionPool::new(shards, workers, capacity, false);
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

    /// Spin until every shard queue is drained (tasks may still be
    /// running; only queue occupancy is awaited).
    fn wait_queues_empty(pool: &ShardedDetectionPool) {
        wait_until("queues never drained", || pool.queue_depths().iter().all(|&d| d == 0));
    }

    #[test]
    fn edf_orders_within_a_shard() {
        let rec = Recorder::new();
        let pool = recording_pool(1, 1, 16, &rec);
        assert_eq!(pool.shards(), 1);
        // Occupy the single worker so the rest queue up (wait until the
        // gate task has been popped, so the depths below are exact).
        pool.submit(0, 0, usize::MAX).unwrap();
        wait_queues_empty(&pool);
        // Mixed submission order: late deadline, none, early deadline,
        // another none, mid deadline.
        pool.submit(0, 900, 1).unwrap();
        pool.submit(0, NO_DEADLINE, 2).unwrap();
        pool.submit(0, 100, 3).unwrap();
        pool.submit(0, NO_DEADLINE, 4).unwrap();
        pool.submit(0, 500, 5).unwrap();
        assert_eq!(pool.queue_depths(), vec![5]);

        rec.open_gate();
        rec.wait_ran(6);
        // EDF: deadlines ascending first, then deadline-free FIFO.
        assert_eq!(*rec.order.lock().unwrap(), vec![3, 5, 1, 2, 4]);
        assert_eq!(pool.queue_depths(), vec![0]);
    }

    #[test]
    fn queue_wait_histograms_record_every_pop() {
        let rec = Recorder::new();
        rec.open_gate();
        let pool = recording_pool(2, 2, 8, &rec);
        for t in 0..10 {
            pool.submit(t % 2, NO_DEADLINE, t).unwrap();
        }
        rec.wait_ran(10);
        let waits = pool.queue_wait_snapshots();
        assert_eq!(waits.len(), 2, "one histogram per shard");
        assert_eq!(waits.iter().map(|h| h.count()).sum::<u64>(), 10, "every pop recorded");
        let mut merged = HistogramSnapshot::empty();
        for w in &waits {
            merged.merge(w);
        }
        assert_eq!(merged.count(), 10);
        assert!(merged.quantile(1.0) <= merged.max());
    }

    #[test]
    fn all_shards_execute_and_clamp_to_workers() {
        // 5 shards requested but only 2 workers → clamped to 2 shards.
        let rec = Recorder::new();
        rec.open_gate();
        let pool = recording_pool(5, 2, 8, &rec);
        assert_eq!(pool.shards(), 2);
        assert_eq!(pool.workers(), 2);
        for t in 0..8 {
            pool.submit(t % 2, NO_DEADLINE, t).unwrap();
        }
        rec.wait_ran(8);
        let mut ran: Vec<usize> = rec.order.lock().unwrap().clone();
        ran.sort_unstable();
        assert_eq!(ran, (0..8).collect::<Vec<_>>(), "every task ran exactly once");
    }

    #[test]
    fn sibling_shards_partition_a_shared_domain() {
        // 8-core single domain shared by 2 shards: disjoint halves, every
        // CPU covered — sibling shards must never stack on the same cores
        // while others idle.
        let cpus: Vec<usize> = (0..8).collect();
        assert_eq!(shard_cpu_slice(&cpus, 2, 0), vec![0, 1, 2, 3]);
        assert_eq!(shard_cpu_slice(&cpus, 2, 1), vec![4, 5, 6, 7]);
        // Uneven split (3 siblings over 8 CPUs): disjoint, non-empty,
        // covering.
        let slices: Vec<Vec<usize>> = (0..3).map(|r| shard_cpu_slice(&cpus, 3, r)).collect();
        let flat: Vec<usize> = slices.iter().flatten().copied().collect();
        assert_eq!(flat, cpus, "partition covers every CPU exactly once, in order");
        assert!(slices.iter().all(|s| !s.is_empty()));
        // More siblings than CPUs: single round-robin CPU each.
        let tiny = vec![5, 9];
        assert_eq!(shard_cpu_slice(&tiny, 3, 0), vec![5]);
        assert_eq!(shard_cpu_slice(&tiny, 3, 1), vec![9]);
        assert_eq!(shard_cpu_slice(&tiny, 3, 2), vec![5]);
    }

    #[test]
    fn auto_shards_follow_memory_domains() {
        let pool = ShardedDetectionPool::new(0, 4, 4, false);
        assert_eq!(pool.shards(), affinity::memory_domains().len().clamp(1, 4));
    }

    #[test]
    fn workers_are_named_by_shard_and_rank() {
        let names = Arc::new(Mutex::new(Vec::new()));
        let pool = ShardedDetectionPool::new(2, 2, 4, false);
        let seen = Arc::clone(&names);
        // Slot `s` is queued on shard `s`.
        pool.spawn(move |slot, _| {
            let name = std::thread::current().name().unwrap_or("<unnamed>").to_string();
            seen.lock().unwrap().push((slot, name));
        });
        pool.submit(0, NO_DEADLINE, 0).unwrap();
        pool.submit(1, NO_DEADLINE, 1).unwrap();
        wait_until("tasks never ran", || names.lock().unwrap().len() == 2);
        let mut seen = names.lock().unwrap().clone();
        seen.sort();
        assert_eq!(seen, vec![(0, "gs-shard0-w0".into()), (1, "gs-shard1-w0".into())]);
    }

    #[test]
    fn worker_panic_poisons_the_pool() {
        let pool = ShardedDetectionPool::new(1, 1, 4, false);
        pool.spawn(|_, _| panic!("intentional test panic"));
        pool.submit(0, NO_DEADLINE, 0).unwrap();
        wait_until("dead flag never set", || pool.is_dead());
        assert_eq!(
            pool.submit(0, NO_DEADLINE, 1),
            Err(StreamDead),
            "a dead pool must refuse further tasks with a typed error"
        );
        drop(pool); // must not hang joining the dead worker's siblings
    }

    #[test]
    fn heap_capacity_is_enforced() {
        let rec = Recorder::new();
        let pool = recording_pool(1, 1, 2, &rec);
        pool.submit(0, 0, usize::MAX).unwrap(); // parks the worker
        wait_queues_empty(&pool); // the gate task is running, queue empty
        pool.submit(0, 1, 1).unwrap();
        pool.submit(0, 2, 2).unwrap();
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.submit(0, 3, 3);
        }));
        assert!(overflow.is_err(), "submitting past capacity must fail fast");
        rec.open_gate();
        rec.wait_ran(3);
    }
}

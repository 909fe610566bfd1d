//! Domain-sharded detection dispatch — the workspace's one detection
//! thread pool.
//!
//! The streaming base-station runtime (`gs-runtime`) runs on
//! [`ShardedDetectionPool`]: many frames are in flight at once, and the
//! pool's workers run each of them from plan to delivery. A one-frame
//! decode (`gs-phy`'s `decode_frame_batched_into`) detects inline on the
//! calling thread; experiment sweeps parallelize across independent
//! operating points instead (`gs-sim`'s `ExperimentParams::map_points`).
//!
//! The pool is split along the machine's **memory domains** (NUMA nodes —
//! [`crate::affinity::memory_domains`], with a flat single-domain fallback
//! and a `GS_DOMAINS` override):
//!
//! * **one job queue per shard**, so cross-domain queue traffic never sits
//!   on a detection hot path — submission targets a shard explicitly and
//!   workers only ever pop from their own domain's queue;
//! * **workers pinned inside their shard's domain** (round-robin over the
//!   domain's allowed CPUs, [`crate::affinity`] semantics, `GS_NO_PIN`
//!   opt-out), so a worker's search workspace and its shard's channel
//!   replica stay in domain-local memory;
//! * **earliest-deadline-first ordering within each shard**: tasks carry a
//!   `u64` deadline key and each shard queue is a min-heap on
//!   `(deadline_key, arrival)`. Tasks without a deadline use
//!   [`NO_DEADLINE`] and therefore run after every deadline-bearing task,
//!   FIFO among themselves.
//!
//! The pool is deliberately **frame-agnostic**: a task is an
//! `Arc<dyn ShardedJob>` plus an opaque `token`, and [`ShardedJob::run_shard`]
//! does whatever "run my shard's part" means for the embedder
//! (`gs-runtime` implements it over its slot table — plan, detect and
//! recover). The runtime cuts each frame into per-shard portions whose
//! channel-table replicas are refreshed by the shard's own worker, so
//! first-touch places them on the right domain.
//! Submitting clones the `Arc` (a refcount bump) and pushes into a
//! fixed-capacity heap — **zero heap allocations per task** once the pool
//! is constructed, which is what lets the streaming runtime keep PR 3's
//! allocation discipline in steady state.
//!
//! A panicking worker poisons the pool ([`ShardedDetectionPool::is_poisoned`])
//! instead of hanging its siblings; submissions against a poisoned pool are
//! refused with the typed [`PoolPoisoned`] error, and embedders poll the
//! flag from their completion waits to surface the failure as a typed
//! "stream dead" condition of their own. Fault-injection campaigns can
//! kill a worker on a chosen task pop via
//! [`ShardedDetectionPool::inject_worker_panic_after`].

use crate::detector::DetectorWorkspace;
use gs_prof::hist::{HistogramSnapshot, LogHistogram};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Deadline key meaning "no deadline": sorts after every real deadline, so
/// deadline-free tasks run FIFO behind deadline-bearing ones.
pub const NO_DEADLINE: u64 = u64::MAX;

/// Typed refusal from [`ShardedDetectionPool::submit`]: a worker panicked
/// (organically, or via [`ShardedDetectionPool::inject_worker_panic_after`])
/// and the pool will never run another task. Embedders translate this into
/// their own "stream is dead" error instead of unwinding the submitting
/// thread, which is what lets fault-injection campaigns record worker loss
/// as a scenario *outcome*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolPoisoned;

impl std::fmt::Display for PoolPoisoned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sharded detection pool is poisoned: a worker panicked")
    }
}

impl std::error::Error for PoolPoisoned {}

/// A unit of shard work: the embedder's view of "run my portion of shard
/// `shard` for the frame identified by `token`".
///
/// Implementations must be safe to invoke from any pool worker and for
/// several `(shard, token)` pairs concurrently — the pool guarantees only
/// that each *submitted task* is run exactly once, on a worker pinned to
/// the task's shard. A running task may [`ShardedDetectionPool::submit`]
/// follow-up tasks to any shard (the runtime fans a frame's portions out
/// this way), but must never wait for them: its own shard's worker may be
/// the one to run them.
pub trait ShardedJob: Send + Sync {
    /// Runs the portion. `ws` is the worker's long-lived detector
    /// workspace, reused across every task the worker ever runs — the
    /// warm-up surface of the zero-allocation contract.
    fn run_shard(&self, shard: usize, token: usize, ws: &mut DetectorWorkspace);
}

/// One queued task: EDF key, arrival tie-break, embedder token, job.
struct Task {
    key: u64,
    arrival: u64,
    token: usize,
    job: Arc<dyn ShardedJob>,
    /// Profiling stamp ([`gs_prof::ticks`] at submit; `0` with profiling
    /// compiled out) — the popping worker attributes the submit→pop wall
    /// time to [`gs_prof::Stage::Queue`], preserving per-frame attribution
    /// across the cross-thread handoff.
    submitted_at: u64,
    /// Wall-clock submit stamp for the telemetry tier: unlike
    /// `submitted_at` this is **always** recorded — the popping worker
    /// feeds the submit→pop wait into the shard's queue-wait histogram
    /// regardless of whether the cycle profiler is compiled in.
    submitted_wall: Instant,
    /// Flight-recorder identity captured from the submitter's ambient
    /// context, so the popping worker can stamp its pop instant and set
    /// its own context before running the job ([`gs_prof::trace::FrameCtx::NONE`]
    /// when no context was set or the recorder is compiled out).
    trace_ctx: gs_prof::trace::FrameCtx,
}

impl Task {
    #[inline]
    fn order(&self) -> (u64, u64) {
        (self.key, self.arrival)
    }
}

/// A fixed-capacity binary min-heap on `(key, arrival)`. Hand-rolled so
/// pushes never allocate: `std::collections::BinaryHeap` offers no way to
/// cap growth, and the streaming runtime's steady state must not touch the
/// allocator per task.
struct EdfHeap {
    tasks: Vec<Task>,
}

impl EdfHeap {
    fn with_capacity(capacity: usize) -> Self {
        EdfHeap { tasks: Vec::with_capacity(capacity) }
    }

    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn push(&mut self, task: Task) {
        assert!(
            self.tasks.len() < self.tasks.capacity(),
            "shard queue over capacity: submit more slots than the pool was sized for"
        );
        self.tasks.push(task);
        let mut i = self.tasks.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.tasks[i].order() >= self.tasks[parent].order() {
                break;
            }
            self.tasks.swap(i, parent);
            i = parent;
        }
    }

    fn pop_min(&mut self) -> Option<Task> {
        if self.tasks.is_empty() {
            return None;
        }
        let last = self.tasks.len() - 1;
        self.tasks.swap(0, last);
        let min = self.tasks.pop();
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < self.tasks.len() && self.tasks[l].order() < self.tasks[smallest].order() {
                smallest = l;
            }
            if r < self.tasks.len() && self.tasks[r].order() < self.tasks[smallest].order() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.tasks.swap(i, smallest);
            i = smallest;
        }
        min
    }
}

struct ShardQueue {
    heap: EdfHeap,
    /// Monotone arrival counter — the EDF tie-break that keeps
    /// equal-deadline (and deadline-free) tasks FIFO.
    arrivals: u64,
    shutdown: bool,
}

struct ShardState {
    q: Mutex<ShardQueue>,
    cv: Condvar,
    /// Mirrors `heap.len()` so stats snapshots never contend on `q`.
    depth: AtomicUsize,
    /// Submit→pop wall wait per task, in nanoseconds. Recorded by the
    /// popping worker (atomic bucket increments, allocation-free), merged
    /// at scrape time by [`ShardedDetectionPool::queue_wait_snapshots`].
    queue_wait: LogHistogram,
    /// Lifetime count of tasks popped from this shard's queue — the clock
    /// the fault-injection hook is armed against.
    pops: AtomicU64,
    /// Fault-injection arming: the 1-based pop ordinal at which the
    /// popping worker panics *instead of* running its task (`0` =
    /// disarmed). See [`ShardedDetectionPool::inject_worker_panic_after`].
    fault_at_pop: AtomicU64,
}

/// Marks the pool poisoned even when the worker unwinds through a
/// panicking job.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
            // Black-box the worker death (injected or organic) against
            // the frame it was holding before the pool winds down.
            gs_prof::trace::emit(gs_prof::trace::TracePoint::Fault);
            gs_prof::trace::trigger(
                gs_prof::trace::Trigger::Fault,
                gs_prof::trace::context().frame,
            );
        }
    }
}

/// The domain-sharded streaming worker pool. See the module docs for the
/// design; construct with [`ShardedDetectionPool::new`], target a shard
/// with [`ShardedDetectionPool::submit`].
pub struct ShardedDetectionPool {
    shards: Vec<Arc<ShardState>>,
    poisoned: Arc<AtomicBool>,
    /// Behind a mutex so [`ShardedDetectionPool::shutdown_and_join`] can
    /// drain them by `&self`: embedders that share the pool behind an
    /// `Arc` must be able to join the workers from a thread of their
    /// choosing *before* the last `Arc` drops (a worker thread must never
    /// end up joining itself out of `Drop`).
    handles: Mutex<Vec<JoinHandle<()>>>,
    n_workers: usize,
}

impl ShardedDetectionPool {
    /// Spawns `workers` threads (≥ 1) spread round-robin over `shards`
    /// queues, each shard capped at `capacity` queued tasks. Worker `k` of
    /// shard `s` is named `gs-shard{s}-w{k}`.
    ///
    /// `shards == 0` resolves to one shard per discovered memory domain
    /// ([`crate::affinity::memory_domains`], honouring `GS_DOMAINS`); any
    /// requested count is clamped to `1..=workers` so every shard owns at
    /// least one worker. Workers are pinned inside their shard's domain
    /// unless `GS_NO_PIN` opts out.
    pub fn new(shards: usize, workers: usize, capacity: usize) -> Self {
        Self::new_with_pinning(
            shards,
            workers,
            capacity,
            !crate::affinity::pinning_disabled_by_env(),
        )
    }

    /// [`ShardedDetectionPool::new`] with explicit pinning control (the
    /// env-independent form for tests and embedders that place threads
    /// themselves). Shard `s` draws its CPUs from domain `s mod n_domains`;
    /// when several shards share one domain (more shards than domains),
    /// the domain's CPUs are **partitioned** among those shards, so
    /// sibling shards never pin onto the same cores while others idle.
    /// Worker `k` of a shard is pinned to the shard's `k mod |cpus|`-th
    /// CPU, best-effort.
    pub fn new_with_pinning(shards: usize, workers: usize, capacity: usize, pin: bool) -> Self {
        let n_workers = workers.max(1);
        let domains = crate::affinity::memory_domains();
        let n_shards = if shards == 0 { domains.len() } else { shards }.clamp(1, n_workers);
        let n_domains = domains.len();
        let shard_cpus: Vec<Vec<usize>> = (0..n_shards)
            .map(|s| {
                if !pin {
                    return Vec::new();
                }
                let cpus = &domains[s % n_domains];
                // Shards mapped to this domain, and this shard's rank
                // among them.
                let siblings = (n_shards - s % n_domains).div_ceil(n_domains);
                let rank = s / n_domains;
                shard_cpu_slice(cpus, siblings, rank)
            })
            .collect();

        let shard_states: Vec<Arc<ShardState>> = (0..n_shards)
            .map(|_| {
                Arc::new(ShardState {
                    q: Mutex::new(ShardQueue {
                        heap: EdfHeap::with_capacity(capacity.max(1)),
                        arrivals: 0,
                        shutdown: false,
                    }),
                    cv: Condvar::new(),
                    depth: AtomicUsize::new(0),
                    queue_wait: LogHistogram::new(),
                    pops: AtomicU64::new(0),
                    fault_at_pop: AtomicU64::new(0),
                })
            })
            .collect();

        let poisoned = Arc::new(AtomicBool::new(false));
        let handles = (0..n_workers)
            .map(|w| {
                let shard = w % n_shards;
                let state = Arc::clone(&shard_states[shard]);
                let poisoned = Arc::clone(&poisoned);
                let k = w / n_shards;
                let cpus = &shard_cpus[shard];
                let cpu = if cpus.is_empty() { None } else { Some(cpus[k % cpus.len()]) };
                std::thread::Builder::new()
                    .name(format!("gs-shard{shard}-w{k}"))
                    .spawn(move || {
                        if let Some(cpu) = cpu {
                            // Best-effort: a rejected mask leaves the worker
                            // unpinned, never broken.
                            crate::affinity::pin_current_thread(cpu);
                        }
                        shard_worker_loop(&state, &poisoned, shard)
                    })
                    .expect("spawn shard worker")
            })
            .collect();

        ShardedDetectionPool {
            shards: shard_states,
            poisoned,
            handles: Mutex::new(handles),
            n_workers,
        }
    }

    /// Stops every worker and joins them from the calling thread.
    /// Idempotent; also invoked by `Drop`. Queued tasks that no worker has
    /// picked up yet are discarded (their `Arc`s dropped); the task a
    /// worker is currently running finishes first.
    ///
    /// Must not be called from a pool worker (a worker would join itself);
    /// embedders whose jobs reach the pool (to submit follow-up tasks) must
    /// keep this call on their own threads.
    pub fn shutdown_and_join(&self) {
        for state in &self.shards {
            lock_ignoring_poison(&state.q).shutdown = true;
            state.cv.notify_all();
        }
        let handles = std::mem::take(&mut *lock_ignoring_poison(&self.handles));
        for h in handles {
            let _ = h.join();
        }
    }

    /// The resolved shard count.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The pool's total worker count.
    pub fn workers(&self) -> usize {
        self.n_workers
    }

    /// Whether a worker has panicked. A poisoned pool rejects further
    /// submissions; embedders waiting on task completions must poll this
    /// (the dead worker's tasks will never complete).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Arms the fault-injection hook on `shard`: the worker popping that
    /// shard's `pops`-th task *from now* (1-based) panics with an
    /// "injected worker fault" **instead of** running the task, flowing
    /// through the ordinary poisoning machinery — exactly what an
    /// organic worker crash looks like from the embedder's side.
    ///
    /// With one worker per shard and lockstep submission the panicking
    /// pop ordinal is fully deterministic, which is what the seeded
    /// fault-injection campaigns rely on. `pops == 0` disarms. This hook
    /// exists **only** for fault-injection scenarios; production
    /// embedders must never call it.
    pub fn inject_worker_panic_after(&self, shard: usize, pops: u64) {
        let state = &self.shards[shard];
        let target = if pops == 0 { 0 } else { state.pops.load(Ordering::SeqCst) + pops };
        state.fault_at_pop.store(target, Ordering::SeqCst);
    }

    /// Enqueues `(token, job)` on `shard` with EDF key `key`
    /// ([`NO_DEADLINE`] for deadline-free FIFO). Clones the `Arc` — never
    /// allocates.
    ///
    /// Returns [`PoolPoisoned`] when a worker has panicked — the pool
    /// will never run the task, so the caller must treat the stream as
    /// dead rather than retry.
    ///
    /// # Panics
    /// Panics when the shard queue is over its construction-time capacity
    /// (an embedder bug, not a load condition: capacity must bound the
    /// embedder's in-flight frames).
    pub fn submit(
        &self,
        shard: usize,
        key: u64,
        token: usize,
        job: &Arc<dyn ShardedJob>,
    ) -> Result<(), PoolPoisoned> {
        if self.is_poisoned() {
            return Err(PoolPoisoned);
        }
        let state = &self.shards[shard];
        // Capture the submitter's frame identity and stamp the enqueue on
        // the flight recorder (no-ops without an ambient context).
        let trace_ctx =
            gs_prof::trace::FrameCtx { shard: shard as u16, ..gs_prof::trace::context() };
        if trace_ctx.frame != gs_prof::trace::NO_FRAME {
            gs_prof::trace::emit_for(
                gs_prof::trace::TracePoint::Enqueue,
                gs_prof::trace::EventKind::Instant,
                trace_ctx,
            );
        }
        let mut q = lock_ignoring_poison(&state.q);
        let arrival = q.arrivals;
        q.arrivals += 1;
        let submitted_at = gs_prof::ticks();
        let submitted_wall = Instant::now();
        q.heap.push(Task {
            key,
            arrival,
            token,
            job: Arc::clone(job),
            submitted_at,
            submitted_wall,
            trace_ctx,
        });
        state.depth.store(q.heap.len(), Ordering::Relaxed);
        drop(q);
        state.cv.notify_one();
        Ok(())
    }

    /// Snapshot of every shard's queued-task count, written into `out`
    /// (cleared first; allocation-free once `out` has capacity).
    pub fn queue_depths(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.shards.iter().map(|s| s.depth.load(Ordering::Relaxed)));
    }

    /// Per-shard snapshots of the submit→pop queue-wait histograms
    /// (nanoseconds), in shard order. Allocates — a scrape-time call; the
    /// recording side is the workers' allocation-free bucket increments.
    pub fn queue_wait_snapshots(&self) -> Vec<HistogramSnapshot> {
        self.shards.iter().map(|s| s.queue_wait.snapshot()).collect()
    }
}

impl Drop for ShardedDetectionPool {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Poison-tolerant lock: poisoning and panic marks carry worker failures.
pub(crate) fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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

fn shard_worker_loop(state: &ShardState, poisoned: &AtomicBool, shard: usize) {
    let mut ws = DetectorWorkspace::new();
    loop {
        let task = {
            let mut q = lock_ignoring_poison(&state.q);
            loop {
                // Shutdown wins over queued work: the contract is that
                // un-started tasks are *discarded* on shutdown (their
                // frames are being abandoned), not drained — only the
                // task a worker already holds finishes.
                if q.shutdown {
                    return;
                }
                if let Some(task) = q.heap.pop_min() {
                    state.depth.store(q.heap.len(), Ordering::Relaxed);
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
        // of the job (the runtime's detect scope reads it ambiently).
        if task.trace_ctx.frame != gs_prof::trace::NO_FRAME {
            gs_prof::trace::emit_for(
                gs_prof::trace::TracePoint::Pop,
                gs_prof::trace::EventKind::Instant,
                task.trace_ctx,
            );
        }
        gs_prof::trace::set_context(task.trace_ctx);
        // A panicking job must mark the pool dead rather than silently
        // dropping the task (its frame would otherwise wait forever).
        let guard = PoisonOnPanic(poisoned);
        let ordinal = state.pops.fetch_add(1, Ordering::SeqCst) + 1;
        let armed = state.fault_at_pop.load(Ordering::SeqCst);
        if armed != 0 && ordinal >= armed {
            // Injected fault: die *before* the task runs, so its frame is
            // lost exactly as it would be under an organic worker crash.
            panic!("injected worker fault (shard {shard}, pop {ordinal})");
        }
        task.job.run_shard(shard, task.token, &mut ws);
        drop(guard);
        gs_prof::trace::clear_context();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// Records the order tokens were executed in.
    struct Recorder {
        order: Mutex<Vec<usize>>,
        ran: AtomicU64,
        /// Blocks the first task long enough for later submissions to
        /// queue up behind it, making the EDF pop order observable.
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

        fn open_gate(&self) {
            *self.gate.lock().unwrap() = true;
            self.gate_cv.notify_all();
        }

        fn wait_ran(&self, n: u64) {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while self.ran.load(Ordering::SeqCst) < n {
                assert!(std::time::Instant::now() < deadline, "tasks never completed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Spin until every shard queue is drained (tasks may still be
    /// *running*; only queue occupancy is awaited).
    fn wait_queues_empty(pool: &ShardedDetectionPool) {
        let mut depths = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            pool.queue_depths(&mut depths);
            if depths.iter().all(|&d| d == 0) {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "queues never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    impl ShardedJob for Recorder {
        fn run_shard(&self, _shard: usize, token: usize, _ws: &mut DetectorWorkspace) {
            if token == usize::MAX {
                // The gate task: park until the test opens the gate.
                let mut open = self.gate.lock().unwrap();
                while !*open {
                    open = self.gate_cv.wait(open).unwrap();
                }
            } else {
                self.order.lock().unwrap().push(token);
            }
            self.ran.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn edf_orders_within_a_shard() {
        let pool = ShardedDetectionPool::new_with_pinning(1, 1, 16, false);
        assert_eq!(pool.shards(), 1);
        let rec = Recorder::new();
        let job: Arc<dyn ShardedJob> = rec.clone();

        // Occupy the single worker so the rest queue up (wait until the
        // gate task has actually been popped, so the depths below are
        // deterministic).
        pool.submit(0, 0, usize::MAX, &job).unwrap();
        wait_queues_empty(&pool);
        // Mixed submission order: late deadline, none, early deadline,
        // another none, mid deadline.
        pool.submit(0, 900, 1, &job).unwrap();
        pool.submit(0, NO_DEADLINE, 2, &job).unwrap();
        pool.submit(0, 100, 3, &job).unwrap();
        pool.submit(0, NO_DEADLINE, 4, &job).unwrap();
        pool.submit(0, 500, 5, &job).unwrap();
        let mut depths = Vec::new();
        pool.queue_depths(&mut depths);
        assert_eq!(depths, vec![5]);

        rec.open_gate();
        rec.wait_ran(6);
        // EDF: deadlines ascending first, then deadline-free FIFO.
        assert_eq!(*rec.order.lock().unwrap(), vec![3, 5, 1, 2, 4]);
        let mut depths = Vec::new();
        pool.queue_depths(&mut depths);
        assert_eq!(depths, vec![0]);
    }

    #[test]
    fn queue_wait_histograms_record_every_pop() {
        let pool = ShardedDetectionPool::new_with_pinning(2, 2, 8, false);
        let rec = Recorder::new();
        rec.open_gate();
        let job: Arc<dyn ShardedJob> = rec.clone();
        for t in 0..10 {
            pool.submit(t % 2, NO_DEADLINE, t, &job).unwrap();
        }
        rec.wait_ran(10);
        let waits = pool.queue_wait_snapshots();
        assert_eq!(waits.len(), 2, "one histogram per shard");
        assert_eq!(waits.iter().map(|h| h.count()).sum::<u64>(), 10, "every pop recorded");
        let mut merged = gs_prof::hist::HistogramSnapshot::empty();
        for w in &waits {
            merged.merge(w);
        }
        assert_eq!(merged.count(), 10);
        assert!(merged.quantile(1.0) <= merged.max());
    }

    #[test]
    fn all_shards_execute_and_clamp_to_workers() {
        // 5 shards requested but only 2 workers → clamped to 2 shards.
        let pool = ShardedDetectionPool::new_with_pinning(5, 2, 8, false);
        assert_eq!(pool.shards(), 2);
        assert_eq!(pool.workers(), 2);
        let rec = Recorder::new();
        rec.open_gate();
        let job: Arc<dyn ShardedJob> = rec.clone();
        for t in 0..8 {
            pool.submit(t % 2, NO_DEADLINE, t, &job).unwrap();
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
        let a = shard_cpu_slice(&cpus, 2, 0);
        let b = shard_cpu_slice(&cpus, 2, 1);
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![4, 5, 6, 7]);
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
        let pool = ShardedDetectionPool::new_with_pinning(0, 4, 4, false);
        let domains = crate::affinity::memory_domains();
        assert_eq!(pool.shards(), domains.len().clamp(1, 4));
    }

    #[test]
    fn workers_are_named_by_shard_and_rank() {
        struct Names(Mutex<Vec<(usize, String)>>);
        impl ShardedJob for Names {
            fn run_shard(&self, shard: usize, _: usize, _: &mut DetectorWorkspace) {
                let name = std::thread::current().name().unwrap_or("<unnamed>").to_string();
                self.0.lock().unwrap().push((shard, name));
            }
        }
        let pool = ShardedDetectionPool::new_with_pinning(2, 2, 4, false);
        let names = Arc::new(Names(Mutex::new(Vec::new())));
        let job: Arc<dyn ShardedJob> = names.clone();
        pool.submit(0, NO_DEADLINE, 0, &job).unwrap();
        pool.submit(1, NO_DEADLINE, 1, &job).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while names.0.lock().unwrap().len() < 2 {
            assert!(std::time::Instant::now() < deadline, "tasks never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut seen = names.0.lock().unwrap().clone();
        seen.sort();
        assert_eq!(seen, vec![(0, "gs-shard0-w0".into()), (1, "gs-shard1-w0".into())]);
    }

    #[test]
    fn worker_panic_poisons_the_pool() {
        struct Panicky;
        impl ShardedJob for Panicky {
            fn run_shard(&self, _: usize, _: usize, _: &mut DetectorWorkspace) {
                panic!("intentional test panic");
            }
        }
        let pool = ShardedDetectionPool::new_with_pinning(1, 1, 4, false);
        let job: Arc<dyn ShardedJob> = Arc::new(Panicky);
        pool.submit(0, NO_DEADLINE, 0, &job).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !pool.is_poisoned() {
            assert!(std::time::Instant::now() < deadline, "poison flag never set");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            pool.submit(0, NO_DEADLINE, 1, &job),
            Err(PoolPoisoned),
            "a poisoned pool must refuse further tasks with a typed error"
        );
        drop(pool); // must not hang joining the dead worker's siblings
    }

    #[test]
    fn injected_worker_fault_kills_the_armed_pop() {
        let pool = ShardedDetectionPool::new_with_pinning(1, 1, 8, false);
        let rec = Recorder::new();
        rec.open_gate();
        let job: Arc<dyn ShardedJob> = rec.clone();
        // Armed at the 3rd pop from now: tasks 0 and 1 run, task 2's pop
        // panics before the job executes.
        pool.inject_worker_panic_after(0, 3);
        pool.submit(0, NO_DEADLINE, 0, &job).unwrap();
        pool.submit(0, NO_DEADLINE, 1, &job).unwrap();
        rec.wait_ran(2);
        pool.submit(0, NO_DEADLINE, 2, &job).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !pool.is_poisoned() {
            assert!(std::time::Instant::now() < deadline, "injected fault never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The faulted task never ran, and the pool now refuses work.
        assert_eq!(rec.ran.load(Ordering::SeqCst), 2);
        assert_eq!(pool.submit(0, NO_DEADLINE, 3, &job), Err(PoolPoisoned));
    }

    #[test]
    fn heap_capacity_is_enforced() {
        let pool = ShardedDetectionPool::new_with_pinning(1, 1, 2, false);
        let rec = Recorder::new();
        let job: Arc<dyn ShardedJob> = rec.clone();
        pool.submit(0, 0, usize::MAX, &job).unwrap(); // parks the worker
        wait_queues_empty(&pool); // the gate task is running, queue empty
        pool.submit(0, 1, 1, &job).unwrap();
        pool.submit(0, 2, 2, &job).unwrap();
        let overflow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = pool.submit(0, 3, 3, &job);
        }));
        assert!(overflow.is_err(), "submitting past capacity must fail fast");
        rec.open_gate();
        rec.wait_ran(3);
    }
}

//! The [`FrameStream`] engine: slot pool, stage threads, ordering.
//!
//! See the crate docs for the architecture. This module holds the whole
//! engine: the bounded slot pool (admission control), the planner and
//! recovery stage threads, the [`ShardedJob`] adapter that runs the detect
//! stage on `geosphere-core`'s domain-sharded pool, per-client in-order
//! completion delivery, and the stats counters.

use crate::policy::{AdaptationPolicy, PinnedPolicy, PressureSignal};
use crate::stats::RuntimeStats;
use geosphere_core::{
    ChannelOrder, Detection, DetectionBatch, DetectorLadder, DetectorStats, DetectorTier,
    DetectorWorkspace, MimoDetector, ShardedDetectionPool, ShardedJob, NO_DEADLINE,
};
use gs_channel::MimoChannel;
use gs_linalg::Matrix;
use gs_phy::{FrameWorkspace, PhyConfig, UplinkOutcome};
use gs_prof::hist::LogHistogram;
use gs_prof::trace as gtrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One frame submission: everything the runtime needs to plan, detect,
/// and recover the frame without further input from the source.
///
/// The frame carries its own RNG `seed` (payloads and noise are drawn
/// from `StdRng::seed_from_u64(seed)` exactly as the serial path would),
/// so the outcome is a pure function of the submission — bit-identical to
/// `decode_frame_batched_into` with the same seed, regardless of how the
/// runtime schedules it.
#[derive(Clone, Debug)]
pub struct UplinkFrame {
    /// Source lane (`< StreamConfig::clients`): completions are delivered
    /// in per-client submission order.
    pub client: usize,
    /// The channel realization the frame flies through (`Arc` so
    /// submission never copies matrices).
    pub channel: Arc<MimoChannel>,
    /// Operating SNR in dB.
    pub snr_db: f64,
    /// Seed for the frame's payload and noise draws.
    pub seed: u64,
    /// Overrides the stream's base `payload_bits` for this frame
    /// (`None` = the base config's length).
    pub payload_bits: Option<usize>,
    /// Optional completion deadline. Within a shard, detection is
    /// scheduled earliest-deadline-first; deadline-free frames run after
    /// all deadline-bearing ones, FIFO. A missed deadline never drops the
    /// frame — it is recorded ([`Completed::missed_deadline`],
    /// [`RuntimeStats::deadline_misses`]).
    pub deadline: Option<Instant>,
}

impl UplinkFrame {
    /// A deadline-free submission with the stream's base frame length.
    pub fn new(client: usize, channel: Arc<MimoChannel>, snr_db: f64, seed: u64) -> Self {
        UplinkFrame { client, channel, snr_db, seed, payload_bits: None, deadline: None }
    }
}

/// The stream can no longer make progress: a detection worker panicked
/// (poisoning the [`ShardedDetectionPool`]) or a planner/recovery thread
/// unwound. Outstanding frames will never complete; the stream must be
/// torn down. Returned as a typed error (rather than a panic on the
/// submitting thread) so fault-injection campaigns can record worker loss
/// as a scenario outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDead;

impl std::fmt::Display for StreamDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame stream is dead: a detection worker or stage thread panicked")
    }
}

impl std::error::Error for StreamDead {}

/// Refusal from [`FrameStream::try_submit`], returning the frame so the
/// source can retry, reroute, or drop it.
#[derive(Debug)]
pub enum TrySubmitError {
    /// Every slot is in flight — the documented loss-tolerant admission
    /// refusal (a load condition, not a failure).
    Full(UplinkFrame),
    /// The stream is dead ([`StreamDead`]); the frame can never complete
    /// here.
    Dead(UplinkFrame),
}

impl TrySubmitError {
    /// The refused frame, whichever way it was refused.
    pub fn into_frame(self) -> UplinkFrame {
        match self {
            TrySubmitError::Full(f) | TrySubmitError::Dead(f) => f,
        }
    }
}

/// Sizing and placement knobs for a [`FrameStream`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Distinct source lanes (ordering domains). Must be ≥ 1.
    pub clients: usize,
    /// Detection workers across all shards (`0` = machine parallelism).
    pub workers: usize,
    /// Detection shards (`0` = one per discovered memory domain; clamped
    /// to `1..=workers`).
    pub shards: usize,
    /// Frames admitted concurrently (the slot-pool bound; `0` resolves to
    /// `2 × workers + 2`, enough to keep every stage busy). **Admission
    /// policy:** [`FrameStream::submit`] blocks while all slots are in
    /// flight — backpressure propagates to sources — and
    /// [`FrameStream::try_submit`] refuses instead, for loss-tolerant
    /// sources. A slot is released when the consumer drops the frame's
    /// [`Completed`] guard.
    pub capacity: usize,
    /// Plan-stage threads (`0` resolves to 1; planning is cheap relative
    /// to detection, so 1 usually suffices).
    pub planners: usize,
    /// Pin detection workers inside their shard's memory domain (default:
    /// on, unless `GS_NO_PIN` opts out).
    pub pin: bool,
}

impl StreamConfig {
    /// Defaults for `clients` source lanes: machine-sized workers, one
    /// shard per memory domain, automatic capacity, one planner, pinning
    /// per `GS_NO_PIN`.
    pub fn new(clients: usize) -> Self {
        StreamConfig {
            clients,
            workers: 0,
            shards: 0,
            capacity: 0,
            planners: 1,
            pin: !geosphere_core::affinity::pinning_disabled_by_env(),
        }
    }
}

/// Per-frame bookkeeping carried through the pipeline.
struct SlotMeta {
    client: usize,
    client_seq: u64,
    snr_db: f64,
    seed: u64,
    payload_bits: usize,
    deadline: Option<Instant>,
    deadline_key: u64,
    channel: Option<Arc<MimoChannel>>,
    missed_deadline: bool,
    /// The detector tier the policy chose at admission.
    tier: DetectorTier,
    /// Admission wall stamp — the start of the submit→delivery latency the
    /// telemetry histograms record.
    submitted_at: Instant,
    /// Global submission ordinal — the flight recorder's frame id.
    frame_id: u64,
}

impl SlotMeta {
    fn empty() -> Self {
        SlotMeta {
            client: 0,
            client_seq: 0,
            snr_db: 0.0,
            seed: 0,
            payload_bits: 0,
            deadline: None,
            deadline_key: NO_DEADLINE,
            channel: None,
            missed_deadline: false,
            tier: DetectorTier::Sphere,
            submitted_at: Instant::now(),
            frame_id: 0,
        }
    }
}

/// The frame's plan/assembly state: written by the planner, read by the
/// shard workers, written again by the recovery stage. Lock order is
/// always core-then-portion.
struct SlotCore {
    ws: FrameWorkspace,
    /// Channel-grouped dispatch order over the planned jobs (scratch,
    /// reused every frame).
    order: ChannelOrder,
    /// Detector operation counts accumulated during recovery.
    stats: DetectorStats,
}

/// One shard's portion of a frame: the job indices it owns, its local
/// channel-table replica, and its detection outputs. The replica is
/// refreshed by the shard's *own* worker (not the planner), so first-touch
/// places it in the shard's memory domain; all three buffers are recycled
/// frame over frame.
struct Portion {
    indices: Vec<usize>,
    channels: Vec<Matrix>,
    n_channels: usize,
    out: Vec<Detection>,
}

impl Portion {
    fn empty() -> Self {
        Portion { indices: Vec::new(), channels: Vec::new(), n_channels: 0, out: Vec::new() }
    }
}

struct Slot {
    meta: Mutex<SlotMeta>,
    core: RwLock<SlotCore>,
    portions: Vec<Mutex<Portion>>,
    /// Shards still detecting this frame; the worker that decrements it to
    /// zero hands the frame to recovery.
    remaining: AtomicU64,
}

/// One client's ordering lane: sequence counters plus a parking ring for
/// frames that completed ahead of an earlier sibling.
struct ClientLane {
    next_submit: u64,
    next_deliver: u64,
    /// `parked[seq % capacity]` holds the slot of a finished frame waiting
    /// for its predecessors; at most `capacity` frames are in flight, so
    /// the ring can never wrap onto an occupied cell.
    parked: Vec<Option<usize>>,
}

struct StatsInner {
    submitted: AtomicU64,
    completed: AtomicU64,
    deadline_misses: AtomicU64,
    /// Per-stage progress counters: frames planned, frames whose last
    /// shard finished detecting, frames whose receive chains ran.
    planned: AtomicU64,
    detected: AtomicU64,
    recovered: AtomicU64,
    /// Admissions per detector tier, indexed by `DetectorTier::index()`.
    tier_admissions: [AtomicU64; DetectorTier::COUNT],
    /// The most recently selected tier (`DetectorTier` discriminant), for
    /// snapshots.
    last_tier: AtomicU8,
}

/// Recent deliveries observed: `capacity`-bounded bookkeeping for the last
/// [`WINDOW_EVENTS`] deliveries, each `(when, missed_deadline)`. The
/// windowed rates ([`DeliveryWindow::rates`]) count only events within the
/// trailing [`WINDOW_SPAN`], so an idle stream decays to zero throughput
/// and a drained stream sheds stale misses — the signals the control
/// plane consumes.
struct DeliveryWindow {
    events: Vec<(Instant, bool)>,
    /// Oldest entry once the ring is full; next write position.
    head: usize,
}

/// Ring capacity. Sized so the ring spans the full [`WINDOW_SPAN`] at any
/// rate the pipeline can physically sustain (bench_gate saturates in the
/// 400–1300 fps range; 4096 leaves 3× headroom): a ring shorter than one
/// second of deliveries silently **shrank the horizon** of the windowed
/// rates under load — throughput clamped at `WINDOW_EVENTS` fps and the
/// miss rate covered only the trailing fraction of a second, exactly when
/// the control plane needed the true figures. Should deliveries outpace
/// even this, [`DeliveryWindow::rates`] now divides by the span the
/// retained events actually cover, so the rate stays correct and only the
/// averaging horizon narrows.
const WINDOW_EVENTS: usize = 4096;
/// The trailing horizon of the windowed rates.
const WINDOW_SPAN: Duration = Duration::from_secs(1);
/// Floor of the covered-span divisor: a burst younger than this reports
/// the rate as if spread over 1 ms rather than dividing by a near-zero
/// span (one delivery must never read as "millions of fps").
const WINDOW_MIN_SPAN: Duration = Duration::from_millis(1);

impl DeliveryWindow {
    fn new() -> Self {
        DeliveryWindow { events: Vec::with_capacity(WINDOW_EVENTS), head: 0 }
    }

    /// Records one delivery; allocation-free (the ring is preallocated).
    fn record(&mut self, at: Instant, missed: bool) {
        if self.events.len() < WINDOW_EVENTS {
            self.events.push((at, missed));
        } else {
            self.events[self.head] = (at, missed);
            self.head = (self.head + 1) % WINDOW_EVENTS;
        }
    }

    /// `(frames_per_sec, miss_rate)` over the deliveries within
    /// [`WINDOW_SPAN`] of `now`; `(0.0, 0.0)` when none.
    ///
    /// The throughput divisor is the span the window **actually covers**:
    /// `min(WINDOW_SPAN, now − oldest_retained_event)`, floored at
    /// [`WINDOW_MIN_SPAN`]. Dividing by the full span unconditionally had
    /// two bugs: a stream younger than the span under-reported (3 frames
    /// in the first 100 ms of life is ~30 fps, not 3), and a ring that
    /// evicted events inside the span clamped throughput at
    /// `WINDOW_EVENTS` fps while bench_gate sustained 3–10× that.
    fn rates(&self, now: Instant) -> (f64, f64) {
        let mut n = 0u64;
        let mut missed = 0u64;
        let mut oldest: Option<Instant> = None;
        for &(at, m) in &self.events {
            // `duration_since` saturates to zero for future instants.
            if now.duration_since(at) <= WINDOW_SPAN {
                n += 1;
                if m {
                    missed += 1;
                }
            }
            // Oldest *retained* event, in or out of the span: events older
            // than the span prove the ring covers the whole span.
            if oldest.is_none_or(|o| at < o) {
                oldest = Some(at);
            }
        }
        if n == 0 {
            return (0.0, 0.0);
        }
        let covered = oldest
            .map(|o| now.duration_since(o))
            .unwrap_or(WINDOW_SPAN)
            .clamp(WINDOW_MIN_SPAN, WINDOW_SPAN);
        let fps = n as f64 / covered.as_secs_f64();
        (fps, missed as f64 / n as f64)
    }
}

struct Shared {
    base_cfg: PhyConfig,
    /// One detector per tier; `detect_portion` dispatches at the tier
    /// stamped on the frame. A fixed-detector stream is the uniform
    /// ladder.
    ladder: DetectorLadder,
    /// Consulted once per admission, on the submitting thread.
    policy: Mutex<Box<dyn AdaptationPolicy>>,
    /// Preallocated scratch for the admission-path queue-depth read, so
    /// `select_tier` stays allocation-free.
    depth_scratch: Mutex<Vec<usize>>,
    /// Recent-delivery ring backing the windowed rates. Lock order: this
    /// is a leaf (taken under `lanes` in the delivery path, alone
    /// elsewhere); never take another stream lock while holding it.
    window: Mutex<DeliveryWindow>,
    /// Submit→delivery latency per client lane, nanoseconds. Preallocated
    /// at build; recording is lock- and allocation-free.
    latency: Vec<LogHistogram>,
    /// Deadline slack (deadline − delivery) of on-time deliveries.
    slack: LogHistogram,
    /// Deadline overshoot (delivery − deadline) of missed deliveries —
    /// the negative half of the slack distribution, kept as its own
    /// histogram so both stay unsigned.
    lateness: LogHistogram,
    slots: Vec<Slot>,
    n_shards: usize,
    n_clients: usize,
    capacity: usize,
    pool: ShardedDetectionPool,
    free: Mutex<Vec<usize>>,
    free_cv: Condvar,
    plan_q: Mutex<VecDeque<usize>>,
    plan_cv: Condvar,
    recover_q: Mutex<VecDeque<usize>>,
    recover_cv: Condvar,
    done_q: Mutex<VecDeque<usize>>,
    done_cv: Condvar,
    lanes: Mutex<Vec<ClientLane>>,
    stats: StatsInner,
    shutdown: AtomicBool,
    /// Set when a planner or recovery thread unwound — the stage-thread
    /// counterpart of the detection pool's poison flag, so `recv`/`submit`
    /// fail fast instead of waiting on a frame that can never arrive.
    stage_panicked: AtomicBool,
    epoch: Instant,
}

impl Shared {
    fn is_dead(&self) -> bool {
        self.pool.is_poisoned() || self.stage_panicked.load(Ordering::SeqCst)
    }
}

/// Marks the engine dead when a stage thread unwinds (planner assert,
/// recovery panic, a detector panicking inside `plan`'s transmit chain…).
struct StagePoisonOnPanic<'a>(&'a Shared);

impl Drop for StagePoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stage_panicked.store(true, Ordering::SeqCst);
            // Black-box the death: record the fault against whatever
            // frame this stage thread was working (ambient context), then
            // snapshot the rings before the stream winds down.
            gtrace::emit(gtrace::TracePoint::Fault);
            gtrace::trigger(gtrace::Trigger::Fault, gtrace::context().frame);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The [`ShardedJob`] the runtime submits: a weak handle so queued tasks
/// never keep the engine alive (workers are joined before `Shared` drops;
/// the upgrade guard is belt-and-braces for mid-teardown pops).
struct DetectJob {
    shared: Weak<Shared>,
}

impl ShardedJob for DetectJob {
    fn run_shard(&self, shard: usize, token: usize, ws: &mut DetectorWorkspace) {
        if let Some(shared) = self.shared.upgrade() {
            shared.detect_portion(shard, token, ws);
        }
    }
}

impl Shared {
    /// The detect stage for one `(frame, shard)` portion, run on a pinned
    /// shard worker: refresh the shard's channel replica, detect its job
    /// indices through the worker's reusable workspace, and hand the frame
    /// to recovery when this was the last outstanding shard.
    fn detect_portion(&self, shard: usize, slot_idx: usize, ws: &mut DetectorWorkspace) {
        let slot = &self.slots[slot_idx];
        {
            // The shard worker set the frame context before dispatching.
            let _tspan = gtrace::span(gtrace::TracePoint::Detect);
            let core = slot.core.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut portion = lock(&slot.portions[shard]);
            let portion = &mut *portion;
            if portion.indices.is_empty() {
                portion.out.clear();
            } else {
                let src = core.ws.planned_channels();
                let jobs = core.ws.planned_jobs();
                // Refresh the shard's channel-table replica so detection
                // reads domain-local memory. With a single shard the
                // replica cannot improve locality (same domain as the
                // planner's table), so the copy is skipped outright; with
                // several, only the shard's own channel range is copied —
                // the portion is a contiguous slice of the channel-grouped
                // order, so its channels are exactly `c_lo..=c_hi`
                // (entries outside stay stale and are never indexed).
                let channels: &[Matrix] = if self.n_shards == 1 {
                    src
                } else {
                    let c_lo = jobs[portion.indices[0]].channel;
                    let c_hi = jobs[portion.indices[portion.indices.len() - 1]].channel;
                    if portion.channels.len() < src.len() {
                        portion.channels.resize_with(src.len(), Matrix::default);
                    }
                    for (dst, s) in portion.channels[c_lo..=c_hi].iter_mut().zip(&src[c_lo..=c_hi])
                    {
                        dst.copy_from(s);
                    }
                    portion.n_channels = src.len();
                    &portion.channels[..portion.n_channels]
                };
                let batch = DetectionBatch {
                    channels,
                    jobs: core.ws.planned_jobs(),
                    c: self.base_cfg.constellation,
                };
                self.ladder.detect_batch_indexed_with(
                    core.ws.detector_tier(),
                    &batch,
                    &portion.indices,
                    ws,
                    &mut portion.out,
                );
            }
        }
        if slot.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.stats.detected.fetch_add(1, Ordering::Relaxed);
            lock(&self.recover_q).push_back(slot_idx);
            self.recover_cv.notify_one();
        }
    }

    /// The plan stage for one frame, run on a planner thread.
    fn plan_frame(&self, slot_idx: usize, job: &Arc<dyn ShardedJob>) {
        let slot = &self.slots[slot_idx];
        let (channel, cfg, snr_db, seed, deadline_key, tier, frame_id, client) = {
            let meta = lock(&slot.meta);
            (
                Arc::clone(meta.channel.as_ref().expect("slot submitted without a channel")),
                PhyConfig { payload_bits: meta.payload_bits, ..self.base_cfg },
                meta.snr_db,
                meta.seed,
                meta.deadline_key,
                meta.tier,
                meta.frame_id,
                meta.client,
            )
        };
        // Ambient frame identity for the recorder: the phy plan scope and
        // the pool's enqueue instants pick it up without plumbing.
        gtrace::set_context(trace_ctx(frame_id, client, tier));
        {
            let mut core = slot.core.write().unwrap_or_else(std::sync::PoisonError::into_inner);
            let core = &mut *core;
            let mut rng = StdRng::seed_from_u64(seed);
            core.ws.plan_uplink(&cfg, &channel, snr_db, &mut rng);
            // Stamp the admission-time tier on the staged frame: the shard
            // workers dispatch at it, and `finish_uplink` reports it in
            // the outcome.
            core.ws.set_detector_tier(tier);

            // Channel-grouped dispatch order (the same deterministic
            // permutation `DetectionPool` uses), split into contiguous
            // per-shard ranges so each shard re-factorizes each of its
            // channels at most once per frame.
            let order = core.order.group(core.ws.planned_jobs());
            let n_jobs = order.len();
            let chunk = n_jobs.div_ceil(self.n_shards).max(1);
            for (s, portion) in slot.portions.iter().enumerate() {
                let lo = (s * chunk).min(n_jobs);
                let hi = ((s + 1) * chunk).min(n_jobs);
                let mut portion = lock(portion);
                portion.indices.clear();
                portion.indices.extend_from_slice(&order[lo..hi]);
            }
        }
        slot.remaining.store(self.n_shards as u64, Ordering::Release);
        self.stats.planned.fetch_add(1, Ordering::Relaxed);
        for s in 0..self.n_shards {
            if self.pool.submit(s, deadline_key, slot_idx, job).is_err() {
                // The pool died under us: the frame is abandoned (its
                // remaining shards will never run), and `is_dead()` already
                // reports the poisoning to submit/recv — nothing further
                // to do but stop feeding a dead pool.
                gtrace::clear_context();
                return;
            }
        }
        gtrace::clear_context();
    }

    /// The recover stage for one frame, run on the recovery thread:
    /// scatter every shard's detections back to job order, run the
    /// per-client receive chains, and deliver in per-client submission
    /// order. Deadline accounting happens in [`Shared::deliver`], not
    /// here — a frame parked behind a slow predecessor can still miss.
    fn recover_frame(&self, slot_idx: usize) {
        let slot = &self.slots[slot_idx];
        {
            let (frame_id, client, tier) = {
                let meta = lock(&slot.meta);
                (meta.frame_id, meta.client, meta.tier)
            };
            gtrace::set_context(trace_ctx(frame_id, client, tier));
        }
        {
            let mut core = slot.core.write().unwrap_or_else(std::sync::PoisonError::into_inner);
            let core = &mut *core;
            core.stats = DetectorStats::default();
            core.ws.begin_detection_assembly();
            let _prof = gs_prof::scope(gs_prof::Stage::Scatter);
            let _tspan = gtrace::span(gtrace::TracePoint::Stage(gs_prof::Stage::Scatter));
            for portion in &slot.portions {
                let portion = lock(portion);
                for (&idx, det) in portion.indices.iter().zip(portion.out.iter()) {
                    core.ws.absorb_detection(&mut core.stats, idx, det);
                }
            }
            drop(_tspan);
            drop(_prof);
            let cfg = PhyConfig { payload_bits: lock(&slot.meta).payload_bits, ..self.base_cfg };
            core.ws.finish_uplink(&cfg, core.stats);
        }

        self.stats.recovered.fetch_add(1, Ordering::Relaxed);
        let (client, seq) = {
            let mut meta = lock(&slot.meta);
            // Release the channel Arc now that the frame no longer needs it.
            meta.channel = None;
            (meta.client, meta.client_seq)
        };

        // Per-client in-order delivery: deliver this frame if it is the
        // lane's next expected sequence (then drain any parked
        // successors); otherwise park it.
        let mut lanes = lock(&self.lanes);
        let lane = &mut lanes[client];
        if seq == lane.next_deliver {
            self.deliver(slot_idx);
            lane.next_deliver += 1;
            while let Some(parked) =
                lane.parked[(lane.next_deliver % self.capacity as u64) as usize].take()
            {
                self.deliver(parked);
                lane.next_deliver += 1;
            }
        } else {
            gtrace::emit(gtrace::TracePoint::Park);
            let cell = &mut lane.parked[(seq % self.capacity as u64) as usize];
            // A hard assert, not a debug one: an occupied cell means a
            // sequencing bug is about to overwrite (lose) a completed
            // frame. Panicking here trips `StagePoisonOnPanic` — the
            // recovery thread unwinds and the stream reports dead, the
            // same fail-fast discipline as the detection pool's
            // panic-poisoning.
            assert!(cell.is_none(), "parking ring cell already occupied (seq {seq})");
            *cell = Some(slot_idx);
        }
        gtrace::clear_context();
    }

    /// Makes one frame observable: accounts its deadline **now** (a frame
    /// that waited in the parking ring past its deadline missed it, even
    /// though its own recovery finished in time), feeds the delivery
    /// window the control plane reads, and queues the completion.
    fn deliver(&self, slot_idx: usize) {
        let _prof = gs_prof::scope(gs_prof::Stage::Delivery);
        let now = Instant::now();
        let (missed, frame_id, client, tier) = {
            let mut meta = lock(&self.slots[slot_idx].meta);
            meta.missed_deadline = meta.deadline.is_some_and(|d| now > d);
            // Telemetry, recorded at the observability point the stats
            // counters use: submit→delivery latency on the client's lane,
            // and the signed deadline margin split into slack/lateness
            // (`duration_since` saturates, so each side stays unsigned).
            self.latency[meta.client].record_duration(now.duration_since(meta.submitted_at));
            match meta.deadline {
                Some(d) if meta.missed_deadline => {
                    self.lateness.record_duration(now.duration_since(d));
                }
                Some(d) => self.slack.record_duration(d.duration_since(now)),
                None => {}
            }
            (meta.missed_deadline, meta.frame_id, meta.client, meta.tier)
        };
        // Explicit identity: the recovery thread's ambient context is the
        // frame being recovered, which may differ when draining parked
        // successors.
        gtrace::emit_for(
            gtrace::TracePoint::Deliver,
            gtrace::EventKind::Instant,
            trace_ctx(frame_id, client, tier),
        );
        if missed {
            self.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
            gtrace::trigger(gtrace::Trigger::DeadlineMiss, frame_id);
        }
        lock(&self.window).record(now, missed);
        lock(&self.done_q).push_back(slot_idx);
        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        self.done_cv.notify_one();
    }

    fn deadline_key(&self, deadline: Option<Instant>) -> u64 {
        match deadline {
            None => NO_DEADLINE,
            Some(d) => {
                let nanos = d.checked_duration_since(self.epoch).unwrap_or_default().as_nanos();
                u64::try_from(nanos).unwrap_or(NO_DEADLINE - 1).min(NO_DEADLINE - 1)
            }
        }
    }

    /// Consults the policy for the admission being installed. Runs on the
    /// submitting thread; allocation-free (preallocated depth scratch, no
    /// policy may allocate on its steady-state path).
    fn select_tier(&self) -> DetectorTier {
        let tier = {
            let mut depths = lock(&self.depth_scratch);
            self.pool.queue_depths(&mut depths);
            let in_flight = self.capacity - lock(&self.free).len();
            let (_, miss_rate) = lock(&self.window).rates(Instant::now());
            let signal = PressureSignal {
                shard_queue_depths: &depths,
                miss_rate,
                occupancy: in_flight as f64 / self.capacity as f64,
                in_flight,
                capacity: self.capacity,
            };
            lock(&self.policy).select_tier(&signal)
        };
        self.stats.tier_admissions[tier.index()].fetch_add(1, Ordering::Relaxed);
        self.stats.last_tier.store(tier as u8, Ordering::Relaxed);
        tier
    }
}

/// Flight-recorder identity for a frame (shard filled in by whoever is
/// shard-specific).
fn trace_ctx(frame_id: u64, client: usize, tier: DetectorTier) -> gtrace::FrameCtx {
    gtrace::FrameCtx {
        frame: frame_id,
        client: client as u32,
        shard: gtrace::NO_SHARD,
        tier: tier.index() as u8,
    }
}

fn planner_loop(shared: &Arc<Shared>) {
    let job: Arc<dyn ShardedJob> = Arc::new(DetectJob { shared: Arc::downgrade(shared) });
    let _poison = StagePoisonOnPanic(shared);
    loop {
        let slot_idx = {
            let mut q = lock(&shared.plan_q);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(idx) = q.pop_front() {
                    break idx;
                }
                q = shared.plan_cv.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.plan_frame(slot_idx, &job);
    }
}

fn recover_loop(shared: &Arc<Shared>) {
    let _poison = StagePoisonOnPanic(shared);
    loop {
        let slot_idx = {
            let mut q = lock(&shared.recover_q);
            loop {
                // Shutdown wins over queued frames — dropping the stream
                // abandons in-flight work rather than draining it.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(idx) = q.pop_front() {
                    break idx;
                }
                q = shared.recover_cv.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.recover_frame(slot_idx);
    }
}

/// A streaming multi-frame uplink engine: admits [`UplinkFrame`]s from many
/// concurrent sources and pipelines them through *plan → detect → recover*
/// with cross-frame overlap. See the crate docs for the architecture and
/// guarantees, [`StreamConfig`] for sizing, [`FrameStream::submit`] /
/// [`FrameStream::recv`] for the ingress/egress pair.
pub struct FrameStream {
    shared: Arc<Shared>,
    planners: Vec<JoinHandle<()>>,
    recover: Option<JoinHandle<()>>,
}

impl FrameStream {
    /// Builds a stream decoding with `detector` under the fixed PHY
    /// `cfg` (per-frame `payload_bits` overrides aside). See
    /// [`StreamConfig`] for sizing; workers spawn immediately.
    ///
    /// Internally this is the degenerate control plane — the uniform
    /// ladder pinned to [`DetectorTier::Sphere`] — so every frame runs
    /// `detector` and the stream stays a pure function of its
    /// submissions.
    pub fn new<D: MimoDetector + 'static>(cfg: PhyConfig, detector: D, sc: StreamConfig) -> Self {
        Self::with_detector_arc(cfg, Arc::new(detector), sc)
    }

    /// [`FrameStream::new`] for an already type-erased detector.
    pub fn with_detector_arc(
        cfg: PhyConfig,
        detector: Arc<dyn MimoDetector>,
        sc: StreamConfig,
    ) -> Self {
        Self::adaptive(
            cfg,
            DetectorLadder::uniform(detector),
            PinnedPolicy(DetectorTier::Sphere),
            sc,
        )
    }

    /// Builds an **adaptive** stream: each admission consults `policy`
    /// (see [`crate::policy`]) and detects at the chosen rung of
    /// `ladder`. With [`PinnedPolicy`] this degenerates to a fixed
    /// detector; with
    /// [`HysteresisPolicy`](crate::policy::HysteresisPolicy) the stream
    /// degrades sphere → FSD → MMSE under deadline pressure and climbs
    /// back as the queue drains.
    pub fn adaptive<P: AdaptationPolicy + 'static>(
        cfg: PhyConfig,
        ladder: DetectorLadder,
        policy: P,
        sc: StreamConfig,
    ) -> Self {
        Self::build(cfg, ladder, Box::new(policy), sc)
    }

    fn build(
        cfg: PhyConfig,
        ladder: DetectorLadder,
        policy: Box<dyn AdaptationPolicy>,
        sc: StreamConfig,
    ) -> Self {
        assert!(sc.clients >= 1, "a stream needs at least one client lane");
        let workers = if sc.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            sc.workers
        };
        let capacity = if sc.capacity == 0 { 2 * workers + 2 } else { sc.capacity };
        let planners = sc.planners.max(1);

        // Every shard queue can hold every in-flight frame at once.
        let pool = ShardedDetectionPool::new_with_pinning(sc.shards, workers, capacity, sc.pin);
        let n_shards = pool.shards();

        let slots: Vec<Slot> = (0..capacity)
            .map(|_| Slot {
                meta: Mutex::new(SlotMeta::empty()),
                core: RwLock::new(SlotCore {
                    ws: FrameWorkspace::new(),
                    order: ChannelOrder::default(),
                    stats: DetectorStats::default(),
                }),
                portions: (0..n_shards).map(|_| Mutex::new(Portion::empty())).collect(),
                remaining: AtomicU64::new(0),
            })
            .collect();

        let lanes = (0..sc.clients)
            .map(|_| ClientLane { next_submit: 0, next_deliver: 0, parked: vec![None; capacity] })
            .collect();

        let shared = Arc::new(Shared {
            base_cfg: cfg,
            ladder,
            policy: Mutex::new(policy),
            depth_scratch: Mutex::new(Vec::with_capacity(n_shards)),
            window: Mutex::new(DeliveryWindow::new()),
            latency: (0..sc.clients).map(|_| LogHistogram::new()).collect(),
            slack: LogHistogram::new(),
            lateness: LogHistogram::new(),
            slots,
            n_shards,
            n_clients: sc.clients,
            capacity,
            pool,
            free: Mutex::new((0..capacity).rev().collect()),
            free_cv: Condvar::new(),
            plan_q: Mutex::new(VecDeque::with_capacity(capacity)),
            plan_cv: Condvar::new(),
            recover_q: Mutex::new(VecDeque::with_capacity(capacity)),
            recover_cv: Condvar::new(),
            done_q: Mutex::new(VecDeque::with_capacity(capacity)),
            done_cv: Condvar::new(),
            lanes: Mutex::new(lanes),
            stats: StatsInner {
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                deadline_misses: AtomicU64::new(0),
                planned: AtomicU64::new(0),
                detected: AtomicU64::new(0),
                recovered: AtomicU64::new(0),
                tier_admissions: std::array::from_fn(|_| AtomicU64::new(0)),
                last_tier: AtomicU8::new(DetectorTier::Sphere as u8),
            },
            shutdown: AtomicBool::new(false),
            stage_panicked: AtomicBool::new(false),
            epoch: Instant::now(),
        });

        let planner_handles = (0..planners)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gs-plan-{k}"))
                    .spawn(move || planner_loop(&shared))
                    .expect("spawn planner thread")
            })
            .collect();
        let recover = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("gs-recover".into())
                .spawn(move || recover_loop(&shared))
                .expect("spawn recovery thread")
        };

        FrameStream { shared, planners: planner_handles, recover: Some(recover) }
    }

    /// The resolved shard count of the detect stage.
    pub fn shards(&self) -> usize {
        self.shared.n_shards
    }

    /// The total detection worker count.
    pub fn workers(&self) -> usize {
        self.shared.pool.workers()
    }

    /// The slot-pool bound (maximum frames in flight).
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Admits a frame, **blocking** while every slot is in flight — the
    /// documented backpressure policy: sources slow to the pipeline's
    /// sustained rate instead of growing an unbounded queue. Frames of one
    /// client submitted concurrently are ordered by their arrival here.
    ///
    /// Returns [`StreamDead`] when a detection worker or stage thread has
    /// panicked — the frame was *not* admitted and never will be; tear the
    /// stream down.
    ///
    /// # Panics
    /// Panics when `frame.client` is out of range or the channel shape
    /// mismatches the stream's PHY config (submitter bugs, not runtime
    /// conditions).
    pub fn submit(&self, frame: UplinkFrame) -> Result<(), StreamDead> {
        // Validate before taking a slot: a panic past this point must not
        // leak the slot it popped.
        self.assert_admissible(&frame);
        let slot_idx = {
            let mut free = lock(&self.shared.free);
            loop {
                if self.shared.is_dead() {
                    return Err(StreamDead);
                }
                if let Some(idx) = free.pop() {
                    break idx;
                }
                let (guard, _) = self
                    .shared
                    .free_cv
                    .wait_timeout(free, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                free = guard;
            }
        };
        self.install(slot_idx, frame);
        Ok(())
    }

    /// Non-blocking admission: returns the frame back when no slot is
    /// free ([`TrySubmitError::Full`], for sources that prefer dropping to
    /// stalling) or the stream is dead ([`TrySubmitError::Dead`]).
    pub fn try_submit(&self, frame: UplinkFrame) -> Result<(), TrySubmitError> {
        self.assert_admissible(&frame);
        if self.shared.is_dead() {
            return Err(TrySubmitError::Dead(frame));
        }
        let slot_idx = match lock(&self.shared.free).pop() {
            Some(idx) => idx,
            None => {
                // Loss-tolerant refusal is an anomaly worth a flight
                // record: no frame id exists (nothing was admitted), so
                // the event rides the no-frame "stream" track.
                gtrace::emit_for(
                    gtrace::TracePoint::Refuse,
                    gtrace::EventKind::Instant,
                    gtrace::FrameCtx {
                        frame: gtrace::NO_FRAME,
                        client: frame.client as u32,
                        shard: gtrace::NO_SHARD,
                        tier: gtrace::NO_TIER,
                    },
                );
                gtrace::trigger(gtrace::Trigger::AdmissionRefusal, gtrace::NO_FRAME);
                return Err(TrySubmitError::Full(frame));
            }
        };
        self.install(slot_idx, frame);
        Ok(())
    }

    /// Fault injection: arms `shard`'s underlying detection-pool hook so
    /// the worker popping that shard's `pops`-th task from now panics
    /// instead of running it (see
    /// [`ShardedDetectionPool::inject_worker_panic_after`]). The poisoning
    /// then surfaces from [`FrameStream::submit`]/[`FrameStream::recv`] as
    /// [`StreamDead`]. For seeded fault-injection campaigns only —
    /// production embedders must never call this.
    pub fn inject_worker_panic_after(&self, shard: usize, pops: u64) {
        self.shared.pool.inject_worker_panic_after(shard, pops);
    }

    /// Whether the stream is dead — a detection worker or stage thread
    /// panicked. A dead stream refuses new work
    /// ([`StreamDead`] / [`TrySubmitError::Dead`]) but [`FrameStream::recv`]
    /// still drains completions that were already queued.
    pub fn is_dead(&self) -> bool {
        self.shared.is_dead()
    }

    fn assert_admissible(&self, frame: &UplinkFrame) {
        assert!(
            frame.client < self.shared.n_clients,
            "client {} out of range (stream has {} lanes)",
            frame.client,
            self.shared.n_clients
        );
        // Shape errors must surface on the submitting thread, not as a
        // planner-thread panic that would poison the whole stream.
        let sc = frame.channel.num_subcarriers();
        assert!(
            sc == 1 || sc == self.shared.base_cfg.n_subcarriers,
            "channel subcarrier count {sc} must be 1 or {}",
            self.shared.base_cfg.n_subcarriers
        );
    }

    fn install(&self, slot_idx: usize, frame: UplinkFrame) {
        let shared = &*self.shared;
        // One policy consultation per admission, before the frame enters
        // the plan queue, so the tier reflects pressure at admission time.
        let prev_tier = shared.stats.last_tier.load(Ordering::Relaxed);
        let tier = shared.select_tier();
        let client = frame.client;
        let client_seq = {
            let mut lanes = lock(&shared.lanes);
            let lane = &mut lanes[client];
            let seq = lane.next_submit;
            lane.next_submit += 1;
            seq
        };
        // The global submission ordinal doubles as the flight recorder's
        // frame id (the pre-increment value, so ids start at 0).
        let frame_id = shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        {
            let mut meta = lock(&shared.slots[slot_idx].meta);
            meta.client = client;
            meta.client_seq = client_seq;
            meta.snr_db = frame.snr_db;
            meta.seed = frame.seed;
            meta.payload_bits = frame.payload_bits.unwrap_or(shared.base_cfg.payload_bits);
            meta.deadline = frame.deadline;
            meta.deadline_key = shared.deadline_key(frame.deadline);
            meta.channel = Some(frame.channel);
            meta.missed_deadline = false;
            meta.tier = tier;
            meta.submitted_at = Instant::now();
            meta.frame_id = frame_id;
        }
        let tctx = trace_ctx(frame_id, client, tier);
        gtrace::emit_for(gtrace::TracePoint::Submit, gtrace::EventKind::Instant, tctx);
        gtrace::emit_for(gtrace::TracePoint::Admit, gtrace::EventKind::Instant, tctx);
        if tier as u8 != prev_tier {
            gtrace::emit_for(gtrace::TracePoint::TierSwitch, gtrace::EventKind::Instant, tctx);
            gtrace::trigger(gtrace::Trigger::TierSwitch, frame_id);
        }
        lock(&shared.plan_q).push_back(slot_idx);
        shared.plan_cv.notify_one();
    }

    /// Receives the next completed frame, blocking until one is ready.
    /// Frames of one client arrive in submission order (the runtime parks
    /// internally reordered completions until their predecessors deliver);
    /// frames of different clients interleave arbitrarily.
    ///
    /// Dropping the returned [`Completed`] guard releases the frame's slot
    /// back to admission — hold it only as long as the outcome is needed.
    ///
    /// Returns [`StreamDead`] when a detection worker or stage thread has
    /// panicked and no completed frame is queued — outstanding frames can
    /// never arrive, so waiting on would hang. Completions already
    /// delivered to the done queue before the failure are still handed
    /// out first.
    pub fn recv(&self) -> Result<Completed<'_>, StreamDead> {
        let slot_idx = {
            let mut q = lock(&self.shared.done_q);
            loop {
                if let Some(idx) = q.pop_front() {
                    break idx;
                }
                if self.shared.is_dead() {
                    return Err(StreamDead);
                }
                let (guard, _) = self
                    .shared
                    .done_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                q = guard;
            }
        };
        Ok(self.completed(slot_idx))
    }

    /// Non-blocking [`FrameStream::recv`].
    pub fn try_recv(&self) -> Option<Completed<'_>> {
        let slot_idx = lock(&self.shared.done_q).pop_front()?;
        Some(self.completed(slot_idx))
    }

    fn completed(&self, slot_idx: usize) -> Completed<'_> {
        let slot = &self.shared.slots[slot_idx];
        let (client, client_seq, missed_deadline, tier) = {
            let meta = lock(&slot.meta);
            (meta.client, meta.client_seq, meta.missed_deadline, meta.tier)
        };
        let core = slot.core.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        Completed { stream: self, slot_idx, core, client, client_seq, missed_deadline, tier }
    }

    /// A point-in-time stats snapshot (allocates; not a hot-path call).
    pub fn stats(&self) -> RuntimeStats {
        let shared = &*self.shared;
        let mut shard_queue_depths = Vec::new();
        shared.pool.queue_depths(&mut shard_queue_depths);
        let in_flight = shared.capacity - lock(&shared.free).len();
        let elapsed = shared.epoch.elapsed();
        let (windowed_frames_per_sec, windowed_miss_rate) =
            lock(&shared.window).rates(Instant::now());
        // Each stage counter is its own atomic, so a scrape racing the
        // pipeline can read a later stage ahead of an earlier one (e.g.
        // `recovered > detected` between a worker's two increments).
        // Clamp into the pipeline's monotone order so differenced gauges
        // (`submitted − completed`, per-stage backlogs) never go negative.
        let submitted = shared.stats.submitted.load(Ordering::Relaxed);
        let [planned, detected, recovered, completed, deadline_misses] = clamp_stage_counters(
            submitted,
            [
                shared.stats.planned.load(Ordering::Relaxed),
                shared.stats.detected.load(Ordering::Relaxed),
                shared.stats.recovered.load(Ordering::Relaxed),
                shared.stats.completed.load(Ordering::Relaxed),
                shared.stats.deadline_misses.load(Ordering::Relaxed),
            ],
        );
        RuntimeStats {
            submitted,
            completed,
            deadline_misses,
            planned,
            detected,
            recovered,
            tier_admissions: std::array::from_fn(|i| {
                shared.stats.tier_admissions[i].load(Ordering::Relaxed)
            }),
            current_tier: DetectorTier::from_index(
                shared.stats.last_tier.load(Ordering::Relaxed) as usize
            )
            .unwrap_or_default(),
            in_flight,
            capacity: shared.capacity,
            shards: shared.n_shards,
            workers: shared.pool.workers(),
            shard_queue_depths,
            elapsed,
            // Lifetime average: completes/elapsed, zero before the first
            // delivery rather than an absurd early-snapshot spike.
            frames_per_sec: if completed == 0 {
                0.0
            } else {
                completed as f64 / elapsed.as_secs_f64().max(1e-9)
            },
            windowed_frames_per_sec,
            windowed_miss_rate,
            latency_per_client: shared.latency.iter().map(LogHistogram::snapshot).collect(),
            queue_wait_per_shard: shared.pool.queue_wait_snapshots(),
            deadline_slack: shared.slack.snapshot(),
            deadline_lateness: shared.lateness.snapshot(),
        }
    }
}

/// Clamps the stage counters `[planned, detected, recovered, completed,
/// deadline_misses]` into the pipeline's monotone order under `submitted`:
/// each stage can never have processed more frames than the one feeding
/// it, and misses are a subset of completions. Raw reads can violate this
/// transiently (each counter is a separate atomic); exported snapshots
/// must not.
fn clamp_stage_counters(submitted: u64, raw: [u64; 5]) -> [u64; 5] {
    let planned = raw[0].min(submitted);
    let detected = raw[1].min(planned);
    let recovered = raw[2].min(detected);
    let completed = raw[3].min(recovered);
    let deadline_misses = raw[4].min(completed);
    [planned, detected, recovered, completed, deadline_misses]
}

impl Drop for FrameStream {
    fn drop(&mut self) {
        // Frames still in flight are abandoned: stop admissions/planning,
        // join the planners (no new detect tasks after this), join the
        // detection workers from *this* thread (a worker must never be the
        // one dropping `Shared`, or it would join itself), then the
        // recovery thread.
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.plan_cv.notify_all();
        for h in self.planners.drain(..) {
            let _ = h.join();
        }
        self.shared.pool.shutdown_and_join();
        self.shared.recover_cv.notify_all();
        if let Some(h) = self.recover.take() {
            let _ = h.join();
        }
    }
}

/// A completed frame, borrowed from the stream. Dropping it releases the
/// frame's slot for re-admission; the outcome reference is valid for the
/// guard's lifetime.
pub struct Completed<'a> {
    stream: &'a FrameStream,
    slot_idx: usize,
    core: RwLockReadGuard<'a, SlotCore>,
    client: usize,
    client_seq: u64,
    missed_deadline: bool,
    tier: DetectorTier,
}

impl Completed<'_> {
    /// The decoded frame outcome (per-client CRC verdicts, operation
    /// counts, detection count).
    pub fn outcome(&self) -> &UplinkOutcome {
        self.core.ws.outcome()
    }

    /// The submitting client lane.
    pub fn client(&self) -> usize {
        self.client
    }

    /// The frame's per-client sequence number (0-based submission order;
    /// [`FrameStream::recv`] delivers each client's frames in exactly this
    /// order).
    pub fn seq(&self) -> u64 {
        self.client_seq
    }

    /// Whether the frame became observable (was delivered) after its
    /// deadline — including time spent parked behind slower predecessors.
    pub fn missed_deadline(&self) -> bool {
        self.missed_deadline
    }

    /// The detector tier that decoded this frame (the control plane's
    /// admission-time choice; also stamped on
    /// [`UplinkOutcome::tier`](gs_phy::UplinkOutcome)).
    pub fn tier(&self) -> DetectorTier {
        self.tier
    }
}

impl Drop for Completed<'_> {
    fn drop(&mut self) {
        let shared = &*self.stream.shared;
        lock(&shared.free).push(self.slot_idx);
        shared.free_cv.notify_one();
        // The core read guard releases right after this body; a planner
        // that races onto the freed slot blocks those few instructions on
        // the write lock, never deadlocks (this thread holds nothing else).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosphere_core::geosphere_decoder;
    use gs_channel::{ChannelModel, RayleighChannel};
    use gs_modulation::Constellation;
    use gs_phy::decode_frame_batched_into;

    fn small_cfg() -> PhyConfig {
        PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) }
    }

    fn channels(n: usize, seed: u64) -> Vec<Arc<MimoChannel>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Arc::new(RayleighChannel::new(4, 2).realize(&mut rng))).collect()
    }

    /// The serial reference for one submission.
    fn serial_outcome(cfg: &PhyConfig, f: &UplinkFrame, ws: &mut FrameWorkspace) -> UplinkOutcome {
        let cfg = PhyConfig { payload_bits: f.payload_bits.unwrap_or(cfg.payload_bits), ..*cfg };
        let mut rng = StdRng::seed_from_u64(f.seed);
        decode_frame_batched_into(&cfg, &f.channel, &geosphere_decoder(), f.snr_db, &mut rng, 1, ws)
            .clone()
    }

    /// PR 8 regression (the saturating-window bug): a 500 fps delivery
    /// stream must report ~500 windowed fps. Before the fix the 128-entry
    /// ring divided by the full 1 s span regardless of coverage, clamping
    /// the figure at 128 fps from ~430 fps onward — the exact signal the
    /// `HysteresisPolicy` reads.
    #[test]
    fn window_reports_true_rate_at_500_fps() {
        let mut w = DeliveryWindow::new();
        let now = Instant::now();
        // 600 deliveries at exactly 2 ms spacing, newest at `now`: 501
        // fall within the trailing second (offsets 0..=1000 ms).
        for k in (0..600u64).rev() {
            w.record(now - Duration::from_millis(2 * k), false);
        }
        let (fps, miss) = w.rates(now);
        assert!((fps - 501.0).abs() < 5.0, "expected ~500 fps, got {fps} (pre-fix: 128)");
        assert_eq!(miss, 0.0);
    }

    /// PR 8 regression (the shrinking miss horizon): under load the old
    /// ring retained only the trailing ~0.1 s of deliveries, so misses
    /// older than that vanished from the windowed miss rate. The horizon
    /// must stay pinned at the full covered second.
    #[test]
    fn window_miss_horizon_stays_one_second() {
        let mut w = DeliveryWindow::new();
        let now = Instant::now();
        // 500 deliveries over the last second; the *older* 250 all missed.
        // A horizon shrunk to the trailing 0.1 s would report ~0 misses.
        for k in (0..500u64).rev() {
            w.record(now - Duration::from_millis(2 * k), k >= 250);
        }
        let (fps, miss) = w.rates(now);
        assert!((fps - 500.0).abs() < 5.0, "expected ~500 fps, got {fps}");
        assert!((miss - 0.5).abs() < 0.01, "expected miss rate 0.5, got {miss}");
    }

    /// A stream younger than the window span reports its true rate over
    /// the covered span, not an average diluted by the uncovered future.
    #[test]
    fn window_young_stream_is_not_underestimated() {
        let mut w = DeliveryWindow::new();
        let now = Instant::now();
        // 50 deliveries over the last 100 ms — a 500 fps burst.
        for k in (0..50u64).rev() {
            w.record(now - Duration::from_millis(2 * k), false);
        }
        let (fps, _) = w.rates(now);
        assert!((fps - 500.0).abs() < 30.0, "expected ~500 fps over 98 ms, got {fps}");
        // Idle decay still works: a second later everything aged out.
        let (fps_idle, miss_idle) = w.rates(now + Duration::from_secs(2));
        assert_eq!((fps_idle, miss_idle), (0.0, 0.0));
    }

    /// Overflowing the (now much larger) ring narrows the averaging
    /// horizon but must not clamp the reported rate.
    #[test]
    fn window_overflow_keeps_rate_unclamped() {
        let mut w = DeliveryWindow::new();
        let now = Instant::now();
        // 2 × WINDOW_EVENTS deliveries at 10 µs spacing (100k fps): the
        // ring retains the newest WINDOW_EVENTS, covering ~41 ms.
        for k in (0..2 * WINDOW_EVENTS as u64).rev() {
            w.record(now - Duration::from_micros(10 * k), false);
        }
        let (fps, _) = w.rates(now);
        assert!(
            (fps - 100_000.0).abs() / 100_000.0 < 0.05,
            "expected ~100k fps over the covered span, got {fps}"
        );
    }

    /// Stage counters exported by a snapshot must be monotone along the
    /// pipeline even when the raw atomics were read mid-increment.
    #[test]
    fn stage_counter_clamp_restores_pipeline_order() {
        // A torn read: detection finished (7) before the scrape saw the
        // planner's increment (6), and a miss landed before `completed`.
        let [planned, detected, recovered, completed, misses] =
            clamp_stage_counters(8, [6, 7, 7, 5, 6]);
        assert!(planned <= 8 && detected <= planned && recovered <= detected);
        assert!(completed <= recovered && misses <= completed);
        assert_eq!([planned, detected, recovered, completed, misses], [6, 6, 6, 5, 5]);
        // An in-order read passes through untouched.
        assert_eq!(clamp_stage_counters(10, [9, 8, 7, 6, 2]), [9, 8, 7, 6, 2]);
    }

    #[test]
    fn stream_matches_serial_and_orders_per_client() {
        let cfg = small_cfg();
        let chans = channels(3, 41);
        let mut sc = StreamConfig::new(2);
        sc.workers = 3;
        sc.shards = 2;
        sc.capacity = 4;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        assert!(stream.shards() >= 1 && stream.shards() <= 2);
        assert_eq!(stream.capacity(), 4);

        // Interleaved submissions across two clients.
        let frames: Vec<UplinkFrame> = (0..10)
            .map(|k| UplinkFrame::new(k % 2, Arc::clone(&chans[k % 3]), 20.0, 9000 + k as u64))
            .collect();
        let mut ws = FrameWorkspace::new();
        let reference: Vec<UplinkOutcome> =
            frames.iter().map(|f| serial_outcome(&cfg, f, &mut ws)).collect();

        // Submit from a separate source thread: with capacity 4 < 10
        // frames, blocking `submit` exercises real backpressure while the
        // main thread consumes.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for f in &frames {
                    stream.submit(f.clone()).unwrap();
                }
            });
            let mut next_seq = [0u64; 2];
            let mut seen = 0;
            while seen < frames.len() {
                let done = stream.recv().unwrap();
                let client = done.client();
                assert_eq!(done.seq(), next_seq[client], "per-client delivery order");
                next_seq[client] += 1;
                // Submission k of client c is the (2*seq + c)-th overall frame.
                let k = (2 * done.seq() + client as u64) as usize;
                assert_eq!(done.outcome().client_ok, reference[k].client_ok, "frame {k}");
                assert_eq!(done.outcome().stats, reference[k].stats, "frame {k}");
                assert_eq!(done.outcome().detections, reference[k].detections, "frame {k}");
                seen += 1;
            }
        });
        let stats = stream.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.in_flight, 0, "all slots released");
        assert_eq!(stats.shard_queue_depths.len(), stream.shards());
    }

    #[test]
    fn try_submit_refuses_when_full_and_recovers() {
        let cfg = small_cfg();
        let chans = channels(1, 42);
        let mut sc = StreamConfig::new(1);
        sc.workers = 1;
        sc.capacity = 2;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);

        // Saturate admission faster than the pipeline can drain; at some
        // point try_submit must refuse (capacity 2, 8 rapid submissions),
        // and the refused frame must come back intact. Every refusal is
        // resolved by consuming one completion (which frees a slot) and
        // retrying through the blocking path.
        let mut refused = 0;
        let mut received = 0u64;
        for k in 0..8u64 {
            let f = UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, k);
            match stream.try_submit(f) {
                Ok(()) => {}
                Err(TrySubmitError::Full(back)) => {
                    assert_eq!(back.seed, k, "refused frame returned unchanged");
                    refused += 1;
                    // recv frees a slot, proving the pipeline still flows,
                    // then blocking submit applies backpressure instead.
                    drop(stream.recv().unwrap());
                    received += 1;
                    stream.submit(back).unwrap();
                }
                Err(TrySubmitError::Dead(_)) => panic!("healthy stream reported dead"),
            }
        }
        assert!(refused > 0, "capacity 2 must refuse at least one of 8 rapid submissions");
        while received < 8 {
            drop(stream.recv().unwrap());
            received += 1;
        }
        let stats = stream.stats();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn deadlines_are_recorded_not_dropped() {
        let cfg = small_cfg();
        let chans = channels(1, 43);
        let mut sc = StreamConfig::new(1);
        sc.workers = 2;
        sc.capacity = 3;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);

        // An already-expired deadline must still complete, flagged missed;
        // a far-future deadline must complete unflagged.
        let mut expired = UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, 1);
        expired.deadline = Some(Instant::now() - Duration::from_secs(1));
        let mut roomy = UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, 2);
        roomy.deadline = Some(Instant::now() + Duration::from_secs(3600));
        stream.submit(expired).unwrap();
        stream.submit(roomy).unwrap();

        let first = stream.recv().unwrap();
        assert_eq!(first.seq(), 0);
        assert!(first.missed_deadline(), "expired deadline must be flagged");
        drop(first);
        let second = stream.recv().unwrap();
        assert!(!second.missed_deadline(), "one-hour deadline cannot be missed");
        drop(second);
        assert_eq!(stream.stats().deadline_misses, 1);
    }

    #[test]
    fn bad_channel_shape_fails_on_the_submitting_thread() {
        // A shape error must surface as a submit-side panic, not as a
        // planner-thread death that would leave recv() hanging.
        let cfg = small_cfg(); // 48 subcarriers
        let mut sc = StreamConfig::new(1);
        sc.workers = 1;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        let bad = Arc::new(
            gs_channel::SelectiveRayleighChannel {
                n_fft: 64,
                n_subcarriers: 7,
                ..gs_channel::SelectiveRayleighChannel::indoor(4, 2)
            }
            .realize(&mut StdRng::seed_from_u64(9)),
        );
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = stream.submit(UplinkFrame::new(0, bad, 20.0, 1));
        }));
        assert!(res.is_err(), "mismatched subcarrier count must be rejected at submission");
        // The stream is still fully operational afterwards.
        let good = channels(1, 45);
        stream.submit(UplinkFrame::new(0, Arc::clone(&good[0]), 20.0, 2)).unwrap();
        let done = stream.recv().unwrap();
        assert_eq!(done.seq(), 0);
    }

    #[test]
    fn per_frame_payload_override_matches_serial() {
        let cfg = small_cfg();
        let chans = channels(2, 44);
        let mut sc = StreamConfig::new(1);
        sc.workers = 2;
        sc.shards = 2;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        let mut ws = FrameWorkspace::new();
        // Alternate frame lengths (shrinking and growing) through one stream.
        let frames: Vec<UplinkFrame> = [512usize, 128, 384, 128]
            .iter()
            .enumerate()
            .map(|(k, &bits)| {
                let mut f = UplinkFrame::new(0, Arc::clone(&chans[k % 2]), 22.0, 500 + k as u64);
                f.payload_bits = Some(bits);
                f
            })
            .collect();
        let reference: Vec<UplinkOutcome> =
            frames.iter().map(|f| serial_outcome(&cfg, f, &mut ws)).collect();
        for f in &frames {
            stream.submit(f.clone()).unwrap();
        }
        for r in &reference {
            let done = stream.recv().unwrap();
            assert_eq!(done.outcome().client_ok, r.client_ok);
            assert_eq!(done.outcome().stats, r.stats);
        }
    }

    /// An injected worker fault must surface as typed [`StreamDead`]
    /// errors from `submit`/`recv` — never as a panic on the caller's
    /// thread — with the pre-fault completions still delivered and the
    /// fault position deterministic under lockstep submission.
    #[test]
    fn injected_worker_fault_reports_stream_dead() {
        let cfg = small_cfg();
        let chans = channels(1, 46);
        let mut sc = StreamConfig::new(1);
        sc.workers = 1;
        sc.shards = 1;
        sc.capacity = 2;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        // Lockstep: one task in flight at a time, so pool pop k = frame k.
        // Armed at pop 3 → frames 0 and 1 complete, frame 2 is lost.
        stream.inject_worker_panic_after(0, 3);
        for k in 0..2u64 {
            stream.submit(UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, k)).unwrap();
            let done = stream.recv().unwrap();
            assert_eq!(done.seq(), k);
        }
        stream.submit(UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, 2)).unwrap();
        assert_eq!(stream.recv().err(), Some(StreamDead), "lost frame must report a dead stream");
        match stream.try_submit(UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, 3)) {
            Err(TrySubmitError::Dead(back)) => assert_eq!(back.seed, 3),
            other => panic!("dead stream must refuse admission, got {other:?}"),
        }
        assert_eq!(
            stream.submit(UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, 4)),
            Err(StreamDead)
        );
        let stats = stream.stats();
        assert_eq!(stats.completed, 2, "pre-fault completions are retained");
        drop(stream); // teardown must not hang on the dead worker
    }
}

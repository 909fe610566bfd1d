//! The [`FrameStream`] engine: slot pool, frame tasks, ordering.
//!
//! See the crate docs for the architecture. This module holds the whole
//! engine: the bounded slot pool (admission control), the pool job that
//! runs each frame from plan to delivery, per-client in-order completion
//! delivery, and the stream's books: every piece of that bookkeeping, the
//! counters included, sits behind one mutex.

use crate::policy::{AdaptationPolicy, PinnedPolicy, PressureSignal};
use crate::pool::{DetectionPool, NO_DEADLINE};
use crate::stats::RuntimeStats;
use geosphere_core::{
    Detection, DetectionBatch, DetectorLadder, DetectorStats, DetectorTier, DetectorWorkspace,
    MimoDetector,
};
use gs_channel::MimoChannel;
use gs_phy::{FrameWorkspace, PhyConfig, UplinkOutcome};
use gs_prof::hist::LogHistogram;
use gs_prof::trace as gtrace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Optional completion deadline. Frames are started and detected
    /// earliest-deadline-first; deadline-free frames run after all
    /// deadline-bearing ones, FIFO. A missed deadline never drops the
    /// frame — it is recorded ([`Completed::missed_deadline`],
    /// [`RuntimeStats::deadline_misses`]).
    pub deadline: Option<Instant>,
}

impl UplinkFrame {
    /// A deadline-free submission.
    pub fn new(client: usize, channel: Arc<MimoChannel>, snr_db: f64, seed: u64) -> Self {
        UplinkFrame { client, channel, snr_db, seed, deadline: None }
    }
}

/// The stream can no longer make progress: a pool worker panicked while
/// planning, detecting or recovering a frame. Outstanding frames will
/// never complete; the stream must be torn down. Returned as a typed
/// error (rather than a panic on the submitting thread) so
/// fault-injection campaigns can record worker loss as a scenario
/// outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDead;

impl std::fmt::Display for StreamDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame stream is dead: a pool worker panicked")
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

/// Sizing and placement knobs for a [`FrameStream`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Distinct source lanes (ordering domains). Must be ≥ 1.
    pub clients: usize,
    /// Pool workers (`0` = machine parallelism); they plan, detect and
    /// recover every frame.
    pub workers: usize,
    /// Ignored; removed with the next benchmark PR. The pool is one queue
    /// served by every worker.
    pub shards: usize,
    /// Frames admitted concurrently (the slot-pool bound; `0` resolves to
    /// `2 × workers + 2`, enough to keep every worker busy). **Admission
    /// policy:** [`FrameStream::submit`] blocks while all slots are in
    /// flight — backpressure propagates to sources — and
    /// [`FrameStream::try_submit`] refuses instead, for loss-tolerant
    /// sources. A slot is released when the consumer drops the frame's
    /// [`Completed`] guard.
    pub capacity: usize,
    /// Ignored; removed with the next benchmark PR. Planning (~30% of a
    /// frame's work) runs on the pool worker that pops the frame's task,
    /// so there are no planner threads to size.
    pub planners: usize,
    /// Pin pool worker `k` to the `k mod n`-th of the process's `n`
    /// allowed CPUs (default: on, unless `GS_NO_PIN` opts out; see
    /// [`StreamConfig::new`]).
    pub pin: bool,
}

impl StreamConfig {
    /// Defaults for `clients` source lanes: machine-sized workers,
    /// automatic capacity, pinning per `GS_NO_PIN`. Under the shared knob
    /// policy ([`gs_linalg::env::env_flag`]), unset keeps pinning on; empty or
    /// `1`/`true`/`yes`/`on` disables it; `0`/`false`/`no`/`off` keeps it
    /// on; anything else warns on stderr and disables pinning.
    pub fn new(clients: usize) -> Self {
        StreamConfig {
            clients,
            workers: 0,
            shards: 0,
            capacity: 0,
            planners: 1,
            pin: !gs_linalg::env::env_flag("GS_NO_PIN"),
        }
    }
}

/// Per-frame bookkeeping, stamped at admission and kept in the [`Book`].
struct SlotMeta {
    client: usize,
    client_seq: u64,
    snr_db: f64,
    seed: u64,
    deadline: Option<Instant>,
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
            deadline: None,
            channel: None,
            missed_deadline: false,
            tier: DetectorTier::Sphere,
            submitted_at: Instant::now(),
            frame_id: 0,
        }
    }
}

/// The frame's workspace and detections. One party holds it at a time:
/// the worker running the frame's task until delivery, then the
/// consumer's [`Completed`] guard.
struct SlotCore {
    ws: FrameWorkspace,
    /// The frame's detections, in job order.
    detections: Vec<Detection>,
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

/// The stream's books: admission, per-client ordering, delivery and the
/// counters, behind one mutex ([`Shared::book`]). An admission, a
/// delivery or a snapshot therefore sees all of them in one state, so a
/// snapshot's counters agree by construction. Preallocated at build; no
/// operation on it allocates.
///
/// Lock rule: a slot's core may be locked and then the book, never the
/// book and then a core.
struct Book {
    /// Slots not in flight: admission pops one, dropping a [`Completed`]
    /// pushes it back.
    free: Vec<usize>,
    /// Delivered slots awaiting [`FrameStream::recv`], in delivery order.
    done: VecDeque<usize>,
    lanes: Vec<ClientLane>,
    /// Recent deliveries, backing the windowed rates.
    window: DeliveryWindow,
    /// Consulted once per admission.
    policy: Box<dyn AdaptationPolicy>,
    /// Per-frame bookkeeping, indexed by slot.
    meta: Vec<SlotMeta>,
    /// Frames admitted so far; also the next admission's frame id.
    submitted: u64,
    /// Frames delivered to `done`.
    completed: u64,
    /// Deliveries past their deadline.
    deadline_misses: u64,
    /// Admissions per detector tier, indexed by `DetectorTier::index()`.
    tier_admissions: [u64; DetectorTier::COUNT],
    /// The tier the policy chose most recently.
    last_tier: DetectorTier,
}

/// Recent deliveries observed: a ring of the last [`WINDOW_EVENTS`]
/// deliveries, each `(when, missed_deadline)`. The windowed rates
/// ([`DeliveryWindow::rates`]) count only events within the trailing
/// [`WINDOW_SPAN`], so an idle stream decays to zero throughput and a
/// drained stream sheds stale misses — the signals the control plane
/// consumes.
///
/// Both operations are amortized O(1) and allocation-free: the ring keeps
/// a *live* suffix (the events not yet aged out of the span) and the miss
/// count within it. An event leaves the live suffix once, when `rates`
/// finds it older than the span or when the ring overwrites it. The
/// stream stamps every `record` and `rates` instant under its book lock,
/// so events arrive in time order and `now` never runs backward.
struct DeliveryWindow {
    /// Event number `seq` sits at `seq % WINDOW_EVENTS`.
    events: Vec<(Instant, bool)>,
    /// Deliveries recorded so far: the next event's number.
    recorded: u64,
    /// First live event; events `live_from..recorded` are live.
    live_from: u64,
    /// Deadline misses among the live events.
    live_missed: u64,
}

/// Ring capacity. The ring must span the whole [`WINDOW_SPAN`] at the
/// paper's operating point, or the windowed rates silently narrow their
/// horizon under load: the miss rate would cover only the trailing
/// fraction of a second, exactly when the control plane needs the true
/// figure. 4×4 64-QAM 2048-bit frames saturate around 2100 fps on a
/// 2-vCPU host (rxbench `saturate_qam64_28db`), about half of this. Small
/// frames outpace it (`saturate_small_qam16_flat`, 256-bit 16-QAM frames,
/// ~8500 fps); there [`DeliveryWindow::rates`] divides by the span the
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
        DeliveryWindow {
            events: Vec::with_capacity(WINDOW_EVENTS),
            recorded: 0,
            live_from: 0,
            live_missed: 0,
        }
    }

    /// Records one delivery; allocation-free (the ring is preallocated).
    fn record(&mut self, at: Instant, missed: bool) {
        if self.events.len() < WINDOW_EVENTS {
            self.events.push((at, missed));
        } else {
            // Overwrite the oldest retained event, which leaves the live
            // suffix first if it is still in it.
            let evicted = self.recorded - WINDOW_EVENTS as u64;
            if self.live_from == evicted {
                self.expire_oldest_live();
            }
            self.events[ring_slot(self.recorded)] = (at, missed);
        }
        self.recorded += 1;
        self.live_missed += u64::from(missed);
    }

    fn expire_oldest_live(&mut self) {
        self.live_missed -= u64::from(self.events[ring_slot(self.live_from)].1);
        self.live_from += 1;
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
    fn rates(&mut self, now: Instant) -> (f64, f64) {
        // `duration_since` saturates to zero for future instants.
        while self.live_from < self.recorded
            && now.duration_since(self.events[ring_slot(self.live_from)].0) > WINDOW_SPAN
        {
            self.expire_oldest_live();
        }
        let n = self.recorded - self.live_from;
        if n == 0 {
            return (0.0, 0.0);
        }
        // Oldest *retained* event, in or out of the span: events older
        // than the span prove the ring covers the whole span.
        let oldest = self.events[ring_slot(self.recorded.saturating_sub(WINDOW_EVENTS as u64))].0;
        let covered = now.duration_since(oldest).clamp(WINDOW_MIN_SPAN, WINDOW_SPAN);
        let fps = n as f64 / covered.as_secs_f64();
        (fps, self.live_missed as f64 / n as f64)
    }
}

/// Ring position of delivery number `seq`.
fn ring_slot(seq: u64) -> usize {
    (seq % WINDOW_EVENTS as u64) as usize
}

struct Shared {
    cfg: PhyConfig,
    /// One detector per tier; each frame is detected at the tier stamped
    /// on it. A fixed-detector stream is the uniform ladder.
    ladder: DetectorLadder,
    /// Submit→delivery latency per client lane, nanoseconds. Preallocated
    /// at build; recording is lock- and allocation-free.
    latency: Vec<LogHistogram>,
    /// Deadline slack (deadline − delivery) of on-time deliveries.
    slack: LogHistogram,
    /// Deadline overshoot (delivery − deadline) of missed deliveries —
    /// the negative half of the slack distribution, kept as its own
    /// histogram so both stay unsigned.
    lateness: LogHistogram,
    /// Each slot's core, indexed like [`Book::meta`].
    cores: Vec<Mutex<SlotCore>>,
    n_clients: usize,
    capacity: usize,
    /// The stream's executor; its one job is [`Shared::run_task`].
    pool: DetectionPool,
    /// The frame whose task panics its popping worker
    /// ([`FrameStream::inject_worker_panic_at`]); `u64::MAX` when unarmed.
    fault_frame: AtomicU64,
    /// The stream's one bookkeeping lock.
    book: Mutex<Book>,
    /// Signalled on `book` when a slot returns to `Book::free`.
    free_cv: Condvar,
    /// Signalled on `book` when a completion joins `Book::done`.
    done_cv: Condvar,
    epoch: Instant,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Waits on `cv` for at most 100 ms: the dead flag, which every waiter
/// re-checks, signals no condvar.
fn wait<'a>(cv: &Condvar, book: MutexGuard<'a, Book>) -> MutexGuard<'a, Book> {
    cv.wait_timeout(book, Duration::from_millis(100))
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .0
}

impl Shared {
    /// The pool's one job: runs the frame in `slot_idx` start to finish
    /// on the worker that popped its task. It plans the frame, detects
    /// every job at the frame's tier, runs the per-client receive chains
    /// and delivers in per-client submission order. The worker's ambient
    /// trace context is already the frame's (the pool adopted it from the
    /// task), so every stage scope picks it up. Deadline accounting
    /// happens in [`Shared::deliver`], not here: a frame parked behind a
    /// slow predecessor can still miss.
    fn run_task(&self, slot_idx: usize, ws: &mut DetectorWorkspace) {
        let (frame_id, tier, client, seq, snr_db, seed, channel) = {
            let mut book = lock(&self.book);
            let meta = &mut book.meta[slot_idx];
            // The book holds the channel only until the frame is planned.
            let channel = meta.channel.take().expect("slot submitted without a channel");
            (
                meta.frame_id,
                meta.tier,
                meta.client,
                meta.client_seq,
                meta.snr_db,
                meta.seed,
                channel,
            )
        };
        if frame_id == self.fault_frame.load(Ordering::SeqCst) {
            // Die before the frame runs, so it is lost exactly as under an
            // organic worker crash.
            panic!("injected worker fault (frame {frame_id})");
        }
        {
            let mut core = lock(&self.cores[slot_idx]);
            let SlotCore { ws: frame, detections } = &mut *core;
            frame.plan_uplink(&self.cfg, &channel, snr_db, &mut StdRng::seed_from_u64(seed));
            drop(channel);
            let detect = gs_prof::scope(gs_prof::Stage::Detect);
            let (channels, jobs) = (frame.planned_channels(), frame.planned_jobs());
            let batch = DetectionBatch { channels, jobs, c: self.cfg.constellation };
            self.ladder.detect_batch_with(tier, &batch, ws, detections);
            drop(detect);
            let mut stats = DetectorStats::default();
            let scatter = gs_prof::scope(gs_prof::Stage::Scatter);
            frame.begin_detection_assembly();
            for (idx, det) in detections.iter().enumerate() {
                frame.absorb_detection(&mut stats, idx, det);
            }
            drop(scatter);
            frame.finish_uplink(&self.cfg, stats);
        }

        // Per-client in-order delivery: deliver this frame if it is the
        // lane's next expected sequence (then drain any parked
        // successors); otherwise park it.
        let mut book = lock(&self.book);
        let ring = |seq: u64| (seq % self.capacity as u64) as usize;
        let lane = &mut book.lanes[client];
        if seq != lane.next_deliver {
            gtrace::emit(gtrace::TracePoint::Park);
            let cell = &mut lane.parked[ring(seq)];
            // A hard assert, not a debug one: an occupied cell means a
            // sequencing bug is about to overwrite (lose) a completed
            // frame. Panicking here kills the pool like any other worker
            // panic, and the stream reports dead.
            assert!(cell.is_none(), "parking ring cell already occupied (seq {seq})");
            *cell = Some(slot_idx);
            return;
        }
        let mut next = Some(slot_idx);
        while let Some(idx) = next {
            self.deliver(&mut book, idx);
            let lane = &mut book.lanes[client];
            lane.next_deliver += 1;
            next = lane.parked[ring(lane.next_deliver)].take();
        }
        // Wake receivers once the book is free for them to take.
        drop(book);
        self.done_cv.notify_all();
    }

    /// Makes one frame observable: accounts its deadline **now** (a frame
    /// that waited in the parking ring past its deadline missed it, even
    /// though its own recovery finished in time), feeds the delivery
    /// window the control plane reads, and queues the completion; the
    /// caller wakes the receivers.
    fn deliver(&self, book: &mut Book, slot_idx: usize) {
        let _prof = gs_prof::scope(gs_prof::Stage::Delivery);
        let now = Instant::now();
        let meta = &mut book.meta[slot_idx];
        let missed = meta.deadline.is_some_and(|d| now > d);
        meta.missed_deadline = missed;
        // Telemetry, recorded at the observability point the counters
        // use: submit→delivery latency on the client's lane, and the
        // signed deadline margin split into slack/lateness
        // (`duration_since` saturates, so each side stays unsigned).
        self.latency[meta.client].record_duration(now.duration_since(meta.submitted_at));
        match meta.deadline {
            Some(d) if missed => self.lateness.record_duration(now.duration_since(d)),
            Some(d) => self.slack.record_duration(d.duration_since(now)),
            None => {}
        }
        // Explicit identity: the recovering worker's ambient context is
        // the frame being recovered, which may differ when draining parked
        // successors.
        let frame_id = meta.frame_id;
        gtrace::emit_for(
            gtrace::TracePoint::Deliver,
            gtrace::EventKind::Instant,
            trace_ctx(frame_id, meta.client, meta.tier),
        );
        if missed {
            book.deadline_misses += 1;
            gtrace::trigger(gtrace::Trigger::DeadlineMiss, frame_id);
        }
        book.window.record(now, missed);
        book.done.push_back(slot_idx);
        book.completed += 1;
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
}

/// Flight-recorder identity for a frame.
fn trace_ctx(frame_id: u64, client: usize, tier: DetectorTier) -> gtrace::FrameCtx {
    gtrace::FrameCtx { frame: frame_id, client: client as u32, tier: tier.index() as u8 }
}

/// A streaming multi-frame uplink engine: admits [`UplinkFrame`]s from many
/// concurrent sources and runs each through *plan → detect → recover* on
/// the pool workers, frames overlapping across workers. See the crate docs
/// for the architecture and guarantees, [`StreamConfig`] for sizing,
/// [`FrameStream::submit`] / [`FrameStream::recv`] for the ingress/egress
/// pair.
pub struct FrameStream {
    shared: Arc<Shared>,
}

impl FrameStream {
    /// Builds a stream decoding with `detector` under the fixed PHY
    /// `cfg`. See [`StreamConfig`] for sizing; workers spawn immediately.
    ///
    /// Internally this is the degenerate control plane — the uniform
    /// ladder pinned to [`DetectorTier::Sphere`] — so every frame runs
    /// `detector` and the stream stays a pure function of its
    /// submissions.
    pub fn new<D: MimoDetector + 'static>(cfg: PhyConfig, detector: D, sc: StreamConfig) -> Self {
        let ladder = DetectorLadder::uniform(Arc::new(detector));
        Self::adaptive(cfg, ladder, PinnedPolicy(DetectorTier::Sphere), sc)
    }

    /// Builds an **adaptive** stream: each admission consults `policy`
    /// (see [`crate::policy`]) and detects at the chosen rung of
    /// `ladder`. With [`PinnedPolicy`] this degenerates to a fixed
    /// detector; with
    /// [`HysteresisPolicy`](crate::policy::HysteresisPolicy) the stream
    /// degrades sphere → FSD → MMSE under deadline pressure and climbs
    /// back as the queue drains.
    ///
    /// # Panics
    /// Every constructor panics, before any worker starts, when
    /// [`PhyConfig::validate`] refuses `cfg` or `sc.clients` is 0.
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
        if let Err(e) = cfg.validate() {
            panic!("invalid PHY config: {e}");
        }
        let workers = if sc.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            sc.workers
        };
        let capacity = if sc.capacity == 0 { 2 * workers + 2 } else { sc.capacity };

        // The queue can hold every in-flight frame at once.
        let pool = DetectionPool::new(workers, capacity, sc.pin);

        let book = Book {
            free: (0..capacity).rev().collect(),
            done: VecDeque::with_capacity(capacity),
            lanes: (0..sc.clients)
                .map(|_| ClientLane {
                    next_submit: 0,
                    next_deliver: 0,
                    parked: vec![None; capacity],
                })
                .collect(),
            window: DeliveryWindow::new(),
            policy,
            meta: (0..capacity).map(|_| SlotMeta::empty()).collect(),
            submitted: 0,
            completed: 0,
            deadline_misses: 0,
            tier_admissions: [0; DetectorTier::COUNT],
            last_tier: DetectorTier::Sphere,
        };

        let shared = Arc::new(Shared {
            cfg,
            ladder,
            latency: (0..sc.clients).map(|_| LogHistogram::new()).collect(),
            slack: LogHistogram::new(),
            lateness: LogHistogram::new(),
            cores: (0..capacity)
                .map(|_| Mutex::new(SlotCore { ws: FrameWorkspace::new(), detections: Vec::new() }))
                .collect(),
            n_clients: sc.clients,
            capacity,
            pool,
            fault_frame: AtomicU64::new(u64::MAX),
            book: Mutex::new(book),
            free_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch: Instant::now(),
        });
        // The workers hold the engine until `Drop` joins them.
        let engine = Arc::clone(&shared);
        shared.pool.spawn(move |slot, ws| engine.run_task(slot, ws));
        FrameStream { shared }
    }

    /// The total pool worker count.
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
    /// Returns [`StreamDead`] when a pool worker has panicked — the frame
    /// was *not* admitted and never will be; tear the stream down.
    ///
    /// # Panics
    /// Panics when `frame.client` is out of range or the channel shape
    /// mismatches the stream's PHY config (submitter bugs, not runtime
    /// conditions).
    pub fn submit(&self, frame: UplinkFrame) -> Result<(), StreamDead> {
        // Validate before taking a slot: a panic past this point must not
        // leak the slot it popped.
        self.assert_admissible(&frame);
        let shared = &*self.shared;
        let mut book = lock(&shared.book);
        let slot_idx = loop {
            if self.is_dead() {
                return Err(StreamDead);
            }
            if let Some(idx) = book.free.pop() {
                break idx;
            }
            book = wait(&shared.free_cv, book);
        };
        self.install(book, slot_idx, &frame)
    }

    /// Non-blocking admission: returns the frame back when no slot is
    /// free ([`TrySubmitError::Full`], for sources that prefer dropping to
    /// stalling) or the stream is dead ([`TrySubmitError::Dead`]).
    pub fn try_submit(&self, frame: UplinkFrame) -> Result<(), TrySubmitError> {
        self.assert_admissible(&frame);
        if self.is_dead() {
            return Err(TrySubmitError::Dead(frame));
        }
        let mut book = lock(&self.shared.book);
        let Some(slot_idx) = book.free.pop() else {
            drop(book);
            // Loss-tolerant refusal is an anomaly worth a flight record:
            // no frame id exists (nothing was admitted), so the event
            // rides the no-frame "stream" track.
            gtrace::emit_for(
                gtrace::TracePoint::Refuse,
                gtrace::EventKind::Instant,
                gtrace::FrameCtx {
                    frame: gtrace::NO_FRAME,
                    client: frame.client as u32,
                    tier: gtrace::NO_TIER,
                },
            );
            gtrace::trigger(gtrace::Trigger::AdmissionRefusal, gtrace::NO_FRAME);
            return Err(TrySubmitError::Full(frame));
        };
        self.install(book, slot_idx, &frame).map_err(|StreamDead| TrySubmitError::Dead(frame))
    }

    /// Fault injection: the worker that pops frame `frame`'s task (frames
    /// are numbered from 0 in global submission order) panics before
    /// running it, exactly as an organic worker crash would. The death
    /// then surfaces from [`FrameStream::submit`]/[`FrameStream::recv`] as
    /// [`StreamDead`]; under lockstep submission every earlier frame is
    /// delivered and no later one admitted. A later call re-arms. For
    /// seeded fault-injection campaigns only; production embedders must
    /// never call this.
    pub fn inject_worker_panic_at(&self, frame: u64) {
        self.shared.fault_frame.store(frame, Ordering::SeqCst);
    }

    /// Whether the stream is dead — a pool worker panicked. A dead stream
    /// refuses new work ([`StreamDead`] / [`TrySubmitError::Dead`]) but
    /// [`FrameStream::recv`] still drains completions that were already
    /// queued.
    pub fn is_dead(&self) -> bool {
        self.shared.pool.is_dead()
    }

    fn assert_admissible(&self, frame: &UplinkFrame) {
        assert!(
            frame.client < self.shared.n_clients,
            "client {} out of range (stream has {} lanes)",
            frame.client,
            self.shared.n_clients
        );
        // Shape errors must surface on the submitting thread, not as a
        // pool-worker panic that would kill the whole stream.
        let sc = frame.channel.num_subcarriers();
        assert!(
            sc == 1 || sc == self.shared.cfg.n_subcarriers,
            "channel subcarrier count {sc} must be 1 or {}",
            self.shared.cfg.n_subcarriers
        );
    }

    /// Admits the frame on its claimed slot, still under the book lock
    /// the caller claimed it with, then queues the slot's task. A pool
    /// that died since the caller's liveness check refuses the task: the
    /// slot goes back to `free` and the stream reports dead.
    fn install(
        &self,
        mut book: MutexGuard<'_, Book>,
        slot_idx: usize,
        frame: &UplinkFrame,
    ) -> Result<(), StreamDead> {
        let shared = &*self.shared;
        let now = Instant::now();
        // One policy consultation per admission, before the frame is
        // queued, so the tier reflects pressure at admission time (no
        // policy may allocate on its steady-state path). The previous
        // tier is read in the same critical section, so every switch is
        // reported exactly once.
        let in_flight = shared.capacity - book.free.len();
        let (_, miss_rate) = book.window.rates(now);
        let signal = PressureSignal {
            miss_rate,
            occupancy: in_flight as f64 / shared.capacity as f64,
            in_flight,
            capacity: shared.capacity,
        };
        let tier = book.policy.select_tier(&signal);
        let switched = tier != std::mem::replace(&mut book.last_tier, tier);
        book.tier_admissions[tier.index()] += 1;
        // The global submission ordinal doubles as the flight recorder's
        // frame id (the pre-increment value, so ids start at 0).
        let frame_id = book.submitted;
        book.submitted += 1;
        let lane = &mut book.lanes[frame.client];
        let client_seq = lane.next_submit;
        lane.next_submit += 1;
        book.meta[slot_idx] = SlotMeta {
            client: frame.client,
            client_seq,
            snr_db: frame.snr_db,
            seed: frame.seed,
            deadline: frame.deadline,
            channel: Some(Arc::clone(&frame.channel)),
            missed_deadline: false,
            tier,
            submitted_at: now,
            frame_id,
        };
        drop(book);

        let tctx = trace_ctx(frame_id, frame.client, tier);
        gtrace::emit_for(gtrace::TracePoint::Submit, gtrace::EventKind::Instant, tctx);
        gtrace::emit_for(gtrace::TracePoint::Admit, gtrace::EventKind::Instant, tctx);
        if switched {
            gtrace::emit_for(gtrace::TracePoint::TierSwitch, gtrace::EventKind::Instant, tctx);
            gtrace::trigger(gtrace::Trigger::TierSwitch, frame_id);
        }
        // The task carries the submitter's ambient context to the worker
        // that pops it, so the frame's identity rides along for its plan,
        // detection and recovery.
        gtrace::set_context(tctx);
        let queued = shared.pool.submit(shared.deadline_key(frame.deadline), slot_idx);
        gtrace::clear_context();
        if queued.is_err() {
            lock(&shared.book).free.push(slot_idx);
            shared.free_cv.notify_one();
        }
        queued
    }

    /// Receives the next completed frame, blocking until one is ready.
    /// Frames of one client arrive in submission order (the runtime parks
    /// internally reordered completions until their predecessors deliver);
    /// frames of different clients interleave arbitrarily.
    ///
    /// Dropping the returned [`Completed`] guard releases the frame's slot
    /// back to admission — hold it only as long as the outcome is needed.
    ///
    /// Returns [`StreamDead`] when a pool worker has panicked and no
    /// completed frame is queued — outstanding frames can
    /// never arrive, so waiting on would hang. Completions already
    /// delivered to the done queue before the failure are still handed
    /// out first.
    pub fn recv(&self) -> Result<Completed<'_>, StreamDead> {
        let shared = &*self.shared;
        let mut book = lock(&shared.book);
        loop {
            if let Some(idx) = book.done.pop_front() {
                return Ok(self.completed(book, idx));
            }
            if self.is_dead() {
                return Err(StreamDead);
            }
            book = wait(&shared.done_cv, book);
        }
    }

    /// Non-blocking [`FrameStream::recv`].
    pub fn try_recv(&self) -> Option<Completed<'_>> {
        let mut book = lock(&self.shared.book);
        let slot_idx = book.done.pop_front()?;
        Some(self.completed(book, slot_idx))
    }

    /// Hands out the delivered frame in `slot_idx`, releasing the book
    /// before it locks the slot's core (the lock rule's one order).
    fn completed(&self, book: MutexGuard<'_, Book>, slot_idx: usize) -> Completed<'_> {
        let meta = &book.meta[slot_idx];
        let (client, client_seq, missed_deadline, tier) =
            (meta.client, meta.client_seq, meta.missed_deadline, meta.tier);
        drop(book);
        let core = lock(&self.shared.cores[slot_idx]);
        Completed { stream: self, slot_idx, core, client, client_seq, missed_deadline, tier }
    }

    /// A point-in-time stats snapshot (allocates; not a hot-path call).
    /// The counters, occupancy and windowed rates come from one critical
    /// section of the book, so they agree with each other.
    pub fn stats(&self) -> RuntimeStats {
        let shared = &*self.shared;
        // Read before the book: a task is queued only while its slot is
        // in flight, so the depth never exceeds the `in_flight` read after.
        let queue_depth = shared.pool.queue_depth();
        // The copies allocate, so they are taken outside the lock.
        let latency_per_client = shared.latency.iter().map(LogHistogram::snapshot).collect();
        let queue_wait_per_shard = [shared.pool.queue_wait_snapshot()];
        let (deadline_slack, deadline_lateness) =
            (shared.slack.snapshot(), shared.lateness.snapshot());
        let mut book = lock(&shared.book);
        let now = Instant::now();
        let (windowed_frames_per_sec, windowed_miss_rate) = book.window.rates(now);
        RuntimeStats {
            submitted: book.submitted,
            completed: book.completed,
            deadline_misses: book.deadline_misses,
            tier_admissions: book.tier_admissions,
            current_tier: book.last_tier,
            in_flight: shared.capacity - book.free.len(),
            capacity: shared.capacity,
            workers: shared.pool.workers(),
            queue_depth,
            elapsed: now.duration_since(shared.epoch),
            windowed_frames_per_sec,
            windowed_miss_rate,
            latency_per_client,
            queue_wait_per_shard,
            deadline_slack,
            deadline_lateness,
        }
    }
}

impl Drop for FrameStream {
    fn drop(&mut self) {
        // Frames still in flight are abandoned. The workers are joined
        // from *this* thread: a worker must never be the one dropping
        // `Shared`, or it would join itself.
        self.shared.pool.shutdown_and_join();
    }
}

/// A completed frame, borrowed from the stream. Dropping it releases the
/// frame's slot for re-admission; the outcome reference is valid for the
/// guard's lifetime.
pub struct Completed<'a> {
    stream: &'a FrameStream,
    slot_idx: usize,
    core: MutexGuard<'a, SlotCore>,
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
    /// admission-time choice).
    pub fn tier(&self) -> DetectorTier {
        self.tier
    }
}

impl Drop for Completed<'_> {
    fn drop(&mut self) {
        // Core (held by this guard) then book: the lock rule's one order.
        // A worker planning a frame that raced onto the freed slot blocks
        // on the core lock until the guard releases, right after this body.
        let shared = &*self.stream.shared;
        lock(&shared.book).free.push(self.slot_idx);
        shared.free_cv.notify_one();
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
        let mut rng = StdRng::seed_from_u64(f.seed);
        decode_frame_batched_into(cfg, &f.channel, &geosphere_decoder(), f.snr_db, &mut rng, 1, ws)
            .clone()
    }

    /// A 500 fps delivery stream must report ~500 windowed fps — the
    /// signal the `HysteresisPolicy` reads.
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
        assert!((fps - 501.0).abs() < 5.0, "expected ~500 fps, got {fps}");
        assert_eq!(miss, 0.0);
    }

    /// Under load the miss-rate horizon stays pinned at the full covered
    /// second: misses 0.5–1 s old still count.
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

    /// Overflowing the ring narrows the averaging horizon but must not
    /// clamp the reported rate.
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

    /// Interleaved records and reads (the stream's real pattern) must match
    /// a full scan of the retained events at every read, across ring
    /// overflow and live events being overwritten.
    #[test]
    fn window_incremental_rates_match_a_full_scan() {
        use rand::Rng;
        let mut w = DeliveryWindow::new();
        let mut retained = VecDeque::new();
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(88);
        let mut t = start;
        // Reads see a non-decreasing clock that may run ahead of the
        // newest record (a reader that took `now` before a delivery).
        let mut now = start;
        for k in 0..3 * WINDOW_EVENTS {
            // 10–100 µs gaps: the first 2 × WINDOW_EVENTS deliveries fit
            // well inside the span, so the ring overwrites live events.
            // After that, 50–400 ms stalls every 500 deliveries make events
            // age out both one at a time and in runs.
            let gap = if k > 2 * WINDOW_EVENTS && k % 500 == 499 {
                Duration::from_millis(rng.gen_range(50..400u64))
            } else {
                Duration::from_micros(rng.gen_range(10..100u64))
            };
            t += gap;
            let missed = rng.gen_bool(0.3);
            w.record(t, missed);
            retained.push_back((t, missed));
            if retained.len() > WINDOW_EVENTS {
                retained.pop_front();
            }
            if k % 7 == 0 {
                now = now.max(t + Duration::from_micros(rng.gen_range(0..2000u64)));
                let live: Vec<_> = retained
                    .iter()
                    .filter(|(at, _)| now.duration_since(*at) <= WINDOW_SPAN)
                    .collect();
                let (fps, miss) = w.rates(now);
                if live.is_empty() {
                    assert_eq!((fps, miss), (0.0, 0.0), "event {k}");
                    continue;
                }
                let covered = now.duration_since(retained[0].0).clamp(WINDOW_MIN_SPAN, WINDOW_SPAN);
                let missed = live.iter().filter(|(_, m)| *m).count();
                assert_eq!(fps, live.len() as f64 / covered.as_secs_f64(), "event {k}");
                assert_eq!(miss, missed as f64 / live.len() as f64, "event {k}");
            }
        }
    }

    /// Every snapshot taken while frames flow is consistent: one tier
    /// admission per submitted frame, misses a subset of completions, and
    /// every admitted but undelivered frame holding a slot.
    #[test]
    fn snapshots_stay_consistent_under_load() {
        use std::sync::atomic::AtomicBool;
        const FRAMES: u64 = 300;
        let cfg = small_cfg();
        let chans = channels(2, 52);
        let mut sc = StreamConfig::new(2);
        sc.workers = 2;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        let capacity = stream.capacity();
        let running = AtomicBool::new(true);
        let snapshots = std::thread::scope(|scope| {
            scope.spawn(|| {
                for k in 0..FRAMES {
                    let mut f = UplinkFrame::new(
                        (k % 2) as usize,
                        Arc::clone(&chans[(k % 2) as usize]),
                        20.0,
                        k,
                    );
                    // Every third frame is already late; the rest are not.
                    let slack = Duration::from_secs(3600);
                    f.deadline = Some(if k % 3 == 0 {
                        Instant::now() - Duration::from_millis(1)
                    } else {
                        Instant::now() + slack
                    });
                    stream.submit(f).unwrap();
                }
            });
            let watcher = scope.spawn(|| {
                let mut n = 0u64;
                while running.load(Ordering::Acquire) {
                    let s = stream.stats();
                    let c = (s.submitted, s.completed, s.deadline_misses, s.in_flight);
                    assert_eq!(s.tier_admissions.iter().sum::<u64>(), s.submitted, "{c:?}");
                    assert!(s.deadline_misses <= s.completed, "{c:?}");
                    assert!(s.completed <= s.submitted, "{c:?}");
                    assert!(s.submitted - s.completed <= s.in_flight as u64, "{c:?}");
                    assert!(s.in_flight <= s.capacity && s.capacity == capacity, "{c:?}");
                    n += 1;
                    std::thread::yield_now();
                }
                n
            });
            for _ in 0..FRAMES {
                drop(stream.recv().unwrap());
            }
            running.store(false, Ordering::Release);
            watcher.join().unwrap()
        });
        assert!(snapshots > 0);
        let s = stream.stats();
        assert_eq!((s.submitted, s.completed, s.in_flight), (FRAMES, FRAMES, 0));
        assert_eq!(s.deadline_misses, FRAMES.div_ceil(3), "exactly the late frames missed");
    }

    #[test]
    fn stream_matches_serial_and_orders_per_client() {
        let cfg = small_cfg();
        let chans = channels(3, 41);
        let mut sc = StreamConfig::new(2);
        sc.workers = 3;
        sc.capacity = 4;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
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
        assert_eq!(stats.queue_depth, 0, "every task popped");
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
        // pool-worker death that would leave recv() hanging.
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
    fn bad_geometry_fails_on_the_constructing_thread() {
        // 7 subcarriers × 4 bits = 28 coded bits: no 16-column interleaver.
        let cfg = PhyConfig { n_subcarriers: 7, ..small_cfg() };
        let mut sc = StreamConfig::new(1);
        sc.workers = 1;
        let res = std::panic::catch_unwind(|| FrameStream::new(cfg, geosphere_decoder(), sc));
        let msg = *res.err().expect("construction must refuse").downcast::<String>().unwrap();
        assert!(msg.contains("multiple of 16"), "{msg}");
    }

    /// The admission policy reads slot-pool occupancy alone because the
    /// queue can never hold more tasks than there are frames in flight: it
    /// holds at most one task per in-flight frame. With the consumer
    /// stalled, `in_flight` never shrinks, and `stats` reads the depth
    /// before it, so the check cannot fail by a race.
    #[test]
    fn queue_depths_never_exceed_in_flight() {
        let cfg = small_cfg();
        let chans = channels(1, 50);
        for workers in [1, 2] {
            let mut sc = StreamConfig::new(1);
            sc.workers = workers;
            sc.capacity = 6;
            let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
            for k in 0..stream.capacity() as u64 {
                stream.submit(UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, 800 + k)).unwrap();
                let stats = stream.stats();
                assert!(
                    stats.queue_depth <= stats.in_flight,
                    "workers {workers}, submit {k}: depth {} > in flight {}",
                    stats.queue_depth,
                    stats.in_flight
                );
            }
        }
    }

    /// A frame whose detection unwinds on a 2-worker stream is never
    /// recovered or delivered; the stream reports dead, and teardown does
    /// not hang. (The injected fault below kills a worker before the frame
    /// runs; this panic happens inside the job.)
    #[test]
    fn unwinding_detection_is_never_delivered() {
        use geosphere_core::GeosphereDecoder;
        use gs_linalg::{Complex, Matrix};
        use std::sync::atomic::AtomicUsize;

        static FINISHED: AtomicUsize = AtomicUsize::new(0);
        static UNWOUND: AtomicUsize = AtomicUsize::new(0);

        /// Geosphere, except that a batch holding a channel-1 job panics.
        struct PanicsOnChannelOne(GeosphereDecoder);
        impl MimoDetector for PanicsOnChannelOne {
            fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
                self.0.detect(h, y, c)
            }
            fn detect_batch_with(
                &self,
                batch: &DetectionBatch,
                ws: &mut DetectorWorkspace,
                out: &mut Vec<Detection>,
            ) {
                if batch.jobs.iter().any(|job| job.channel == 1) {
                    UNWOUND.fetch_add(1, Ordering::SeqCst);
                    panic!("intentional test panic on channel 1");
                }
                self.0.detect_batch_with(batch, ws, out);
                FINISHED.fetch_add(1, Ordering::SeqCst);
            }
            fn name(&self) -> &'static str {
                "panics-on-channel-1"
            }
        }

        let cfg = small_cfg();
        let mut sc = StreamConfig::new(1);
        sc.workers = 2;
        let stream = FrameStream::new(cfg, PanicsOnChannelOne(geosphere_decoder()), sc);
        // A flat channel plans one channel, index 0: frame 0 delivers.
        let flat = channels(1, 48);
        stream.submit(UplinkFrame::new(0, Arc::clone(&flat[0]), 20.0, 1)).unwrap();
        drop(stream.recv().unwrap());
        // A selective channel plans one channel per subcarrier, so frame 1
        // unwinds in detection.
        let selective = gs_channel::SelectiveRayleighChannel {
            n_fft: 64,
            n_subcarriers: cfg.n_subcarriers,
            ..gs_channel::SelectiveRayleighChannel::indoor(4, 2)
        };
        let selective = Arc::new(selective.realize(&mut StdRng::seed_from_u64(49)));
        stream.submit(UplinkFrame::new(0, selective, 20.0, 2)).unwrap();
        // The pool reports death only after the detection has unwound.
        assert_eq!(stream.recv().err(), Some(StreamDead));
        stream.shared.pool.shutdown_and_join();
        assert!(stream.try_recv().is_none(), "the panicked frame is never delivered");
        let stats = stream.stats();
        assert_eq!((stats.submitted, stats.completed), (2, 1));
        drop(stream);
        let finished = FINISHED.load(Ordering::SeqCst);
        assert_eq!((finished, UNWOUND.load(Ordering::SeqCst)), (1, 1), "one detection unwound");
    }

    /// On a 2-worker stream under lockstep, arming frame `k` kills exactly
    /// frame `k`, whichever worker pops it: frames before it deliver, and
    /// it is popped but never delivered.
    #[test]
    fn injected_fault_kills_exactly_the_armed_frame() {
        let cfg = small_cfg();
        let chans = channels(1, 51);
        for k in [3u64, 4] {
            let mut sc = StreamConfig::new(1);
            sc.workers = 2;
            let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
            stream.inject_worker_panic_at(k);
            for f in 0..=k {
                stream.submit(UplinkFrame::new(0, Arc::clone(&chans[0]), 20.0, 900 + f)).unwrap();
                if f < k {
                    assert_eq!(stream.recv().unwrap().seq(), f, "k {k}");
                }
            }
            assert_eq!(stream.recv().err(), Some(StreamDead), "k {k}");
            let stats = stream.stats();
            assert_eq!((stats.submitted, stats.completed), (k + 1, k), "k {k}");
            // Frames 0..=k popped once each.
            assert_eq!(stats.queue_wait_per_shard[0].count(), k + 1, "k {k}");
            drop(stream);
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
        sc.capacity = 2;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        // Lockstep: one frame in flight at a time. Armed at frame 2 →
        // frames 0 and 1 complete, frame 2 is lost.
        stream.inject_worker_panic_at(2);
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

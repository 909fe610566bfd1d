//! Per-frame flight recorder: fixed-capacity per-thread event rings that
//! record where each streaming frame spent its time, anomaly-triggered
//! snapshot dumps, and a Chrome trace-event exporter.
//!
//! The stage cycle table answers "where does the pipeline spend time *on
//! average*"; this module answers "where did **that frame** go" — the
//! causal story behind a single deadline miss, tier switch, or admission
//! refusal. Both are fed by the same guard, [`crate::scope`]: a scope
//! whose stage is on [`HARD_CHAIN`] writes a begin/end span here, so each
//! stage boundary is marked once and the two views cannot disagree.
//!
//! # Recording model
//!
//! Each thread owns one fixed-capacity ring of events ([`RING_CAP`]
//! slots), part of the thread's instrumentation state. An event is three
//! words — tsc timestamp, frame id, and a packed word holding the
//! [`TracePoint`], [`EventKind`], client, and tier — written with
//! plain `Relaxed` stores plus a per-slot sequence word (seqlock) so a
//! concurrent snapshot reader detects and discards torn slots. Recording is **allocation-free and lock-free**
//! after a thread's first event (which registers the ring); the ring
//! overwrites oldest-first, so steady state keeps the last `RING_CAP`
//! events per thread — a black box, not a log.
//!
//! Most instrumentation points don't pass identity around: the runtime
//! sets an ambient per-thread frame context ([`set_context`]) before
//! calling into plan/detect/recover, and [`emit`] and the hard-chain
//! scopes read it. With no context set, emission is a no-op — serial
//! decode paths record nothing and pay one TLS read.
//!
//! # Triggers, retention, export
//!
//! Anomalies ([`Trigger`]: deadline miss, tier switch, admission
//! refusal, injected fault, campaign invariant violation) call
//! [`trigger`], which — rate-limited by [`set_min_dump_gap_ms`] —
//! snapshots every ring, stitches the events into causally-ordered
//! per-frame timelines ([`FrameTimeline`]), and pushes the result into a
//! bounded retention buffer ([`RETAIN_DUMPS`] entries, oldest evicted).
//! [`recent_dumps`] serves them (the `gs-telemetry` `/trace` endpoint),
//! and [`chrome_trace_json`] renders a dump as Chrome trace-event JSON
//! that loads directly in Perfetto or `about://tracing`.
//!
//! # Compile-time erasure
//!
//! Everything hot is gated on the `trace` cargo feature with the same
//! discipline as the `profile` feature: with it off (the default),
//! [`emit`] and [`set_context`] are empty inline functions, scopes write
//! no spans, and [`snapshot_events`] returns nothing. The *types*
//! (events, timelines, dumps, the assembler and the Chrome exporter) are
//! always compiled so call sites and tooling never need `#[cfg]`.

use crate::Stage;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Frame-id value meaning "no frame": events carry it when emitted
/// outside any frame context, and the assembler leaves them out of
/// per-frame timelines (they still appear in the raw dump).
pub const NO_FRAME: u64 = u64::MAX;
/// Tier value meaning "tier unknown / not applicable".
pub const NO_TIER: u8 = u8::MAX;
/// Client value meaning "client unknown" (clients pack into 16 bits on
/// the wire; larger indices saturate to this).
pub const NO_CLIENT: u32 = u16::MAX as u32;

/// Ring capacity per thread, in events. Power of two; at 32 bytes per
/// slot a ring is 128 KiB, and a frame's hard chain is ~30 events, so one
/// ring spans >100 frames of history per thread.
pub const RING_CAP: usize = 4096;

/// Maximum retained anomaly dumps; older dumps are evicted FIFO.
pub const RETAIN_DUMPS: usize = 8;

// ---------------------------------------------------------------------------
// Points, kinds, triggers
// ---------------------------------------------------------------------------

/// Where in the pipeline an event was recorded: a stage span (written by
/// the stage's [`crate::scope`]) or a control-plane instant from the
/// streaming runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TracePoint {
    /// A span over one of the [`HARD_CHAIN`] stages.
    Stage(Stage),
    /// Frame handed to `FrameStream::submit` (instant).
    Submit,
    /// Admission accepted the frame; the policy's tier decision is in the
    /// event's tier field (instant).
    Admit,
    /// Admission refused the frame — stream full (instant).
    Refuse,
    /// Detection task enqueued on the pool's EDF queue (instant).
    Enqueue,
    /// Detection task popped off the pool's EDF queue (instant).
    Pop,
    /// Completed frame parked waiting for per-client in-order delivery
    /// (instant).
    Park,
    /// Frame delivered to the consumer (instant).
    Deliver,
    /// The adaptation policy switched detector tier (instant).
    TierSwitch,
    /// A worker fault (panic / poisoned pool) was observed (instant).
    Fault,
    /// A campaign invariant violation was flagged (instant).
    Violation,
}

impl TracePoint {
    /// Number of distinct point codes.
    pub const COUNT: usize = Stage::COUNT + 10;

    /// Stable wire code. Stage spans map to their stage index
    /// (`0..13`); control points follow.
    pub const fn code(self) -> u16 {
        match self {
            TracePoint::Stage(s) => s.index() as u16,
            TracePoint::Submit => 13,
            TracePoint::Admit => 14,
            TracePoint::Refuse => 15,
            TracePoint::Enqueue => 16,
            TracePoint::Pop => 17,
            TracePoint::Park => 18,
            TracePoint::Deliver => 19,
            TracePoint::TierSwitch => 20,
            TracePoint::Fault => 21,
            TracePoint::Violation => 22,
        }
    }

    /// Decode a wire code; `None` for out-of-range (torn slot).
    pub fn from_code(code: u16) -> Option<TracePoint> {
        if (code as usize) < Stage::COUNT {
            return Some(TracePoint::Stage(Stage::ALL[code as usize]));
        }
        Some(match code {
            13 => TracePoint::Submit,
            14 => TracePoint::Admit,
            15 => TracePoint::Refuse,
            16 => TracePoint::Enqueue,
            17 => TracePoint::Pop,
            18 => TracePoint::Park,
            19 => TracePoint::Deliver,
            20 => TracePoint::TierSwitch,
            21 => TracePoint::Fault,
            22 => TracePoint::Violation,
            _ => return None,
        })
    }

    /// Stable snake_case name (stage name for stage spans).
    pub const fn name(self) -> &'static str {
        match self {
            TracePoint::Stage(s) => s.name(),
            TracePoint::Submit => "submit",
            TracePoint::Admit => "admit",
            TracePoint::Refuse => "refuse",
            TracePoint::Enqueue => "enqueue",
            TracePoint::Pop => "pop",
            TracePoint::Park => "park",
            TracePoint::Deliver => "deliver",
            TracePoint::TierSwitch => "tier_switch",
            TracePoint::Fault => "fault",
            TracePoint::Violation => "violation",
        }
    }
}

/// The "hard chain" of span points every delivered streaming frame passes
/// through, in pipeline order. It is also the one list that decides which
/// stages' scopes write spans; the causal-order tests and the acceptance
/// check ("submit→delivery with all hard-chain stages present") key off
/// it too.
pub const HARD_CHAIN: [TracePoint; 6] = [
    TracePoint::Stage(Stage::Plan),
    TracePoint::Stage(Stage::Detect),
    TracePoint::Stage(Stage::Scatter),
    TracePoint::Stage(Stage::Recover),
    TracePoint::Stage(Stage::Viterbi),
    TracePoint::Stage(Stage::Crc),
];

/// Whether `stage`'s scopes write spans: it is on [`HARD_CHAIN`]. One bit
/// per stage, folded from the list at compile time, so the check is a
/// shift even in unoptimised builds.
#[cfg(feature = "trace")]
const fn traces(stage: Stage) -> bool {
    const MASK: u32 = {
        let mut mask = 0;
        let mut i = 0;
        while i < HARD_CHAIN.len() {
            mask |= 1 << HARD_CHAIN[i].code();
            i += 1;
        }
        mask
    };
    MASK >> stage.index() & 1 == 1
}

/// Control-plane instants every delivered frame passes through, in order.
pub const CONTROL_CHAIN: [TracePoint; 5] = [
    TracePoint::Submit,
    TracePoint::Admit,
    TracePoint::Enqueue,
    TracePoint::Pop,
    TracePoint::Deliver,
];

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Span begin.
    Begin,
    /// Span end.
    End,
    /// Point event.
    Instant,
}

impl EventKind {
    /// Stable wire code (`Begin < End < Instant`, so a same-tick begin
    /// sorts before its end).
    pub const fn code(self) -> u8 {
        match self {
            EventKind::Begin => 0,
            EventKind::End => 1,
            EventKind::Instant => 2,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::Begin),
            1 => Some(EventKind::End),
            2 => Some(EventKind::Instant),
            _ => None,
        }
    }
}

/// What anomaly snapshotted the rings into a retained dump.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// A frame was delivered past its deadline.
    DeadlineMiss,
    /// The adaptation policy moved the stream to a different tier.
    TierSwitch,
    /// `try_submit` refused a frame (stream full).
    AdmissionRefusal,
    /// A worker fault (panic / poisoned pool) was observed.
    Fault,
    /// A campaign scenario invariant was violated.
    Violation,
    /// Explicit operator/test request.
    Manual,
}

impl Trigger {
    /// Number of trigger kinds.
    pub const COUNT: usize = 6;
    /// Every trigger, in index order.
    pub const ALL: [Trigger; Trigger::COUNT] = [
        Trigger::DeadlineMiss,
        Trigger::TierSwitch,
        Trigger::AdmissionRefusal,
        Trigger::Fault,
        Trigger::Violation,
        Trigger::Manual,
    ];

    /// Dense index (`0..COUNT`).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name.
    pub const fn name(self) -> &'static str {
        match self {
            Trigger::DeadlineMiss => "deadline_miss",
            Trigger::TierSwitch => "tier_switch",
            Trigger::AdmissionRefusal => "admission_refusal",
            Trigger::Fault => "fault",
            Trigger::Violation => "violation",
            Trigger::Manual => "manual",
        }
    }
}

// ---------------------------------------------------------------------------
// Events, context
// ---------------------------------------------------------------------------

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Tick timestamp (same clock as the profiler; convert via the dump's
    /// `ticks_per_us`).
    pub tsc: u64,
    /// Frame id (global submission ordinal), or [`NO_FRAME`].
    pub frame: u64,
    /// Recording thread's ring id.
    pub thread: u16,
    /// Where in the pipeline.
    pub point: TracePoint,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// Client index, or [`NO_CLIENT`].
    pub client: u32,
    /// Detector tier, or [`NO_TIER`].
    pub tier: u8,
}

/// Ambient per-thread frame identity; set by the runtime before calling
/// into pipeline stages so deep instrumentation points need no plumbing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameCtx {
    /// Frame id (global submission ordinal), or [`NO_FRAME`].
    pub frame: u64,
    /// Client index.
    pub client: u32,
    /// Detector tier, or [`NO_TIER`].
    pub tier: u8,
}

impl FrameCtx {
    /// The unset context (recording disabled for the thread).
    pub const NONE: FrameCtx = FrameCtx { frame: NO_FRAME, client: NO_CLIENT, tier: NO_TIER };
}

// ---------------------------------------------------------------------------
// Timeline assembly
// ---------------------------------------------------------------------------

/// A paired begin/end span inside one frame's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineSpan {
    /// Span point.
    pub point: TracePoint,
    /// Recording thread.
    pub thread: u16,
    /// Begin tick.
    pub begin: u64,
    /// End tick (`>= begin`; an unmatched begin closes at the frame's
    /// last observed tick).
    pub end: u64,
}

/// An instant inside one frame's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimelineInstant {
    /// Instant point.
    pub point: TracePoint,
    /// Recording thread.
    pub thread: u16,
    /// Tick.
    pub tsc: u64,
}

/// The causal story of one frame, stitched from every thread's ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrameTimeline {
    /// Frame id.
    pub frame: u64,
    /// Client index (first observed), or [`NO_CLIENT`].
    pub client: u32,
    /// Detector tier (last observed), or [`NO_TIER`].
    pub tier: u8,
    /// Paired spans, ordered by begin tick.
    pub spans: Vec<TimelineSpan>,
    /// Instants, ordered by tick.
    pub instants: Vec<TimelineInstant>,
    /// Earliest tick observed for the frame.
    pub begin: u64,
    /// Latest tick observed for the frame.
    pub end: u64,
}

impl FrameTimeline {
    /// Whether any span or instant recorded `point`.
    pub fn has_point(&self, point: TracePoint) -> bool {
        self.spans.iter().any(|s| s.point == point)
            || self.instants.iter().any(|i| i.point == point)
    }

    /// Earliest tick at which `point` was observed (span begin or
    /// instant), if at all.
    pub fn first_tsc(&self, point: TracePoint) -> Option<u64> {
        let s = self.spans.iter().filter(|s| s.point == point).map(|s| s.begin).min();
        let i = self.instants.iter().filter(|i| i.point == point).map(|i| i.tsc).min();
        match (s, i) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Stitch raw events (from any number of threads) into per-frame
/// timelines: begins pair with the nearest following matching end on the
/// same thread, unmatched begins close at the frame's last tick, and
/// events with [`NO_FRAME`] are skipped. Output is ordered by frame id.
pub fn assemble(events: &[TraceEvent]) -> Vec<FrameTimeline> {
    use std::collections::BTreeMap;
    let mut by_frame: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.frame != NO_FRAME {
            by_frame.entry(e.frame).or_default().push(*e);
        }
    }
    let mut out = Vec::with_capacity(by_frame.len());
    for (frame, mut evs) in by_frame {
        evs.sort_by_key(|e| (e.tsc, e.kind.code()));
        let last_tsc = evs.last().map(|e| e.tsc).unwrap_or(0);
        let mut spans = Vec::new();
        let mut instants = Vec::new();
        // Per-thread stacks of open begins: (thread, point, begin).
        let mut open: Vec<(u16, TracePoint, u64)> = Vec::new();
        let mut client = NO_CLIENT;
        let mut tier = NO_TIER;
        for e in &evs {
            if client == NO_CLIENT && e.client != NO_CLIENT {
                client = e.client;
            }
            if e.tier != NO_TIER {
                tier = e.tier;
            }
            match e.kind {
                EventKind::Begin => open.push((e.thread, e.point, e.tsc)),
                EventKind::End => {
                    if let Some(pos) =
                        open.iter().rposition(|(t, p, _)| *t == e.thread && *p == e.point)
                    {
                        let (thread, point, begin) = open.remove(pos);
                        spans.push(TimelineSpan { point, thread, begin, end: e.tsc.max(begin) });
                    }
                }
                EventKind::Instant => {
                    instants.push(TimelineInstant { point: e.point, thread: e.thread, tsc: e.tsc })
                }
            }
        }
        for (thread, point, begin) in open {
            spans.push(TimelineSpan { point, thread, begin, end: last_tsc.max(begin) });
        }
        spans.sort_by_key(|s| (s.begin, s.end));
        instants.sort_by_key(|i| i.tsc);
        let begin = evs.first().map(|e| e.tsc).unwrap_or(0);
        let end = spans.iter().map(|s| s.end).chain([last_tsc]).max().unwrap_or(0);
        out.push(FrameTimeline { frame, client, tier, spans, instants, begin, end });
    }
    out
}

// ---------------------------------------------------------------------------
// Dumps: capture, retention, export
// ---------------------------------------------------------------------------

/// One retained flight-recorder dump: the raw ring snapshot plus its
/// assembled per-frame timelines and capture metadata.
#[derive(Clone, Debug)]
pub struct TraceDump {
    /// What fired the capture.
    pub trigger: Trigger,
    /// The frame implicated by the trigger, or [`NO_FRAME`].
    pub frame: u64,
    /// Process-wide dump ordinal (monotone).
    pub seq: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch (0 for
    /// synthetic dumps).
    pub unix_ms: u64,
    /// Tick-to-microsecond conversion for this dump's timestamps.
    pub ticks_per_us: f64,
    /// Every valid ring slot at capture, ordered by tick.
    pub events: Vec<TraceEvent>,
    /// Per-frame causal timelines assembled from `events`.
    pub timelines: Vec<FrameTimeline>,
}

impl TraceDump {
    /// Build a dump from raw events (sorting them and assembling the
    /// timelines). Used by [`trigger`] and by synthetic tests.
    pub fn from_events(
        trigger: Trigger,
        frame: u64,
        seq: u64,
        unix_ms: u64,
        ticks_per_us: f64,
        mut events: Vec<TraceEvent>,
    ) -> TraceDump {
        events.sort_by_key(|e| (e.tsc, e.kind.code()));
        let timelines = assemble(&events);
        TraceDump { trigger, frame, seq, unix_ms, ticks_per_us, events, timelines }
    }
}

static DUMPS: Mutex<Vec<TraceDump>> = Mutex::new(Vec::new());
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
static LAST_DUMP_MS: AtomicU64 = AtomicU64::new(0);
static MIN_DUMP_GAP_MS: AtomicU64 = AtomicU64::new(200);
static TRIGGER_COUNTS: [AtomicU64; Trigger::COUNT] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

fn now_ms() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH.get_or_init(std::time::Instant::now).elapsed().as_millis() as u64
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Report an anomaly. Always counts it (see [`trigger_counts`]); when the
/// recorder is compiled in, armed, and the rate limit allows, also
/// snapshots every ring into a retained [`TraceDump`]. Returns whether a
/// dump was captured. Cold path: allocates freely.
pub fn trigger(trigger: Trigger, frame: u64) -> bool {
    TRIGGER_COUNTS[trigger.index()].fetch_add(1, Ordering::Relaxed);
    if !recording_enabled() || !armed() {
        return false;
    }
    let now = now_ms().max(1);
    let last = LAST_DUMP_MS.load(Ordering::Relaxed);
    if last != 0 && now.saturating_sub(last) < MIN_DUMP_GAP_MS.load(Ordering::Relaxed) {
        return false;
    }
    // Claim the capture; a concurrent loser skips (its anomaly is in the
    // snapshot the winner takes anyway).
    if LAST_DUMP_MS.compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed).is_err() {
        return false;
    }
    let events = snapshot_events();
    if events.is_empty() {
        return false;
    }
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let ticks_per_us = crate::clock::ticks_per_sec() / 1e6;
    let dump = TraceDump::from_events(trigger, frame, seq, unix_ms(), ticks_per_us, events);
    let mut dumps = DUMPS.lock().expect("trace dump buffer poisoned");
    dumps.push(dump);
    while dumps.len() > RETAIN_DUMPS {
        dumps.remove(0);
    }
    true
}

/// Retained anomaly dumps, oldest first (at most [`RETAIN_DUMPS`]).
pub fn recent_dumps() -> Vec<TraceDump> {
    DUMPS.lock().expect("trace dump buffer poisoned").clone()
}

/// Number of retained dumps.
pub fn dump_count() -> usize {
    DUMPS.lock().expect("trace dump buffer poisoned").len()
}

/// Clear retained dumps and the rate-limit clock (tests).
pub fn clear_dumps() {
    DUMPS.lock().expect("trace dump buffer poisoned").clear();
    LAST_DUMP_MS.store(0, Ordering::Relaxed);
}

/// Lifetime anomaly counts by [`Trigger`] index (counted even when the
/// recorder is compiled out, so `/metrics` can always export them).
pub fn trigger_counts() -> [u64; Trigger::COUNT] {
    std::array::from_fn(|i| TRIGGER_COUNTS[i].load(Ordering::Relaxed))
}

/// Set the minimum gap between captured dumps, in milliseconds (default
/// 200). `0` disables rate limiting (tests); large values effectively
/// freeze capture after the first dump.
pub fn set_min_dump_gap_ms(ms: u64) {
    MIN_DUMP_GAP_MS.store(ms, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Render a dump as Chrome trace-event JSON (the `traceEvents` array
/// format): each frame becomes a process (`pid = frame + 1`) named
/// `frame N`, spans are `ph:"X"` complete events on their recording
/// thread's track, instants are `ph:"i"`, no-frame events land under
/// `pid 0` ("stream"), and the trigger is a global instant. Loads in
/// Perfetto and `about://tracing`.
pub fn chrome_trace_json(dump: &TraceDump) -> String {
    use std::fmt::Write;
    let tpu = if dump.ticks_per_us > 0.0 { dump.ticks_per_us } else { 1.0 };
    let t0 = dump.events.iter().map(|e| e.tsc).min().unwrap_or(0);
    let us = |t: u64| t.saturating_sub(t0) as f64 / tpu;
    let mut out = String::with_capacity(4096 + dump.events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };
    for tl in &dump.timelines {
        let pid = tl.frame.wrapping_add(1);
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"frame {} client {}\"}}}}",
            tl.frame, tl.client
        );
        for s in &tl.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"frame\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"frame\":{},\"client\":{},\"tier\":{}}}}}",
                s.point.name(),
                s.thread,
                us(s.begin),
                us(s.end) - us(s.begin),
                tl.frame,
                tl.client,
                tl.tier
            );
        }
        for i in &tl.instants {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"frame\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\
                 \"tid\":{},\"ts\":{:.3},\"args\":{{\"frame\":{},\"client\":{},\"tier\":{}}}}}",
                i.point.name(),
                i.thread,
                us(i.tsc),
                tl.frame,
                tl.client,
                tl.tier
            );
        }
    }
    let mut stream_named = false;
    for e in dump.events.iter().filter(|e| e.frame == NO_FRAME) {
        if !stream_named {
            stream_named = true;
            sep(&mut out);
            out.push_str(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                 \"args\":{\"name\":\"stream\"}}",
            );
        }
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"stream\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\
             \"tid\":{},\"ts\":{:.3},\"args\":{{\"client\":{},\"tier\":{}}}}}",
            e.point.name(),
            e.thread,
            us(e.tsc),
            e.client,
            e.tier
        );
    }
    sep(&mut out);
    let trig_ts = dump.events.iter().map(|e| e.tsc).max().unwrap_or(t0);
    let _ = write!(
        out,
        "{{\"name\":\"trigger:{}\",\"cat\":\"trigger\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\
         \"tid\":0,\"ts\":{:.3},\"args\":{{\"frame\":{},\"seq\":{}}}}}",
        dump.trigger.name(),
        us(trig_ts),
        dump.frame as i64,
        dump.seq
    );
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------------
// Recording (feature `trace`; empty inline functions without it)
// ---------------------------------------------------------------------------

#[cfg(feature = "trace")]
use crate::{clock, local::LOCAL};

static ARMED: AtomicBool = AtomicBool::new(true);

#[cfg(feature = "trace")]
fn pack(point: TracePoint, kind: EventKind, ctx: FrameCtx) -> u64 {
    let client = ctx.client.min(NO_CLIENT) as u64;
    client
        | ((ctx.tier as u64) << 16)
        | ((kind.code() as u64) << 24)
        | ((point.code() as u64) << 32)
}

#[cfg(feature = "trace")]
struct RingSlot {
    gen: AtomicU64,
    tsc: AtomicU64,
    frame: AtomicU64,
    meta: AtomicU64,
}

/// One thread's event ring, held in its registered instrumentation slot.
#[cfg(feature = "trace")]
pub(crate) struct Ring {
    thread: u16,
    head: AtomicU64,
    slots: Box<[RingSlot]>,
}

#[cfg(feature = "trace")]
impl Ring {
    pub(crate) fn new(thread: u16) -> Ring {
        let slot = || RingSlot {
            gen: AtomicU64::new(0),
            tsc: AtomicU64::new(0),
            frame: AtomicU64::new(0),
            meta: AtomicU64::new(0),
        };
        Ring { thread, head: AtomicU64::new(0), slots: (0..RING_CAP).map(|_| slot()).collect() }
    }

    /// Single-writer push with a per-slot seqlock: invalidate, write
    /// payload, validate. A concurrent reader that straddles the write
    /// sees a generation mismatch and drops the slot.
    #[inline]
    fn push(&self, point: TracePoint, kind: EventKind, ctx: FrameCtx) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAP - 1)];
        slot.gen.store(0, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release); // invalidation visible before payload
        slot.tsc.store(clock::ticks(), Ordering::Relaxed);
        slot.frame.store(ctx.frame, Ordering::Relaxed);
        slot.meta.store(pack(point, kind, ctx), Ordering::Relaxed);
        slot.gen.store(h.wrapping_add(1), Ordering::Release);
        self.head.store(h.wrapping_add(1), Ordering::Relaxed);
    }

    fn read_into(&self, out: &mut Vec<TraceEvent>) {
        for slot in self.slots.iter() {
            let g1 = slot.gen.load(Ordering::Acquire);
            if g1 == 0 {
                continue;
            }
            let tsc = slot.tsc.load(Ordering::Relaxed);
            let frame = slot.frame.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire); // payload reads complete before re-check
            if slot.gen.load(Ordering::Relaxed) != g1 {
                continue; // torn
            }
            let (Some(point), Some(kind)) = (
                TracePoint::from_code((meta >> 32) as u16),
                EventKind::from_code((meta >> 24) as u8),
            ) else {
                continue;
            };
            out.push(TraceEvent {
                tsc,
                frame,
                thread: self.thread,
                point,
                kind,
                client: (meta & 0xFFFF) as u32,
                tier: ((meta >> 16) & 0xFF) as u8,
            });
        }
    }
}

/// Writes an event under the ambient context when the recorder is armed
/// and the thread has a frame context. Returns the context it wrote under
/// (one with [`NO_FRAME`] when it wrote nothing).
#[cfg(feature = "trace")]
#[inline]
fn push_ambient(point: TracePoint, kind: EventKind) -> FrameCtx {
    if !armed() {
        return FrameCtx::NONE;
    }
    LOCAL
        .try_with(|l| {
            let ctx = l.ctx.get();
            if ctx.frame != NO_FRAME {
                l.slot.ring.push(point, kind, ctx);
            }
            ctx
        })
        .unwrap_or(FrameCtx::NONE)
}

/// Span begin for a scope on `stage`, written only for [`HARD_CHAIN`]
/// stages. Returns the identity to close the span under.
#[cfg(feature = "trace")]
#[inline]
pub(crate) fn begin_span(stage: Stage) -> FrameCtx {
    if traces(stage) {
        push_ambient(TracePoint::Stage(stage), EventKind::Begin)
    } else {
        FrameCtx::NONE
    }
}

/// Span end for a scope whose [`begin_span`] returned `ctx`.
#[cfg(feature = "trace")]
#[inline]
pub(crate) fn end_span(stage: Stage, ctx: FrameCtx) {
    if ctx.frame != NO_FRAME {
        emit_for(TracePoint::Stage(stage), EventKind::End, ctx);
    }
}

/// Set the current thread's frame context (registers the thread's
/// instrumentation state on first use — call once off the measured path
/// to warm up).
#[inline]
pub fn set_context(ctx: FrameCtx) {
    #[cfg(feature = "trace")]
    let _ = LOCAL.try_with(|l| l.ctx.set(ctx));
    #[cfg(not(feature = "trace"))]
    let _ = ctx;
}

/// Clear the current thread's frame context.
#[inline]
pub fn clear_context() {
    set_context(FrameCtx::NONE);
}

/// The current thread's frame context ([`FrameCtx::NONE`] if unset or
/// the recorder is compiled out).
#[inline]
pub fn context() -> FrameCtx {
    #[cfg(feature = "trace")]
    let ctx = LOCAL.try_with(|l| l.ctx.get()).unwrap_or(FrameCtx::NONE);
    #[cfg(not(feature = "trace"))]
    let ctx = FrameCtx::NONE;
    ctx
}

/// Record an instant at `point` under the ambient context. No-op when
/// disarmed or no context is set.
#[inline]
pub fn emit(point: TracePoint) {
    #[cfg(feature = "trace")]
    push_ambient(point, EventKind::Instant);
    #[cfg(not(feature = "trace"))]
    let _ = point;
}

/// Record an event with explicit identity (cross-thread points where the
/// ambient context belongs to a different frame). No-op when disarmed.
#[inline]
pub fn emit_for(point: TracePoint, kind: EventKind, ctx: FrameCtx) {
    #[cfg(feature = "trace")]
    if armed() {
        let _ = LOCAL.try_with(|l| l.slot.ring.push(point, kind, ctx));
    }
    #[cfg(not(feature = "trace"))]
    let _ = (point, kind, ctx);
}

/// Snapshot every registered ring into a decoded, tick-ordered event list
/// (empty when the recorder is compiled out). Allocates; an observability
/// call, not a hot-path one.
pub fn snapshot_events() -> Vec<TraceEvent> {
    #[cfg(feature = "trace")]
    let out = {
        let mut out = Vec::new();
        for slot in crate::local::REGISTRY.lock().expect("instrumentation registry poisoned").iter()
        {
            slot.ring.read_into(&mut out);
        }
        out.sort_by_key(|e| (e.tsc, e.kind.code()));
        out
    };
    #[cfg(not(feature = "trace"))]
    let out = Vec::new();
    out
}

/// Whether the flight recorder is compiled in (`trace` cargo feature).
#[inline(always)]
pub const fn recording_enabled() -> bool {
    cfg!(feature = "trace")
}

/// Whether the recorder is currently armed (recording and capturing).
/// Always `false` when compiled out.
#[inline]
pub fn armed() -> bool {
    recording_enabled() && ARMED.load(Ordering::Relaxed)
}

/// Arm or disarm the recorder at runtime (armed by default when compiled
/// in). Disarming stops both event recording and dump capture — the
/// in-process overhead knob `bench_gate --mode trace` measures against.
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tsc: u64, frame: u64, thread: u16, point: TracePoint, kind: EventKind) -> TraceEvent {
        TraceEvent { tsc, frame, thread, point, kind, client: 1, tier: 0 }
    }

    #[test]
    fn point_codes_roundtrip_and_names_unique() {
        let mut names = Vec::new();
        for code in 0..TracePoint::COUNT as u16 {
            let p = TracePoint::from_code(code).expect("dense codes");
            assert_eq!(p.code(), code);
            names.push(p.name());
        }
        assert_eq!(TracePoint::from_code(TracePoint::COUNT as u16), None);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TracePoint::COUNT);
    }

    #[test]
    fn assembler_pairs_spans_and_orders_frames() {
        let plan = TracePoint::Stage(Stage::Plan);
        let detect = TracePoint::Stage(Stage::Detect);
        let events = vec![
            ev(50, 2, 0, TracePoint::Submit, EventKind::Instant),
            ev(10, 1, 0, TracePoint::Submit, EventKind::Instant),
            ev(20, 1, 0, plan, EventKind::Begin),
            ev(30, 1, 0, plan, EventKind::End),
            ev(35, 1, 1, detect, EventKind::Begin),
            ev(45, 1, 1, detect, EventKind::End),
            ev(60, 2, 0, plan, EventKind::Begin), // unmatched: closes at last tick
            ev(70, 2, 1, TracePoint::Deliver, EventKind::Instant),
        ];
        let tls = assemble(&events);
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].frame, 1);
        assert_eq!(tls[1].frame, 2);
        let t1 = &tls[0];
        assert_eq!(t1.spans.len(), 2);
        assert_eq!(t1.spans[0].point, plan);
        assert_eq!((t1.spans[0].begin, t1.spans[0].end), (20, 30));
        assert_eq!(t1.spans[1].point, detect);
        assert!(t1.has_point(TracePoint::Submit));
        assert_eq!(t1.first_tsc(plan), Some(20));
        let t2 = &tls[1];
        assert_eq!(t2.spans.len(), 1);
        assert_eq!((t2.spans[0].begin, t2.spans[0].end), (60, 70));
        assert_eq!(t2.begin, 50);
        assert_eq!(t2.end, 70);
    }

    #[test]
    fn no_frame_events_stay_out_of_timelines() {
        let events = vec![
            ev(10, NO_FRAME, 0, TracePoint::Refuse, EventKind::Instant),
            ev(20, 7, 0, TracePoint::Submit, EventKind::Instant),
        ];
        let tls = assemble(&events);
        assert_eq!(tls.len(), 1);
        assert_eq!(tls[0].frame, 7);
    }

    #[test]
    fn chrome_export_mentions_every_point_and_trigger() {
        let plan = TracePoint::Stage(Stage::Plan);
        let events = vec![
            ev(10, 1, 0, TracePoint::Submit, EventKind::Instant),
            ev(20, 1, 0, plan, EventKind::Begin),
            ev(30, 1, 0, plan, EventKind::End),
            ev(40, NO_FRAME, 1, TracePoint::Fault, EventKind::Instant),
        ];
        let dump = TraceDump::from_events(Trigger::DeadlineMiss, 1, 0, 0, 1.0, events);
        let json = chrome_trace_json(&dump);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"submit\""));
        assert!(json.contains("\"name\":\"plan\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"fault\""));
        assert!(json.contains("\"name\":\"trigger:deadline_miss\""));
        assert!(json.contains("\"name\":\"frame 1 client 1\""));
    }

    #[test]
    fn trigger_counts_accumulate() {
        // The live tests below fire `Trigger::Manual` too; hold their lock
        // so none of their triggers lands between the two reads.
        #[cfg(feature = "trace")]
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = trigger_counts();
        trigger(Trigger::Manual, NO_FRAME);
        trigger(Trigger::Manual, NO_FRAME);
        let after = trigger_counts();
        assert_eq!(
            after[Trigger::Manual.index()] - before[Trigger::Manual.index()],
            2,
            "manual triggers must count even without a capture"
        );
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_build_erases_recorder() {
        assert!(!recording_enabled());
        assert!(!armed());
        #[cfg(not(feature = "profile"))]
        assert_eq!(std::mem::size_of::<crate::ScopeGuard>(), 0);
        set_context(FrameCtx { frame: 3, client: 0, tier: 0 });
        emit(TracePoint::Submit);
        let s = crate::scope(Stage::Detect);
        drop(s);
        clear_context();
        assert!(snapshot_events().is_empty());
        assert!(!trigger(Trigger::Manual, 3));
        assert_eq!(dump_count(), 0);
    }

    /// The live tests toggle process-global state (armed flag, dump
    /// buffer); serialize them.
    #[cfg(feature = "trace")]
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[cfg(feature = "trace")]
    #[test]
    fn live_recorder_roundtrips_events_and_dumps() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(true);
        clear_dumps();
        set_min_dump_gap_ms(0);
        // No context → nothing recorded from `emit`.
        clear_context();
        emit(TracePoint::Submit);
        // With context, events land and snapshot.
        set_context(FrameCtx { frame: 41, client: 2, tier: 1 });
        emit(TracePoint::Submit);
        {
            let _s = crate::scope(Stage::Detect);
        }
        clear_context();
        let events = snapshot_events();
        let ours: Vec<_> = events.iter().filter(|e| e.frame == 41).collect();
        assert_eq!(ours.len(), 3, "submit + detect begin/end");
        assert!(ours.iter().all(|e| e.client == 2 && e.tier == 1));
        // Trigger captures a dump containing the frame's timeline.
        assert!(trigger(Trigger::Manual, 41));
        let dumps = recent_dumps();
        assert!(dumps.iter().any(|d| d.trigger == Trigger::Manual
            && d.timelines
                .iter()
                .any(|t| t.frame == 41 && t.has_point(TracePoint::Stage(Stage::Detect)))));
        set_min_dump_gap_ms(200);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn only_hard_chain_scopes_write_spans() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(true);
        set_context(FrameCtx { frame: 4242, client: 0, tier: 0 });
        for stage in Stage::ALL {
            drop(crate::scope(stage));
        }
        clear_context();
        let spans: Vec<TracePoint> = snapshot_events()
            .iter()
            .filter(|e| e.frame == 4242 && e.kind == EventKind::Begin)
            .map(|e| e.point)
            .collect();
        assert_eq!(spans.len(), HARD_CHAIN.len());
        assert!(HARD_CHAIN.iter().all(|p| spans.contains(p)));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn disarmed_recorder_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(false);
        set_context(FrameCtx { frame: 999_999, client: 0, tier: 0 });
        emit(TracePoint::Submit);
        let s = crate::scope(Stage::Detect);
        drop(s);
        clear_context();
        set_armed(true);
        let events = snapshot_events();
        assert!(events.iter().all(|e| e.frame != 999_999));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn retention_is_bounded() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_armed(true);
        clear_dumps();
        set_min_dump_gap_ms(0);
        set_context(FrameCtx { frame: 7, client: 0, tier: 0 });
        emit(TracePoint::Submit);
        clear_context();
        for _ in 0..(RETAIN_DUMPS + 4) {
            trigger(Trigger::Manual, 7);
        }
        assert!(dump_count() <= RETAIN_DUMPS);
        set_min_dump_gap_ms(200);
    }
}

//! Runtime observability: the [`RuntimeStats`] snapshot.

use geosphere_core::DetectorTier;
use gs_prof::hist::HistogramSnapshot;
use std::time::Duration;

/// A point-in-time snapshot of a [`FrameStream`](crate::FrameStream)'s
/// behaviour, taken with [`FrameStream::stats`](crate::FrameStream::stats).
///
/// Counters are monotone over the stream's lifetime; occupancy, queue
/// depths, and the windowed rates are instantaneous. Taking a snapshot
/// allocates (the per-shard depth vector and the histogram copies) — it
/// is an observability call, not a hot-path one. The stage counters are
/// **clamped into pipeline order** at snapshot time
/// (`submitted ≥ planned ≥ detected ≥ recovered ≥ completed ≥
/// deadline_misses`): the live counters are independent atomics, so a raw
/// racing read could transiently show a later stage ahead of an earlier
/// one, and gauges differenced from such a snapshot would go negative.
///
/// Two throughput figures are reported on purpose:
/// [`RuntimeStats::frames_per_sec`] is the lifetime average (total
/// completions over total elapsed — a summary figure that decays while
/// the stream idles), while [`RuntimeStats::windowed_frames_per_sec`]
/// counts only the trailing window and is what the control plane (and any
/// live dashboard) should read.
///
/// **Windowed-rate semantics**: the windowed figures are computed over
/// the trailing one-second window, with the throughput divisor being the
/// span the delivery ring **actually covers** —
/// `min(1 s, now − oldest retained delivery)`. A freshly started stream
/// therefore reports its true rate instead of under-reporting until one
/// full second has elapsed, and a stream delivering faster than the ring
/// holds reports its true rate over a narrower horizon rather than the
/// ring's capacity.
#[derive(Clone, Debug)]
pub struct RuntimeStats {
    /// Frames admitted so far (including those still in flight).
    pub submitted: u64,
    /// Frames fully recovered and delivered to the completion queue.
    pub completed: u64,
    /// Delivered frames that became observable after their deadline
    /// (accounted at delivery, so time parked behind a slow predecessor
    /// counts).
    pub deadline_misses: u64,
    /// Frames whose plan stage has run.
    pub planned: u64,
    /// Frames whose detection has finished.
    pub detected: u64,
    /// Frames whose receive chains have run (recovery complete; the frame
    /// is delivered or parked for per-client ordering).
    pub recovered: u64,
    /// Admissions per detector tier, indexed by
    /// [`DetectorTier::index`]. A fixed-detector stream counts
    /// everything under [`DetectorTier::Sphere`].
    pub tier_admissions: [u64; DetectorTier::COUNT],
    /// The tier the control plane chose most recently.
    pub current_tier: DetectorTier,
    /// Frames currently in flight (admitted, not yet released by the
    /// consumer) — the occupancy of the slot pool.
    pub in_flight: usize,
    /// The slot-pool bound: the maximum possible `in_flight`.
    pub capacity: usize,
    /// Resolved shard count of the detection layer.
    pub shards: usize,
    /// Total detection workers across all shards.
    pub workers: usize,
    /// Tasks waiting for a worker per shard, at snapshot time: admitted
    /// frames not yet started, each one task on its home shard. So no
    /// depth exceeds `in_flight`.
    pub shard_queue_depths: Vec<usize>,
    /// Wall-clock since the stream was created.
    pub elapsed: Duration,
    /// Lifetime-average delivered throughput (`completed / elapsed`;
    /// `0.0` before the first completion). Decays while the stream
    /// idles — prefer [`RuntimeStats::windowed_frames_per_sec`] for
    /// "what is it doing now".
    pub frames_per_sec: f64,
    /// Delivered throughput over the trailing one-second window — the
    /// rate the control plane consumes. Divides by the span the window
    /// actually covers (see the type docs), so it is exact for young
    /// streams and saturated ones alike.
    pub windowed_frames_per_sec: f64,
    /// Fraction of deliveries in the trailing one-second window that
    /// missed their deadline (`0.0` when the window is empty) — the miss
    /// signal the control plane consumes.
    pub windowed_miss_rate: f64,
    /// Submit→delivery latency histogram per client lane (nanoseconds):
    /// admission stamp to the delivery point where deadline accounting
    /// happens, so time parked behind slow predecessors counts. Recorded
    /// allocation-free on the hot path; this snapshot is an owned copy.
    pub latency_per_client: Vec<HistogramSnapshot>,
    /// Submit→pop queue-wait histogram per shard (nanoseconds): admission
    /// → the pop of the frame's one task. Recorded by the shard workers at
    /// the same point the `gs_prof` Queue stage is stamped — but always
    /// on, not only under `--features profile`. Each frame adds exactly
    /// one sample, to its home shard's histogram.
    pub queue_wait_per_shard: Vec<HistogramSnapshot>,
    /// Deadline slack (deadline − delivery instant, nanoseconds) of
    /// deliveries that made their deadline.
    pub deadline_slack: HistogramSnapshot,
    /// Deadline overshoot (delivery instant − deadline, nanoseconds) of
    /// deliveries that missed — the negative half of the slack
    /// distribution, kept unsigned as its own histogram.
    pub deadline_lateness: HistogramSnapshot,
}

impl RuntimeStats {
    /// The process-wide stage-attributed cycle profile at snapshot time:
    /// every thread's [`gs_prof`] counter table aggregated, including
    /// exited shard workers (attribution survives the handoff between
    /// pool workers). All-zero unless the workspace was
    /// built with the `profile` feature. Counters are monotone and
    /// process-global — bracket a region with two snapshots and
    /// [`gs_prof::StageProfile::delta`] to isolate it.
    pub fn stage_profile(&self) -> gs_prof::StageProfile {
        gs_prof::snapshot()
    }

    /// Fraction of the slot pool currently occupied, `0.0..=1.0`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.in_flight as f64 / self.capacity as f64
        }
    }
}

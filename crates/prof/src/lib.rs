//! Stage-attributed instrumentation for the Geosphere receive chain.
//!
//! The paper's processing-rate-scalability argument turns every further
//! optimisation into a measurement problem: a perf PR must *name* the
//! stage it attacks. This crate is the measurement substrate. Every
//! instrumented region opens one guard, [`scope`], keyed by the fixed
//! [`Stage`] taxonomy, and that one guard feeds two consumers:
//!
//! * **the cycle table** (`profile` feature): a near-zero-overhead
//!   per-thread counter table recording **cycles** (TSC on `x86_64`, a
//!   monotonic nanosecond clock elsewhere), **invocations**, and
//!   **bytes** per stage;
//! * **the flight recorder** (`trace` feature, the [`trace`] module): a
//!   begin/end span in the thread's event ring when the stage is on
//!   [`trace::HARD_CHAIN`] and the thread has a frame context.
//!
//! # Attribution model: exclusive (self) time
//!
//! Scopes nest, but cycles never double-count. Each thread keeps a small
//! scope stack; entering a scope first attributes the time elapsed since
//! the last attribution point to the *enclosing* scope's stage, then
//! switches attribution to the new stage. Dropping the guard attributes
//! the remainder and resumes the parent. The result is a flat table whose
//! per-stage cycles **partition** the instrumented wall time — summing
//! the table never exceeds the measured envelope, and "coverage" (table
//! total ÷ wall clock) directly measures how much of the pipeline the
//! scopes reach.
//!
//! # Compile-time erasure
//!
//! With both features off (the default), [`ScopeGuard`] is a zero-size
//! type, [`scope`] and [`record`] are empty inline functions, and
//! [`snapshot`] returns an all-zero table — the receive chain compiles to
//! exactly the same code as before this crate existed. A zero-size type
//! assertion in the workspace test suite pins this.
//!
//! # Threading
//!
//! Each thread owns one instrumentation state (counter cells and scope
//! stack under `profile`, event ring and frame context under `trace`),
//! registered once in a process-wide registry that keeps it after the
//! thread exits — so the cycles and events of a dropped stream's pool
//! workers still count. Counters are plain `AtomicU64`s
//! written single-writer (`Relaxed` load+store, not RMW) and summed by
//! [`snapshot`]; rings are read by [`trace::snapshot_events`].
//!
//! Besides the guard, the crate hosts the **always-compiled** [`hist`]
//! module: zero-allocation log-bucketed latency histograms
//! ([`hist::LogHistogram`]) that the streaming runtime's telemetry tier
//! records into on the hot path and the `gs-telemetry` Prometheus
//! endpoint merges at scrape time.

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// The fixed stage taxonomy. One variant per named category of the
/// receive chain; the discriminant is the row index in the counter table.
///
/// The taxonomy is deliberately closed (no string keys): a fixed enum
/// keeps the per-thread table a flat array and makes the `bench_gate`
/// dump stable across runs and machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Frame planning: the transmitter simulator's payload draws, transmit
    /// chains (their CRC included), channel refresh, per-job assembly, and
    /// noise (`plan_uplink_frame_into`).
    Plan = 0,
    /// Householder QR factorisations (`gs-linalg`).
    QrDecompose,
    /// `Qᴴ·y` rotations of received vectors into the triangular frame.
    Rotate,
    /// The sphere-search loop proper: level opening, child stepping,
    /// radius shrinking (`engine.rs`), excluding nested kernel scopes.
    Enumerate,
    /// Batched SoA kernel invocations (`ped_soa`, multi-symbol dots).
    PedKernel,
    /// Linear and SIC filter builds (once per channel per batch) and the
    /// iterative receiver's column Grams (once per frame).
    Filter,
    /// Detection scatter: sizing the per-client assembly slots and routing
    /// per-job symbol vectors into them. Each decode path opens one scope
    /// around `begin_detection_assembly` and its `absorb_detection` sweep.
    Scatter,
    /// The per-client receive chain (demap, deinterleave, depuncture,
    /// descramble) excluding the nested Viterbi/CRC scopes.
    Recover,
    /// Viterbi decoding (hard, erasure-aware, and soft paths).
    Viterbi,
    /// CRC-32 verification of a received frame (`check_crc_ok`). The
    /// transmit chain's CRC is simulator work and counts under
    /// [`Stage::Plan`].
    Crc,
    /// Time tasks spend queued in a worker pool between submit and pop
    /// (wall time, recorded via [`record`] on the popping thread). In the
    /// streaming runtime a frame is one task: admission → the pop that
    /// runs it.
    Queue,
    /// Streaming-runtime delivery: completion queue, in-order parking.
    Delivery,
    /// Detection of one frame's jobs on a streaming-runtime worker, as one
    /// batch. QR, enumeration and kernel scopes nest inside, so the row's
    /// self-time is the batch dispatch.
    Detect,
}

impl Stage {
    /// Number of stages (rows in the counter table).
    pub const COUNT: usize = 13;
    /// Every stage, in table order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Plan,
        Stage::QrDecompose,
        Stage::Rotate,
        Stage::Enumerate,
        Stage::PedKernel,
        Stage::Filter,
        Stage::Scatter,
        Stage::Recover,
        Stage::Viterbi,
        Stage::Crc,
        Stage::Queue,
        Stage::Delivery,
        Stage::Detect,
    ];

    /// Row index of this stage in the table (`0..COUNT`).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used by the `bench_gate` dump, JSON, and
    /// the flight recorder's span names.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::QrDecompose => "qr_decompose",
            Stage::Rotate => "rotate",
            Stage::Enumerate => "enumerate",
            Stage::PedKernel => "ped_kernel",
            Stage::Filter => "filter",
            Stage::Scatter => "scatter",
            Stage::Recover => "recover",
            Stage::Viterbi => "viterbi",
            Stage::Crc => "crc",
            Stage::Queue => "queue",
            Stage::Delivery => "delivery",
            Stage::Detect => "detect",
        }
    }
}

/// Aggregated counters for one stage, as returned by [`snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageRecord {
    /// The stage this row describes.
    pub stage: Stage,
    /// Exclusive (self) ticks attributed to the stage. Ticks are TSC
    /// cycles on `x86_64`, monotonic nanoseconds elsewhere; convert with
    /// [`ticks_per_sec`].
    pub cycles: u64,
    /// Number of scope entries / explicit records for the stage.
    pub invocations: u64,
    /// Bytes attributed to the stage (payloads drawn, slabs walked,
    /// bits decoded — whatever the instrumented site declared).
    pub bytes: u64,
}

/// A point-in-time aggregate of every thread's counter table.
///
/// Counters are monotone, so two snapshots bracket a region of interest:
/// `after.delta(&before)` is the profile of exactly that region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageProfile {
    /// One record per [`Stage`], in [`Stage::ALL`] order.
    pub stages: [StageRecord; Stage::COUNT],
}

impl StageProfile {
    /// An all-zero profile (also what [`snapshot`] returns with the
    /// `profile` feature off).
    pub fn empty() -> Self {
        StageProfile {
            stages: Stage::ALL.map(|stage| StageRecord {
                stage,
                cycles: 0,
                invocations: 0,
                bytes: 0,
            }),
        }
    }

    /// Sum of self-ticks across all stages.
    pub fn total_cycles(&self) -> u64 {
        self.stages.iter().map(|r| r.cycles).sum()
    }

    /// True when no stage recorded anything (profiling off or unused).
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|r| r.cycles == 0 && r.invocations == 0 && r.bytes == 0)
    }

    /// Per-stage difference `self − earlier` (saturating), for bracketing
    /// a region between two snapshots.
    pub fn delta(&self, earlier: &StageProfile) -> StageProfile {
        let mut out = StageProfile::empty();
        for (o, (a, b)) in out.stages.iter_mut().zip(self.stages.iter().zip(earlier.stages.iter()))
        {
            o.cycles = a.cycles.saturating_sub(b.cycles);
            o.invocations = a.invocations.saturating_sub(b.invocations);
            o.bytes = a.bytes.saturating_sub(b.bytes);
        }
        out
    }

    /// The stage with the most self-ticks (the "profiler-named top
    /// stage"), or `None` on an empty profile.
    pub fn top_stage(&self) -> Option<Stage> {
        self.stages.iter().filter(|r| r.cycles > 0).max_by_key(|r| r.cycles).map(|r| r.stage)
    }
}

pub mod hist;
pub mod trace;

mod clock;

#[cfg(any(feature = "profile", feature = "trace"))]
mod local;

/// Guard of one instrumented region, returned by [`scope`]: attributes
/// exclusive self-time to its stage in the cycle table (`profile`) and
/// closes its flight-recorder span (`trace`) when dropped. With both
/// features off it is a zero-size type and dropping it does nothing.
#[must_use = "an instrumentation scope measures until dropped"]
pub struct ScopeGuard {
    #[cfg(any(feature = "profile", feature = "trace"))]
    stage: Stage,
    /// False when the scope stack was full at entry (the scope still
    /// counted an invocation but did not push, so drop must not pop).
    #[cfg(feature = "profile")]
    pushed: bool,
    /// The identity the span's begin event carried; `NO_FRAME` when the
    /// scope opened no span.
    #[cfg(feature = "trace")]
    span: trace::FrameCtx,
}

impl ScopeGuard {
    /// Attribute `n` bytes to this scope's stage.
    #[inline]
    pub fn add_bytes(&self, n: u64) {
        #[cfg(feature = "profile")]
        local::record(self.stage, 0, 0, n);
        #[cfg(not(feature = "profile"))]
        let _ = n;
    }
}

#[cfg(any(feature = "profile", feature = "trace"))]
impl Drop for ScopeGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        trace::end_span(self.stage, self.span);
        #[cfg(feature = "profile")]
        local::pop(self.pushed);
    }
}

/// Open an instrumentation scope for `stage` on the current thread.
///
/// Under `profile`, entering attributes the ticks elapsed since the last
/// attribution point to the *enclosing* scope's stage (self-time
/// accounting), then starts attributing to `stage`; dropping the returned
/// guard reverses it. Under `trace`, a stage on [`trace::HARD_CHAIN`]
/// also writes a begin event now and an end event at drop, when the
/// recorder is armed and the thread has a frame context.
#[inline]
pub fn scope(stage: Stage) -> ScopeGuard {
    #[cfg(not(any(feature = "profile", feature = "trace")))]
    let _ = stage;
    ScopeGuard {
        #[cfg(feature = "profile")]
        pushed: local::push(stage),
        #[cfg(feature = "trace")]
        span: trace::begin_span(stage),
        #[cfg(any(feature = "profile", feature = "trace"))]
        stage,
    }
}

/// Explicitly attribute pre-measured counters to `stage` on the current
/// thread's table — for wall-time spans that cross threads, e.g. the
/// queue wait between a task's submit stamp and its pop. No-op without
/// `profile`.
#[inline]
pub fn record(stage: Stage, cycles: u64, invocations: u64, bytes: u64) {
    #[cfg(feature = "profile")]
    local::record(stage, cycles, invocations, bytes);
    #[cfg(not(feature = "profile"))]
    let _ = (stage, cycles, invocations, bytes);
}

/// Raw tick counter (TSC on `x86_64`, monotonic nanoseconds elsewhere);
/// always zero without `profile`, so `ticks()` deltas and the [`record`]
/// calls built from them vanish.
#[inline]
pub fn ticks() -> u64 {
    if enabled() {
        clock::ticks()
    } else {
        0
    }
}

/// Measured tick rate (ticks per wall-clock second); `1.0` without
/// `profile`, which keeps conversions finite.
pub fn ticks_per_sec() -> f64 {
    if enabled() {
        clock::ticks_per_sec()
    } else {
        1.0
    }
}

/// Aggregate every registered thread table (including exited threads)
/// into one [`StageProfile`]; all zero without `profile`. Allocates
/// transiently (registry lock + iteration) — an observability call, not
/// a hot-path one.
pub fn snapshot() -> StageProfile {
    #[cfg(feature = "profile")]
    let out = local::snapshot();
    #[cfg(not(feature = "profile"))]
    let out = StageProfile::empty();
    out
}

/// Whether stage profiling is compiled in (`profile` cargo feature).
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "profile")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_names_unique() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn empty_profile_reports_empty() {
        let p = StageProfile::empty();
        assert!(p.is_empty());
        assert_eq!(p.total_cycles(), 0);
        assert_eq!(p.top_stage(), None);
    }

    #[test]
    fn delta_subtracts_per_stage() {
        let mut a = StageProfile::empty();
        let mut b = StageProfile::empty();
        a.stages[Stage::Plan.index()].cycles = 100;
        a.stages[Stage::Plan.index()].invocations = 7;
        b.stages[Stage::Plan.index()].cycles = 40;
        b.stages[Stage::Plan.index()].invocations = 3;
        let d = a.delta(&b);
        assert_eq!(d.stages[Stage::Plan.index()].cycles, 60);
        assert_eq!(d.stages[Stage::Plan.index()].invocations, 4);
        assert_eq!(d.top_stage(), Some(Stage::Plan));
    }

    #[cfg(not(feature = "profile"))]
    #[test]
    fn disabled_build_erases_scopes() {
        #[cfg(not(feature = "trace"))]
        assert_eq!(std::mem::size_of::<ScopeGuard>(), 0);
        assert!(!enabled());
        let g = scope(Stage::Enumerate);
        g.add_bytes(1024);
        drop(g);
        record(Stage::Queue, 123, 1, 0);
        assert_eq!(ticks(), 0);
        assert!(snapshot().is_empty());
    }
}

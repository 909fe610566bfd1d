//! Frame-level reusable workspace: the allocation-free receive loop.
//!
//! The per-symbol detection hot path is zero-alloc behind
//! `SearchWorkspace`; this module extends the same ownership discipline one
//! layer up, to whole frames. [`FrameWorkspace`] owns every buffer an
//! uplink frame exchange touches — the transmit-chain scratch, the planned
//! per-client symbol grids, the pooled [`DetectionJob`] `y` buffers, the
//! detection outputs, the per-client LLR streams of the soft path, and the
//! receive-chain (demap/depuncture/Viterbi) scratch — plus the
//! detector workspace that detection runs on, inline on the calling
//! thread. A workspace is single-threaded: parallel callers (the
//! experiment sweeps, one thread per operating point; the streaming
//! runtime, one workspace per frame slot) each hold their own.
//!
//! ## Ownership model
//!
//! **One `FrameWorkspace` per receive loop.** Every
//! frame entry point takes the workspace as an argument: a one-off decode
//! uses a fresh [`FrameWorkspace::new`], and a long-lived receiver holds
//! one `FrameWorkspace` across frames and drives
//! [`decode_frame_batched_into`](crate::txrx::decode_frame_batched_into)
//! (hard path, genie CSI),
//! [`decode_frame_with_csi_into`](crate::txrx::decode_frame_with_csi_into)
//! (hard path, estimated CSI),
//! [`uplink_frame_soft_into`](crate::soft_rx::uplink_frame_soft_into)
//! (soft path) or
//! [`uplink_frame_iterative_into`](crate::iterative::uplink_frame_iterative_into)
//! (turbo path): after one warmup frame of a given shape, a hard or soft
//! frame performs **zero heap allocations** end to end — planning,
//! detection (the workspace recycles its search state and output
//! buffers), and payload recovery. `tests/alloc_regression.rs` enforces
//! this with a counting global allocator; `tests/frame_workspace_reuse.rs`
//! proves reuse is bit-identical to fresh-workspace decoding, shrinking
//! and growing frame shapes included.
//!
//! Buffers only ever grow: a smaller frame reuses the prefix of a larger
//! frame's buffers, so alternating shapes stay allocation-free once the
//! largest has been seen.

use crate::config::PhyConfig;
use crate::iterative::IterScratch;
use crate::txrx::UplinkOutcome;
use geosphere_core::{
    Detection, DetectionJob, DetectorStats, DetectorWorkspace, SoftDetection, SoftWorkspace,
};
use gs_channel::MimoChannel;
use gs_coding::{CodedBit, SymbolLayout, ViterbiWorkspace};
use gs_linalg::Matrix;
use gs_modulation::GridPoint;
use rand::Rng;

/// Transmit-chain scratch shared by all clients of a frame (each client's
/// chain runs start-to-finish before the next client's).
#[derive(Default)]
pub(crate) struct TxScratch {
    /// Payload + CRC + pad, packed (scrambled in place).
    pub(crate) info: Vec<u64>,
    /// Mother-code output, packed.
    pub(crate) mother: Vec<u64>,
    /// The frame shape's bit layout ([`layout_for`]).
    pub(crate) layout: Option<SymbolLayout>,
}

/// Receive-chain scratch shared by all clients of a frame.
#[derive(Default)]
pub(crate) struct RxScratch {
    /// Deinterleaved LLRs (soft path).
    pub(crate) llr_deint: Vec<f64>,
    /// Depunctured soft mother stream.
    pub(crate) mother_soft: Vec<f64>,
    /// Decoded information bits, packed (per-client and soft paths).
    pub(crate) info: Vec<u64>,
    /// Viterbi trellis scratch (hard and soft paths).
    pub(crate) vit: ViterbiWorkspace,
    /// Flat client-major mother streams for the lockstep multi-stream
    /// Viterbi pass (client `cl` at `cl·mother_len..`); the per-client
    /// path decodes one client at a time from its start.
    pub(crate) mother_multi: Vec<CodedBit>,
    /// Flat client-major decoded info words from the lockstep pass.
    pub(crate) info_multi: Vec<u64>,
    /// The frame shape's bit layout ([`layout_for`]).
    pub(crate) layout: Option<SymbolLayout>,
}

/// The bit layout (interleaver and puncturing) for `cfg`'s OFDM symbol
/// shape, kept in `slot` across frames: built on first use and rebuilt in
/// place only when the shape changes, so a warm loop never recomputes it.
pub(crate) fn layout_for<'a>(
    slot: &'a mut Option<SymbolLayout>,
    cfg: &PhyConfig,
) -> &'a SymbolLayout {
    let (n_cbps, n_bpsc) = (cfg.n_cbps(), cfg.constellation.bits_per_symbol());
    let layout = slot.get_or_insert_with(|| SymbolLayout::new(n_cbps, n_bpsc, cfg.code_rate));
    layout.reshape(n_cbps, n_bpsc, cfg.code_rate);
    layout
}

/// The detector's channel table: the supplied CSI when the frame was
/// planned with one (`n_rx` set), else the air channels themselves.
pub(crate) fn detector_channels<'a>(
    grid: &'a [Matrix],
    n_grid: usize,
    rx: &'a [Matrix],
    n_rx: Option<usize>,
) -> &'a [Matrix] {
    match n_rx {
        Some(n) => &rx[..n],
        None => &grid[..n_grid],
    }
}

/// Reusable whole-frame state for the uplink receive loop. See the module
/// docs for the ownership model; create with [`FrameWorkspace::new`] and
/// pass to the frame entry points in [`crate::txrx`], [`crate::soft_rx`],
/// [`crate::iterative`], and [`mod@crate::measure`].
#[derive(Default)]
pub struct FrameWorkspace {
    // --- frame plan (filled by `plan_uplink_frame_into`) ---
    /// Per-client payload bits, packed.
    pub(crate) payloads: Vec<Vec<u64>>,
    /// Per-client planned grid symbols, flattened `[t * n_subcarriers + k]`.
    pub(crate) symbols: Vec<Vec<GridPoint>>,
    pub(crate) tx: TxScratch,
    /// Grid-domain air channels (constellation scale folded in).
    pub(crate) grid_channels: Vec<Matrix>,
    /// Supplied CSI, same scaling; genie-CSI frames detect against
    /// `grid_channels` and leave this table alone.
    pub(crate) rx_channels: Vec<Matrix>,
    /// Valid prefix lengths of the two channel tables (the buffers only
    /// grow; stale entries beyond these lengths are ignored). `None`:
    /// the frame was planned under genie CSI.
    pub(crate) n_grid_channels: usize,
    pub(crate) n_rx_channels: Option<usize>,
    /// Pooled detection jobs; entry `y` buffers are refilled in place.
    pub(crate) jobs: Vec<DetectionJob>,
    pub(crate) n_jobs: usize,
    pub(crate) n_sym: usize,
    pub(crate) n_clients: usize,
    /// Per-job stacked symbol scratch.
    pub(crate) s_buf: Vec<GridPoint>,

    // --- detection ---
    /// Detector workspace of the inline detection.
    pub(crate) det_ws: DetectorWorkspace,
    /// Detection outputs of the inline detection (recycled).
    pub(crate) det_out: Vec<Detection>,

    // --- soft path ---
    pub(crate) soft_ws: SoftWorkspace,
    pub(crate) soft_out: SoftDetection,
    /// Per-client LLR streams (frame order).
    pub(crate) llrs: Vec<Vec<f64>>,

    // --- iterative (turbo) path ---
    pub(crate) iter: IterScratch,

    // --- assembly ---
    /// Per-client detected symbols, flattened like `symbols`.
    pub(crate) detected: Vec<Vec<GridPoint>>,
    pub(crate) rx: RxScratch,
    /// Diagnostic/bench knob: decode each client's Viterbi trellis
    /// separately instead of through the lockstep multi-stream pass.
    /// Default `false` (batched). Outputs are bit-identical either way —
    /// this exists so `bench_gate` can time the single-stream path.
    pub(crate) per_client_viterbi: bool,
    /// The frame outcome, rebuilt in place every frame.
    pub(crate) out: UplinkOutcome,
}

impl FrameWorkspace {
    /// Creates an empty workspace; every buffer grows on first use and is
    /// reused forever after.
    pub fn new() -> Self {
        Self::default()
    }

    /// The outcome of the last frame decoded through this workspace.
    pub fn outcome(&self) -> &UplinkOutcome {
        &self.out
    }

    /// Forces per-client (single-stream) Viterbi decoding instead of the
    /// default lockstep multi-stream pass. Bit-identical output either
    /// way; a measurement knob for the bench harness, not a tuning one.
    pub fn set_per_client_viterbi(&mut self, on: bool) {
        self.per_client_viterbi = on;
    }
}

/// The **staged** frame API: the three pipeline stages of
/// [`decode_frame_batched_into`](crate::txrx::decode_frame_batched_into),
/// exposed individually so an external scheduler (the `gs-runtime`
/// streaming engine) can run detection through its own detector and
/// workspace between planning and recovery.
///
/// Contract (all stages allocation-free once the workspace has warmed up
/// to the frame shape, and bit-identical to the one-call entry points):
///
/// 1. [`FrameWorkspace::plan_uplink`] draws the frame's randomness and
///    fills the pooled detection jobs, channel-major (job `k * n_sym + t`
///    is subcarrier `k` of OFDM symbol `t`);
/// 2. the caller detects [`FrameWorkspace::planned_jobs`] against
///    [`FrameWorkspace::planned_channels`] however it likes (whole,
///    or in ranges) — detection is a pure per-job function, and a
///    contiguous range of jobs spans whole subcarriers;
/// 3. [`FrameWorkspace::begin_detection_assembly`], one
///    [`FrameWorkspace::absorb_detection`] per job index (any order, each
///    exactly once), then [`FrameWorkspace::finish_uplink`] runs the
///    receive chains and leaves the result in
///    [`FrameWorkspace::outcome`].
impl FrameWorkspace {
    /// Stage 1 — plans one uplink frame into this workspace: draws every
    /// client payload and the per-resource-element noise from `rng` (the
    /// draw order all receive paths share), runs the transmit chains, and
    /// packages the detection jobs. Genie CSI; `channel` must have one
    /// subcarrier (flat) or exactly `cfg.n_subcarriers`.
    pub fn plan_uplink<R: Rng + ?Sized>(
        &mut self,
        cfg: &PhyConfig,
        channel: &MimoChannel,
        snr_db: f64,
        rng: &mut R,
    ) {
        crate::txrx::plan_uplink_frame_into(cfg, channel, None, snr_db, rng, self);
    }

    /// The detection jobs of the last planned frame, one per OFDM symbol ×
    /// subcarrier, channel-major: job `k * n_sym + t` is subcarrier `k` of
    /// OFDM symbol `t`, so all of a subcarrier's jobs are adjacent.
    /// `channel` fields index [`FrameWorkspace::planned_channels`].
    pub fn planned_jobs(&self) -> &[DetectionJob] {
        &self.jobs[..self.n_jobs]
    }

    /// The channel table of the last planned frame (the detector's view,
    /// constellation scale folded in).
    pub fn planned_channels(&self) -> &[Matrix] {
        detector_channels(
            &self.grid_channels,
            self.n_grid_channels,
            &self.rx_channels,
            self.n_rx_channels,
        )
    }

    /// Stage 3 prologue — sizes the per-client detected-symbol buffers for
    /// the planned frame. Call once before the
    /// [`FrameWorkspace::absorb_detection`] sweep; an instrumented caller
    /// holds one [`gs_prof::Stage::Scatter`] scope across both.
    pub fn begin_detection_assembly(&mut self) {
        crate::txrx::begin_assemble(self);
    }

    /// Stage 3 — scatters the detection for job `idx` (its index into
    /// [`FrameWorkspace::planned_jobs`]) into the per-client symbol
    /// buffers, at that job's OFDM symbol and subcarrier, and accumulates
    /// its operation counts into `stats`. Every job index of the planned
    /// frame must be absorbed exactly once, in any order (results are
    /// index-scattered, so internal reordering cannot change the outcome).
    pub fn absorb_detection(&mut self, stats: &mut DetectorStats, idx: usize, det: &Detection) {
        crate::txrx::absorb_detection(self, stats, idx, det);
    }

    /// Stage 3 epilogue — inverts the per-client receive chains over the
    /// absorbed detections and writes the frame outcome (also returned by
    /// [`FrameWorkspace::outcome`] until the next frame).
    pub fn finish_uplink(&mut self, cfg: &PhyConfig, stats: DetectorStats) -> &UplinkOutcome {
        crate::txrx::finish_outcome(cfg, self, stats)
    }
}

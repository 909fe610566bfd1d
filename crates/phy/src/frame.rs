//! Frame-level reusable workspace: the allocation-free receive loop.
//!
//! The per-symbol detection hot path is zero-alloc behind
//! `SearchWorkspace`; this module extends the same ownership discipline one
//! layer up, to whole frames. [`FrameWorkspace`] owns every buffer an
//! uplink frame exchange touches — the transmit-chain scratch, the planned
//! per-client symbol grids, the pooled [`DetectionJob`] `y` buffers, the
//! detection outputs, the per-client LLR streams of the soft path, and the
//! receive-chain (deinterleave/depuncture/Viterbi) scratch — plus the
//! persistent [`DetectionPool`] every multi-worker decode runs on (the
//! frame-synchronous front over `geosphere-core`'s one detection thread
//! pool, [`ShardedDetectionPool`](geosphere_core::ShardedDetectionPool)).
//! The pool holds the detector as an `Arc`, which is why the hard entry
//! points take `Clone + PartialEq` detectors: concrete values, or a
//! shared `Arc<dyn MimoDetector>` for callers that pick one at run time.
//!
//! ## Ownership model
//!
//! **One `FrameWorkspace` per receive loop, one
//! [`SearchWorkspace`](geosphere_core::SearchWorkspace) per worker.** Every
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
//! detection (at any worker count: pool threads recycle their own search
//! state and output buffers), and payload recovery. `tests/alloc_regression.rs` enforces
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
    Detection, DetectionJob, DetectionPool, DetectorStats, DetectorTier, DetectorWorkspace,
    MimoDetector, SoftDetection, SoftWorkspace,
};
use gs_channel::MimoChannel;
use gs_coding::{CodedBit, Interleaver, ViterbiWorkspace};
use gs_linalg::{Complex, Matrix};
use gs_modulation::GridPoint;
use rand::Rng;
use std::any::Any;
use std::sync::Arc;

/// Transmit-chain scratch shared by all clients of a frame (each client's
/// chain runs start-to-finish before the next client's).
#[derive(Default)]
pub(crate) struct TxScratch {
    /// Payload + CRC + pad (scrambled in place).
    pub(crate) info: Vec<bool>,
    /// Mother-code output.
    pub(crate) mother: Vec<bool>,
    /// Punctured stream.
    pub(crate) coded: Vec<bool>,
    /// Interleaved stream.
    pub(crate) interleaved: Vec<bool>,
    /// The frame shape's interleaver tables ([`interleaver_for`]).
    pub(crate) il: Option<Interleaver>,
}

/// Receive-chain scratch shared by all clients of a frame.
#[derive(Default)]
pub(crate) struct RxScratch {
    /// Hard demapped bits (transmitted order).
    pub(crate) bits: Vec<bool>,
    /// Deinterleaved hard bits.
    pub(crate) deint: Vec<bool>,
    /// Depunctured mother stream.
    pub(crate) mother_cb: Vec<CodedBit>,
    /// Deinterleaved LLRs (soft path).
    pub(crate) llr_deint: Vec<f64>,
    /// Depunctured soft mother stream.
    pub(crate) mother_soft: Vec<f64>,
    /// Decoded information bits (truncated to payload + CRC).
    pub(crate) info: Vec<bool>,
    /// Viterbi trellis scratch (hard and soft paths).
    pub(crate) vit: ViterbiWorkspace,
    /// Flat client-major mother streams for the lockstep multi-stream
    /// Viterbi pass (client `cl` at `cl·mother_len..`).
    pub(crate) mother_multi: Vec<CodedBit>,
    /// Flat client-major decoded info bits from the lockstep pass.
    pub(crate) info_multi: Vec<bool>,
    /// The frame shape's interleaver tables ([`interleaver_for`]).
    pub(crate) il: Option<Interleaver>,
}

/// The interleaver for `cfg`'s OFDM symbol shape, kept in `slot` across
/// frames: built on first use and rebuilt in place only when the shape
/// changes, so a warm receive loop never recomputes the permutation.
pub(crate) fn interleaver_for<'a>(
    slot: &'a mut Option<Interleaver>,
    cfg: &PhyConfig,
) -> &'a Interleaver {
    let (n_cbps, n_bpsc) = (cfg.n_cbps(), cfg.constellation.bits_per_symbol());
    let il = slot.get_or_insert_with(|| Interleaver::new(n_cbps, n_bpsc));
    il.reshape(n_cbps, n_bpsc);
    il
}

/// The detector identity installed into the worker pool: the caller's
/// concrete detector value (for change detection) plus the type-erased
/// `Arc` the pool workers hold.
pub(crate) struct PoolDetector {
    src: Box<dyn Any + Send + Sync>,
    arc: Arc<dyn MimoDetector>,
}

/// Reusable whole-frame state for the uplink receive loop. See the module
/// docs for the ownership model; create with [`FrameWorkspace::new`] and
/// pass to the frame entry points in [`crate::txrx`], [`crate::soft_rx`],
/// [`crate::iterative`], and [`mod@crate::measure`].
#[derive(Default)]
pub struct FrameWorkspace {
    // --- frame plan (filled by `plan_uplink_frame_into`) ---
    /// Per-client payload bits.
    pub(crate) payloads: Vec<Vec<bool>>,
    /// Per-client planned grid symbols, flattened `[t * n_subcarriers + k]`.
    pub(crate) symbols: Vec<Vec<GridPoint>>,
    pub(crate) tx: TxScratch,
    /// Grid-domain air channels (constellation scale folded in).
    pub(crate) grid_channels: Vec<Matrix>,
    /// The detector's channel view (genie or CSI), same scaling.
    pub(crate) rx_channels: Vec<Matrix>,
    /// Valid prefix lengths of the two channel tables (the buffers only
    /// grow; stale entries beyond these lengths are ignored).
    pub(crate) n_grid_channels: usize,
    pub(crate) n_rx_channels: usize,
    /// Pooled detection jobs; entry `y` buffers are refilled in place.
    pub(crate) jobs: Vec<DetectionJob>,
    pub(crate) n_jobs: usize,
    pub(crate) n_sym: usize,
    pub(crate) n_clients: usize,
    /// Per-job stacked symbol scratch.
    pub(crate) s_buf: Vec<GridPoint>,
    /// Per-resource-element receive scratch (soft/iterative paths).
    pub(crate) y_buf: Vec<Complex>,

    // --- detection ---
    /// Detector workspace for the single-worker inline path.
    pub(crate) det_ws: DetectorWorkspace,
    /// Detection outputs of the single-worker inline path (recycled).
    pub(crate) det_out: Vec<Detection>,
    /// Persistent multi-worker pool, built on first multi-worker decode.
    pub(crate) pool: Option<DetectionPool>,
    /// The worker count `pool` was built for, as requested (`0` stays `0`,
    /// so machine parallelism is resolved once, at build).
    pub(crate) pool_request: usize,
    /// The detector currently installed for the pool.
    pub(crate) pool_detector: Option<PoolDetector>,

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
    /// The control-plane tier stamp copied into [`UplinkOutcome::tier`] by
    /// `finish_uplink`. Sticky until set again ([`FrameWorkspace::set_detector_tier`]);
    /// defaults to [`DetectorTier::Sphere`].
    pub(crate) tier: DetectorTier,
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

    /// Stamps the detector tier a control plane chose for the frame being
    /// staged; [`FrameWorkspace::finish_uplink`] copies it into
    /// [`UplinkOutcome::tier`]. Purely a label — it does not change which
    /// detector runs (the caller dispatches detection) or any decoded bit.
    /// Sticky across frames until set again; entry points that never stamp
    /// a tier report the default, [`DetectorTier::Sphere`].
    pub fn set_detector_tier(&mut self, tier: DetectorTier) {
        self.tier = tier;
    }

    /// The tier stamp the next [`FrameWorkspace::finish_uplink`] will
    /// report.
    pub fn detector_tier(&self) -> DetectorTier {
        self.tier
    }

    /// Forces per-client (single-stream) Viterbi decoding instead of the
    /// default lockstep multi-stream pass. Bit-identical output either
    /// way; a measurement knob for the bench harness, not a tuning one.
    pub fn set_per_client_viterbi(&mut self, on: bool) {
        self.per_client_viterbi = on;
    }

    /// The `Arc` handle for `detector`, rebuilding it only when the
    /// detector value (or type) changed since the pool last saw it — a
    /// refcount bump per frame in steady state, never an allocation. A
    /// shared `Arc<dyn MimoDetector>` is cached by identity, so the same
    /// handle stays warm across frames.
    pub(crate) fn pool_detector_for<D>(&mut self, detector: &D) -> Arc<dyn MimoDetector>
    where
        D: MimoDetector + Clone + PartialEq + 'static,
    {
        let fresh = matches!(
            &self.pool_detector,
            Some(pd) if pd.src.downcast_ref::<D>() == Some(detector)
        );
        if !fresh {
            let arc: Arc<dyn MimoDetector> = Arc::new(detector.clone());
            self.pool_detector =
                Some(PoolDetector { src: Box::new(detector.clone()), arc: Arc::clone(&arc) });
        }
        Arc::clone(&self.pool_detector.as_ref().expect("detector just installed").arc)
    }

    /// The persistent pool for a `workers` request ([`DetectionPool::new`]
    /// semantics), (re)built only when the request changes.
    pub(crate) fn pool_with_workers(&mut self, workers: usize) -> &mut DetectionPool {
        if self.pool.is_none() || self.pool_request != workers {
            self.pool = Some(DetectionPool::new(workers));
            self.pool_request = workers;
        }
        self.pool.as_mut().expect("pool just built")
    }
}

/// The **staged** frame API: the three pipeline stages of
/// [`decode_frame_batched_into`](crate::txrx::decode_frame_batched_into),
/// exposed individually so an external scheduler (the `gs-runtime`
/// streaming engine) can run each stage on whichever worker holds the
/// frame and split detection across shards.
///
/// Contract (all stages allocation-free once the workspace has warmed up
/// to the frame shape, and bit-identical to the one-call entry points):
///
/// 1. [`FrameWorkspace::plan_uplink`] draws the frame's randomness and
///    fills the pooled detection jobs;
/// 2. the caller detects [`FrameWorkspace::planned_jobs`] against
///    [`FrameWorkspace::planned_channels`] however it likes (inline,
///    pooled, sharded) — detection is a pure per-job function;
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

    /// The detection jobs of the last planned frame (one per OFDM symbol ×
    /// subcarrier; `channel` fields index [`FrameWorkspace::planned_channels`]).
    pub fn planned_jobs(&self) -> &[DetectionJob] {
        &self.jobs[..self.n_jobs]
    }

    /// The channel table of the last planned frame (the detector's view,
    /// constellation scale folded in).
    pub fn planned_channels(&self) -> &[Matrix] {
        &self.rx_channels[..self.n_rx_channels]
    }

    /// Stage 3 prologue — sizes the per-client detected-symbol buffers for
    /// the planned frame. Call once before the
    /// [`FrameWorkspace::absorb_detection`] sweep; an instrumented caller
    /// holds one [`gs_prof::Stage::Scatter`] scope across both.
    pub fn begin_detection_assembly(&mut self) {
        crate::txrx::begin_assemble(self);
    }

    /// Stage 3 — scatters the detection for job `idx` into the per-client
    /// symbol buffers and accumulates its operation counts into `stats`.
    /// Every job index of the planned frame must be absorbed exactly once,
    /// in any order (results are index-scattered, so internal reordering
    /// cannot change the outcome).
    pub fn absorb_detection(&mut self, stats: &mut DetectorStats, idx: usize, det: &Detection) {
        crate::txrx::absorb_detection(&mut self.detected, stats, idx, det);
    }

    /// Stage 3 epilogue — inverts the per-client receive chains over the
    /// absorbed detections and writes the frame outcome (also returned by
    /// [`FrameWorkspace::outcome`] until the next frame).
    pub fn finish_uplink(&mut self, cfg: &PhyConfig, stats: DetectorStats) -> &UplinkOutcome {
        crate::txrx::finish_outcome(cfg, self, stats)
    }
}

//! The transmit and receive chains.
//!
//! Per-client transmit pipeline (§4 of the paper, mirroring 802.11):
//! payload → CRC-32 → pad → scramble → rate-1/2 convolutional code (+tail)
//! → puncture → per-OFDM-symbol interleave → Gray QAM mapping → one grid
//! symbol per (OFDM symbol, subcarrier).
//!
//! The uplink receive pipeline runs a [`MimoDetector`] per (OFDM symbol,
//! subcarrier) on the stacked clients' symbols, then inverts the chain per
//! client and checks the CRC — frame success is what the throughput
//! figures count.
//!
//! There is one hard receive path: [`decode_frame_batched_into`] (genie
//! CSI) and [`decode_frame_with_csi_into`] (estimated CSI) are thin fronts
//! over the same body. Every pipeline stage writes into buffers owned by
//! a caller-held [`FrameWorkspace`] (a one-off decode uses a fresh
//! [`FrameWorkspace::new`]), so a long-lived receiver performs **zero
//! heap allocations per frame** after warmup, at any worker count.

use crate::config::PhyConfig;
use crate::frame::{interleaver_for, FrameWorkspace, RxScratch, TxScratch};
use geosphere_core::{
    apply_channel_into, DetectionBatch, DetectionJob, DetectorStats, MimoDetector,
};
use gs_channel::{sample_cn, MimoChannel};
use gs_coding::{
    check_crc_ok, conv, crc::crc32_bits, depuncture_into, puncture_into, scramble::Scrambler,
    viterbi,
};
use gs_linalg::Matrix;
use gs_modulation::{map_bitstream_into, unmap_points_into, GridPoint};
use rand::Rng;

/// A transmitted client frame: the original payload and the grid-domain
/// symbol plan `[ofdm_symbol][subcarrier]`.
#[derive(Clone, Debug)]
pub struct TxFrame {
    /// The information payload (pre-CRC).
    pub payload: Vec<bool>,
    /// Symbols per OFDM symbol per subcarrier.
    pub symbols: Vec<Vec<GridPoint>>,
}

/// Encodes one client frame.
///
/// # Panics
/// Panics when `payload.len() != cfg.payload_bits`.
pub fn transmit_frame(cfg: &PhyConfig, payload: &[bool]) -> TxFrame {
    let mut tx = TxScratch::default();
    let mut flat = Vec::new();
    transmit_symbols_into(cfg, payload, &mut tx, &mut flat);
    let symbols: Vec<Vec<GridPoint>> =
        flat.chunks(cfg.n_subcarriers).map(|ch| ch.to_vec()).collect();
    TxFrame { payload: payload.to_vec(), symbols }
}

/// The transmit chain into a flat symbol buffer (`[t * n_subcarriers + k]`),
/// all intermediates in reused scratch: allocation-free once warm.
///
/// # Panics
/// Panics when `payload.len() != cfg.payload_bits`.
pub(crate) fn transmit_symbols_into(
    cfg: &PhyConfig,
    payload: &[bool],
    tx: &mut TxScratch,
    out: &mut Vec<GridPoint>,
) {
    assert_eq!(payload.len(), cfg.payload_bits, "payload length mismatch");
    let c = cfg.constellation;

    // Payload + CRC + pad, scrambled (the tail is appended by the encoder
    // and must stay zero, so scrambling covers only the data region).
    tx.info.clear();
    tx.info.extend_from_slice(payload);
    let crc = crc32_bits(payload);
    tx.info.extend((0..32).map(|k| crc >> k & 1 == 1));
    tx.info.extend(std::iter::repeat_n(false, cfg.pad_bits()));
    Scrambler::default_seed().apply_in_place(&mut tx.info);

    // Convolutional code (appends the 6-bit tail), then puncturing.
    conv::encode_into(&tx.info, &mut tx.mother);
    puncture_into(&tx.mother, cfg.code_rate, &mut tx.coded);
    debug_assert_eq!(tx.coded.len(), cfg.n_ofdm_symbols() * cfg.n_cbps());

    // Per-OFDM-symbol interleaving, then Gray mapping.
    interleaver_for(&mut tx.il, cfg).interleave_stream_into(&tx.coded, &mut tx.interleaved);
    map_bitstream_into(c, &tx.interleaved, out);
}

/// Decodes one client's detected grid symbols back to a payload, returning
/// `Some(payload)` only when the CRC verifies.
pub fn receive_frame(cfg: &PhyConfig, detected: &[Vec<GridPoint>]) -> Option<Vec<bool>> {
    let flat: Vec<GridPoint> = detected.iter().flatten().copied().collect();
    let mut rx = RxScratch::default();
    if receive_frame_flat_into(cfg, &flat, &mut rx) {
        rx.info.truncate(cfg.payload_bits);
        Some(rx.info)
    } else {
        None
    }
}

/// The hard receive chain over a flat symbol stream, every intermediate in
/// reused scratch. Returns whether the CRC verified; the decoded
/// information bits (payload + CRC) are left in `rx.info`.
pub(crate) fn receive_frame_flat_into(
    cfg: &PhyConfig,
    detected: &[GridPoint],
    rx: &mut RxScratch,
) -> bool {
    let _prof = gs_prof::scope(gs_prof::Stage::Recover);
    _prof.add_bytes(cfg.payload_bits as u64 / 8);
    preprocess_client_into(cfg, detected, rx);
    viterbi::decode_with_erasures_into(&rx.mother_cb, &mut rx.vit, &mut rx.info);
    Scrambler::default_seed().apply_in_place(&mut rx.info);
    rx.info.truncate(cfg.payload_bits + 32); // drop pad
    check_crc_ok(&rx.info)
}

/// The pre-Viterbi half of one client's receive chain: demap the detected
/// grid points, deinterleave, and depuncture into `rx.mother_cb`.
fn preprocess_client_into(cfg: &PhyConfig, detected: &[GridPoint], rx: &mut RxScratch) {
    unmap_points_into(cfg.constellation, detected, &mut rx.bits);
    interleaver_for(&mut rx.il, cfg).deinterleave_stream_into(&rx.bits, &mut rx.deint);
    // `total_info_bits` already includes the 6-bit tail, so the mother
    // (rate-1/2) stream is exactly twice it.
    let mother_len = 2 * cfg.total_info_bits();
    depuncture_into(&rx.deint, cfg.code_rate, mother_len, &mut rx.mother_cb);
}

/// Result of one multi-user uplink frame exchange.
#[derive(Clone, Debug, Default)]
pub struct UplinkOutcome {
    /// Per-client frame success (CRC verified).
    pub client_ok: Vec<bool>,
    /// Detector operation counts accumulated over the frame.
    pub stats: DetectorStats,
    /// Number of detector invocations (OFDM symbols × subcarriers) —
    /// divide `stats` by this for the paper's per-subcarrier averages.
    pub detections: u64,
    /// The control-plane detector tier stamped on the frame
    /// ([`FrameWorkspace::set_detector_tier`]): which rung of a
    /// [`geosphere_core::DetectorLadder`] decoded it. Entry points that
    /// never stamp a tier leave the workspace default
    /// ([`geosphere_core::DetectorTier::Sphere`]).
    pub tier: geosphere_core::DetectorTier,
}

/// Decodes one uplink frame into a recycled [`FrameWorkspace`] — the
/// steady-state receive loop. Every client transmits simultaneously
/// through `channel` (one subcarrier — flat, reused for all — or exactly
/// `cfg.n_subcarriers`) at the given SNR; the AP detects with `detector`
/// under genie CSI, amortizing per-subcarrier channel preprocessing across
/// the frame's OFDM symbols via [`MimoDetector::detect_batch_with`].
///
/// The outcome is **bit-identical** at every worker count for the same
/// `rng` state — all randomness (payloads, then noise in OFDM-symbol-major
/// order) is drawn before detection begins, and detection is a pure
/// function of the planned problems — and each frame is
/// **allocation-free** after one warmup frame of the same shape:
///
/// * the frame plan refills pooled payload/symbol/job buffers,
/// * `workers == 1` detects inline through the workspace's
///   [`DetectorWorkspace`](geosphere_core::DetectorWorkspace) with
///   recycled outputs,
/// * any other count dispatches through the workspace's persistent
///   [`DetectionPool`](geosphere_core::DetectionPool) of exactly `workers`
///   threads (`0` = machine parallelism, resolved once, when the pool is
///   built) — job and channel buffers are lent to the pool and returned,
///   results are read in place,
/// * the receive chain decodes into reused Viterbi/deinterleave scratch.
///
/// The detector must be `Clone + PartialEq` so the pool can keep a cheap
/// `Arc` of it and rebuild only when the detector actually changes. A
/// shared `Arc<dyn MimoDetector>` qualifies (it compares by identity).
#[allow(clippy::too_many_arguments)]
pub fn decode_frame_batched_into<'w, R, D>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    detector: &D,
    snr_db: f64,
    rng: &mut R,
    workers: usize,
    ws: &'w mut FrameWorkspace,
) -> &'w UplinkOutcome
where
    R: Rng + ?Sized,
    D: MimoDetector + Clone + PartialEq + 'static,
{
    decode_frame_into(cfg, channel, None, detector, snr_db, rng, workers, ws)
}

/// [`decode_frame_batched_into`] with the detector working from (possibly
/// imperfect) channel state information `csi` while the air uses
/// `channel` — the path used to study estimated-CSI performance (see
/// [`crate::chanest`]). Like `channel`, `csi` has one subcarrier (reused
/// for all) or exactly `cfg.n_subcarriers`, and it must match `channel`'s
/// antenna and stream counts. Draws the same randomness as
/// [`decode_frame_batched_into`], so `csi = channel` reproduces it
/// exactly.
#[allow(clippy::too_many_arguments)]
pub fn decode_frame_with_csi_into<'w, R, D>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    csi: &MimoChannel,
    detector: &D,
    snr_db: f64,
    rng: &mut R,
    workers: usize,
    ws: &'w mut FrameWorkspace,
) -> &'w UplinkOutcome
where
    R: Rng + ?Sized,
    D: MimoDetector + Clone + PartialEq + 'static,
{
    decode_frame_into(cfg, channel, Some(csi), detector, snr_db, rng, workers, ws)
}

/// The one hard receive body behind both public fronts: plan (genie or
/// supplied CSI), detect inline or on the pool, then the receive chains.
#[allow(clippy::too_many_arguments)]
fn decode_frame_into<'w, R, D>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    csi: Option<&MimoChannel>,
    detector: &D,
    snr_db: f64,
    rng: &mut R,
    workers: usize,
    ws: &'w mut FrameWorkspace,
) -> &'w UplinkOutcome
where
    R: Rng + ?Sized,
    D: MimoDetector + Clone + PartialEq + 'static,
{
    plan_uplink_frame_into(cfg, channel, csi, snr_db, rng, ws);
    let mut stats = DetectorStats::default();
    if workers == 1 {
        detect_planned_inline(cfg, detector, ws, &mut stats);
    } else {
        let arc = ws.pool_detector_for(detector);
        ws.pool_with_workers(workers);
        // Detach the pool so the result visitor below can borrow the rest
        // of the workspace mutably (a pointer move, not an allocation).
        let mut pool = ws.pool.take().expect("pool just ensured");
        pool.run(&arc, &mut ws.rx_channels, &mut ws.jobs, ws.n_jobs, cfg.constellation);
        begin_assemble(ws);
        let scatter = gs_prof::scope(gs_prof::Stage::Scatter);
        pool.for_each_result(|idx, det| absorb_detection(&mut ws.detected, &mut stats, idx, det));
        drop(scatter);
        ws.pool = Some(pool);
    }
    finish_outcome(cfg, ws, stats)
}

/// Single-worker amortized detection on the calling thread: the batch runs
/// through the detector's reusable workspace with recycled outputs.
fn detect_planned_inline<D: MimoDetector + ?Sized>(
    cfg: &PhyConfig,
    detector: &D,
    ws: &mut FrameWorkspace,
    stats: &mut DetectorStats,
) {
    {
        let n_rx = ws.n_rx_channels;
        let n_jobs = ws.n_jobs;
        let FrameWorkspace { rx_channels, jobs, det_ws, det_out, .. } = ws;
        let batch = DetectionBatch {
            channels: &rx_channels[..n_rx],
            jobs: &jobs[..n_jobs],
            c: cfg.constellation,
        };
        detector.detect_batch_with(&batch, det_ws, det_out);
    }
    begin_assemble(ws);
    let _prof = gs_prof::scope(gs_prof::Stage::Scatter);
    let FrameWorkspace { det_out, detected, .. } = ws;
    for (idx, det) in det_out.iter().enumerate() {
        absorb_detection(detected, stats, idx, det);
    }
}

/// The frame-plan prologue shared by the hard, soft, and iterative entry
/// points: draws every client payload (the first RNG consumer, client by
/// client — the draw order all paths' bit-identity rests on), runs the
/// transmit chains into the workspace's flat symbol grids, and refreshes
/// the grid-domain channel table (constellation scale folded in so grid
/// symbols fly at unit average power). Returns `(n_sym, n_grid)`.
/// Allocation-free once the workspace has warmed up to this frame shape.
pub(crate) fn plan_transmit_into<R: Rng + ?Sized>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    rng: &mut R,
    ws: &mut FrameWorkspace,
) -> (usize, usize) {
    let nc = channel.num_tx();
    let c = cfg.constellation;
    assert!(
        channel.num_subcarriers() == 1 || channel.num_subcarriers() == cfg.n_subcarriers,
        "channel subcarrier count must be 1 or {}",
        cfg.n_subcarriers
    );

    // Per-client frames with random payloads.
    if ws.payloads.len() < nc {
        ws.payloads.resize_with(nc, Vec::new);
    }
    if ws.symbols.len() < nc {
        ws.symbols.resize_with(nc, Vec::new);
    }
    for cl in 0..nc {
        let FrameWorkspace { payloads, symbols, tx, .. } = ws;
        let payload = &mut payloads[cl];
        payload.clear();
        payload.extend((0..cfg.payload_bits).map(|_| rng.gen_bool(0.5)));
        transmit_symbols_into(cfg, payload, tx, &mut symbols[cl]);
    }
    let n_sym = ws.symbols[0].len() / cfg.n_subcarriers;

    let n_grid = channel.num_subcarriers();
    if ws.grid_channels.len() < n_grid {
        ws.grid_channels.resize_with(n_grid, Matrix::default);
    }
    for (k, m) in channel.iter().enumerate() {
        ws.grid_channels[k].scale_from(m, c.scale());
    }
    (n_sym, n_grid)
}

/// Draws every random quantity of the frame — client payloads, then
/// per-(symbol, subcarrier) noise — in the fixed order all receive paths
/// share, and packages the resulting detection problems into the
/// workspace's pooled buffers. Allocation-free once the workspace has
/// warmed up to this frame shape.
pub(crate) fn plan_uplink_frame_into<R: Rng + ?Sized>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    csi: Option<&MimoChannel>,
    snr_db: f64,
    rng: &mut R,
    ws: &mut FrameWorkspace,
) {
    let _prof = gs_prof::scope(gs_prof::Stage::Plan);
    let _tspan = gs_prof::trace::span(gs_prof::trace::TracePoint::Stage(gs_prof::Stage::Plan));
    let nc = channel.num_tx();
    let na = channel.num_rx();
    let c = cfg.constellation;
    _prof.add_bytes((nc * cfg.payload_bits) as u64 / 8);
    let (n_sym, n_grid) = plan_transmit_into(cfg, channel, rng, ws);
    let sigma2 = gs_channel::noise_variance_for_snr_db(snr_db);
    ws.n_grid_channels = n_grid;
    // The detector's view of the channel: genie (the truth) or supplied CSI.
    let n_rx = match csi {
        Some(est) => {
            assert_eq!(est.num_rx(), na, "CSI antenna mismatch");
            assert_eq!(est.num_tx(), nc, "CSI stream mismatch");
            let n = est.num_subcarriers();
            if ws.rx_channels.len() < n {
                ws.rx_channels.resize_with(n, Matrix::default);
            }
            for (k, m) in est.iter().enumerate() {
                ws.rx_channels[k].scale_from(m, c.scale());
            }
            n
        }
        None => {
            if ws.rx_channels.len() < n_grid {
                ws.rx_channels.resize_with(n_grid, Matrix::default);
            }
            for k in 0..n_grid {
                let FrameWorkspace { grid_channels, rx_channels, .. } = ws;
                rx_channels[k].copy_from(&grid_channels[k]);
            }
            n_grid
        }
    };
    ws.n_rx_channels = n_rx;

    let n_jobs = n_sym * cfg.n_subcarriers;
    if ws.jobs.len() < n_jobs {
        ws.jobs.resize_with(n_jobs, || DetectionJob { channel: 0, y: Vec::new() });
    }
    let mut idx = 0;
    for t in 0..n_sym {
        for k in 0..cfg.n_subcarriers {
            let FrameWorkspace { symbols, grid_channels, jobs, s_buf, .. } = ws;
            let h = &grid_channels[k % n_grid];
            s_buf.clear();
            s_buf.extend((0..nc).map(|cl| symbols[cl][t * cfg.n_subcarriers + k]));
            let job = &mut jobs[idx];
            job.channel = k % n_rx;
            apply_channel_into(h, s_buf, &mut job.y);
            for v in job.y.iter_mut() {
                *v += sample_cn(rng, sigma2);
            }
            debug_assert_eq!(job.y.len(), na);
            idx += 1;
        }
    }

    ws.n_jobs = n_jobs;
    ws.n_sym = n_sym;
    ws.n_clients = nc;
}

/// Sizes the per-client detected-symbol buffers for the planned frame.
pub(crate) fn begin_assemble(ws: &mut FrameWorkspace) {
    let _prof = gs_prof::scope(gs_prof::Stage::Scatter);
    let nc = ws.n_clients;
    if ws.detected.len() < nc {
        ws.detected.resize_with(nc, Vec::new);
    }
    for d in ws.detected.iter_mut().take(nc) {
        d.clear();
        d.resize(ws.n_jobs, GridPoint::default());
    }
}

/// Scatters one detection's symbols to the per-client buffers and
/// accumulates its operation counts.
pub(crate) fn absorb_detection(
    detected: &mut [Vec<GridPoint>],
    stats: &mut DetectorStats,
    idx: usize,
    det: &geosphere_core::Detection,
) {
    *stats += det.stats;
    for (cl, &p) in det.symbols.iter().enumerate() {
        detected[cl][idx] = p;
    }
}

/// Inverts the per-client receive chains over the scattered detections and
/// writes the frame outcome into the workspace.
pub(crate) fn finish_outcome<'w>(
    cfg: &PhyConfig,
    ws: &'w mut FrameWorkspace,
    stats: DetectorStats,
) -> &'w UplinkOutcome {
    let nc = ws.n_clients;
    let n_jobs = ws.n_jobs;
    ws.out.client_ok.clear();
    if nc >= 2 && !ws.per_client_viterbi {
        // Multi-symbol SoA path: every client's pre-Viterbi chain feeds one
        // flat client-major mother slab, one lockstep trellis pass decodes
        // them all, then the per-client tail (descramble, CRC, compare)
        // runs over slices of the flat output. Bit-identical to the
        // per-client loop below — the lockstep decoder reproduces the
        // single-stream recurrence exactly.
        let FrameWorkspace { detected, payloads, rx, out, .. } = ws;
        {
            let _prof = gs_prof::scope(gs_prof::Stage::Recover);
            let _tspan =
                gs_prof::trace::span(gs_prof::trace::TracePoint::Stage(gs_prof::Stage::Recover));
            _prof.add_bytes((nc * cfg.payload_bits) as u64 / 8);
            rx.mother_multi.clear();
            for cl in 0..nc {
                preprocess_client_into(cfg, &detected[cl][..n_jobs], rx);
                let RxScratch { mother_cb, mother_multi, .. } = rx;
                mother_multi.extend_from_slice(mother_cb);
            }
        }
        {
            let _tspan =
                gs_prof::trace::span(gs_prof::trace::TracePoint::Stage(gs_prof::Stage::Viterbi));
            viterbi::decode_multi_with_erasures_into(
                &rx.mother_multi,
                nc,
                &mut rx.vit,
                &mut rx.info_multi,
            );
        }
        let _prof = gs_prof::scope(gs_prof::Stage::Recover);
        let _tspan = gs_prof::trace::span(gs_prof::trace::TracePoint::Stage(gs_prof::Stage::Crc));
        let info_len = rx.info_multi.len() / nc;
        let frame_len = cfg.payload_bits + 32;
        for cl in 0..nc {
            // Descrambling is positional, so stopping at the CRC boundary
            // leaves exactly the bits the single-stream path keeps after
            // its truncate.
            let info = &mut rx.info_multi[cl * info_len..cl * info_len + frame_len];
            Scrambler::default_seed().apply_in_place(info);
            let ok = check_crc_ok(info) && info[..cfg.payload_bits] == payloads[cl][..];
            out.client_ok.push(ok);
        }
    } else {
        // Per-client fallback: Viterbi/CRC run nested inside the chain,
        // so the flight recorder sees one recover span per frame here.
        let _tspan =
            gs_prof::trace::span(gs_prof::trace::TracePoint::Stage(gs_prof::Stage::Recover));
        for cl in 0..nc {
            let FrameWorkspace { detected, payloads, rx, out, .. } = ws;
            let ok = receive_frame_flat_into(cfg, &detected[cl][..n_jobs], rx)
                && rx.info[..cfg.payload_bits] == payloads[cl][..];
            out.client_ok.push(ok);
        }
    }
    ws.out.stats = stats;
    ws.out.detections = ws.n_jobs as u64;
    ws.out.tier = ws.tier;
    &ws.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosphere_core::{geosphere_decoder, ZfDetector};
    use gs_channel::{ChannelModel, RayleighChannel};
    use gs_modulation::Constellation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tx_frame_dimensions() {
        let cfg = PhyConfig::new(Constellation::Qam16);
        let payload: Vec<bool> = (0..cfg.payload_bits).map(|k| k % 3 == 0).collect();
        let f = transmit_frame(&cfg, &payload);
        assert_eq!(f.symbols.len(), cfg.n_ofdm_symbols());
        for row in &f.symbols {
            assert_eq!(row.len(), cfg.n_subcarriers);
        }
    }

    #[test]
    fn tx_rx_roundtrip_noiseless_chain() {
        // Bypass the channel entirely: receive exactly what was mapped.
        for c in Constellation::ALL {
            let cfg = PhyConfig::new(c);
            let payload: Vec<bool> = (0..cfg.payload_bits).map(|k| (k * 13) % 7 < 3).collect();
            let f = transmit_frame(&cfg, &payload);
            let rx = receive_frame(&cfg, &f.symbols).expect("noiseless chain must verify");
            assert_eq!(rx, payload, "{c:?}");
        }
    }

    #[test]
    fn corrupted_symbols_fail_crc() {
        let cfg = PhyConfig::new(Constellation::Qam16);
        let payload: Vec<bool> = (0..cfg.payload_bits).map(|k| k % 2 == 0).collect();
        let mut f = transmit_frame(&cfg, &payload);
        // Corrupt a whole OFDM symbol beyond what the code can absorb.
        for p in f.symbols[1].iter_mut() {
            p.i = -p.i;
            p.q = -p.q;
        }
        assert_eq!(receive_frame(&cfg, &f.symbols), None);
    }

    #[test]
    fn uplink_high_snr_succeeds() {
        let mut rng = StdRng::seed_from_u64(171);
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let ch = RayleighChannel::new(4, 2).realize(&mut rng);
        let mut ws = FrameWorkspace::new();
        let out =
            decode_frame_batched_into(&cfg, &ch, &geosphere_decoder(), 35.0, &mut rng, 1, &mut ws);
        assert!(out.client_ok.iter().all(|&ok| ok), "35 dB, 2x4: all frames should pass");
        assert!(out.detections > 0);
        assert!(out.stats.ped_calcs > 0);
    }

    #[test]
    fn uplink_low_snr_fails() {
        let mut rng = StdRng::seed_from_u64(172);
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam64) };
        let ch = RayleighChannel::new(4, 4).realize(&mut rng);
        let mut ws = FrameWorkspace::new();
        let out = decode_frame_batched_into(&cfg, &ch, &ZfDetector, -5.0, &mut rng, 1, &mut ws);
        assert!(out.client_ok.iter().all(|&ok| !ok), "-5 dB 64-QAM: frames must fail");
    }

    #[test]
    fn batched_decode_bit_identical_to_serial() {
        // Same RNG seed → the inline single-worker decode and the pooled
        // decode must agree exactly, at every worker count, including op
        // counts — through fresh and recycled workspaces alike. (The
        // per-job serial oracle lives in `tests/batch_determinism.rs`.)
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let mut chan_rng = StdRng::seed_from_u64(271);
        let ch = RayleighChannel::new(4, 2).realize(&mut chan_rng);
        let det = geosphere_decoder();

        let mut rng = StdRng::seed_from_u64(272);
        let serial = decode_frame_batched_into(
            &cfg,
            &ch,
            &det,
            18.0,
            &mut rng,
            1,
            &mut FrameWorkspace::new(),
        )
        .clone();
        let mut ws = FrameWorkspace::new();
        for workers in [1, 2, 4] {
            let mut rng = StdRng::seed_from_u64(272);
            let mut fresh_ws = FrameWorkspace::new();
            let batched =
                decode_frame_batched_into(&cfg, &ch, &det, 18.0, &mut rng, workers, &mut fresh_ws);
            assert_eq!(batched.client_ok, serial.client_ok, "workers {workers}");
            assert_eq!(batched.stats, serial.stats, "workers {workers}");
            assert_eq!(batched.detections, serial.detections, "workers {workers}");

            let mut rng = StdRng::seed_from_u64(272);
            let pooled =
                decode_frame_batched_into(&cfg, &ch, &det, 18.0, &mut rng, workers, &mut ws);
            assert_eq!(pooled.client_ok, serial.client_ok, "pooled workers {workers}");
            assert_eq!(pooled.stats, serial.stats, "pooled workers {workers}");
            assert_eq!(pooled.detections, serial.detections, "pooled workers {workers}");
        }
    }

    #[test]
    fn detections_count_matches_grid() {
        let mut rng = StdRng::seed_from_u64(173);
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qpsk) };
        let ch = RayleighChannel::new(2, 2).realize(&mut rng);
        let mut ws = FrameWorkspace::new();
        let out = decode_frame_batched_into(&cfg, &ch, &ZfDetector, 30.0, &mut rng, 1, &mut ws);
        assert_eq!(out.detections, (cfg.n_ofdm_symbols() * cfg.n_subcarriers) as u64);
    }
}

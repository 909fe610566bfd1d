//! The transmit and receive chains.
//!
//! Per-client transmit pipeline (§4 of the paper, mirroring 802.11):
//! payload → CRC-32 → pad → scramble → rate-1/2 convolutional code (+tail)
//! → puncture → per-OFDM-symbol interleave → Gray QAM mapping → one grid
//! symbol per (OFDM symbol, subcarrier). Bits travel as packed `u64` words
//! (bit `i` is bit `i % 64` of word `i / 64`), and the last three steps
//! are one gather through the frame shape's [`SymbolLayout`].
//!
//! The uplink receive pipeline runs a [`MimoDetector`] per (OFDM symbol,
//! subcarrier) on the stacked clients' symbols, then inverts the chain per
//! client — demapping, deinterleaving and depuncturing in one scatter
//! straight into the Viterbi input — and checks the CRC: frame success is
//! what the throughput figures count.
//!
//! There is one hard receive path: [`decode_frame_batched_into`] (genie
//! CSI) and [`decode_frame_with_csi_into`] (estimated CSI) are thin fronts
//! over the same body. Every pipeline stage writes into buffers owned by
//! a caller-held [`FrameWorkspace`] (a one-off decode uses a fresh
//! [`FrameWorkspace::new`]), so a long-lived receiver performs **zero
//! heap allocations per frame** after warmup.

use crate::config::PhyConfig;
use crate::frame::{detector_channels, layout_for, FrameWorkspace, RxScratch, TxScratch};
use geosphere_core::{
    apply_channel_into, DetectionBatch, DetectionJob, DetectorStats, MimoDetector,
};
use gs_channel::{sample_cn, MimoChannel};
use gs_coding::{
    check_crc_ok, conv, crc::crc32_words, scramble::Scrambler, viterbi, CodedBit, SymbolLayout,
};
use gs_linalg::Matrix;
use gs_modulation::{BitTable, GridPoint};
use rand::Rng;

/// A transmitted client frame: the original payload and the grid-domain
/// symbol plan `[ofdm_symbol][subcarrier]`.
#[derive(Clone, Debug)]
pub struct TxFrame {
    /// The information payload (pre-CRC), packed: bit `i` is bit `i % 64`
    /// of word `i / 64`, the bits past `payload_bits` zero.
    pub payload: Vec<u64>,
    /// Symbols per OFDM symbol per subcarrier.
    pub symbols: Vec<Vec<GridPoint>>,
}

/// Encodes one client frame. `payload` holds `cfg.payload_bits` bits,
/// packed as in [`TxFrame::payload`]; bits past them are ignored.
///
/// # Panics
/// Panics when `payload.len() != cfg.payload_bits.div_ceil(64)`.
pub fn transmit_frame(cfg: &PhyConfig, payload: &[u64]) -> TxFrame {
    let mut tx = TxScratch::default();
    let mut flat = Vec::new();
    transmit_symbols_into(cfg, payload, &mut tx, &mut flat);
    let symbols: Vec<Vec<GridPoint>> =
        flat.chunks(cfg.n_subcarriers).map(|ch| ch.to_vec()).collect();
    let mut payload = payload.to_vec();
    mask_tail(&mut payload, cfg.payload_bits);
    TxFrame { payload, symbols }
}

/// Clears the bits of `words` from bit `n_bits` on.
fn mask_tail(words: &mut [u64], n_bits: usize) {
    if !n_bits.is_multiple_of(64) {
        words[n_bits / 64] &= (1 << (n_bits % 64)) - 1;
    }
    words[n_bits.div_ceil(64)..].fill(0);
}

/// The transmit chain into a flat symbol buffer (`[t * n_subcarriers + k]`),
/// all intermediates in reused scratch: allocation-free once warm.
///
/// # Panics
/// Panics when `payload.len() != cfg.payload_bits.div_ceil(64)`.
pub(crate) fn transmit_symbols_into(
    cfg: &PhyConfig,
    payload: &[u64],
    tx: &mut TxScratch,
    out: &mut Vec<GridPoint>,
) {
    let n = cfg.payload_bits;
    assert_eq!(payload.len(), n.div_ceil(64), "payload length mismatch");

    // Payload + CRC + pad, scrambled (the tail is appended by the encoder
    // and must stay zero, so scrambling covers only the data region).
    let data_bits = cfg.total_info_bits() - (conv::CONSTRAINT - 1);
    tx.info.clear();
    tx.info.extend_from_slice(payload);
    tx.info.resize(data_bits.div_ceil(64), 0);
    mask_tail(&mut tx.info, n);
    let crc = u64::from(crc32_words(&tx.info, n));
    tx.info[n / 64] |= crc << (n % 64);
    if n % 64 > 32 {
        tx.info[n / 64 + 1] |= crc >> (64 - n % 64);
    }
    Scrambler::default_seed().apply_in_place(&mut tx.info, data_bits);

    // Convolutional code (appends the 6-bit tail), then puncturing,
    // per-OFDM-symbol interleaving and Gray mapping as one gather.
    conv::encode_into(&tx.info, data_bits, &mut tx.mother);
    let table = BitTable::new(cfg.constellation);
    layout_for(&mut tx.layout, cfg).gather_into(
        &tx.mother,
        cfg.n_ofdm_symbols(),
        |bits| table.point(bits),
        out,
    );
}

/// Why [`receive_frame`] refused a detected grid: its shape does not fit
/// the frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridMismatch {
    /// The grid has `got` OFDM symbols; the frame needs `want`.
    Symbols {
        /// OFDM symbols in the grid.
        got: usize,
        /// OFDM symbols of the frame.
        want: usize,
    },
    /// OFDM symbol `symbol` has `got` subcarriers; the frame has `want`.
    Subcarriers {
        /// The first OFDM symbol of the wrong width.
        symbol: usize,
        /// Its subcarriers.
        got: usize,
        /// The frame's subcarriers.
        want: usize,
    },
}

impl std::fmt::Display for GridMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GridMismatch::Symbols { got, want } => {
                write!(f, "grid has {got} OFDM symbols; the frame needs {want}")
            }
            GridMismatch::Subcarriers { symbol, got, want } => {
                write!(f, "OFDM symbol {symbol} has {got} subcarriers; the frame has {want}")
            }
        }
    }
}

impl std::error::Error for GridMismatch {}

/// Decodes one client's detected grid symbols back to a payload (packed
/// as in [`TxFrame::payload`]), returning `Ok(Some(payload))` only when
/// the CRC verifies.
///
/// # Errors
/// [`GridMismatch`] when the grid does not have `cfg`'s OFDM symbol and
/// subcarrier counts.
pub fn receive_frame(
    cfg: &PhyConfig,
    detected: &[Vec<GridPoint>],
) -> Result<Option<Vec<u64>>, GridMismatch> {
    let want = cfg.n_ofdm_symbols();
    if detected.len() != want {
        return Err(GridMismatch::Symbols { got: detected.len(), want });
    }
    if let Some((symbol, row)) =
        detected.iter().enumerate().find(|(_, row)| row.len() != cfg.n_subcarriers)
    {
        return Err(GridMismatch::Subcarriers { symbol, got: row.len(), want: cfg.n_subcarriers });
    }
    let flat: Vec<GridPoint> = detected.iter().flatten().copied().collect();
    let mut rx = RxScratch::default();
    if !receive_frame_flat_into(cfg, &flat, &mut rx) {
        return Ok(None);
    }
    rx.info.truncate(cfg.payload_bits.div_ceil(64));
    mask_tail(&mut rx.info, cfg.payload_bits);
    Ok(Some(rx.info))
}

/// The hard receive chain over a flat symbol stream, every intermediate in
/// reused scratch. Returns whether the CRC verified; the decoded
/// information bits (payload + CRC, descrambled) are left in `rx.info`.
pub(crate) fn receive_frame_flat_into(
    cfg: &PhyConfig,
    detected: &[GridPoint],
    rx: &mut RxScratch,
) -> bool {
    let _prof = gs_prof::scope(gs_prof::Stage::Recover);
    _prof.add_bytes(cfg.payload_bits as u64 / 8);
    rx.mother_multi.resize(2 * cfg.total_info_bits(), CodedBit::Erased);
    demap_into(cfg, layout_for(&mut rx.layout, cfg), detected, &mut rx.mother_multi);
    viterbi::decode_with_erasures_into(&rx.mother_multi, &mut rx.vit, &mut rx.info);
    verify_frame(cfg, &mut rx.info)
}

/// The pre-Viterbi half of one client's hard receive chain: demap every
/// detected point and scatter its bits through the frame's layout into
/// the client's depunctured mother stream `out`.
fn demap_into(
    cfg: &PhyConfig,
    layout: &SymbolLayout,
    detected: &[GridPoint],
    out: &mut [CodedBit],
) {
    let table = BitTable::new(cfg.constellation);
    layout.scatter(detected.iter().map(|&p| table.packed(p)), out);
}

/// Descrambles a decoded frame's payload and CRC in place (the pad stays
/// as decoded) and checks the CRC: the tail every receive path shares.
pub(crate) fn verify_frame(cfg: &PhyConfig, info: &mut [u64]) -> bool {
    let frame_bits = cfg.payload_bits + 32;
    Scrambler::default_seed().apply_in_place(info, frame_bits);
    check_crc_ok(info, frame_bits)
}

/// Whether the first `n_bits` bits of `decoded` equal `payload`'s.
pub(crate) fn payload_matches(decoded: &[u64], payload: &[u64], n_bits: usize) -> bool {
    let full = n_bits / 64;
    decoded[..full] == payload[..full]
        && (n_bits.is_multiple_of(64) || (decoded[full] ^ payload[full]) << (64 - n_bits % 64) == 0)
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
}

/// Decodes one uplink frame into a recycled [`FrameWorkspace`] — the
/// steady-state receive loop. Every client transmits simultaneously
/// through `channel` (one subcarrier — flat, reused for all — or exactly
/// `cfg.n_subcarriers`) at the given SNR; the AP detects with `detector`
/// under genie CSI, amortizing per-subcarrier channel preprocessing across
/// the frame's OFDM symbols via [`MimoDetector::detect_batch_with`].
///
/// The outcome is **bit-identical** to the per-job serial reference for
/// the same `rng` state — all randomness (payloads, then noise in
/// OFDM-symbol-major order) is drawn before detection begins, and
/// detection is a pure function of the planned problems — and each frame
/// is **allocation-free** after one warmup frame of the same shape: the
/// frame plan refills pooled payload/symbol/job buffers, detection runs
/// inline through the workspace's
/// [`DetectorWorkspace`](geosphere_core::DetectorWorkspace) with recycled
/// outputs, and the receive chain decodes into reused
/// mother-stream and Viterbi scratch.
///
/// `workers` is ignored; removed with the next benchmark PR (rxbench
/// passes it). A frame is detected on the calling thread: callers that
/// want parallelism run independent frames or operating points on
/// threads of their own, each with its own workspace.
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
    D: MimoDetector + ?Sized,
{
    let _ = workers;
    decode_frame_into(cfg, channel, None, detector, snr_db, rng, ws)
}

/// Why [`decode_frame_with_csi_into`] refused a channel estimate: its
/// shape does not fit the frame. Checked before any randomness is drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsiMismatch {
    /// The estimate has `csi` receive antennas; the air channel has
    /// `channel`.
    Antennas {
        /// Receive antennas of the estimate.
        csi: usize,
        /// Receive antennas of the air channel.
        channel: usize,
    },
    /// The estimate has `csi` transmit streams; the air channel has
    /// `channel`.
    Streams {
        /// Streams of the estimate.
        csi: usize,
        /// Streams of the air channel.
        channel: usize,
    },
    /// The estimate has `csi` subcarriers; the frame needs 1 or
    /// `frame`.
    Subcarriers {
        /// Subcarriers of the estimate.
        csi: usize,
        /// The frame's subcarrier count.
        frame: usize,
    },
}

impl std::fmt::Display for CsiMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CsiMismatch::Antennas { csi, channel } => {
                write!(f, "CSI has {csi} receive antennas, the channel {channel}")
            }
            CsiMismatch::Streams { csi, channel } => {
                write!(f, "CSI has {csi} streams, the channel {channel}")
            }
            CsiMismatch::Subcarriers { csi, frame } => {
                write!(f, "CSI has {csi} subcarriers; the frame needs 1 or {frame}")
            }
        }
    }
}

impl std::error::Error for CsiMismatch {}

/// Checks that `csi` can stand for `channel` in a frame of `cfg`'s shape.
fn check_csi(cfg: &PhyConfig, channel: &MimoChannel, csi: &MimoChannel) -> Result<(), CsiMismatch> {
    if csi.num_rx() != channel.num_rx() {
        return Err(CsiMismatch::Antennas { csi: csi.num_rx(), channel: channel.num_rx() });
    }
    if csi.num_tx() != channel.num_tx() {
        return Err(CsiMismatch::Streams { csi: csi.num_tx(), channel: channel.num_tx() });
    }
    let n = csi.num_subcarriers();
    if n != 1 && n != cfg.n_subcarriers {
        return Err(CsiMismatch::Subcarriers { csi: n, frame: cfg.n_subcarriers });
    }
    Ok(())
}

/// [`decode_frame_batched_into`] with the detector working from (possibly
/// imperfect) channel state information `csi` while the air uses
/// `channel` — the path used to study estimated-CSI performance (see
/// [`crate::chanest`]). Like `channel`, `csi` has one subcarrier (reused
/// for all) or exactly `cfg.n_subcarriers`, and it must match `channel`'s
/// antenna and stream counts. Draws the same randomness as
/// [`decode_frame_batched_into`], so `csi = channel` reproduces it
/// exactly.
///
/// # Errors
/// [`CsiMismatch`] when `csi` has another antenna, stream or subcarrier
/// count. The check runs first: a refused call draws nothing from `rng`
/// and leaves `ws` (and its [`FrameWorkspace::outcome`]) untouched.
pub fn decode_frame_with_csi_into<'w, R, D>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    csi: &MimoChannel,
    detector: &D,
    snr_db: f64,
    rng: &mut R,
    ws: &'w mut FrameWorkspace,
) -> Result<&'w UplinkOutcome, CsiMismatch>
where
    R: Rng + ?Sized,
    D: MimoDetector + ?Sized,
{
    check_csi(cfg, channel, csi)?;
    Ok(decode_frame_into(cfg, channel, Some(csi), detector, snr_db, rng, ws))
}

/// The one hard receive body behind both public fronts: plan (genie or
/// supplied CSI), detect inline, then the receive chains.
fn decode_frame_into<'w, R, D>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    csi: Option<&MimoChannel>,
    detector: &D,
    snr_db: f64,
    rng: &mut R,
    ws: &'w mut FrameWorkspace,
) -> &'w UplinkOutcome
where
    R: Rng + ?Sized,
    D: MimoDetector + ?Sized,
{
    plan_uplink_frame_into(cfg, channel, csi, snr_db, rng, ws);
    let mut stats = DetectorStats::default();
    detect_planned_inline(cfg, detector, ws, &mut stats);
    finish_outcome(cfg, ws, stats)
}

/// Amortized detection on the calling thread: the batch runs through the
/// detector's reusable workspace with recycled outputs.
fn detect_planned_inline<D: MimoDetector + ?Sized>(
    cfg: &PhyConfig,
    detector: &D,
    ws: &mut FrameWorkspace,
    stats: &mut DetectorStats,
) {
    {
        let FrameWorkspace {
            grid_channels,
            n_grid_channels,
            rx_channels,
            n_rx_channels,
            jobs,
            n_jobs,
            det_ws,
            det_out,
            ..
        } = ws;
        let batch = DetectionBatch {
            channels: detector_channels(
                grid_channels,
                *n_grid_channels,
                rx_channels,
                *n_rx_channels,
            ),
            jobs: &jobs[..*n_jobs],
            c: cfg.constellation,
        };
        detector.detect_batch_with(&batch, det_ws, det_out);
    }
    let _prof = gs_prof::scope(gs_prof::Stage::Scatter);
    begin_assemble(ws);
    // Detach the outputs so the scatter can borrow the workspace (a
    // pointer move, not an allocation).
    let det_out = std::mem::take(&mut ws.det_out);
    for (idx, det) in det_out.iter().enumerate() {
        absorb_detection(ws, stats, idx, det);
    }
    ws.det_out = det_out;
}

/// The one air model behind the hard, soft, and iterative entry points.
/// Draws every random quantity of the frame in one fixed order — client
/// payloads first (client by client), then per-(symbol, subcarrier) noise,
/// OFDM-symbol-major — runs the transmit chains into the workspace's flat
/// symbol grids, refreshes the grid-domain channel table (constellation
/// scale folded in so grid symbols fly at unit average power), and
/// packages the resulting detection problems into the workspace's pooled
/// buffers **channel-major**: job `k * n_sym + t` is subcarrier `k` of
/// OFDM symbol `t`, so every OFDM symbol on one subcarrier is adjacent and
/// a detector shares that subcarrier's QR and lockstep first descents
/// across them. Allocation-free once the workspace has warmed up to this
/// frame shape.
pub(crate) fn plan_uplink_frame_into<R: Rng + ?Sized>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    csi: Option<&MimoChannel>,
    snr_db: f64,
    rng: &mut R,
    ws: &mut FrameWorkspace,
) {
    let _prof = gs_prof::scope(gs_prof::Stage::Plan);
    let nc = channel.num_tx();
    let na = channel.num_rx();
    let c = cfg.constellation;
    _prof.add_bytes((nc * cfg.payload_bits) as u64 / 8);
    assert!(
        channel.num_subcarriers() == 1 || channel.num_subcarriers() == cfg.n_subcarriers,
        "channel subcarrier count must be 1 or {}",
        cfg.n_subcarriers
    );

    // Per-client frames with random payloads: 64 bits per `next_u64`,
    // least significant first, the last word's bits past the payload
    // dropped.
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
        payload.extend((0..cfg.payload_bits.div_ceil(64)).map(|_| rng.next_u64()));
        mask_tail(payload, cfg.payload_bits);
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
    let sigma2 = gs_channel::noise_variance_for_snr_db(snr_db);
    ws.n_grid_channels = n_grid;
    // The detector's view of the channel: supplied CSI, or under genie
    // CSI the grid channels themselves (no copy).
    let n_rx = match csi {
        Some(est) => {
            // `decode_frame_with_csi_into` refuses a foreign shape before
            // any draw.
            debug_assert_eq!(check_csi(cfg, channel, est), Ok(()));
            let n = est.num_subcarriers();
            if ws.rx_channels.len() < n {
                ws.rx_channels.resize_with(n, Matrix::default);
            }
            for (k, m) in est.iter().enumerate() {
                ws.rx_channels[k].scale_from(m, c.scale());
            }
            ws.n_rx_channels = Some(n);
            n
        }
        None => {
            ws.n_rx_channels = None;
            n_grid
        }
    };

    let n_jobs = n_sym * cfg.n_subcarriers;
    if ws.jobs.len() < n_jobs {
        ws.jobs.resize_with(n_jobs, || DetectionJob { channel: 0, y: Vec::new() });
    }
    for t in 0..n_sym {
        for k in 0..cfg.n_subcarriers {
            let FrameWorkspace { symbols, grid_channels, jobs, s_buf, .. } = ws;
            let h = &grid_channels[k % n_grid];
            s_buf.clear();
            s_buf.extend((0..nc).map(|cl| symbols[cl][t * cfg.n_subcarriers + k]));
            let job = &mut jobs[k * n_sym + t];
            job.channel = k % n_rx;
            apply_channel_into(h, s_buf, &mut job.y);
            for v in job.y.iter_mut() {
                *v += sample_cn(rng, sigma2);
            }
            debug_assert_eq!(job.y.len(), na);
        }
    }

    ws.n_jobs = n_jobs;
    ws.n_sym = n_sym;
    ws.n_clients = nc;
}

/// Sizes the per-client detected-symbol buffers for the planned frame.
/// Callers hold the frame's one [`gs_prof::Stage::Scatter`] scope across
/// this and their `absorb_detection` sweep.
pub(crate) fn begin_assemble(ws: &mut FrameWorkspace) {
    let nc = ws.n_clients;
    if ws.detected.len() < nc {
        ws.detected.resize_with(nc, Vec::new);
    }
    for d in ws.detected.iter_mut().take(nc) {
        d.clear();
        d.resize(ws.n_jobs, GridPoint::default());
    }
}

/// Scatters the detection of job `idx` to the per-client buffers and
/// accumulates its operation counts. Jobs are channel-major
/// (`idx = k * n_sym + t`) and the buffers symbol-major, so the job lands
/// in grid slot `t * n_subcarriers + k`.
pub(crate) fn absorb_detection(
    ws: &mut FrameWorkspace,
    stats: &mut DetectorStats,
    idx: usize,
    det: &geosphere_core::Detection,
) {
    *stats += det.stats;
    let (k, t) = (idx / ws.n_sym, idx % ws.n_sym);
    let slot = t * (ws.n_jobs / ws.n_sym) + k;
    for (cl, &p) in det.symbols.iter().enumerate() {
        ws.detected[cl][slot] = p;
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
        // Multi-symbol SoA path: every client's demapped bits land in its
        // block of one flat client-major mother slab, one lockstep trellis
        // pass decodes them all, then the per-client tail (descramble,
        // CRC, compare) runs over slices of the flat output. Bit-identical
        // to the per-client loop below — the lockstep decoder reproduces
        // the single-stream recurrence exactly.
        let FrameWorkspace { detected, payloads, rx, out, .. } = ws;
        {
            let _prof = gs_prof::scope(gs_prof::Stage::Recover);
            _prof.add_bytes((nc * cfg.payload_bits) as u64 / 8);
            let mother_len = 2 * cfg.total_info_bits();
            let RxScratch { layout, mother_multi, .. } = rx;
            mother_multi.resize(nc * mother_len, CodedBit::Erased);
            let layout = layout_for(layout, cfg);
            for (cl, mother) in mother_multi.chunks_exact_mut(mother_len).enumerate() {
                demap_into(cfg, layout, &detected[cl][..n_jobs], mother);
            }
        }
        viterbi::decode_multi_with_erasures_into(
            &rx.mother_multi,
            nc,
            &mut rx.vit,
            &mut rx.info_multi,
        );
        let _prof = gs_prof::scope(gs_prof::Stage::Recover);
        let words = rx.info_multi.len() / nc;
        for (info, payload) in rx.info_multi.chunks_exact_mut(words).zip(&payloads[..nc]) {
            let ok = verify_frame(cfg, info) && payload_matches(info, payload, cfg.payload_bits);
            out.client_ok.push(ok);
        }
    } else {
        // Per-client fallback: each client's chain opens its own
        // recover/Viterbi/CRC scopes.
        for cl in 0..nc {
            let FrameWorkspace { detected, payloads, rx, out, .. } = ws;
            let ok = receive_frame_flat_into(cfg, &detected[cl][..n_jobs], rx)
                && payload_matches(&rx.info, &payloads[cl], cfg.payload_bits);
            out.client_ok.push(ok);
        }
    }
    ws.out.stats = stats;
    ws.out.detections = ws.n_jobs as u64;
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

    /// A seeded payload of `cfg.payload_bits` bits.
    fn payload_for(cfg: &PhyConfig, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut words: Vec<u64> = (0..cfg.payload_bits.div_ceil(64)).map(|_| rng.gen()).collect();
        mask_tail(&mut words, cfg.payload_bits);
        words
    }

    #[test]
    fn tx_frame_dimensions() {
        let cfg = PhyConfig::new(Constellation::Qam16);
        let f = transmit_frame(&cfg, &payload_for(&cfg, 1));
        assert_eq!(f.symbols.len(), cfg.n_ofdm_symbols());
        for row in &f.symbols {
            assert_eq!(row.len(), cfg.n_subcarriers);
        }
    }

    #[test]
    fn tx_rx_roundtrip_noiseless_chain() {
        // Bypass the channel entirely: receive exactly what was mapped,
        // at payload lengths that end inside, at and across word and CRC
        // boundaries.
        for c in Constellation::ALL {
            for payload_bits in [2048, 1000, 990, 100] {
                let cfg = PhyConfig { payload_bits, ..PhyConfig::new(c) };
                let payload = payload_for(&cfg, payload_bits as u64);
                let f = transmit_frame(&cfg, &payload);
                let rx = receive_frame(&cfg, &f.symbols).expect("the grid fits the frame");
                assert_eq!(rx, Some(payload), "{c:?}, {payload_bits} bits");
            }
        }
    }

    #[test]
    fn corrupted_symbols_fail_crc() {
        let cfg = PhyConfig::new(Constellation::Qam16);
        let mut f = transmit_frame(&cfg, &payload_for(&cfg, 2));
        // Corrupt a whole OFDM symbol beyond what the code can absorb.
        for p in f.symbols[1].iter_mut() {
            p.i = -p.i;
            p.q = -p.q;
        }
        assert_eq!(receive_frame(&cfg, &f.symbols), Ok(None));
    }

    #[test]
    fn short_grid_is_refused() {
        let cfg = PhyConfig::new(Constellation::Qam16);
        let mut f = transmit_frame(&cfg, &payload_for(&cfg, 3));
        let want = f.symbols.len();
        f.symbols.pop();
        assert_eq!(
            receive_frame(&cfg, &f.symbols),
            Err(GridMismatch::Symbols { got: want - 1, want })
        );
        assert_eq!(receive_frame(&cfg, &[]), Err(GridMismatch::Symbols { got: 0, want }));
    }

    #[test]
    fn ragged_grid_is_refused() {
        // The same number of points as the frame, one moved from symbol 2
        // to symbol 3: a whole number of points, not of OFDM symbols.
        let cfg = PhyConfig::new(Constellation::Qam64);
        let mut f = transmit_frame(&cfg, &payload_for(&cfg, 4));
        let moved = f.symbols[2].pop().expect("a full symbol");
        f.symbols[3].push(moved);
        assert_eq!(
            receive_frame(&cfg, &f.symbols),
            Err(GridMismatch::Subcarriers { symbol: 2, got: 47, want: 48 })
        );
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
        // Same RNG seed → the batched decode matches a per-job `detect`
        // sweep over the same plan exactly, op counts included, through
        // fresh and recycled workspaces alike. (The full serial oracle
        // lives in `tests/batch_determinism.rs`.)
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let mut chan_rng = StdRng::seed_from_u64(271);
        let ch = RayleighChannel::new(4, 2).realize(&mut chan_rng);
        let det = geosphere_decoder();

        let mut serial_ws = FrameWorkspace::new();
        serial_ws.plan_uplink(&cfg, &ch, 18.0, &mut StdRng::seed_from_u64(272));
        serial_ws.begin_detection_assembly();
        let mut stats = DetectorStats::default();
        for idx in 0..serial_ws.planned_jobs().len() {
            let job = &serial_ws.planned_jobs()[idx];
            let d =
                det.detect(&serial_ws.planned_channels()[job.channel], &job.y, cfg.constellation);
            serial_ws.absorb_detection(&mut stats, idx, &d);
        }
        let serial = serial_ws.finish_uplink(&cfg, stats).clone();

        let mut ws = FrameWorkspace::new();
        for round in 0..3 {
            let mut rng = StdRng::seed_from_u64(272);
            let mut fresh_ws = FrameWorkspace::new();
            let batched =
                decode_frame_batched_into(&cfg, &ch, &det, 18.0, &mut rng, 1, &mut fresh_ws);
            assert_eq!(batched.client_ok, serial.client_ok, "fresh, round {round}");
            assert_eq!(batched.stats, serial.stats, "fresh, round {round}");
            assert_eq!(batched.detections, serial.detections, "fresh, round {round}");

            let mut rng = StdRng::seed_from_u64(272);
            let reused = decode_frame_batched_into(&cfg, &ch, &det, 18.0, &mut rng, 1, &mut ws);
            assert_eq!(reused.client_ok, serial.client_ok, "reused, round {round}");
            assert_eq!(reused.stats, serial.stats, "reused, round {round}");
            assert_eq!(reused.detections, serial.detections, "reused, round {round}");
        }
    }

    #[test]
    fn planned_jobs_are_channel_major() {
        // Job `k * n_sym + t` is subcarrier `k` of OFDM symbol `t`: it
        // references channel `k` and, noise aside, carries `H_k` times the
        // clients' symbols at grid slot `t * n_subcarriers + k`.
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let mut rng = StdRng::seed_from_u64(174);
        let ch = gs_channel::SelectiveRayleighChannel::indoor(4, 2).realize(&mut rng);
        assert_eq!(ch.num_subcarriers(), cfg.n_subcarriers);
        let mut ws = FrameWorkspace::new();
        ws.plan_uplink(&cfg, &ch, 300.0, &mut rng);
        let (n_sym, n_sc) = (ws.n_sym, cfg.n_subcarriers);
        assert!(n_sym >= 2, "the check needs several OFDM symbols per subcarrier");
        assert_eq!(ws.planned_jobs().len(), n_sym * n_sc);
        for k in 0..n_sc {
            for t in 0..n_sym {
                let job = &ws.planned_jobs()[k * n_sym + t];
                assert_eq!(job.channel, k, "job of subcarrier {k}, symbol {t}");
                let s: Vec<GridPoint> = (0..2).map(|cl| ws.symbols[cl][t * n_sc + k]).collect();
                let clean = geosphere_core::apply_channel(&ws.planned_channels()[k], &s);
                for (a, b) in job.y.iter().zip(&clean) {
                    assert!((*a - *b).abs() < 1e-9, "subcarrier {k} symbol {t}");
                }
            }
        }
    }

    #[test]
    fn hard_soft_and_iterative_paths_share_one_draw_order() {
        // All three receive paths plan through one air model: from one
        // seed they leave the caller's RNG in the same state and detect
        // one problem per (OFDM symbol, subcarrier).
        use crate::iterative::uplink_frame_iterative_into;
        use crate::soft_rx::uplink_frame_soft_into;
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let ch = gs_channel::SelectiveRayleighChannel::indoor(4, 2)
            .realize(&mut StdRng::seed_from_u64(177));
        let mut ws = FrameWorkspace::new();
        let mut rngs: Vec<StdRng> = (0..3).map(|_| StdRng::seed_from_u64(178)).collect();
        let det = geosphere_decoder();
        let hard =
            decode_frame_batched_into(&cfg, &ch, &det, 18.0, &mut rngs[0], 1, &mut ws).detections;
        assert_eq!(hard, (ws.n_sym * cfg.n_subcarriers) as u64);
        let soft = uplink_frame_soft_into(&cfg, &ch, 18.0, &mut rngs[1], &mut ws).detections;
        let iter =
            uplink_frame_iterative_into(&cfg, &ch, 18.0, 1, &mut rngs[2], &mut ws).detections;
        assert_eq!((soft, iter), (hard, hard), "detections per frame");
        let next: Vec<u64> = rngs.iter_mut().map(|r| r.gen()).collect();
        assert!(next.iter().all(|&x| x == next[0]), "RNG states diverged: {next:x?}");
    }

    #[test]
    fn absorb_order_does_not_change_the_outcome() {
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let mut chan_rng = StdRng::seed_from_u64(175);
        let ch = gs_channel::SelectiveRayleighChannel::indoor(4, 2).realize(&mut chan_rng);
        let det = geosphere_decoder();
        let decode = |reverse: bool| {
            let mut ws = FrameWorkspace::new();
            ws.plan_uplink(&cfg, &ch, 22.0, &mut StdRng::seed_from_u64(176));
            ws.begin_detection_assembly();
            let mut stats = DetectorStats::default();
            let mut order: Vec<usize> = (0..ws.planned_jobs().len()).collect();
            if reverse {
                order.reverse();
            }
            for idx in order {
                let job = &ws.planned_jobs()[idx];
                let d = det.detect(&ws.planned_channels()[job.channel], &job.y, cfg.constellation);
                ws.absorb_detection(&mut stats, idx, &d);
            }
            let out = ws.finish_uplink(&cfg, stats).clone();
            (out, ws.detected)
        };
        let (forward, forward_symbols) = decode(false);
        let (reverse, reverse_symbols) = decode(true);
        assert!(forward.client_ok.iter().all(|&ok| ok), "22 dB, 2x4 16-QAM should decode");
        assert_eq!(forward.client_ok, reverse.client_ok);
        assert_eq!(forward.stats, reverse.stats);
        assert_eq!(forward.detections, reverse.detections);
        assert_eq!(forward_symbols, reverse_symbols);
    }

    /// Decodes a frame into a workspace, then offers `csi` for `channel`:
    /// the call must return `expected` without drawing from the RNG or
    /// touching the previous frame's outcome.
    fn assert_csi_refused(channel: &MimoChannel, csi: &MimoChannel, expected: CsiMismatch) {
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qpsk) };
        let mut ws = FrameWorkspace::new();
        let mut rng = StdRng::seed_from_u64(178);
        let before =
            decode_frame_batched_into(&cfg, channel, &ZfDetector, 30.0, &mut rng, 1, &mut ws)
                .clone();
        let mut untouched = rng.clone();
        let refused =
            decode_frame_with_csi_into(&cfg, channel, csi, &ZfDetector, 30.0, &mut rng, &mut ws);
        assert_eq!(refused.map(|_| ()), Err(expected));
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>(), "the RNG was drawn from");
        let after = ws.outcome();
        assert_eq!(
            (&after.client_ok, after.stats, after.detections),
            (&before.client_ok, before.stats, before.detections),
            "the outcome changed"
        );
    }

    #[test]
    fn csi_with_a_foreign_subcarrier_count_is_refused() {
        let ch = gs_channel::SelectiveRayleighChannel::indoor(2, 2)
            .realize(&mut StdRng::seed_from_u64(177));
        let csi = MimoChannel::new(ch.iter().take(2).cloned().collect());
        assert_csi_refused(&ch, &csi, CsiMismatch::Subcarriers { csi: 2, frame: 48 });
    }

    #[test]
    fn csi_with_a_foreign_antenna_count_is_refused() {
        let ch = RayleighChannel::new(4, 2).realize(&mut StdRng::seed_from_u64(179));
        let csi = RayleighChannel::new(2, 2).realize(&mut StdRng::seed_from_u64(180));
        assert_csi_refused(&ch, &csi, CsiMismatch::Antennas { csi: 2, channel: 4 });
    }

    #[test]
    fn csi_with_a_foreign_stream_count_is_refused() {
        let ch = RayleighChannel::new(4, 2).realize(&mut StdRng::seed_from_u64(181));
        let csi = RayleighChannel::new(4, 3).realize(&mut StdRng::seed_from_u64(182));
        assert_csi_refused(&ch, &csi, CsiMismatch::Streams { csi: 3, channel: 2 });
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

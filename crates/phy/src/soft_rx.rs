//! Soft-decision receive chain.
//!
//! The hard pipeline of [`crate::txrx`] slices symbols and hands hard bits
//! to the Viterbi decoder; this module instead carries per-bit LLRs from
//! the soft-output Geosphere detector all the way through deinterleaving
//! and soft depuncturing into a soft Viterbi decode — the paper's §7
//! direction, worth 1–2 dB of coding gain over hard decisions.
//!
//! [`uplink_frame_soft_into`] is the entry point: one
//! [`FrameWorkspace`] owns the per-client LLR streams, the soft search
//! workspace, and the soft Viterbi scratch, so a warmed receive loop
//! performs zero heap allocations per frame (enforced by
//! `tests/alloc_regression.rs`).

use crate::config::PhyConfig;
use crate::frame::{detector_channels, layout_for, FrameWorkspace, RxScratch};
use crate::txrx::{payload_matches, plan_uplink_frame_into, verify_frame, UplinkOutcome};
use geosphere_core::{DetectorStats, SoftGeosphereDetector};
use gs_channel::MimoChannel;
use gs_coding::{depuncture_soft_into, viterbi};
use rand::Rng;

/// The soft receive chain with every intermediate in reused scratch.
/// Returns whether the CRC verified; the decoded information bits
/// (payload + CRC descrambled, packed) are left in `rx.info`.
pub(crate) fn receive_frame_soft_into(cfg: &PhyConfig, llrs: &[f64], rx: &mut RxScratch) -> bool {
    let _prof = gs_prof::scope(gs_prof::Stage::Recover);
    _prof.add_bytes(cfg.payload_bits as u64 / 8);
    let il = layout_for(&mut rx.layout, cfg).interleaver();
    il.deinterleave_stream_into(llrs, &mut rx.llr_deint);
    let mother_len = 2 * cfg.total_info_bits();
    depuncture_soft_into(&rx.llr_deint, cfg.code_rate, mother_len, &mut rx.mother_soft);
    viterbi::decode_soft_into(&rx.mother_soft, &mut rx.vit, &mut rx.info);
    verify_frame(cfg, &mut rx.info)
}

/// Simulates one uplink frame with **soft** detection and decoding into a
/// recycled [`FrameWorkspace`]: the hard path's payload and noise draws,
/// but the soft-output Geosphere detector per (OFDM symbol, subcarrier)
/// and soft Viterbi per client. Allocation-free per frame after warmup —
/// the transmit plan, the per-symbol soft searches (via the workspace's
/// [`SoftWorkspace`](geosphere_core::SoftWorkspace)), the per-client LLR
/// streams, and the soft Viterbi decode all reuse the workspace's buffers.
pub fn uplink_frame_soft_into<'w, R: Rng + ?Sized>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    snr_db: f64,
    rng: &mut R,
    ws: &'w mut FrameWorkspace,
) -> &'w UplinkOutcome {
    let nc = channel.num_tx();
    let c = cfg.constellation;
    let q = c.bits_per_symbol();
    // The hard path's plan: the same payload and noise draws, in the same
    // RNG order, so all three receive paths see one air.
    plan_uplink_frame_into(cfg, channel, None, snr_db, rng, ws);
    let n_sym = ws.n_sym;
    let detector = SoftGeosphereDetector::new(gs_channel::noise_variance_for_snr_db(snr_db));

    let mut stats = DetectorStats::default();
    let mut detections = 0u64;
    if ws.llrs.len() < nc {
        ws.llrs.resize_with(nc, Vec::new);
    }
    for l in ws.llrs.iter_mut().take(nc) {
        l.clear();
    }

    // One workspace + output pair for the whole frame: every per-symbol
    // soft detection reuses the same search state, QR factors, and LLR
    // buffers (bit-identical to per-call `detect_soft`, without its
    // allocations). Symbol-major visits keep each client's LLR stream in
    // frame order over the channel-major jobs.
    let FrameWorkspace {
        grid_channels,
        n_grid_channels,
        rx_channels,
        n_rx_channels,
        jobs,
        soft_ws,
        soft_out,
        llrs,
        ..
    } = ws;
    let channels = detector_channels(grid_channels, *n_grid_channels, rx_channels, *n_rx_channels);
    for t in 0..n_sym {
        for k in 0..cfg.n_subcarriers {
            let job = &jobs[k * n_sym + t];
            detector.detect_soft_into(&channels[job.channel], &job.y, c, soft_ws, soft_out);
            stats += soft_out.stats;
            detections += 1;
            for cl in 0..nc {
                llrs[cl].extend_from_slice(&soft_out.llrs[cl * q..(cl + 1) * q]);
            }
        }
    }

    ws.out.client_ok.clear();
    for cl in 0..nc {
        let FrameWorkspace { payloads, llrs, rx, out, .. } = ws;
        let ok = receive_frame_soft_into(cfg, &llrs[cl], rx)
            && payload_matches(&rx.info, &payloads[cl], cfg.payload_bits);
        out.client_ok.push(ok);
    }
    ws.out.stats = stats;
    ws.out.detections = detections;
    &ws.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txrx::{decode_frame_batched_into, transmit_frame};
    use geosphere_core::geosphere_decoder;
    use gs_channel::{ChannelModel, RayleighChannel};
    use gs_modulation::{BitTable, Constellation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(c: Constellation) -> PhyConfig {
        PhyConfig { payload_bits: 512, ..PhyConfig::new(c) }
    }

    #[test]
    fn soft_rx_roundtrip_from_strong_llrs() {
        let cfg = cfg(Constellation::Qam16);
        let payload: Vec<u64> = (0..8u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        let f = transmit_frame(&cfg, &payload);
        // Perfect LLRs derived from the transmitted bits themselves.
        let table = BitTable::new(cfg.constellation);
        let q = cfg.constellation.bits_per_symbol();
        let llrs: Vec<f64> = f
            .symbols
            .iter()
            .flatten()
            .flat_map(|&p| (0..q).rev().map(move |k| table.packed(p) >> k & 1 == 1))
            .map(|b| if b { -6.0 } else { 6.0 })
            .collect();
        let mut rx = RxScratch::default();
        assert!(receive_frame_soft_into(&cfg, &llrs, &mut rx));
        assert!(payload_matches(&rx.info, &payload, cfg.payload_bits));
    }

    #[test]
    fn soft_uplink_succeeds_at_high_snr() {
        let mut rng = StdRng::seed_from_u64(501);
        let cfg = cfg(Constellation::Qam16);
        let ch = RayleighChannel::new(4, 2).realize(&mut rng);
        let mut ws = FrameWorkspace::new();
        let out = uplink_frame_soft_into(&cfg, &ch, 32.0, &mut rng, &mut ws);
        assert!(out.client_ok.iter().all(|&ok| ok));
    }

    #[test]
    fn soft_into_reused_workspace_is_bit_identical() {
        let cfg = cfg(Constellation::Qam16);
        let model = RayleighChannel::new(4, 2);
        let mut ws = FrameWorkspace::new();
        for trial in 0..3 {
            let mut rng = StdRng::seed_from_u64(520 + trial);
            let ch = model.realize(&mut rng);
            let mut fresh_ws = FrameWorkspace::new();
            let fresh = uplink_frame_soft_into(&cfg, &ch, 20.0, &mut rng, &mut fresh_ws);
            let mut rng = StdRng::seed_from_u64(520 + trial);
            let ch = model.realize(&mut rng);
            let reused = uplink_frame_soft_into(&cfg, &ch, 20.0, &mut rng, &mut ws);
            assert_eq!(reused.client_ok, fresh.client_ok, "trial {trial}");
            assert_eq!(reused.stats, fresh.stats, "trial {trial}");
            assert_eq!(reused.detections, fresh.detections, "trial {trial}");
        }
    }

    #[test]
    fn soft_beats_hard_at_marginal_snr() {
        // The whole point of soft decoding: at an SNR where hard-decision
        // frames die, soft frames survive more often.
        let cfg = cfg(Constellation::Qam16);
        let model = RayleighChannel::new(4, 4);
        let det = geosphere_decoder();
        let mut ws = FrameWorkspace::new();
        let mut hard_ok = 0usize;
        let mut soft_ok = 0usize;
        let trials = 12;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(600 + t);
            let ch = model.realize(&mut rng);
            let hard = decode_frame_batched_into(&cfg, &ch, &det, 17.0, &mut rng, 1, &mut ws);
            hard_ok += hard.client_ok.iter().filter(|&&ok| ok).count();
            let mut rng = StdRng::seed_from_u64(600 + t);
            let ch = model.realize(&mut rng);
            let soft = uplink_frame_soft_into(&cfg, &ch, 17.0, &mut rng, &mut ws);
            soft_ok += soft.client_ok.iter().filter(|&&ok| ok).count();
        }
        assert!(
            soft_ok >= hard_ok,
            "soft ({soft_ok}) must not lose to hard ({hard_ok}) at marginal SNR"
        );
    }
}

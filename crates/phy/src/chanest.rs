//! Preamble-based channel estimation.
//!
//! The paper's WARP receivers estimate the uplink channel from frame
//! preambles before detection; the evaluation pipeline normally uses genie
//! CSI (documented in DESIGN.md §3). This module closes that gap: clients
//! transmit **time-orthogonal long training fields** (one preamble slot per
//! client, two repetitions each, as in 802.11n HT-LTFs with a trivial P
//! matrix), and the AP least-squares-estimates every `(antenna, client)`
//! channel coefficient per subcarrier plus the noise variance from the
//! repetition residual.

use gs_channel::{sample_cn, MimoChannel};
use gs_linalg::{Complex, Matrix};
use rand::Rng;

/// Number of repetitions of each client's training symbol (the repetition
/// difference yields the noise-variance estimate).
pub const LTF_REPEATS: usize = 2;

/// The deterministic per-subcarrier training symbol: unit-magnitude BPSK
/// (+1/−1 in a fixed pseudo-random pattern shared by transmitter and
/// receiver).
pub fn ltf_symbol(subcarrier: usize) -> Complex {
    // A small LFSR-flavoured fixed pattern; what matters is unit magnitude
    // and that both ends agree.
    if (subcarrier * 7 + 3) % 5 < 2 {
        Complex::real(-1.0)
    } else {
        Complex::real(1.0)
    }
}

/// A channel estimate: per-subcarrier matrices plus estimated noise power.
#[derive(Clone, Debug)]
pub struct ChannelEstimate {
    /// Estimated per-subcarrier channel matrices (grid of the *physical*
    /// channel — the caller applies constellation scaling exactly as with
    /// genie CSI).
    pub channel: MimoChannel,
    /// Estimated complex noise variance per receive antenna.
    pub noise_variance: f64,
    /// Preamble airtime in OFDM symbols (`clients × LTF_REPEATS`).
    pub preamble_symbols: usize,
}

/// Runs the preamble exchange: every client sends its training slots
/// through `truth`, the AP estimates. Returns the estimate.
pub fn estimate_channel<R: Rng + ?Sized>(
    truth: &MimoChannel,
    snr_db: f64,
    rng: &mut R,
) -> ChannelEstimate {
    let na = truth.num_rx();
    let nc = truth.num_tx();
    let n_sc = truth.num_subcarriers();
    let sigma2 = gs_channel::noise_variance_for_snr_db(snr_db);

    // received[slot][rep][subcarrier][antenna]
    let mut estimates: Vec<Matrix> = (0..n_sc).map(|_| Matrix::zeros(na, nc)).collect();
    let mut noise_acc = 0.0f64;
    let mut noise_terms = 0usize;

    for client in 0..nc {
        for k in 0..n_sc {
            let h = truth.subcarrier(k % truth.num_subcarriers());
            let p = ltf_symbol(k);
            // Two repetitions of the solo training symbol.
            let mut reps: Vec<Vec<Complex>> = Vec::with_capacity(LTF_REPEATS);
            for _ in 0..LTF_REPEATS {
                let rx: Vec<Complex> =
                    (0..na).map(|r| h[(r, client)] * p + sample_cn(rng, sigma2)).collect();
                reps.push(rx);
            }
            // LS estimate: average the repetitions, divide by the pilot.
            for r in 0..na {
                let avg = (reps[0][r] + reps[1][r]) / LTF_REPEATS as f64;
                estimates[k][(r, client)] = avg / p;
                // Repetition difference is pure noise with variance 2σ².
                let diff = reps[0][r] - reps[1][r];
                noise_acc += diff.norm_sqr() / 2.0;
                noise_terms += 1;
            }
        }
    }

    ChannelEstimate {
        channel: MimoChannel::new(estimates),
        noise_variance: noise_acc / noise_terms.max(1) as f64,
        preamble_symbols: nc * LTF_REPEATS,
    }
}

/// Mean squared estimation error per channel entry, against the truth —
/// for diagnostics and tests.
pub fn estimation_mse(truth: &MimoChannel, est: &MimoChannel) -> f64 {
    assert_eq!(truth.num_subcarriers(), est.num_subcarriers());
    let mut acc = 0.0;
    let mut n = 0usize;
    for (t, e) in truth.iter().zip(est.iter()) {
        for r in 0..t.rows() {
            for c in 0..t.cols() {
                acc += (t[(r, c)] - e[(r, c)]).norm_sqr();
                n += 1;
            }
        }
    }
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_channel::{ChannelModel, RayleighChannel, SelectiveRayleighChannel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ltf_symbols_unit_magnitude() {
        for k in 0..48 {
            assert!((ltf_symbol(k).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn estimate_converges_with_snr() {
        let mut rng = StdRng::seed_from_u64(701);
        let truth = RayleighChannel::new(4, 3).realize(&mut rng);
        let mse_low = estimation_mse(&truth, &estimate_channel(&truth, 10.0, &mut rng).channel);
        let mse_high = estimation_mse(&truth, &estimate_channel(&truth, 30.0, &mut rng).channel);
        assert!(mse_high < mse_low / 10.0, "mse {mse_high} vs {mse_low}");
        // LS with 2 repetitions: MSE ≈ σ²/2 per entry.
        let sigma2 = gs_channel::noise_variance_for_snr_db(30.0);
        assert!(mse_high < sigma2, "mse {mse_high} should be below σ² = {sigma2}");
    }

    #[test]
    fn noise_variance_estimated_accurately() {
        let mut rng = StdRng::seed_from_u64(702);
        let truth = SelectiveRayleighChannel::indoor(4, 4).realize(&mut rng);
        let est = estimate_channel(&truth, 20.0, &mut rng);
        let sigma2 = gs_channel::noise_variance_for_snr_db(20.0);
        assert!(
            (est.noise_variance / sigma2 - 1.0).abs() < 0.2,
            "estimated {} vs true {}",
            est.noise_variance,
            sigma2
        );
    }

    #[test]
    fn preamble_length_accounting() {
        let mut rng = StdRng::seed_from_u64(703);
        let truth = RayleighChannel::new(4, 3).realize(&mut rng);
        let est = estimate_channel(&truth, 20.0, &mut rng);
        assert_eq!(est.preamble_symbols, 6);
        assert_eq!(est.channel.num_rx(), 4);
        assert_eq!(est.channel.num_tx(), 3);
    }

    #[test]
    fn detection_with_estimated_csi_works_at_high_snr() {
        use crate::txrx::decode_frame_with_csi_into;
        use crate::{FrameWorkspace, PhyConfig};
        use geosphere_core::geosphere_decoder;
        use gs_modulation::Constellation;

        let mut rng = StdRng::seed_from_u64(704);
        let truth = RayleighChannel::new(4, 2).realize(&mut rng);
        let est = estimate_channel(&truth, 35.0, &mut rng);
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        // The air uses the true channel; the detector sees only the
        // estimate. At 35 dB the estimation error is negligible.
        let mut ws = FrameWorkspace::new();
        let out = decode_frame_with_csi_into(
            &cfg,
            &truth,
            &est.channel,
            &geosphere_decoder(),
            35.0,
            &mut rng,
            &mut ws,
        )
        .expect("the estimate has the channel's shape");
        assert!(out.client_ok.iter().all(|&ok| ok));
    }

    #[test]
    fn garbage_csi_destroys_frames() {
        use crate::txrx::decode_frame_with_csi_into;
        use crate::{FrameWorkspace, PhyConfig};
        use geosphere_core::geosphere_decoder;
        use gs_modulation::Constellation;

        let mut rng = StdRng::seed_from_u64(705);
        let truth = RayleighChannel::new(4, 2).realize(&mut rng);
        let garbage = RayleighChannel::new(4, 2).realize(&mut rng);
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let mut ws = FrameWorkspace::new();
        let out = decode_frame_with_csi_into(
            &cfg,
            &truth,
            &garbage,
            &geosphere_decoder(),
            35.0,
            &mut rng,
            &mut ws,
        )
        .expect("the garbage has the channel's shape");
        assert!(out.client_ok.iter().all(|&ok| !ok), "wrong CSI must kill detection");
    }
}

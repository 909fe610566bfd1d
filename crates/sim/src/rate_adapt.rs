//! Practical (non-oracle) rate adaptation.
//!
//! The paper sidesteps rate adaptation by reporting the best constellation
//! per operating point ("this emulates ideal bit rate adaptation and makes
//! the results independent of the rate adaptation method employed", §5.2).
//! This module provides the practical counterpart: an **effective-SNR**
//! adapter that corrects the link SNR by the detector's expected loss on
//! the measured channel — zero for ML detection, the Λ degradation (§5.1)
//! for zero-forcing — and picks the densest constellation whose decoding
//! threshold fits. Tests check it tracks the oracle.

use crate::experiments::DetectorKind;
use gs_channel::{lambda_max_db, MimoChannel};
use gs_modulation::Constellation;

/// Minimum effective per-stream SNR (dB) at which each rate-1/2 coded
/// constellation sustains a low frame error rate over a fading MIMO link.
/// Derived from the workspace's own FER sweeps (conservative side).
pub fn decoding_threshold_db(c: Constellation) -> f64 {
    match c {
        Constellation::Qpsk => 8.0,
        Constellation::Qam16 => 15.0,
        Constellation::Qam64 => 21.5,
        Constellation::Qam256 => 28.0,
    }
}

/// The effective-SNR rate adapter.
#[derive(Clone, Copy, Debug)]
pub struct RateAdapter {
    /// Additional back-off margin (dB) applied before threshold lookup.
    pub margin_db: f64,
}

impl Default for RateAdapter {
    fn default() -> Self {
        RateAdapter { margin_db: 1.0 }
    }
}

impl RateAdapter {
    /// Effective SNR of a link under a given detector: the raw SNR minus
    /// the detector-specific degradation on this channel.
    ///
    /// - ML-exact detectors (Geosphere, ETH-SD) lose nothing.
    /// - Zero-forcing loses the worst-stream Λ (the §5.1 metric),
    ///   evaluated at the center subcarrier.
    /// - MMSE/MMSE-SIC sit between; we charge them half of Λ, a standard
    ///   engineering approximation.
    pub fn effective_snr_db(
        &self,
        channel: &MimoChannel,
        detector: DetectorKind,
        snr_db: f64,
    ) -> f64 {
        let mid = channel.num_subcarriers() / 2;
        let lambda = lambda_max_db(channel.subcarrier(mid));
        // Excess receive antennas contribute array gain ≈ 10·log10(na/nc).
        let array_gain = 10.0 * (channel.num_rx() as f64 / channel.num_tx() as f64).log10();
        let loss = match detector {
            DetectorKind::Geosphere | DetectorKind::GeosphereZigzagOnly | DetectorKind::EthSd => {
                0.0
            }
            DetectorKind::Zf => lambda,
            DetectorKind::Mmse | DetectorKind::MmseSic => lambda / 2.0,
        };
        snr_db + array_gain - loss - self.margin_db
    }

    /// Picks the densest constellation whose threshold fits the effective
    /// SNR; falls back to QPSK when nothing fits (the link will likely
    /// fail, but QPSK maximizes the chance).
    pub fn select(
        &self,
        channel: &MimoChannel,
        detector: DetectorKind,
        snr_db: f64,
    ) -> Constellation {
        let eff = self.effective_snr_db(channel, detector, snr_db);
        Constellation::ALL
            .into_iter()
            .rev()
            .find(|&c| decoding_threshold_db(c) <= eff)
            .unwrap_or(Constellation::Qpsk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_channel::{ChannelModel, RayleighChannel, Testbed};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn thresholds_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for c in Constellation::ALL {
            let t = decoding_threshold_db(c);
            assert!(t > prev, "{c:?}");
            prev = t;
        }
    }

    #[test]
    fn higher_snr_never_sparser() {
        let mut rng = StdRng::seed_from_u64(901);
        let adapter = RateAdapter::default();
        let ch = RayleighChannel::new(4, 2).realize(&mut rng);
        let mut prev_size = 0;
        for snr in [5.0, 12.0, 20.0, 28.0, 36.0] {
            let c = adapter.select(&ch, DetectorKind::Geosphere, snr);
            assert!(c.size() >= prev_size, "at {snr} dB picked {c:?}");
            prev_size = c.size();
        }
    }

    #[test]
    fn zf_backs_off_on_ill_conditioned_channels() {
        // The same link at the same SNR: ZF should often pick a sparser
        // constellation than Geosphere because Λ eats its margin.
        let tb = Testbed::office();
        let adapter = RateAdapter::default();
        let mut rng = StdRng::seed_from_u64(902);
        let mut zf_bits = 0usize;
        let mut geo_bits = 0usize;
        for subset in tb.client_subsets(4).into_iter().step_by(97).take(12) {
            let ch = tb.channel(0, &subset, 4).realize(&mut rng);
            zf_bits += adapter.select(&ch, DetectorKind::Zf, 25.0).bits_per_symbol();
            geo_bits += adapter.select(&ch, DetectorKind::Geosphere, 25.0).bits_per_symbol();
        }
        assert!(
            zf_bits < geo_bits,
            "ZF should adapt down on office 4x4 channels: {zf_bits} vs {geo_bits}"
        );
    }

    #[test]
    fn adapter_tracks_oracle_throughput() {
        // The adapter's pick must achieve a decent fraction of the oracle's
        // measured throughput for Geosphere on a good channel.
        use gs_phy::{measure, FrameWorkspace, PhyConfig};
        let mut rng = StdRng::seed_from_u64(903);
        let model = RayleighChannel::new(4, 2);
        let snr = 22.0;
        let adapter = RateAdapter::default();
        let pick = adapter.select(&model.realize(&mut rng), DetectorKind::Geosphere, snr);

        let det = geosphere_core::geosphere_decoder();
        let mut ws = FrameWorkspace::new();
        let mut best = 0.0f64;
        let mut picked_tp = 0.0f64;
        for c in Constellation::ALL {
            let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(c) };
            let mut rng2 = StdRng::seed_from_u64(904);
            let m = measure(&cfg, &model, &det, snr, 6, &mut rng2, 1, &mut ws);
            if m.throughput_mbps > best {
                best = m.throughput_mbps;
            }
            if c == pick {
                picked_tp = m.throughput_mbps;
            }
        }
        assert!(
            picked_tp >= 0.6 * best,
            "adapter pick {pick:?} got {picked_tp:.1} vs oracle {best:.1} Mbps"
        );
    }
}

//! Linear detectors: zero-forcing and MMSE.
//!
//! Zero-forcing (paper §1) inverts the channel: `H⁺y = s + H⁺w`. On a
//! well-conditioned channel this cleanly decouples streams; on a
//! poorly-conditioned one `H⁺w` blows up — the noise amplification
//! Geosphere exists to avoid. MMSE (paper §6, "Linear filtering")
//! regularizes the inverse by the noise power, trading residual
//! inter-stream interference against amplification.
//!
//! Filters follow the sphere decoders' per-batch rule for QR: the batch
//! entry point builds each channel's pseudo-inverse the first time one of
//! its jobs runs, reuses it for the batch's other jobs on that channel (an
//! OFDM frame reuses each subcarrier's channel across its OFDM symbols),
//! and starts over at the next batch. A single detection builds its filter
//! for that call only. Outputs are bit-identical either way.

use crate::detector::{slice_vector, Detection, DetectorWorkspace, MimoDetector};
use crate::stats::DetectorStats;
use gs_linalg::{pseudo_inverse, regularized_pseudo_inverse, Complex, Matrix};
use gs_modulation::Constellation;

/// Scratch owned by the linear detectors' batch workspace.
#[derive(Default)]
pub(crate) struct LinearScratch {
    /// `filters[k]` is channel `k`'s filter once a job of the current
    /// batch has built it; emptied at the start of every batch, since
    /// channel contents may change between batches.
    filters: Vec<Option<Matrix>>,
    /// Filtered-estimate buffer.
    est: Vec<Complex>,
}

/// Builds the linear filter `W` for one channel: the pseudo-inverse
/// (`lambda = None`, zero-forcing) or the regularized pseudo-inverse
/// (`lambda = Some(λ)`, MMSE), with the matched-filter `H*` fallback on
/// singular channels.
fn compute_linear_filter(h: &Matrix, lambda: Option<f64>) -> Matrix {
    let filt = match lambda {
        None => pseudo_inverse(h),
        Some(l) => regularized_pseudo_inverse(h, l),
    };
    filt.unwrap_or_else(|_| h.hermitian())
}

/// One linear detection with a built filter: applies `W y` and slices.
/// The filter application cost is `nt × nr` complex multiplications — the
/// figure the paper quotes ("zero-forcing requires nt×nr = 8 complex
/// multiplications" for 2x4) — counted identically to the seed
/// implementation.
fn detect_linear(w: &Matrix, y: &[Complex], c: Constellation, est: &mut Vec<Complex>) -> Detection {
    let mut stats = DetectorStats::default();
    stats.complex_mults += (w.rows() * w.cols()) as u64;
    w.mul_vec_into(y, est);
    let symbols = slice_vector(est, c, &mut stats);
    Detection { symbols, stats }
}

/// Runs a batch through [`detect_linear`], building each channel's filter
/// once — the common body of both linear detectors' batch overrides.
fn detect_batch_linear(
    batch: &crate::batch::DetectionBatch,
    lambda: Option<f64>,
    ws: &mut DetectorWorkspace,
    out: &mut Vec<Detection>,
) {
    let LinearScratch { filters, est } = ws.get_or_insert(LinearScratch::default);
    filters.clear();
    filters.resize_with(batch.channels.len(), || None);
    out.clear();
    for job in batch.jobs {
        let w = filters[job.channel].get_or_insert_with(|| {
            let _prof = gs_prof::scope(gs_prof::Stage::Filter);
            compute_linear_filter(&batch.channels[job.channel], lambda)
        });
        out.push(detect_linear(w, &job.y, batch.c, est));
    }
}

/// The zero-forcing detector: slice `H⁺ y`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ZfDetector;

impl MimoDetector for ZfDetector {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        // Singular channels fall back to matched-filter decisions inside
        // the filter build, so the detector still returns (the frame will
        // fail its CRC).
        detect_linear(&compute_linear_filter(h, None), y, c, &mut Vec::new())
    }

    fn detect_batch_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        detect_batch_linear(batch, None, ws, out);
    }

    fn name(&self) -> &'static str {
        "ZF"
    }
}

/// The (unbiased-decision) MMSE detector: slice `(H*H + λI)⁻¹H* y` with
/// `λ = σ²/E_s` for grid-domain symbol energy `E_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MmseDetector {
    /// Physical complex noise variance `σ²` (unit-signal-power convention).
    pub noise_variance: f64,
}

impl MmseDetector {
    /// Creates an MMSE detector for a given noise variance.
    pub fn new(noise_variance: f64) -> Self {
        MmseDetector { noise_variance }
    }

    /// Regularizer `λ = σ²/E_s` in the grid domain: grid symbols carry
    /// energy `E_s`, so the noise-to-signal ratio per stream is `σ²/E_s`.
    fn lambda(&self, c: Constellation) -> f64 {
        self.noise_variance / c.energy()
    }
}

impl MimoDetector for MmseDetector {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        detect_linear(&compute_linear_filter(h, Some(self.lambda(c))), y, c, &mut Vec::new())
    }

    fn detect_batch_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        detect_batch_linear(batch, Some(self.lambda(batch.c)), ws, out);
    }

    fn name(&self) -> &'static str {
        "MMSE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::apply_channel;
    use gs_channel::{noise_variance_for_snr_db, sample_cn, RayleighChannel};
    use gs_modulation::GridPoint;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symbols(rng: &mut StdRng, c: Constellation, n: usize) -> Vec<GridPoint> {
        let pts = c.points();
        (0..n).map(|_| pts[rng.gen_range(0..pts.len())]).collect()
    }

    #[test]
    fn zf_perfect_on_identity_channel() {
        let mut rng = StdRng::seed_from_u64(111);
        let c = Constellation::Qam64;
        let h = Matrix::identity(4);
        let s = random_symbols(&mut rng, c, 4);
        let y = apply_channel(&h, &s);
        let det = ZfDetector.detect(&h, &y, c);
        assert_eq!(det.symbols, s);
    }

    #[test]
    fn zf_noiseless_random_channel() {
        let mut rng = StdRng::seed_from_u64(112);
        let c = Constellation::Qam16;
        for _ in 0..50 {
            let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
            let s = random_symbols(&mut rng, c, 4);
            let y = apply_channel(&h, &s);
            assert_eq!(ZfDetector.detect(&h, &y, c).symbols, s);
        }
    }

    #[test]
    fn mmse_beats_zf_at_low_snr_on_bad_channel() {
        // On a poorly-conditioned channel with noise, MMSE should make at
        // least as few symbol errors as ZF on average.
        let mut rng = StdRng::seed_from_u64(113);
        let c = Constellation::Qpsk;
        let snr_db = 12.0;
        let sigma2 = noise_variance_for_snr_db(snr_db);
        let mut zf_errs = 0usize;
        let mut mmse_errs = 0usize;
        for _ in 0..400 {
            // Correlated columns: h2 = h1 + small perturbation.
            let h1: Vec<Complex> = (0..2).map(|_| sample_cn(&mut rng, 1.0)).collect();
            let h = Matrix::from_fn(2, 2, |r, col| {
                if col == 0 {
                    h1[r]
                } else {
                    h1[r] + sample_cn(&mut rng, 0.05)
                }
            })
            .scale(c.scale());
            let s = random_symbols(&mut rng, c, 2);
            let mut y = apply_channel(&h, &s);
            for v in y.iter_mut() {
                *v += sample_cn(&mut rng, sigma2);
            }
            zf_errs +=
                ZfDetector.detect(&h, &y, c).symbols.iter().zip(&s).filter(|(a, b)| a != b).count();
            mmse_errs += MmseDetector::new(sigma2)
                .detect(&h, &y, c)
                .symbols
                .iter()
                .zip(&s)
                .filter(|(a, b)| a != b)
                .count();
        }
        assert!(
            mmse_errs <= zf_errs,
            "MMSE ({mmse_errs}) should not be worse than ZF ({zf_errs}) here"
        );
    }

    #[test]
    fn zf_survives_singular_channel() {
        let h = Matrix::from_rows(
            2,
            2,
            &[Complex::real(1.0), Complex::real(1.0), Complex::real(1.0), Complex::real(1.0)],
        );
        let y = vec![Complex::new(0.5, 0.5); 2];
        let det = ZfDetector.detect(&h, &y, Constellation::Qpsk);
        assert_eq!(det.symbols.len(), 2);
    }

    #[test]
    fn mults_counted() {
        let h = Matrix::identity(4);
        let y = vec![Complex::ONE; 4];
        let det = ZfDetector.detect(&h, &y, Constellation::Qpsk);
        assert_eq!(det.stats.complex_mults, 16);
        assert_eq!(det.stats.slices, 4);
    }

    #[test]
    fn batch_with_matches_per_call_detect() {
        // Batch detection (one filter per channel per batch) must be
        // bit-identical to plain per-call detection.
        let mut rng = StdRng::seed_from_u64(114);
        let c = Constellation::Qam16;
        let channels: Vec<Matrix> = (0..3)
            .map(|_| RayleighChannel::new(4, 3).sample_matrix(&mut rng).scale(c.scale()))
            .collect();
        let jobs: Vec<crate::batch::DetectionJob> = (0..12)
            .map(|j| {
                let channel = j % 3;
                let s = random_symbols(&mut rng, c, 3);
                let mut y = apply_channel(&channels[channel], &s);
                for v in y.iter_mut() {
                    *v += sample_cn(&mut rng, 0.05);
                }
                crate::batch::DetectionJob { channel, y }
            })
            .collect();
        let batch = crate::batch::DetectionBatch { channels: &channels, jobs: &jobs, c };
        for det in [&ZfDetector as &dyn MimoDetector, &MmseDetector::new(0.05)] {
            let reference = batch.detect_serial(det);
            let mut ws = det.make_batch_workspace();
            let mut out = Vec::new();
            // Two passes through the same warm workspace: the second
            // rebuilds every filter.
            for pass in 0..2 {
                det.detect_batch_with(&batch, &mut ws, &mut out);
                for (k, (a, b)) in out.iter().zip(&reference).enumerate() {
                    assert_eq!(a.symbols, b.symbols, "{} pass {pass} job {k}", det.name());
                    assert_eq!(a.stats, b.stats, "{} pass {pass} job {k}", det.name());
                }
            }
        }
    }
}

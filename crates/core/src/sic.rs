//! MMSE with successive interference cancellation (MMSE-SIC).
//!
//! The paper's §5.2.1 baseline: "MMSE-SIC receiver processing which orders
//! users by descending SNR, then performs MMSE detection and interference
//! cancellation successively for each user, an approach known to be capable
//! of reaching multi-user capacity". Hard decisions are subtracted, so
//! error propagation — the effect the paper identifies as MMSE-SIC's
//! practical weakness — is modeled faithfully.
//!
//! The per-stage filters (one regularized pseudo-inverse per
//! remaining-stream sub-channel) depend only on the channel and the
//! regularizer, so they follow the sphere decoders' per-batch rule for QR:
//! the batch entry point builds each channel's stage filters the first time
//! one of its jobs runs, reuses them for the batch's other jobs on that
//! channel, and starts over at the next batch. A single detection builds
//! its filters for that call only. Outputs are bit-identical either way.

use crate::detector::{Detection, DetectorWorkspace, MimoDetector};
use crate::stats::DetectorStats;
use gs_linalg::{regularized_pseudo_inverse, Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};

/// MMSE-SIC stage state for one channel: the SNR detection order and, per
/// stage, the filter row that estimates the strongest remaining stream.
struct SicFilters {
    /// Stream indices in detection order (descending column norm).
    order: Vec<usize>,
    /// `rows[stage]` is row 0 of the stage's regularized pseudo-inverse
    /// (matched-filter row on singular sub-channels): the estimate of the
    /// stage's stream is `rows[stage] · residual`.
    rows: Vec<Vec<Complex>>,
}

/// Scratch owned by the SIC batch workspace.
#[derive(Default)]
pub(crate) struct SicScratch {
    /// `filters[k]` is channel `k`'s stage filters once a job of the
    /// current batch has built them; emptied at the start of every batch,
    /// since channel contents may change between batches.
    filters: Vec<Option<SicFilters>>,
    /// Residual buffer.
    residual: Vec<Complex>,
}

/// Builds the MMSE-SIC stage filters for one channel, in the seed
/// implementation's exact order: streams sorted by descending column
/// norm, one regularized pseudo-inverse per remaining-stream sub-channel
/// (matched-filter fallback when singular).
fn compute_sic_filters(h: &Matrix, lambda: f64) -> SicFilters {
    let nc = h.cols();
    let mut order: Vec<usize> = (0..nc).collect();
    let norms: Vec<f64> = (0..nc).map(|k| h.col(k).iter().map(|z| z.norm_sqr()).sum()).collect();
    order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).unwrap());

    let mut rows = Vec::with_capacity(nc);
    let mut remaining = order.clone();
    while !remaining.is_empty() {
        let sub = Matrix::from_fn(h.rows(), remaining.len(), |r, k| h[(r, remaining[k])]);
        let filt = match regularized_pseudo_inverse(&sub, lambda) {
            Ok(w) => w,
            Err(_) => sub.hermitian(),
        };
        rows.push(filt.row(0).to_vec());
        remaining.remove(0);
    }
    SicFilters { order, rows }
}

/// Runs the SIC stage loop over precomputed filters. Operation counts
/// replicate the seed implementation exactly: per stage, applying the
/// stage filter is billed at `rows × remaining` complex multiplications
/// plus `rows` for the hard-decision cancellation.
fn apply_sic(
    filters: &SicFilters,
    h: &Matrix,
    y: &[Complex],
    c: Constellation,
    residual: &mut Vec<Complex>,
) -> Detection {
    let nc = h.cols();
    let na = h.rows();
    let mut stats = DetectorStats::default();
    residual.clear();
    residual.extend_from_slice(y);
    let mut symbols = vec![GridPoint::default(); nc];

    for (stage, row) in filters.rows.iter().enumerate() {
        let remaining = nc - stage;
        stats.complex_mults += (na * remaining) as u64;
        // Estimate of the strongest remaining stream: the stage's filter
        // row applied to the current residual, through the lane-ordered
        // dot kernel (bit-identical at every SIMD tier).
        let est = gs_linalg::simd::cdot(row, &residual[..row.len()]);
        let stream = filters.order[stage];
        let decided = c.slice(est);
        stats.slices += 1;
        symbols[stream] = decided;
        // Cancel its contribution with the *hard* decision.
        let contrib = decided.to_complex();
        for (r, res) in residual.iter_mut().enumerate() {
            *res -= h[(r, stream)] * contrib;
        }
        stats.complex_mults += na as u64;
    }
    Detection { symbols, stats }
}

/// The MMSE-SIC detector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MmseSicDetector {
    /// Physical complex noise variance `σ²`.
    pub noise_variance: f64,
}

impl MmseSicDetector {
    /// Creates an MMSE-SIC detector for a given noise variance.
    pub fn new(noise_variance: f64) -> Self {
        MmseSicDetector { noise_variance }
    }

    /// Regularizer `λ = σ²/E_s` in the grid domain.
    fn lambda(&self, c: Constellation) -> f64 {
        self.noise_variance / c.energy()
    }
}

impl MimoDetector for MmseSicDetector {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        // `apply_sic` fills the residual buffer from `y` itself.
        let filters = compute_sic_filters(h, self.lambda(c));
        apply_sic(&filters, h, y, c, &mut Vec::with_capacity(y.len()))
    }

    fn detect_batch_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        let lambda = self.lambda(batch.c);
        let SicScratch { filters, residual } = ws.get_or_insert(SicScratch::default);
        filters.clear();
        filters.resize_with(batch.channels.len(), || None);
        out.clear();
        for job in batch.jobs {
            let h = &batch.channels[job.channel];
            let stages = filters[job.channel].get_or_insert_with(|| {
                let _prof = gs_prof::scope(gs_prof::Stage::Filter);
                compute_sic_filters(h, lambda)
            });
            out.push(apply_sic(stages, h, &job.y, batch.c, residual));
        }
    }

    fn name(&self) -> &'static str {
        "MMSE-SIC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::apply_channel;
    use crate::linear::ZfDetector;
    use gs_channel::{noise_variance_for_snr_db, sample_cn, RayleighChannel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_symbols(rng: &mut StdRng, c: Constellation, n: usize) -> Vec<GridPoint> {
        let pts = c.points();
        (0..n).map(|_| pts[rng.gen_range(0..pts.len())]).collect()
    }

    #[test]
    fn noiseless_roundtrip() {
        let mut rng = StdRng::seed_from_u64(121);
        let c = Constellation::Qam16;
        let det = MmseSicDetector::new(1e-9);
        for _ in 0..50 {
            let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
            let s = random_symbols(&mut rng, c, 4);
            let y = apply_channel(&h, &s);
            assert_eq!(det.detect(&h, &y, c).symbols, s);
        }
    }

    #[test]
    fn sic_beats_zf_on_average() {
        // The paper's Fig. 13: MMSE-SIC significantly outperforms ZF when
        // many streams share the medium.
        let mut rng = StdRng::seed_from_u64(122);
        let c = Constellation::Qpsk;
        let sigma2 = noise_variance_for_snr_db(10.0);
        let sic = MmseSicDetector::new(sigma2);
        let mut zf_errs = 0usize;
        let mut sic_errs = 0usize;
        for _ in 0..300 {
            let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
            let s = random_symbols(&mut rng, c, 4);
            let mut y = apply_channel(&h, &s);
            for v in y.iter_mut() {
                *v += sample_cn(&mut rng, sigma2);
            }
            zf_errs +=
                ZfDetector.detect(&h, &y, c).symbols.iter().zip(&s).filter(|(a, b)| a != b).count();
            sic_errs +=
                sic.detect(&h, &y, c).symbols.iter().zip(&s).filter(|(a, b)| a != b).count();
        }
        assert!(sic_errs < zf_errs, "SIC {sic_errs} vs ZF {zf_errs}");
    }

    #[test]
    fn detects_in_descending_snr_order() {
        // Make stream 1 overwhelmingly strong; SIC must still decode the
        // weak stream correctly after cancelling the strong one (noiseless).
        let c = Constellation::Qpsk;
        let h = Matrix::from_rows(
            2,
            2,
            &[Complex::real(0.1), Complex::real(3.0), Complex::real(0.1), Complex::real(-3.0)],
        );
        let s = vec![GridPoint { i: 1, q: -1 }, GridPoint { i: -1, q: 1 }];
        let y = apply_channel(&h, &s);
        let det = MmseSicDetector::new(1e-9).detect(&h, &y, c);
        assert_eq!(det.symbols, s);
    }

    #[test]
    fn batch_with_matches_per_call_detect() {
        let mut rng = StdRng::seed_from_u64(123);
        let c = Constellation::Qam16;
        let det = MmseSicDetector::new(0.05);
        let channels: Vec<Matrix> = (0..2)
            .map(|_| RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale()))
            .collect();
        let jobs: Vec<crate::batch::DetectionJob> = (0..10)
            .map(|j| {
                let channel = j % 2;
                let s = random_symbols(&mut rng, c, 4);
                let mut y = apply_channel(&channels[channel], &s);
                for v in y.iter_mut() {
                    *v += sample_cn(&mut rng, 0.05);
                }
                crate::batch::DetectionJob { channel, y }
            })
            .collect();
        let batch = crate::batch::DetectionBatch { channels: &channels, jobs: &jobs, c };
        let reference = batch.detect_serial(&det);
        let mut ws = det.make_batch_workspace();
        let mut out = Vec::new();
        for pass in 0..2 {
            det.detect_batch_with(&batch, &mut ws, &mut out);
            for (k, (a, b)) in out.iter().zip(&reference).enumerate() {
                assert_eq!(a.symbols, b.symbols, "pass {pass} job {k}");
                assert_eq!(a.stats, b.stats, "pass {pass} job {k}");
            }
        }
    }
}

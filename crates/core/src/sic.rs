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
//! regularizer, so they live in a [`FilterCache`]: a single detection
//! builds one entry and uses it, the batch entry points share a cache so
//! each distinct channel's stage filters are built once per batch — with
//! bit-identical outputs either way.

use crate::detector::{Detection, DetectorWorkspace, MimoDetector};
use crate::filter_cache::{compute_sic_filters, FilterCache, SicFilters};
use crate::stats::DetectorStats;
use gs_linalg::{Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};

/// Scratch owned by the SIC batch workspace: the stage-filter cache plus
/// the residual buffer.
#[derive(Default)]
pub(crate) struct SicScratch {
    pub(crate) cache: FilterCache,
    pub(crate) residual: Vec<Complex>,
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

    /// One cached-filter SIC detection. Operation counts replicate the
    /// seed implementation exactly: per stage, applying the stage filter is
    /// billed at `rows × remaining` complex multiplications plus `rows`
    /// for the hard-decision cancellation.
    fn detect_cached(
        &self,
        h: &Matrix,
        y: &[Complex],
        c: Constellation,
        channel_idx: usize,
        scratch: &mut SicScratch,
    ) -> Detection {
        let lambda = self.noise_variance / c.energy();
        let SicScratch { cache, residual } = scratch;
        let filters = cache.sic_filters(channel_idx, h, lambda);
        apply_sic(filters, h, y, c, residual)
    }

    fn detect_batch_cached(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        let scratch = ws.get_or_insert(SicScratch::default);
        out.clear();
        for job in batch.jobs {
            out.push(self.detect_cached(
                &batch.channels[job.channel],
                &job.y,
                batch.c,
                job.channel,
                scratch,
            ));
        }
    }
}

impl MimoDetector for MmseSicDetector {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        // One-shot path: build this call's filters directly — no snapshot
        // clone, no cache bookkeeping. `apply_sic` fills the residual
        // buffer from `y` itself.
        let filters = compute_sic_filters(h, self.noise_variance / c.energy());
        apply_sic(&filters, h, y, c, &mut Vec::with_capacity(y.len()))
    }

    fn detect_batch_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        self.detect_batch_cached(batch, ws, out);
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

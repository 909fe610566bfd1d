//! Max-log soft-output sphere detection (the paper's §7 future-work
//! direction).
//!
//! "While Geosphere increases throughput, iterative soft receiver
//! processing is required to reach MIMO capacity. Such 'soft-detectors'
//! consist of several constrained maximum-likelihood problems and
//! therefore the sphere decoder can be of use." — exactly how this module
//! works: the hard Geosphere search yields the ML solution `x_ML` with
//! metric `λ_ML`; each bit's **counter-hypothesis** metric `λ_i` is then a
//! *constrained* ML problem (minimum distance over symbol vectors whose
//! bit `i` is flipped), solved by the same Geosphere engine with a per-bit
//! child filter and the sphere radius warm-started at the clipping limit.
//! The max-log LLR is `(λ_i − λ_ML)/σ²`, signed by the ML bit.

use crate::sphere::geosphere_enum::GeosphereEnumerator;
use crate::sphere::{GeosphereFactory, SearchWorkspace, SphereDecoder};
use crate::stats::DetectorStats;
use gs_linalg::{qr_decompose_into, Complex, Matrix, Qr, QrWorkspace};
use gs_modulation::{Constellation, GridPoint};

/// Soft detection output.
#[derive(Clone, Debug, Default)]
pub struct SoftDetection {
    /// Hard (maximum-likelihood) symbol decisions.
    pub symbols: Vec<GridPoint>,
    /// Per-bit log-likelihood ratios, `nc × Q` entries ordered stream-major
    /// (stream 0's `Q` bits MSB-first, then stream 1, …).
    ///
    /// Sign convention: **positive = bit 0 more likely** (matching
    /// `L = log P(b=0)/P(b=1)`). Magnitudes are clipped at
    /// [`SoftGeosphereDetector::llr_clip`].
    pub llrs: Vec<f64>,
    /// Operation counts over the hard search and every counter-hypothesis
    /// search.
    pub stats: DetectorStats,
}

/// Reusable scratch for soft detection: the underlying search workspace
/// plus QR factors, rotation scratch, and the ML bit cache. One per
/// worker/receiver, reset per symbol — after warmup,
/// [`SoftGeosphereDetector::detect_soft_into`] allocates nothing.
#[derive(Default)]
pub struct SoftWorkspace {
    /// Search state shared by the hard search and every counter-hypothesis
    /// search.
    search: SearchWorkspace<GeosphereEnumerator>,
    /// In-place QR scratch.
    qr_ws: QrWorkspace,
    /// The channel's QR factors, recomputed per call into reused storage.
    qr: Qr,
    /// Q*-rotated receive vector.
    yhat: Vec<Complex>,
}

impl SoftWorkspace {
    /// Creates an empty workspace; buffers warm up on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The soft-output Geosphere detector.
#[derive(Clone, Copy, Debug)]
pub struct SoftGeosphereDetector {
    /// Complex noise variance σ² used to scale distances into LLRs.
    pub noise_variance: f64,
    /// Maximum LLR magnitude. Counter-hypothesis searches are
    /// radius-limited to `λ_ML + clip·σ²`, so larger clips cost more
    /// search; 8 is a standard choice.
    pub llr_clip: f64,
}

impl SoftGeosphereDetector {
    /// Creates a soft detector with the standard clip of 8.
    pub fn new(noise_variance: f64) -> Self {
        SoftGeosphereDetector { noise_variance, llr_clip: 8.0 }
    }

    /// Creates a reusable workspace for
    /// [`SoftGeosphereDetector::detect_soft_into`].
    pub fn make_workspace(&self) -> SoftWorkspace {
        SoftWorkspace::new()
    }

    /// Detects with per-bit soft output.
    ///
    /// Convenience wrapper that allocates a fresh workspace and output;
    /// per-symbol callers should hold both and use
    /// [`SoftGeosphereDetector::detect_soft_into`].
    pub fn detect_soft(&self, h: &Matrix, y: &[Complex], c: Constellation) -> SoftDetection {
        let mut ws = self.make_workspace();
        let mut out = SoftDetection::default();
        self.detect_soft_into(h, y, c, &mut ws, &mut out);
        out
    }

    /// [`SoftGeosphereDetector::detect_soft`] with every buffer — search
    /// state, QR factors, and the output's symbol/LLR vectors — reused in
    /// place: zero heap allocations per symbol after warmup, bit-identical
    /// output.
    pub fn detect_soft_into(
        &self,
        h: &Matrix,
        y: &[Complex],
        c: Constellation,
        ws: &mut SoftWorkspace,
        out: &mut SoftDetection,
    ) {
        let nc = h.cols();
        let q = c.bits_per_symbol();
        let mut stats = DetectorStats::default();

        qr_decompose_into(h, &mut ws.qr_ws, &mut ws.qr);
        ws.qr.rotate_into(y, &mut ws.yhat);
        // The QR drops the component of y orthogonal to range(H) (constant
        // across hypotheses); it would be ‖y‖² − ‖ŷ‖² = ‖(I − QQ*)y‖² ≥ 0,
        // but LLRs are metric *differences*: the constant cancels.

        let engine = SphereDecoder::new(GeosphereFactory::full());

        // 1. Hard ML search.
        let ml_dist = engine
            .search_with_qr(
                &ws.qr.r,
                &ws.yhat[..nc],
                c,
                None,
                f64::INFINITY,
                &mut ws.search,
                &mut stats,
            )
            .expect("infinite radius always yields a solution");
        out.symbols.clear();
        out.symbols.extend_from_slice(ws.search.best());

        // 2. Counter-hypothesis per bit. ML bits are read from
        // `out.symbols`, which the counter searches never touch; the bit
        // table is built once here and reused by every constrained search.
        ws.search.ensure_bit_table(c);
        let clip_delta = self.llr_clip * self.noise_variance;
        out.llrs.clear();
        for stream in 0..nc {
            for k in 0..q {
                let ml_bit = {
                    let (_, table) = ws.search.bit_table.as_ref().expect("table just ensured");
                    table.bit(out.symbols[stream], k)
                };
                let counter = engine.search_with_qr(
                    &ws.qr.r,
                    &ws.yhat[..nc],
                    c,
                    Some((stream, k, !ml_bit)),
                    ml_dist + clip_delta,
                    &mut ws.search,
                    &mut stats,
                );
                let lambda_counter = match counter {
                    Some(d) => d,
                    None => ml_dist + clip_delta, // clipped
                };
                let magnitude =
                    ((lambda_counter - ml_dist) / self.noise_variance).clamp(0.0, self.llr_clip);
                // Positive ⇒ bit 0: if the ML bit is 0, confidence in 0 is
                // +magnitude; if the ML bit is 1, it is −magnitude.
                out.llrs.push(if ml_bit { -magnitude } else { magnitude });
            }
        }

        // Cross-check the ML metric without allocating (this path must stay
        // allocation-free even in debug builds, where the frame-chain
        // alloc-regression test runs).
        #[cfg(debug_assertions)]
        {
            let mut resid = 0.0;
            for r in 0..nc {
                let mut acc = ws.yhat[r];
                for (j, p) in out.symbols.iter().enumerate() {
                    acc -= ws.qr.r[(r, j)] * p.to_complex();
                }
                resid += acc.norm_sqr();
            }
            debug_assert!((resid - ml_dist).abs() < 1e-6 * ml_dist.max(1.0));
        }

        out.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::apply_channel;
    use crate::ml::MlDetector;
    use crate::MimoDetector;
    use gs_channel::{noise_variance_for_snr_db, sample_cn, RayleighChannel};
    use gs_modulation::BitTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn problem(
        rng: &mut StdRng,
        c: Constellation,
        nc: usize,
        noise: f64,
    ) -> (Matrix, Vec<Complex>, Vec<GridPoint>) {
        let h = RayleighChannel::new(nc + 1, nc).sample_matrix(rng).scale(c.scale());
        let pts = c.points();
        let s: Vec<_> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
        let mut y = apply_channel(&h, &s);
        for v in y.iter_mut() {
            *v += sample_cn(rng, noise);
        }
        (h, y, s)
    }

    #[test]
    fn hard_decisions_are_ml() {
        let mut rng = StdRng::seed_from_u64(301);
        let c = Constellation::Qam16;
        let det = SoftGeosphereDetector::new(0.3);
        for _ in 0..25 {
            let (h, y, _) = problem(&mut rng, c, 3, 0.3);
            let soft = det.detect_soft(&h, &y, c);
            let ml = MlDetector.detect(&h, &y, c);
            assert_eq!(soft.symbols, ml.symbols);
        }
    }

    #[test]
    fn llr_signs_match_transmitted_bits_at_high_snr() {
        let mut rng = StdRng::seed_from_u64(302);
        let c = Constellation::Qam16;
        let sigma2 = noise_variance_for_snr_db(30.0);
        let det = SoftGeosphereDetector::new(sigma2);
        let table = BitTable::new(c);
        for _ in 0..20 {
            let (h, y, s) = problem(&mut rng, c, 2, sigma2);
            let soft = det.detect_soft(&h, &y, c);
            let tx_bits: Vec<bool> = s
                .iter()
                .flat_map(|&p| (0..4).rev().map(move |k| table.packed(p) >> k & 1 == 1))
                .collect();
            assert_eq!(soft.llrs.len(), tx_bits.len());
            for (bit_idx, (&l, &b)) in soft.llrs.iter().zip(&tx_bits).enumerate() {
                // Positive LLR = bit 0; at 30 dB every sign must be right.
                assert_eq!(l < 0.0, b, "bit {bit_idx}: llr {l}, tx bit {b}");
            }
        }
    }

    #[test]
    fn llrs_clipped() {
        let mut rng = StdRng::seed_from_u64(303);
        let c = Constellation::Qpsk;
        let det = SoftGeosphereDetector::new(1e-6); // near-noiseless: all clip
        let (h, y, _) = problem(&mut rng, c, 2, 0.0);
        let soft = det.detect_soft(&h, &y, c);
        for &l in &soft.llrs {
            assert!(l.abs() <= det.llr_clip + 1e-12);
        }
        assert!(soft.llrs.iter().any(|l| l.abs() > det.llr_clip * 0.99), "noiseless ⇒ clipped");
    }

    #[test]
    fn llr_magnitudes_match_bruteforce_maxlog() {
        // Exact max-log check against exhaustive per-bit minimum distances.
        let mut rng = StdRng::seed_from_u64(304);
        let c = Constellation::Qpsk;
        let sigma2 = 0.5;
        let det = SoftGeosphereDetector { noise_variance: sigma2, llr_clip: 100.0 };
        for _ in 0..15 {
            let (h, y, _) = problem(&mut rng, c, 2, sigma2);
            let soft = det.detect_soft(&h, &y, c);
            // Brute-force per-bit minima.
            let pts = c.points();
            let q = c.bits_per_symbol();
            let table = BitTable::new(c);
            for stream in 0..2 {
                for k in 0..q {
                    let mut d0 = f64::INFINITY;
                    let mut d1 = f64::INFINITY;
                    for &a in &pts {
                        for &b in &pts {
                            let s = [a, b];
                            let d = crate::detector::residual_norm_sqr(&h, &y, &s);
                            if table.bit(s[stream], k) {
                                d1 = d1.min(d);
                            } else {
                                d0 = d0.min(d);
                            }
                        }
                    }
                    let expect = (d1 - d0) / sigma2;
                    let got = soft.llrs[stream * q + k];
                    assert!(
                        (got - expect).abs() < 1e-6,
                        "stream {stream} bit {k}: got {got}, expect {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn weaker_bits_get_smaller_magnitudes() {
        // A received point near a decision boundary must yield a
        // low-confidence LLR for the boundary bit.
        let c = Constellation::Qpsk;
        let h = Matrix::identity(1);
        let det = SoftGeosphereDetector::new(1.0);
        // QPSK grid points at (±1, ±1); received at (0.05, 1.0): the I bit
        // is nearly ambiguous, the Q bit is confident.
        let y = vec![Complex::new(0.05, 1.0)];
        let soft = det.detect_soft(&h, &y, c);
        assert!(soft.llrs[0].abs() < soft.llrs[1].abs());
    }
}

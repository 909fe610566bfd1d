//! Householder QR decomposition of complex matrices.
//!
//! The sphere decoder (paper §2.2) requires `H = QR` with `Q* Q = I` and `R`
//! upper-triangular. We additionally normalize the decomposition so that the
//! diagonal of `R` is **real and non-negative**: the Geosphere enumeration
//! divides by `r_ll` (Eq. 8), and a positive real diagonal turns that into a
//! cheap real division while leaving `‖ŷ − Rs‖` unchanged.
//!
//! Every entry point has an allocation-free `_into` variant backed by a
//! [`QrWorkspace`]: detection pipelines re-factorize per channel and rotate
//! per received vector, so the hot path reuses one workspace's buffers
//! instead of allocating fresh matrices each time. The allocating wrappers
//! delegate to the `_into` forms, so both produce bit-identical factors.

use crate::complex::Complex;
use crate::matrix::Matrix;

/// The result of a thin QR decomposition `H = Q R`.
///
/// For an `m × n` input with `m ≥ n`, `q` is `m × n` with orthonormal
/// columns and `r` is `n × n` upper-triangular with a real, non-negative
/// diagonal.
#[derive(Clone, Debug, Default)]
pub struct Qr {
    /// Orthonormal factor (`m × n`, thin).
    pub q: Matrix,
    /// Upper-triangular factor (`n × n`), real non-negative diagonal.
    pub r: Matrix,
}

impl Qr {
    /// Applies `Q*` to a received vector: `ŷ = Q* y` (paper Eq. 3).
    pub fn rotate(&self, y: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.rotate_into(y, &mut out);
        out
    }

    /// [`Qr::rotate`] into a caller-owned buffer (cleared first): zero heap
    /// allocations once `out`'s capacity has warmed up.
    ///
    /// # Panics
    /// Panics when `y.len()` differs from the number of rows of `Q`.
    pub fn rotate_into(&self, y: &[Complex], out: &mut Vec<Complex>) {
        let _prof = gs_prof::scope(gs_prof::Stage::Rotate);
        out.clear();
        out.resize(self.q.cols(), Complex::ZERO);
        self.rotate_into_slice(y, out);
    }

    /// [`Qr::rotate`] into a slice of exactly `q.cols()` entries, without
    /// opening a `Rotate` profiling scope.
    ///
    /// For a small `nc` the scope entry/exit costs a visible fraction of
    /// the rotation itself, so batched callers (the multi-symbol lockstep
    /// rotates up to 16 vectors back-to-back straight into its ŷ slab)
    /// bracket the whole run under one caller-held scope and call this
    /// per vector.
    ///
    /// # Panics
    /// Panics when `y.len()` differs from the number of rows of `Q` or
    /// `out.len()` from its number of columns.
    #[inline]
    pub fn rotate_into_slice(&self, y: &[Complex], out: &mut [Complex]) {
        assert_eq!(y.len(), self.q.rows(), "rotate dimension mismatch");
        assert_eq!(out.len(), self.q.cols(), "rotate output length mismatch");
        // Accumulate row-by-row: `out[i] += conj(q[j, i]) · y_j` for j in
        // ascending order, with contiguous row loads the SIMD axpy kernel
        // can vectorize across `i`.
        out.fill(Complex::ZERO);
        for (j, &yj) in y.iter().enumerate() {
            crate::simd::caxpy_conj(self.q.row(j), yj, out);
        }
    }

    /// Reconstructs `Q R`, for testing and diagnostics.
    pub fn reconstruct(&self) -> Matrix {
        self.q.mul_mat(&self.r)
    }
}

/// Reusable scratch buffers for the `_into` decomposition variants.
///
/// One workspace per worker thread is the intended ownership model (it is
/// embedded in the detection `SearchWorkspace`); after the first
/// factorization of a given shape, subsequent calls perform no heap
/// allocations.
#[derive(Clone, Debug, Default)]
pub struct QrWorkspace {
    /// Full working copy of the input, reduced in place.
    r_full: Matrix,
    /// Accumulated reflections (full `m × m`).
    q_full: Matrix,
    /// Householder vector for the current column.
    x: Vec<Complex>,
}

impl QrWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the thin Householder QR decomposition of `h`.
///
/// # Panics
/// Panics if `h` has fewer rows than columns (the MIMO uplink always has
/// `na ≥ nc`; rank-deficient "generalized sphere decoder" setups are out of
/// scope, as in the paper §6.1).
pub fn qr_decompose(h: &Matrix) -> Qr {
    let mut ws = QrWorkspace::new();
    let mut out = Qr::default();
    qr_decompose_into(h, &mut ws, &mut out);
    out
}

/// [`qr_decompose`] into a caller-owned output, with scratch taken from
/// `ws`: zero heap allocations once both have warmed up on this shape.
/// Factors are bit-identical to [`qr_decompose`] (same arithmetic, same
/// operation order).
///
/// The working copies are walked as flat row-major slices (`r[i·n + c]`,
/// `q[row·m + i]`), and every magnitude is taken once. The per-element
/// operation sequence is fixed: each dot product folds from
/// [`Complex::ZERO`] in ascending row order, each update subtracts one
/// rounded product, so the factors are reproducible to the bit
/// (`tests/qr_rotation_bits.rs` pins them).
pub fn qr_decompose_into(h: &Matrix, ws: &mut QrWorkspace, out: &mut Qr) {
    let _prof = gs_prof::scope(gs_prof::Stage::QrDecompose);
    let QrWorkspace { r_full, q_full, x } = ws;
    let (m, n) = h.shape();
    assert!(m >= n, "QR requires rows >= cols (na >= nc), got {m}x{n}");

    // Work on a full copy; accumulate the reflections into q_full.
    r_full.copy_from(h);
    q_full.reset_identity(m);
    let r = r_full.as_mut_slice();
    let q = q_full.as_mut_slice();

    for k in 0..n {
        // Householder vector for column k, rows k..m.
        x.clear();
        x.extend((k..m).map(|i| r[i * n + k]));
        let xnorm = x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if xnorm < f64::EPSILON {
            continue;
        }
        // alpha = -sign(x0) * |x|, where sign(z) = z/|z| (phase); this choice
        // avoids cancellation and makes the pivot -phase(x0)*|x|.
        let x0 = x[0];
        let x0_abs = x0.abs();
        let phase = if x0_abs < f64::EPSILON { Complex::ONE } else { x0 / x0_abs };
        let alpha = -phase * xnorm;
        x[0] -= alpha;
        let vnorm_sqr: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        if vnorm_sqr < f64::EPSILON * f64::EPSILON {
            continue;
        }
        let two_over_vnorm = 2.0 / vnorm_sqr;
        let v = &x[..m - k];

        // Apply I - 2 v v*/|v|^2 to the trailing block of R (columns k..n).
        for c in k..n {
            let mut dot = Complex::ZERO;
            for i in k..m {
                dot += v[i - k].conj() * r[i * n + c];
            }
            let f = dot.scale(two_over_vnorm);
            for i in k..m {
                r[i * n + c] -= v[i - k] * f;
            }
        }
        // Accumulate into Q (apply reflection on the right of q_full).
        for row in 0..m {
            let tail = &mut q[row * m + k..(row + 1) * m];
            let mut dot = Complex::ZERO;
            for (qi, vi) in tail.iter().zip(v) {
                dot += *qi * *vi;
            }
            let f = dot.scale(two_over_vnorm);
            for (qi, vi) in tail.iter_mut().zip(v) {
                *qi -= f * vi.conj();
            }
        }
    }

    // Thin factors, written into the reused output storage.
    out.q.reset_zeros(m, n);
    out.r.reset_zeros(n, n);
    let (oq, or) = (out.q.as_mut_slice(), out.r.as_mut_slice());
    for rr in 0..m {
        oq[rr * n..(rr + 1) * n].copy_from_slice(&q[rr * m..rr * m + n]);
    }
    for rr in 0..n {
        or[rr * n + rr..(rr + 1) * n].copy_from_slice(&r[rr * n + rr..(rr + 1) * n]);
    }

    // Normalize so diag(R) is real and non-negative: R <- D* R, Q <- Q D,
    // with D = diag(phase(r_kk)).
    for k in 0..n {
        let d = or[k * n + k];
        let d_abs = d.abs();
        if d_abs < f64::EPSILON {
            continue;
        }
        let phase = d / d_abs;
        let phase_conj = phase.conj();
        for z in &mut or[k * n + k..(k + 1) * n] {
            *z = phase_conj * *z;
        }
        for rr in 0..m {
            oq[rr * n + k] *= phase;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |_, _| {
            Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
        })
    }

    #[test]
    fn qr_reconstructs_input() {
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, n) in &[(2, 2), (4, 4), (4, 2), (8, 4), (10, 10), (3, 1)] {
            let h = random_matrix(&mut rng, m, n);
            let qr = qr_decompose(&h);
            assert!(
                qr.reconstruct().max_abs_diff(&h) < 1e-10,
                "QR reconstruction failed for {m}x{n}"
            );
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let mut rng = StdRng::seed_from_u64(8);
        for &(m, n) in &[(2, 2), (4, 4), (6, 3), (10, 10)] {
            let h = random_matrix(&mut rng, m, n);
            let qr = qr_decompose(&h);
            let gram = qr.q.gram();
            assert!(gram.max_abs_diff(&Matrix::identity(n)) < 1e-10);
        }
    }

    #[test]
    fn r_is_upper_triangular_with_positive_diagonal() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let h = random_matrix(&mut rng, 4, 4);
            let qr = qr_decompose(&h);
            for r in 0..4 {
                for c in 0..4 {
                    if r > c {
                        assert!(qr.r[(r, c)].abs() < 1e-12, "R not triangular");
                    }
                }
                assert!(qr.r[(r, r)].im.abs() < 1e-12, "diag not real");
                assert!(qr.r[(r, r)].re >= 0.0, "diag negative");
            }
        }
    }

    #[test]
    fn rotate_preserves_residual_norm() {
        // ||y - Hs||^2 = ||Q*y - Rs||^2 + const for any s, when na == nc the
        // const vanishes; check the na == nc case numerically.
        let mut rng = StdRng::seed_from_u64(10);
        let h = random_matrix(&mut rng, 4, 4);
        let qr = qr_decompose(&h);
        let s: Vec<Complex> = (0..4)
            .map(|_| Complex::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let y: Vec<Complex> = (0..4)
            .map(|_| Complex::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
            .collect();
        let lhs = crate::matrix::vec_dist_sqr(&y, &h.mul_vec(&s));
        let yhat = qr.rotate(&y);
        let rhs = crate::matrix::vec_dist_sqr(&yhat, &qr.r.mul_vec(&s));
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn rotate_into_matches_hermitian_mul() {
        // rotate_into is the hot-path form of Q*·y; it must agree exactly
        // with its definition — `out[i] = Σ_j conj(q[j,i])·y_j` accumulated
        // in ascending j, the order both the scalar and SIMD axpy paths
        // follow. (The kernel-routed `hermitian().mul_vec(y)` uses the
        // two-lane dot reduction instead, so it is only near-equal.)
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, n) in &[(2, 2), (4, 4), (6, 3)] {
            let h = random_matrix(&mut rng, m, n);
            let qr = qr_decompose(&h);
            let y: Vec<Complex> = (0..m)
                .map(|_| Complex::new(rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0)))
                .collect();
            let mut reference = vec![Complex::ZERO; n];
            for (j, &yj) in y.iter().enumerate() {
                for (i, slot) in reference.iter_mut().enumerate() {
                    *slot += qr.q[(j, i)].conj() * yj;
                }
            }
            let via_mul = qr.q.hermitian().mul_vec(&y);
            for (a, b) in via_mul.iter().zip(&reference) {
                assert!((*a - *b).abs() < 1e-12, "{m}x{n}: kernel dot drifted");
            }
            let mut out = Vec::new();
            qr.rotate_into(&y, &mut out);
            assert_eq!(out.len(), reference.len());
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "{m}x{n}: re differs");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "{m}x{n}: im differs");
            }
        }
    }

    #[test]
    fn decompose_into_reuses_and_matches() {
        // One workspace + output pair across many shapes/instances must give
        // bit-identical factors to the allocating path.
        let mut rng = StdRng::seed_from_u64(22);
        let mut ws = QrWorkspace::new();
        let mut out = Qr::default();
        for &(m, n) in &[(4, 4), (2, 2), (8, 4), (4, 4), (3, 1)] {
            let h = random_matrix(&mut rng, m, n);
            qr_decompose_into(&h, &mut ws, &mut out);
            let reference = qr_decompose(&h);
            assert_eq!(out.q.shape(), reference.q.shape());
            for (a, b) in out.q.as_slice().iter().zip(reference.q.as_slice()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            for (a, b) in out.r.as_slice().iter().zip(reference.r.as_slice()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn qr_of_identity() {
        let qr = qr_decompose(&Matrix::identity(3));
        assert!(qr.q.max_abs_diff(&Matrix::identity(3)) < 1e-12);
        assert!(qr.r.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }
}

//! Dense complex matrices in row-major storage.
//!
//! MIMO detection works on tiny matrices (at most ~10×10 in this workspace:
//! the number of AP antennas by the number of client antennas), so the
//! representation favours clarity and cache-friendliness over blocking or
//! SIMD heroics: a flat `Vec<Complex>` with row-major indexing.

use crate::complex::Complex;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense `rows × cols` complex matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix — the natural seed for workspace slots that
    /// are later filled in place via [`Matrix::copy_from`] and friends.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Matrix {
    /// An all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![Complex::ZERO; rows * cols] }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds a matrix from a row-major slice of entries.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex]) -> Self {
        assert_eq!(data.len(), rows * cols, "row-major data length mismatch");
        Matrix { rows, cols, data: data.to_vec() }
    }

    /// Builds a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Complex) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True for `n × n` matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Row-major view of the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Mutable row-major view of the underlying storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[Complex] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One column, copied out.
    pub fn col(&self, c: usize) -> Vec<Complex> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Conjugate (Hermitian) transpose `A*`.
    pub fn hermitian(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Plain transpose (no conjugation).
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)].conj())
    }

    /// Scales every entry by a real factor.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)].scale(k))
    }

    /// Makes `self` an entry-wise scaled copy of `src` (`self = k·src`),
    /// reusing storage — the in-place counterpart of [`Matrix::scale`],
    /// bit-identical to it entry by entry.
    pub fn scale_from(&mut self, src: &Matrix, k: f64) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend(src.data.iter().map(|z| z.scale(k)));
    }

    /// Matrix-vector product written into a reused output buffer —
    /// bit-identical to [`Matrix::mul_vec`] without its allocation (both
    /// run every row through the same [`crate::simd::cdot`] kernel).
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[Complex], out: &mut Vec<Complex>) {
        assert_eq!(x.len(), self.cols, "matrix-vector dimension mismatch");
        out.clear();
        for r in 0..self.rows {
            out.push(crate::simd::cdot(self.row(r), x));
        }
    }

    /// Reshapes `self` into an all-zero `rows × cols` matrix, reusing the
    /// existing storage (no heap traffic once capacity suffices).
    pub fn reset_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, Complex::ZERO);
    }

    /// Reshapes `self` into the `n × n` identity, reusing storage.
    pub fn reset_identity(&mut self, n: usize) {
        self.reset_zeros(n, n);
        for i in 0..n {
            self[(i, i)] = Complex::ONE;
        }
    }

    /// Makes `self` an entry-wise copy of `src`, reusing storage.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// `A* A` — the Gram matrix, used for SNR-degradation metrics.
    pub fn gram(&self) -> Matrix {
        self.hermitian().mul_mat(self)
    }

    /// Matrix-matrix product.
    ///
    /// # Panics
    /// Panics when inner dimensions disagree.
    pub fn mul_mat(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matrix product dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == Complex::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }

    /// Matrix-vector product `A x`, each row through the lane-ordered
    /// [`crate::simd::cdot`] kernel.
    ///
    /// # Panics
    /// Panics when `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[Complex]) -> Vec<Complex> {
        assert_eq!(x.len(), self.cols, "matrix-vector dimension mismatch");
        (0..self.rows).map(|r| crate::simd::cdot(self.row(r), x)).collect()
    }

    /// Squared Frobenius norm.
    pub fn frobenius_norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>()
    }

    /// Largest entry-wise deviation from another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max)
    }

    /// Returns a copy with row `a` and row `b` swapped.
    pub fn with_swapped_rows(&self, a: usize, b: usize) -> Matrix {
        let mut m = self.clone();
        for c in 0..self.cols {
            let t = m[(a, c)];
            m[(a, c)] = m[(b, c)];
            m[(b, c)] = t;
        }
        m
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|z| z.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] + rhs[(r, c)])
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape());
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] - rhs[(r, c)])
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mul_mat(rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:?}  ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Squared Euclidean distance between two complex vectors.
///
/// # Panics
/// Panics when lengths disagree.
pub fn vec_dist_sqr(a: &[Complex], b: &[Complex]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| (x - y).norm_sqr()).sum()
}

/// Squared Euclidean norm of a complex vector.
pub fn vec_norm_sqr(a: &[Complex]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum()
}

/// Inner product `⟨a, b⟩ = Σ conj(a_i)·b_i`, through the lane-ordered
/// [`crate::simd::cdotc`] kernel.
pub fn vec_dot(a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len());
    crate::simd::cdotc(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(2, 2, &[c(1.0, 2.0), c(3.0, -1.0), c(0.5, 0.0), c(-2.0, 2.0)]);
        let i = Matrix::identity(2);
        assert_eq!(a.mul_mat(&i), a);
        assert_eq!(i.mul_mat(&a), a);
    }

    #[test]
    fn hermitian_reverses_product() {
        let a = Matrix::from_rows(2, 3, &[c(1.0, 1.0); 6]);
        let b = Matrix::from_rows(3, 2, &[c(2.0, -1.0); 6]);
        let lhs = a.mul_mat(&b).hermitian();
        let rhs = b.hermitian().mul_mat(&a.hermitian());
        assert!(lhs.max_abs_diff(&rhs) < 1e-12);
    }

    #[test]
    fn mul_vec_matches_mul_mat() {
        let a = Matrix::from_rows(2, 2, &[c(1.0, 0.0), c(0.0, 1.0), c(2.0, 0.0), c(0.0, -3.0)]);
        let x = vec![c(1.0, 1.0), c(-2.0, 0.5)];
        let via_vec = a.mul_vec(&x);
        let via_mat = a.mul_mat(&Matrix::from_rows(2, 1, &x));
        for (i, v) in via_vec.iter().enumerate() {
            assert!((*v - via_mat[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn gram_is_hermitian_psd() {
        let a = Matrix::from_rows(
            3,
            2,
            &[c(1.0, 0.2), c(0.0, 1.0), c(2.0, -0.3), c(0.4, -3.0), c(-1.0, 0.0), c(0.1, 0.1)],
        );
        let g = a.gram();
        assert!(g.max_abs_diff(&g.hermitian()) < 1e-12);
        for i in 0..2 {
            assert!(g[(i, i)].re >= 0.0);
            assert!(g[(i, i)].im.abs() < 1e-12);
        }
    }

    #[test]
    fn swap_rows_and_cols() {
        let a = Matrix::from_fn(2, 2, |r, c_| Complex::real((2 * r + c_) as f64));
        let swapped = a.with_swapped_rows(0, 1);
        assert_eq!(swapped[(0, 0)].re, 2.0);
    }

    #[test]
    fn vector_helpers() {
        let a = [c(1.0, 0.0), c(0.0, 1.0)];
        let b = [c(0.0, 0.0), c(0.0, 0.0)];
        assert!((vec_dist_sqr(&a, &b) - 2.0).abs() < 1e-12);
        assert!((vec_norm_sqr(&a) - 2.0).abs() < 1e-12);
        let d = vec_dot(&a, &a);
        assert!((d - Complex::real(2.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_dim_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.mul_mat(&b);
    }
}

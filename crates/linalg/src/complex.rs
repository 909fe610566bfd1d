//! Complex scalar arithmetic.
//!
//! A minimal, `f64`-backed complex number. Everything in the workspace that
//! touches baseband samples, channel coefficients, or constellation points
//! goes through this type, so it is deliberately small, `Copy`, and fully
//! `#[inline]`d.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i·im` with `f64` components.
///
/// `repr(C)` guarantees the `(re, im)` interleaved layout the SIMD kernels
/// ([`crate::simd`]) rely on when viewing `&[Complex]` as packed `f64`
/// pairs.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Builds a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Builds a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Builds a complex number from polar coordinates `r·e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` — a unit-magnitude phasor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Complex::from_polar(1.0, theta)
    }

    /// Complex conjugate `re − i·im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    ///
    /// This is the workhorse of every Euclidean-distance computation in the
    /// sphere decoder, so it avoids the square root of [`Complex::abs`].
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in `(−π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns a non-finite value when `z == 0`, matching `f64` division
    /// semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Scales both components by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex::new(self.re * k, self.im * k)
    }

    /// Principal square root.
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let re = ((r + self.re) * 0.5).max(0.0).sqrt();
        let im_mag = ((r - self.re) * 0.5).max(0.0).sqrt();
        Complex::new(re, if self.im < 0.0 { -im_mag } else { im_mag })
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}i", self.re, if self.im < 0.0 { "-" } else { "+" }, self.im.abs())
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        let d = rhs.norm_sqr();
        Complex::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.5);
        let b = Complex::new(-0.25, 4.0);
        assert!(close(a + b - b, a));
    }

    #[test]
    fn mul_matches_foil() {
        let a = Complex::new(3.0, 2.0);
        let b = Complex::new(1.0, 7.0);
        // (3+2i)(1+7i) = 3 + 21i + 2i + 14i^2 = -11 + 23i
        assert!(close(a * b, Complex::new(-11.0, 23.0)));
    }

    #[test]
    fn div_is_mul_inverse() {
        let a = Complex::new(3.0, 2.0);
        let b = Complex::new(1.0, 7.0);
        assert!(close(a / b * b, a));
        assert!(close(b * b.inv(), Complex::ONE));
    }

    #[test]
    fn conj_properties() {
        let a = Complex::new(3.0, 2.0);
        assert!(close(a * a.conj(), Complex::real(a.norm_sqr())));
        assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-4.0, 0.0), (3.0, -4.0), (0.0, 2.0), (-1.0, -1.0)] {
            let z = Complex::new(re, im);
            let s = z.sqrt();
            assert!(close(s * s, z), "sqrt({z:?}) = {s:?}");
            assert!(s.re >= 0.0, "principal branch");
        }
    }

    #[test]
    fn cis_unit_magnitude() {
        for k in 0..16 {
            let z = Complex::cis(k as f64 * 0.5);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sum_folds() {
        let total: Complex = (0..10).map(|k| Complex::new(k as f64, -(k as f64))).sum();
        assert!(close(total, Complex::new(45.0, -45.0)));
    }
}

//! # gs-linalg
//!
//! Small dense **complex** linear algebra, purpose-built for MIMO detection.
//!
//! The Geosphere workspace operates on channel matrices no larger than about
//! 10×10 (AP antennas × client streams), so this crate trades asymptotic
//! sophistication for auditability: plain row-major storage, Householder QR,
//! partially-pivoted LU, one-sided Jacobi SVD, and a radix-2 FFT — each a
//! page of code with exhaustive tests, the way an SDR/ASIC implementation
//! team would actually build it.
//!
//! ## Quick tour
//!
//! ```
//! use gs_linalg::{Complex, Matrix, qr_decompose, condition_number};
//!
//! let h = Matrix::from_rows(2, 2, &[
//!     Complex::new(1.0, 0.1), Complex::new(0.3, -0.2),
//!     Complex::new(-0.4, 0.5), Complex::new(0.9, 0.0),
//! ]);
//! let qr = qr_decompose(&h);
//! assert!(qr.reconstruct().max_abs_diff(&h) < 1e-10);
//! assert!(condition_number(&h) >= 1.0);
//! ```

// Unsafe code is denied everywhere except the SIMD backends, whose vector
// intrinsics require it; those modules opt in locally with `#[allow]` and
// document the detection invariant that makes each call sound.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod env;
pub mod fft;
pub mod inverse;
pub mod matrix;
pub mod qr;
pub mod simd;
pub mod svd;

pub use complex::Complex;
pub use fft::{fft, frequency_response, ifft};
pub use inverse::{
    invert, lu_decompose, pseudo_inverse, regularized_pseudo_inverse, LinalgError, Lu,
};
pub use matrix::{vec_dist_sqr, vec_dot, vec_norm_sqr, Matrix};
pub use qr::{qr_decompose, qr_decompose_into, Qr, QrWorkspace};
pub use svd::{condition_number, condition_number_sqr_db, singular_values};

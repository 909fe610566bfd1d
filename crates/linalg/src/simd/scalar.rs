//! The portable scalar backend — the kernel **specification**.
//!
//! Every function here spells out the exact lane structure, product
//! expressions, and reduction tree the SIMD backends implement with vector
//! instructions. The SIMD backends are written to match this module bit
//! for bit (see the module docs of [`super`]); when in doubt about kernel
//! semantics, this file is the answer.

use crate::complex::Complex;

/// Plain complex dot, two-lane spec: lane `l` accumulates the products of
/// the paired prefix at indices `j ≡ l (mod 2)`; reduction is
/// `lane0 + lane1`; the odd tail element (if any) is added last.
pub(super) fn cdot(a: &[Complex], b: &[Complex]) -> Complex {
    let pairs = a.len() / 2;
    let mut acc0 = Complex::ZERO;
    let mut acc1 = Complex::ZERO;
    for k in 0..pairs {
        acc0 += a[2 * k] * b[2 * k];
        acc1 += a[2 * k + 1] * b[2 * k + 1];
    }
    let mut total = acc0 + acc1;
    if a.len() % 2 == 1 {
        let j = a.len() - 1;
        total += a[j] * b[j];
    }
    total
}

/// Conjugated complex dot, same two-lane spec with `conj(a_j) · b_j`
/// products.
pub(super) fn cdotc(a: &[Complex], b: &[Complex]) -> Complex {
    let pairs = a.len() / 2;
    let mut acc0 = Complex::ZERO;
    let mut acc1 = Complex::ZERO;
    for k in 0..pairs {
        acc0 += a[2 * k].conj() * b[2 * k];
        acc1 += a[2 * k + 1].conj() * b[2 * k + 1];
    }
    let mut total = acc0 + acc1;
    if a.len() % 2 == 1 {
        let j = a.len() - 1;
        total += a[j].conj() * b[j];
    }
    total
}

/// Split-layout complex dot, four-lane spec: within each block of four,
/// lane `l` takes element `4k + l`; lanes reduce as `(l0+l2) + (l1+l3)`
/// (the AVX2/NEON half-then-horizontal tree); tail elements are added
/// sequentially afterwards. Products are `re = ar·br − ai·bi`,
/// `im = ar·bi + ai·br`, each rounding once — no FMA.
#[inline]
pub(super) fn cdot_soa(ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) -> Complex {
    let n = ar.len();
    let blocks = n / 4;
    let mut re = [0.0f64; 4];
    let mut im = [0.0f64; 4];
    for k in 0..blocks {
        for l in 0..4 {
            let j = 4 * k + l;
            re[l] += ar[j] * br[j] - ai[j] * bi[j];
            im[l] += ar[j] * bi[j] + ai[j] * br[j];
        }
    }
    let mut tre = (re[0] + re[2]) + (re[1] + re[3]);
    let mut tim = (im[0] + im[2]) + (im[1] + im[3]);
    for j in 4 * blocks..n {
        tre += ar[j] * br[j] - ai[j] * bi[j];
        tim += ar[j] * bi[j] + ai[j] * br[j];
    }
    Complex::new(tre, tim)
}

/// Multi-symbol split-layout complex dot: one shared `a` vector (length
/// `m`) against `k` interleaved `b` vectors, where symbol `s`'s element
/// `j` lives at `b[j·k + s]`. Per symbol the lane structure, reduction
/// tree, and tail handling replicate [`cdot_soa`] exactly, so each output
/// is bit-identical to a per-symbol `cdot_soa` call on a contiguous copy
/// of that symbol's column.
pub(super) fn cdot_soa_multi(
    ar: &[f64],
    ai: &[f64],
    br: &[f64],
    bi: &[f64],
    k: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    cdot_soa_multi_tail(ar, ai, br, bi, k, 0, out_re, out_im);
}

/// [`cdot_soa_multi`] restricted to symbols `s_from..k` — the remainder
/// path of the across-symbol SIMD backends (which handle `k mod lanes`
/// trailing symbols here, through the specification itself).
// The arguments are the kernel's slab ABI (four input slabs, the symbol
// count, the resume offset, two output slabs); a params struct would
// only rename them.
#[allow(clippy::too_many_arguments)]
pub(super) fn cdot_soa_multi_tail(
    ar: &[f64],
    ai: &[f64],
    br: &[f64],
    bi: &[f64],
    k: usize,
    s_from: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    let m = ar.len();
    for s in s_from..k {
        let blocks = m / 4;
        let mut re = [0.0f64; 4];
        let mut im = [0.0f64; 4];
        for blk in 0..blocks {
            for l in 0..4 {
                let j = 4 * blk + l;
                let b_r = br[j * k + s];
                let b_i = bi[j * k + s];
                re[l] += ar[j] * b_r - ai[j] * b_i;
                im[l] += ar[j] * b_i + ai[j] * b_r;
            }
        }
        let mut tre = (re[0] + re[2]) + (re[1] + re[3]);
        let mut tim = (im[0] + im[2]) + (im[1] + im[3]);
        for j in 4 * blocks..m {
            let b_r = br[j * k + s];
            let b_i = bi[j * k + s];
            tre += ar[j] * b_r - ai[j] * b_i;
            tim += ar[j] * b_i + ai[j] * b_r;
        }
        out_re[s] = tre;
        out_im[s] = tim;
    }
}

/// Elementwise `out_j += conj(a_j) · y`: per element
/// `re += ar·yr + ai·yi`, `im += ar·yi − ai·yr` — no cross-element
/// reduction, so lane width cannot matter.
#[inline]
pub(super) fn caxpy_conj(a: &[Complex], y: Complex, out: &mut [Complex]) {
    for (o, &aj) in out.iter_mut().zip(a) {
        *o += aj.conj() * y;
    }
}

/// Elementwise batched PED: `out_j = gain · ((re_j − c.re)² + (im_j −
/// c.im)²)` — [`super::ped_point`] per lane.
pub(super) fn ped_soa(re: &[f64], im: &[f64], center: Complex, gain: f64, out: &mut [f64]) {
    for j in 0..re.len() {
        out[j] = super::ped_point(re[j], im[j], center, gain);
    }
}

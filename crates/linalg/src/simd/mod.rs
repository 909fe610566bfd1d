//! Lane-ordered SIMD kernels for the hot complex arithmetic, with one-time
//! runtime dispatch.
//!
//! Every distance computation, interference accumulation, and filter apply
//! in the workspace bottoms out in a handful of complex-vector primitives:
//! dot products (plain and conjugated), elementwise axpy, and batched
//! partial-Euclidean-distance (PED) evaluation. This module provides those
//! primitives in three backends — an always-available scalar path, AVX2 on
//! `x86_64`, and NEON on `aarch64` — selected once at runtime and
//! overridable by the `GS_SIMD` environment variable or the gs-linalg
//! `force-scalar` cargo feature.
//!
//! ## Bit-identical by construction
//!
//! The backends are not merely "close": for every kernel, the scalar and
//! SIMD paths produce **bit-identical** results, so the oracle and
//! determinism suites remain the cross-path ground truth
//! (`tests/simd_parity.rs` proves it over random shapes). Floating-point
//! addition is not associative, so this property has to be designed in:
//!
//! * Every reducing kernel fixes a **lane-then-tree** order. [`cdot`] and
//!   [`cdotc`] accumulate into two complex lanes (lane `l` takes elements
//!   `j ≡ l (mod 2)` of the paired prefix), then reduce `lane0 + lane1`;
//!   [`cdot_soa`] uses four lanes reduced as `(l0+l2) + (l1+l3)` — exactly
//!   the shuffle tree the AVX2/NEON horizontal reductions perform. Tail
//!   elements past the last full block are added sequentially afterwards,
//!   in index order, on every backend.
//! * Elementwise kernels ([`caxpy_conj`], [`ped_soa`]) use the same
//!   per-element expression on every backend, so lane width cannot matter.
//! * No backend uses FMA contraction: each product and sum rounds exactly
//!   once, in the same order, everywhere. (FMA would be admissible only if
//!   the scalar path used the same fused form; plain mul/add keeps the
//!   scalar fallback fast on targets without hardware FMA.)
//!
//! ## Dispatch
//!
//! [`active_tier`] resolves once (feature detection + `GS_SIMD`) and the
//! kernels branch on a relaxed atomic load — cheap enough for the short
//! vectors MIMO detection works on. `GS_SIMD` accepts:
//!
//! | value                          | effect                             |
//! |--------------------------------|------------------------------------|
//! | unset, `on`, `auto`, `native`, `1` | best tier the CPU supports     |
//! | `off`, `scalar`, `0`           | force the scalar path              |
//! | `avx2`                         | force AVX2 (scalar if unsupported) |
//! | `avx512`                       | recognized, tier not yet implemented: best supported tier (AVX2, else scalar), no warning |
//! | `neon`                         | force NEON (scalar if unsupported) |
//! | anything else                  | warning on stderr listing the valid values + scalar path |
//!
//! [`force_tier`]/[`reset_tier`] expose the same control programmatically
//! for tests and benches; because backends are bit-identical, switching
//! tiers mid-process is observable only in throughput.
//!
//! ## Why there is no "batched PED" kernel for Geosphere
//!
//! ETH-SD's row-parallel enumeration pays √|O| PEDs up front per node —
//! a natural [`ped_soa`] batch. Geosphere's whole point (paper §3.1.1) is
//! to *avoid* that batch: its zigzag computes at most two PEDs per
//! exploration, one point at a time, so its per-point PED goes through the
//! shared scalar unit [`ped_point`] instead. The kernels make the
//! comparison decoder as fast as vectors allow; Geosphere still wins by
//! doing less arithmetic, which is precisely the claim the benches measure.
//!
//! A batched kernel would not speed Geosphere up either: its per-node cost
//! is bookkeeping-bound, not PED-bound. A 64-QAM node under a budget that
//! fits about 1.5 children (reset, first child, drain: 3.6 PEDs and 5.4
//! bound lookups on average) takes ~75 ns on a shared 2-vCPU Xeon VM
//! (`zigzag_vs_hess`, `node_reuse_Qam64`), ~13 ns of it the reset. The
//! PEDs themselves, three multiplies and three adds each, are a few ns of
//! that; the rest is zigzag steps, bound lookups and the queue scan.

use crate::complex::Complex;
use std::sync::atomic::{AtomicU8, Ordering};

mod scalar;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2;

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon;

/// A SIMD backend tier. Variants exist on every target so configuration
/// code can name them portably; forcing a tier the CPU (or target) does
/// not support falls back to [`Tier::Scalar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Tier {
    /// The portable scalar path — the kernel specification itself.
    Scalar = 0,
    /// 256-bit AVX2 on `x86_64` (4 `f64` lanes).
    Avx2 = 1,
    /// 128-bit NEON on `aarch64` (2 `f64` lanes, paired per iteration).
    Neon = 2,
}

impl Tier {
    /// Short lowercase name (`scalar`, `avx2`, `neon`).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Neon => "neon",
        }
    }
}

const TIER_UNSET: u8 = u8::MAX;

/// The resolved tier, encoded as its discriminant; `TIER_UNSET` before the
/// first dispatch.
static ACTIVE: AtomicU8 = AtomicU8::new(TIER_UNSET);

/// The best tier this CPU supports (honouring the `force-scalar` feature).
pub fn detected_tier() -> Tier {
    if cfg!(feature = "force-scalar") {
        return Tier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Tier::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Tier::Neon;
        }
    }
    Tier::Scalar
}

/// Whether `tier` can actually run on this CPU/target.
pub fn tier_supported(tier: Tier) -> bool {
    match tier {
        Tier::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => {
            !cfg!(feature = "force-scalar") && std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(target_arch = "aarch64")]
        Tier::Neon => {
            !cfg!(feature = "force-scalar") && std::arch::is_aarch64_feature_detected!("neon")
        }
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Resolves the tier from `GS_SIMD` (see the module docs for the accepted
/// values), falling back to detection. An unrecognized value warns on
/// stderr and takes the **scalar** path: the knob exists for debugging,
/// and a typo of `off` must not silently re-enable vector code.
fn tier_from_env() -> Tier {
    crate::env::env_knob(
        "GS_SIMD",
        "off|scalar|0|on|auto|native|1|avx2|avx512|neon",
        "using the scalar path",
        detected_tier(),
        Tier::Scalar,
        parse_tier_value,
    )
}

/// The `GS_SIMD` value grammar, factored out of [`tier_from_env`] so the
/// accepted spellings are unit-testable without touching the process
/// environment. `None` means unrecognized (the knob then warns, listing
/// the valid values, and falls back to scalar).
fn parse_tier_value(v: &str) -> Option<Tier> {
    match v {
        "" | "on" | "auto" | "native" | "1" => Some(detected_tier()),
        "off" | "scalar" | "0" => Some(Tier::Scalar),
        "avx2" => Some(if tier_supported(Tier::Avx2) { Tier::Avx2 } else { Tier::Scalar }),
        // Forward-compat for the planned AVX-512 tier: recognized (no
        // warning), falls back to the best tier this build implements on
        // the requested family — AVX2 where supported, else scalar.
        "avx512" => Some(if tier_supported(Tier::Avx2) { Tier::Avx2 } else { Tier::Scalar }),
        "neon" => Some(if tier_supported(Tier::Neon) { Tier::Neon } else { Tier::Scalar }),
        _ => None,
    }
}

/// The tier the kernels currently dispatch to. Resolved once from
/// `GS_SIMD`/feature detection on first call; later calls are a relaxed
/// atomic load.
pub fn active_tier() -> Tier {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => Tier::Scalar,
        1 => Tier::Avx2,
        2 => Tier::Neon,
        _ => {
            let t = tier_from_env();
            ACTIVE.store(t as u8, Ordering::Relaxed);
            t
        }
    }
}

/// Forces a specific tier (testing/bench hook). Returns `false` — leaving
/// the active tier unchanged — when the CPU does not support `tier`.
/// Safe to call at any time: all tiers are bit-identical, so the only
/// observable effect is throughput.
pub fn force_tier(tier: Tier) -> bool {
    if !tier_supported(tier) {
        return false;
    }
    ACTIVE.store(tier as u8, Ordering::Relaxed);
    true
}

/// Reverts [`force_tier`], re-resolving from `GS_SIMD`/detection on the
/// next dispatch.
pub fn reset_tier() {
    ACTIVE.store(TIER_UNSET, Ordering::Relaxed);
}

/// The shared per-point PED unit: `gain · |p − center|²` with `p = (re,
/// im)`. Both [`ped_soa`] lanes and the one-point-at-a-time enumeration
/// paths (Geosphere's zigzag) evaluate exactly this expression, so scalar
/// and batched PEDs agree bit for bit.
#[inline]
pub fn ped_point(re: f64, im: f64, center: Complex, gain: f64) -> f64 {
    let dre = re - center.re;
    let dim = im - center.im;
    gain * (dre * dre + dim * dim)
}

macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {{
        match active_tier() {
            Tier::Scalar => scalar::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // Safety: `active_tier()` only returns `Avx2` when runtime
            // detection confirmed AVX2 support.
            #[allow(unsafe_code)]
            Tier::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            // Safety: `active_tier()` only returns `Neon` when runtime
            // detection confirmed NEON support.
            #[allow(unsafe_code)]
            Tier::Neon => unsafe { neon::$name($($arg),*) },
            #[allow(unreachable_patterns)]
            _ => scalar::$name($($arg),*),
        }
    }};
}

macro_rules! dispatch_with {
    ($tier:expr, $name:ident ( $($arg:expr),* )) => {{
        match $tier {
            #[cfg(target_arch = "x86_64")]
            // Safety: guarded by `tier_supported` below.
            #[allow(unsafe_code)]
            Tier::Avx2 if tier_supported(Tier::Avx2) => unsafe { avx2::$name($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            // Safety: guarded by `tier_supported` below.
            #[allow(unsafe_code)]
            Tier::Neon if tier_supported(Tier::Neon) => unsafe { neon::$name($($arg),*) },
            _ => scalar::$name($($arg),*),
        }
    }};
}

/// Plain complex dot `Σ_j a_j · b_j` (no conjugation) in the fixed
/// two-lane order. The inner product of [`crate::Matrix::mul_vec_into`]
/// and the cached filter-row applies.
///
/// # Panics
/// Panics when lengths differ.
pub fn cdot(a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len(), "cdot length mismatch");
    dispatch!(cdot(a, b))
}

/// [`cdot`] forced onto a specific tier (falls back to scalar when the
/// tier is unsupported) — the parity-test entry point.
pub fn cdot_with(tier: Tier, a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len(), "cdot length mismatch");
    dispatch_with!(tier, cdot(a, b))
}

/// Conjugated complex dot `Σ_j conj(a_j) · b_j` in the fixed two-lane
/// order — the MMSE filter-row apply (`w* y`) and [`crate::vec_dot`].
///
/// # Panics
/// Panics when lengths differ.
pub fn cdotc(a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len(), "cdotc length mismatch");
    dispatch!(cdotc(a, b))
}

/// [`cdotc`] forced onto a specific tier.
pub fn cdotc_with(tier: Tier, a: &[Complex], b: &[Complex]) -> Complex {
    assert_eq!(a.len(), b.len(), "cdotc length mismatch");
    dispatch_with!(tier, cdotc(a, b))
}

/// Split-layout (SoA) complex dot `Σ_j (ar_j + i·ai_j) · (br_j + i·bi_j)`
/// in the fixed four-lane order — the sphere engine's interference
/// accumulation over the workspace's split re/im slabs, where lanes load
/// contiguously.
///
/// # Panics
/// Panics when the four slices' lengths differ.
pub fn cdot_soa(ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) -> Complex {
    assert!(
        ar.len() == ai.len() && ar.len() == br.len() && ar.len() == bi.len(),
        "cdot_soa length mismatch"
    );
    dispatch!(cdot_soa(ar, ai, br, bi))
}

/// [`cdot_soa`] forced onto a specific tier.
pub fn cdot_soa_with(tier: Tier, ar: &[f64], ai: &[f64], br: &[f64], bi: &[f64]) -> Complex {
    assert!(
        ar.len() == ai.len() && ar.len() == br.len() && ar.len() == bi.len(),
        "cdot_soa length mismatch"
    );
    dispatch_with!(tier, cdot_soa(ar, ai, br, bi))
}

/// Multi-symbol [`cdot_soa`]: one shared `a` vector (length `m`) dotted
/// against `k` symbol columns stored interleaved (`b[j·k + s]` is symbol
/// `s`'s element `j`) — the sphere engine's lockstep interference
/// accumulation when sibling symbols share one channel's `R`. Output `s`
/// is bit-identical to `cdot_soa(a, column_s)` on every backend: the
/// scalar path replicates the per-symbol spec verbatim and the AVX2 path
/// vectorizes across the symbol dimension (elementwise there, so the
/// per-symbol op order is unchanged). NEON currently takes the scalar
/// path — the across-symbol layout needs ≥4 lanes to pay for itself.
///
/// # Panics
/// Panics when `a` slices differ in length, `b` slices are shorter than
/// `m·k`, or the outputs are shorter than `k`.
pub fn cdot_soa_multi(
    ar: &[f64],
    ai: &[f64],
    br: &[f64],
    bi: &[f64],
    k: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    assert_cdot_soa_multi(ar, ai, br, bi, k, out_re, out_im);
    match active_tier() {
        #[cfg(target_arch = "x86_64")]
        // Safety: `active_tier()` only returns `Avx2` when runtime
        // detection confirmed AVX2 support.
        #[allow(unsafe_code)]
        Tier::Avx2 => unsafe { avx2::cdot_soa_multi(ar, ai, br, bi, k, out_re, out_im) },
        _ => scalar::cdot_soa_multi(ar, ai, br, bi, k, out_re, out_im),
    }
}

/// [`cdot_soa_multi`] forced onto a specific tier (unsupported tiers fall
/// back to scalar) — the parity-test entry point.
// Tier selector plus the kernel's slab ABI; same shape as the kernel.
#[allow(clippy::too_many_arguments)]
pub fn cdot_soa_multi_with(
    tier: Tier,
    ar: &[f64],
    ai: &[f64],
    br: &[f64],
    bi: &[f64],
    k: usize,
    out_re: &mut [f64],
    out_im: &mut [f64],
) {
    assert_cdot_soa_multi(ar, ai, br, bi, k, out_re, out_im);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // Safety: guarded by `tier_supported`.
        #[allow(unsafe_code)]
        Tier::Avx2 if tier_supported(Tier::Avx2) => unsafe {
            avx2::cdot_soa_multi(ar, ai, br, bi, k, out_re, out_im)
        },
        _ => scalar::cdot_soa_multi(ar, ai, br, bi, k, out_re, out_im),
    }
}

fn assert_cdot_soa_multi(
    ar: &[f64],
    ai: &[f64],
    br: &[f64],
    bi: &[f64],
    k: usize,
    out_re: &[f64],
    out_im: &[f64],
) {
    assert_eq!(ar.len(), ai.len(), "cdot_soa_multi a-length mismatch");
    assert!(
        br.len() >= ar.len() * k && bi.len() >= ar.len() * k,
        "cdot_soa_multi b slabs too short"
    );
    assert!(out_re.len() >= k && out_im.len() >= k, "cdot_soa_multi outputs too short");
}

/// Elementwise conjugated axpy `out_j += conj(a_j) · y` — one row step of
/// the Q*-rotation ([`crate::Qr::rotate_into`]). Elementwise, so every
/// backend is trivially bit-identical.
///
/// # Panics
/// Panics when lengths differ.
pub fn caxpy_conj(a: &[Complex], y: Complex, out: &mut [Complex]) {
    assert_eq!(a.len(), out.len(), "caxpy_conj length mismatch");
    dispatch!(caxpy_conj(a, y, out))
}

/// [`caxpy_conj`] forced onto a specific tier.
pub fn caxpy_conj_with(tier: Tier, a: &[Complex], y: Complex, out: &mut [Complex]) {
    assert_eq!(a.len(), out.len(), "caxpy_conj length mismatch");
    dispatch_with!(tier, caxpy_conj(a, y, out))
}

/// Batched PED evaluation over split-layout points: `out_j = gain · ((re_j
/// − center.re)² + (im_j − center.im)²)` — the row-head batch of the
/// ETH-SD enumerator. Elementwise ([`ped_point`] per lane), so every
/// backend is trivially bit-identical.
///
/// # Panics
/// Panics when slice lengths differ.
pub fn ped_soa(re: &[f64], im: &[f64], center: Complex, gain: f64, out: &mut [f64]) {
    assert!(re.len() == im.len() && re.len() == out.len(), "ped_soa length mismatch");
    let _prof = gs_prof::scope(gs_prof::Stage::PedKernel);
    _prof.add_bytes((re.len() * 3 * std::mem::size_of::<f64>()) as u64);
    dispatch!(ped_soa(re, im, center, gain, out))
}

/// [`ped_soa`] forced onto a specific tier.
pub fn ped_soa_with(
    tier: Tier,
    re: &[f64],
    im: &[f64],
    center: Complex,
    gain: f64,
    out: &mut [f64],
) {
    assert!(re.len() == im.len() && re.len() == out.len(), "ped_soa length mismatch");
    dispatch_with!(tier, ped_soa(re, im, center, gain, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    fn sample_vecs(n: usize) -> (Vec<Complex>, Vec<Complex>) {
        // Deterministic, awkward values (different magnitudes force real
        // rounding differences under reassociation).
        let a: Vec<Complex> = (0..n)
            .map(|j| {
                c(((j * 7 + 1) as f64).sin() * 1e3f64.powi((j % 5) as i32 - 2), (j as f64).cos())
            })
            .collect();
        let b: Vec<Complex> =
            (0..n).map(|j| c((j as f64 * 0.37).cos(), ((j * 3) as f64).sin() * 0.5)).collect();
        (a, b)
    }

    #[test]
    fn active_and_forced_tiers_agree_bitwise() {
        for n in 0..17 {
            let (a, b) = sample_vecs(n);
            let want = cdot_with(Tier::Scalar, &a, &b);
            let got = cdot(&a, &b);
            assert_eq!(got.re.to_bits(), want.re.to_bits(), "n={n}");
            assert_eq!(got.im.to_bits(), want.im.to_bits(), "n={n}");
            let wantc = cdotc_with(Tier::Scalar, &a, &b);
            let gotc = cdotc(&a, &b);
            assert_eq!(gotc.re.to_bits(), wantc.re.to_bits(), "n={n}");
            assert_eq!(gotc.im.to_bits(), wantc.im.to_bits(), "n={n}");
        }
    }

    #[test]
    fn cdot_matches_naive_sum_closely() {
        let (a, b) = sample_vecs(9);
        let naive: Complex = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
        let got = cdot(&a, &b);
        assert!((got - naive).abs() <= 1e-9 * naive.abs().max(1.0));
    }

    #[test]
    fn forced_unsupported_tier_falls_back_to_scalar() {
        // On x86_64, Neon is never supported (and vice versa); the _with
        // entry points must fall back rather than crash.
        let (a, b) = sample_vecs(6);
        let scalar = cdot_with(Tier::Scalar, &a, &b);
        #[cfg(target_arch = "x86_64")]
        let other = cdot_with(Tier::Neon, &a, &b);
        #[cfg(not(target_arch = "x86_64"))]
        let other = cdot_with(Tier::Avx2, &a, &b);
        assert_eq!(scalar.re.to_bits(), other.re.to_bits());
        assert_eq!(scalar.im.to_bits(), other.im.to_bits());
    }

    #[test]
    fn gs_simd_grammar_recognizes_every_documented_value() {
        for v in ["", "on", "auto", "native", "1", "off", "scalar", "0", "avx2", "avx512", "neon"] {
            assert!(parse_tier_value(v).is_some(), "documented value {v:?} must parse");
        }
        assert_eq!(parse_tier_value("off"), Some(Tier::Scalar));
        // avx512 is recognized but unimplemented: it must resolve to a
        // supported tier (never warn, never crash) — AVX2 on machines
        // that have it, scalar elsewhere.
        let resolved = parse_tier_value("avx512").unwrap();
        assert!(tier_supported(resolved), "avx512 must fall back to a supported tier");
        assert_ne!(resolved, Tier::Neon);
        for v in ["of", "AVX2", "avx-512", "2", "best"] {
            assert_eq!(parse_tier_value(v), None, "{v:?} must be rejected (warn + scalar)");
        }
    }

    #[test]
    fn force_tier_roundtrip() {
        let before = active_tier();
        assert!(force_tier(Tier::Scalar));
        assert_eq!(active_tier(), Tier::Scalar);
        reset_tier();
        let _ = active_tier(); // re-resolves without panicking
        assert!(force_tier(before));
    }
}

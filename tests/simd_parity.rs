//! Scalar-vs-SIMD bit-identity of the `gs_linalg::simd` kernels.
//!
//! The SIMD layer's contract is that every backend produces **bit
//! identical** results (fixed lane-then-tree reduction order, identical
//! per-element product expressions, no FMA contraction) — which is what
//! keeps the oracle/determinism suites meaningful as cross-path ground
//! truth. These tests prove the contract two ways:
//!
//! * kernel-level: proptest over random shapes/values comparing the scalar
//!   tier against the best tier this CPU offers (on machines without
//!   AVX2/NEON both sides resolve to scalar and the tests trivially hold —
//!   the CI scalar/SIMD matrix supplies the vectorized leg);
//! * frame-level: a full `decode_frame_batched_into` uplink frame decoded
//!   with the tier forced to scalar and then to the native tier, at 1 and
//!   4 workers, must agree exactly — CRC verdicts, operation counts, and
//!   per-detection symbol streams.

use gs_linalg::simd::{
    self, caxpy_conj_with, cdot_soa_multi_with, cdot_soa_with, cdot_with, cdotc_with, ped_soa_with,
    Tier,
};
use gs_linalg::{Complex, Matrix};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that read or mutate the process-global dispatch
/// override (`force_tier`); the `_with` kernel tests are tier-independent
/// and run freely.
static TIER_LOCK: Mutex<()> = Mutex::new(());

fn tier_guard() -> std::sync::MutexGuard<'static, ()> {
    TIER_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The non-scalar tier this host can run, if any.
fn native_tier() -> Option<Tier> {
    [Tier::Avx2, Tier::Neon].into_iter().find(|&t| simd::tier_supported(t))
}

fn cvec(max_len: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(
        (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex::new(re, im)),
        0..max_len,
    )
}

fn fvec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e3f64..1e3, 0..max_len)
}

fn assert_bits_eq(a: Complex, b: Complex, what: &str) {
    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{what}: re");
    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{what}: im");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cdot_bit_identical(a in cvec(33), b in cvec(33)) {
        let Some(native) = native_tier() else { return };
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        assert_bits_eq(cdot_with(Tier::Scalar, a, b), cdot_with(native, a, b), "cdot");
        assert_bits_eq(cdotc_with(Tier::Scalar, a, b), cdotc_with(native, a, b), "cdotc");
    }

    #[test]
    fn cdot_soa_bit_identical(ar in fvec(41), ai in fvec(41), br in fvec(41), bi in fvec(41)) {
        let Some(native) = native_tier() else { return };
        let n = ar.len().min(ai.len()).min(br.len()).min(bi.len());
        assert_bits_eq(
            cdot_soa_with(Tier::Scalar, &ar[..n], &ai[..n], &br[..n], &bi[..n]),
            cdot_soa_with(native, &ar[..n], &ai[..n], &br[..n], &bi[..n]),
            "cdot_soa",
        );
    }

    #[test]
    fn cdot_soa_multi_bit_identical(
        ar in fvec(17), ai in fvec(17),
        slab in fvec(17 * 19 * 2),
        k in 1usize..19,
    ) {
        // Two contracts at once: every tier agrees bitwise, and output `s`
        // equals a per-symbol `cdot_soa` on a contiguous copy of symbol
        // `s`'s column — which is what lets the sphere engine's lockstep
        // descent swap one for the other without perturbing a single bit.
        let m = ar.len().min(ai.len()).min(slab.len() / (2 * k.max(1)));
        let (ar, ai) = (&ar[..m], &ai[..m]);
        let (br, bi) = (&slab[..m * k], &slab[m * k..2 * m * k]);
        let mut out_re_s = vec![0.0; k];
        let mut out_im_s = vec![0.0; k];
        cdot_soa_multi_with(Tier::Scalar, ar, ai, br, bi, k, &mut out_re_s, &mut out_im_s);
        if let Some(native) = native_tier() {
            let mut out_re_v = vec![0.0; k];
            let mut out_im_v = vec![0.0; k];
            cdot_soa_multi_with(native, ar, ai, br, bi, k, &mut out_re_v, &mut out_im_v);
            for s in 0..k {
                assert_eq!(out_re_s[s].to_bits(), out_re_v[s].to_bits(), "multi re sym {s}");
                assert_eq!(out_im_s[s].to_bits(), out_im_v[s].to_bits(), "multi im sym {s}");
            }
        }
        for s in 0..k {
            let col_r: Vec<f64> = (0..m).map(|j| br[j * k + s]).collect();
            let col_i: Vec<f64> = (0..m).map(|j| bi[j * k + s]).collect();
            let single = cdot_soa_with(Tier::Scalar, ar, ai, &col_r, &col_i);
            assert_eq!(out_re_s[s].to_bits(), single.re.to_bits(), "vs cdot_soa re sym {s}");
            assert_eq!(out_im_s[s].to_bits(), single.im.to_bits(), "vs cdot_soa im sym {s}");
        }
    }

    #[test]
    fn caxpy_bit_identical(a in cvec(29), base in cvec(29), y in (-9.0f64..9.0, -9.0f64..9.0)) {
        let Some(native) = native_tier() else { return };
        let n = a.len().min(base.len());
        let y = Complex::new(y.0, y.1);
        let mut out_s = base[..n].to_vec();
        let mut out_v = base[..n].to_vec();
        caxpy_conj_with(Tier::Scalar, &a[..n], y, &mut out_s);
        caxpy_conj_with(native, &a[..n], y, &mut out_v);
        for (s, v) in out_s.iter().zip(&out_v) {
            assert_bits_eq(*s, *v, "caxpy_conj");
        }
    }

    #[test]
    fn ped_bit_identical(
        re in fvec(29),
        im in fvec(29),
        center in (-9.0f64..9.0, -9.0f64..9.0),
        gain in 0.0f64..10.0,
    ) {
        let Some(native) = native_tier() else { return };
        let n = re.len().min(im.len());
        let center = Complex::new(center.0, center.1);
        let mut ped_s = vec![0.0; n];
        let mut ped_v = vec![0.0; n];
        ped_soa_with(Tier::Scalar, &re[..n], &im[..n], center, gain, &mut ped_s);
        ped_soa_with(native, &re[..n], &im[..n], center, gain, &mut ped_v);
        for (s, v) in ped_s.iter().zip(&ped_v) {
            assert_eq!(s.to_bits(), v.to_bits(), "ped_soa");
        }
    }

    #[test]
    fn mul_vec_and_into_share_one_kernel(data in proptest::collection::vec(
        (-1e3f64..1e3, -1e3f64..1e3).prop_map(|(re, im)| Complex::new(re, im)),
        8..64,
    )) {
        // mul_vec and mul_vec_into promise bit-identity through the shared
        // cdot kernel, whatever tier is active. Holding the tier lock keeps
        // a concurrent tier-forcing test from switching between the calls.
        let cols = data.len() % 4 + 1; // 1..=4, so rows ≥ 1 for len ≥ 8
        let x = data[..cols].to_vec();
        let rest = &data[cols..];
        let rows = rest.len() / cols;
        let m = Matrix::from_rows(rows, cols, &rest[..rows * cols]);
        let _g = tier_guard();
        let a = m.mul_vec(&x);
        let mut b = Vec::new();
        m.mul_vec_into(&x, &mut b);
        for (p, q) in a.iter().zip(&b) {
            assert_bits_eq(*p, *q, "mul_vec vs mul_vec_into");
        }
    }
}

/// Frame-level cross-tier parity: the full batched uplink decode must be
/// bit-identical with the tier forced to scalar (`GS_SIMD=off`'s effect)
/// and to the native tier, at 1 and 4 workers — CRC verdicts and operation
/// counts both. Runs the whole toggle under the tier lock so the global
/// dispatch override cannot race other tests in this binary.
#[test]
fn frame_decode_bit_identical_across_tiers_and_workers() {
    use geosphere_core::geosphere_decoder;
    use gs_channel::{ChannelModel, SelectiveRayleighChannel};
    use gs_modulation::Constellation;
    use gs_phy::{decode_frame_batched_into, FrameWorkspace, PhyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let Some(native) = native_tier() else {
        eprintln!("no SIMD tier on this host; scalar-vs-scalar parity is vacuous here");
        return;
    };
    let _g = tier_guard();

    let cfg = PhyConfig { payload_bits: 1024, ..PhyConfig::new(Constellation::Qam16) };
    let model = SelectiveRayleighChannel {
        n_fft: 64,
        n_subcarriers: cfg.n_subcarriers,
        ..SelectiveRayleighChannel::indoor(4, 4)
    };
    let ch = model.realize(&mut StdRng::seed_from_u64(2014));
    let det = geosphere_decoder();

    let mut outcomes = Vec::new();
    for tier in [Tier::Scalar, native] {
        assert!(simd::force_tier(tier), "{tier:?} must be available");
        // Fresh workspace per tier: its pool workers must run the tier
        // under test from their first frame.
        let mut ws = FrameWorkspace::new();
        for workers in [1usize, 4] {
            let mut rng = StdRng::seed_from_u64(77);
            let out = decode_frame_batched_into(&cfg, &ch, &det, 24.0, &mut rng, workers, &mut ws);
            outcomes.push((tier, workers, out.client_ok.clone(), out.stats, out.detections));
        }
    }
    simd::reset_tier();

    let half = outcomes.len() / 2;
    for k in 0..half {
        let (ta, wa, ok_a, stats_a, det_a) = &outcomes[k];
        let (tb, wb, ok_b, stats_b, det_b) = &outcomes[k + half];
        assert_eq!(wa, wb);
        assert_eq!(ok_a, ok_b, "{ta:?} vs {tb:?} at {wa} workers: CRC verdicts differ");
        assert_eq!(stats_a, stats_b, "{ta:?} vs {tb:?} at {wa} workers: op counts differ");
        assert_eq!(det_a, det_b, "{ta:?} vs {tb:?} at {wa} workers: detection counts differ");
    }
}

/// Symbol-stream parity: per-detection outputs (not just frame verdicts)
/// must match across tiers, for sphere and filter-based detectors alike.
#[test]
fn detect_symbols_bit_identical_across_tiers() {
    use geosphere_core::{
        ethsd_decoder, geosphere_decoder, MimoDetector, MmseSicDetector, ZfDetector,
    };
    use gs_channel::{sample_cn, RayleighChannel};
    use gs_modulation::Constellation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let Some(native) = native_tier() else { return };
    let _g = tier_guard();

    let c = Constellation::Qam64;
    let mut rng = StdRng::seed_from_u64(4711);
    let detectors: Vec<Box<dyn MimoDetector>> = vec![
        Box::new(geosphere_decoder()),
        Box::new(geosphere_decoder().with_sorted_qr()),
        Box::new(ethsd_decoder()),
        Box::new(ZfDetector),
        Box::new(MmseSicDetector::new(0.05)),
    ];
    for trial in 0..10 {
        let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
        let pts = c.points();
        let s: Vec<_> = (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
        let mut y = geosphere_core::apply_channel(&h, &s);
        for v in y.iter_mut() {
            *v += sample_cn(&mut rng, 0.05);
        }
        for det in &detectors {
            assert!(simd::force_tier(Tier::Scalar));
            let scalar = det.detect(&h, &y, c);
            assert!(simd::force_tier(native));
            let vector = det.detect(&h, &y, c);
            assert_eq!(
                scalar.symbols,
                vector.symbols,
                "{} trial {trial}: symbols diverge across tiers",
                det.name()
            );
            assert_eq!(scalar.stats, vector.stats, "{} trial {trial}", det.name());
        }
    }
    simd::reset_tier();
}

/// Viterbi parity: the lockstep multi-stream decoder — the 16-bit AVX2
/// kernel for four streams on the AVX2 tier, the `u32` scalar loop
/// otherwise — equals `decode_with_erasures_into` run per stream, under
/// the scalar tier and the native tier alike. Streams come from all three
/// code rates with bit flips and extra erasures; some carry all-erased
/// stretches (every branch cost 0, so every comparison ties) or are
/// erased outright, and a final four-stream case runs long enough for at
/// least two metric renormalisations.
#[test]
fn viterbi_lockstep_bit_identical_across_tiers() {
    use gs_coding::viterbi::{
        decode_multi_with_erasures_into, decode_with_erasures_into, CodedBit, ViterbiWorkspace,
        RENORM_INTERVAL,
    };
    use gs_coding::{conv, depuncture_into, puncture_into, CodeRate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One received mother stream of `info_len` information bits: encode,
    /// puncture, flip, depuncture, erase — plus an all-erased stretch
    /// when `stretch` is set.
    fn stream(rng: &mut StdRng, info_len: usize, rate: CodeRate, stretch: bool) -> Vec<CodedBit> {
        let info: Vec<bool> = (0..info_len).map(|_| rng.gen_bool(0.5)).collect();
        let mother = conv::encode(&info);
        let mut sent = Vec::new();
        puncture_into(&mother, rate, &mut sent);
        for b in sent.iter_mut() {
            *b ^= rng.gen_bool(0.06);
        }
        let mut rx = Vec::new();
        depuncture_into(&sent, rate, mother.len(), &mut rx);
        for cb in rx.iter_mut() {
            if rng.gen_bool(0.04) {
                *cb = CodedBit::Erased;
            }
        }
        if stretch {
            let start = rng.gen_range(0..rx.len() / 2);
            let end = (start + rng.gen_range(20usize..90)).min(rx.len());
            rx[start..end].fill(CodedBit::Erased);
        }
        rx
    }

    let _g = tier_guard();
    let tiers: Vec<Tier> = std::iter::once(Tier::Scalar).chain(native_tier()).collect();
    let mut rng = StdRng::seed_from_u64(1314);
    let mut cases: Vec<Vec<Vec<CodedBit>>> = Vec::new();
    for n in [1usize, 2, 3, 4, 8] {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let info_len = rng.gen_range(24usize..300);
            cases.push((0..n).map(|s| stream(&mut rng, info_len, rate, s % 2 == 1)).collect());
        }
        // Tie storms: stream 0 fully erased, the rest with long stretches.
        let mut tied: Vec<Vec<CodedBit>> =
            (0..n).map(|_| stream(&mut rng, 120, CodeRate::Half, true)).collect();
        tied[0].fill(CodedBit::Erased);
        cases.push(tied);
    }
    let long = 2 * RENORM_INTERVAL + 150;
    cases.push((0..4).map(|s| stream(&mut rng, long, CodeRate::Half, s == 2)).collect());

    let mut ws = ViterbiWorkspace::new();
    let (mut single, mut multi) = (Vec::new(), Vec::new());
    for (c, streams) in cases.iter().enumerate() {
        let n = streams.len();
        let mut want = Vec::new();
        for s in streams {
            decode_with_erasures_into(s, &mut ws, &mut single);
            want.extend_from_slice(&single);
        }
        let flat = streams.concat();
        for &tier in &tiers {
            assert!(simd::force_tier(tier), "{tier:?} must be available");
            decode_multi_with_erasures_into(&flat, n, &mut ws, &mut multi);
            assert_eq!(multi, want, "case {c} ({n} streams) under {tier:?}");
        }
    }
    simd::reset_tier();
}

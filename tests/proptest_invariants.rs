//! Property-based tests (proptest) on the core invariants of every layer.

use geosphere::coding::{conv, viterbi, Interleaver, Scrambler};
use geosphere::core::geoprune::{axis_offset, distance_lower_bound};
use geosphere::core::sphere::{EnumeratorFactory, GeosphereFactory, HessFactory, NodeEnumerator};
use geosphere::core::DetectorStats;
use geosphere::linalg::{qr_decompose, singular_values, Complex, Matrix};
use geosphere::modulation::{map_bits, unmap_point, AxisZigzag, Constellation};
use proptest::prelude::*;

fn constellation_strategy() -> impl Strategy<Value = Constellation> {
    prop_oneof![
        Just(Constellation::Qpsk),
        Just(Constellation::Qam16),
        Just(Constellation::Qam64),
        Just(Constellation::Qam256),
    ]
}

fn complex_strategy(range: f64) -> impl Strategy<Value = Complex> {
    (-range..range, -range..range).prop_map(|(re, im)| Complex::new(re, im))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- modulation ---

    #[test]
    fn slice_is_argmin(c in constellation_strategy(), y in complex_strategy(20.0)) {
        let sliced = c.slice(y);
        for p in c.points() {
            prop_assert!(sliced.dist_sqr(y) <= p.dist_sqr(y) + 1e-9);
        }
    }

    #[test]
    fn gray_mapping_roundtrips(c in constellation_strategy(), sym in 0usize..256) {
        let sym = sym % c.size();
        let bits: Vec<bool> = (0..c.bits_per_symbol()).rev().map(|k| (sym >> k) & 1 == 1).collect();
        prop_assert_eq!(unmap_point(c, map_bits(c, &bits)), bits);
    }

    #[test]
    fn axis_zigzag_sorted_and_complete(c in constellation_strategy(), t in -20.0f64..20.0) {
        let order: Vec<i32> = AxisZigzag::new(c, t).collect();
        prop_assert_eq!(order.len(), c.side());
        for w in order.windows(2) {
            prop_assert!((w[0] as f64 - t).abs() <= (w[1] as f64 - t).abs() + 1e-12);
        }
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, c.axis_levels());
    }

    // --- enumerators: the heart of the paper ---

    #[test]
    fn zigzag_enumeration_matches_bruteforce_sort(
        c in constellation_strategy(),
        center in complex_strategy(18.0),
        gain in 0.01f64..10.0,
    ) {
        let mut stats = DetectorStats::default();
        let mut e = GeosphereFactory::zigzag_only().make(c, center, gain, &mut stats);
        let mut got = Vec::new();
        while let Some(ch) = e.next_child(f64::INFINITY, &mut stats) {
            got.push(ch.cost);
        }
        let mut expect: Vec<f64> =
            c.points().iter().map(|p| gain * p.dist_sqr(center)).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(got.len(), expect.len());
        for (g, x) in got.iter().zip(&expect) {
            prop_assert!((g - x).abs() < 1e-9, "got {} expected {}", g, x);
        }
    }

    #[test]
    fn hess_enumeration_matches_bruteforce_sort(
        c in constellation_strategy(),
        center in complex_strategy(18.0),
    ) {
        let mut stats = DetectorStats::default();
        let mut e = HessFactory.make(c, center, 1.0, &mut stats);
        let mut got = Vec::new();
        while let Some(ch) = e.next_child(f64::INFINITY, &mut stats) {
            got.push(ch.cost);
        }
        let mut expect: Vec<f64> = c.points().iter().map(|p| p.dist_sqr(center)).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (g, x) in got.iter().zip(&expect) {
            prop_assert!((g - x).abs() < 1e-9);
        }
    }

    #[test]
    fn geometric_bound_never_exceeds_exact(
        c in constellation_strategy(),
        y in complex_strategy(18.0),
    ) {
        let slice = c.slice(y);
        for p in c.points() {
            let bound = distance_lower_bound(
                axis_offset(p.i, slice.i),
                axis_offset(p.q, slice.q),
            );
            prop_assert!(bound <= p.dist_sqr(y) + 1e-9);
        }
    }

    // --- linear algebra ---

    #[test]
    fn qr_reconstructs_and_q_unitary(
        entries in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 16),
    ) {
        let data: Vec<Complex> = entries.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let h = Matrix::from_rows(4, 4, &data);
        let qr = qr_decompose(&h);
        prop_assert!(qr.reconstruct().max_abs_diff(&h) < 1e-9);
        prop_assert!(qr.q.gram().max_abs_diff(&Matrix::identity(4)) < 1e-9);
        for i in 0..4 {
            prop_assert!(qr.r[(i, i)].im.abs() < 1e-10);
            prop_assert!(qr.r[(i, i)].re >= -1e-12);
        }
    }

    #[test]
    fn singular_values_match_frobenius(
        entries in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 12),
    ) {
        let data: Vec<Complex> = entries.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let h = Matrix::from_rows(4, 3, &data);
        let sv = singular_values(&h);
        prop_assert_eq!(sv.len(), 3);
        let energy: f64 = sv.iter().map(|s| s * s).sum();
        prop_assert!((energy - h.frobenius_norm_sqr()).abs() < 1e-6 * energy.max(1.0));
        for w in sv.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn fft_ifft_roundtrips(
        entries in proptest::collection::vec((-4.0f64..4.0, -4.0f64..4.0), 16),
    ) {
        let orig: Vec<Complex> = entries.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let mut data = orig.clone();
        geosphere::linalg::fft(&mut data);
        geosphere::linalg::ifft(&mut data);
        for (a, b) in data.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
        // Parseval: the FFT preserves energy up to the 1/N convention.
        let mut freq = orig.clone();
        geosphere::linalg::fft(&mut freq);
        let time_energy: f64 = orig.iter().map(|z| z.norm_sqr()).sum();
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sqr()).sum::<f64>() / 16.0;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    }

    #[test]
    fn cholesky_reconstructs_gram_matrix(
        entries in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 16),
    ) {
        // H*·H + εI is Hermitian positive definite for any H, the shape the
        // MMSE front-ends feed to the Cholesky solver.
        let data: Vec<Complex> = entries.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let h = Matrix::from_rows(4, 4, &data);
        let mut a = h.gram();
        for i in 0..4 {
            a[(i, i)] += Complex::new(1e-3, 0.0);
        }
        let chol = geosphere::linalg::cholesky(&a).expect("PD by construction");
        prop_assert!(chol.reconstruct().max_abs_diff(&a) < 1e-9);
        prop_assert!(chol.det() > 0.0);
    }

    // --- batched decoding engine ---

    #[test]
    fn batched_detection_matches_serial(
        entries in proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 4),
        noise in proptest::collection::vec((-0.2f64..0.2, -0.2f64..0.2), 8),
        workers in 1usize..6,
    ) {
        use geosphere::core::{BatchDetector, DetectionBatch, DetectionJob, MimoDetector};

        let c = Constellation::Qam16;
        let data: Vec<Complex> = entries.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let mut h = Matrix::from_rows(2, 2, &data).scale(c.scale());
        // Keep the channel comfortably invertible so the search terminates
        // fast; degenerate matrices are covered by the seeded suites.
        h[(0, 0)] += Complex::new(1.0, 0.0);
        h[(1, 1)] += Complex::new(1.0, 0.0);
        let channels = vec![h];
        let pts = c.points();
        let jobs: Vec<DetectionJob> = noise
            .chunks(2)
            .enumerate()
            .map(|(j, w)| {
                let s = [pts[j % pts.len()], pts[(j * 7 + 3) % pts.len()]];
                let mut y = geosphere::core::apply_channel(&channels[0], &s);
                for (v, &(re, im)) in y.iter_mut().zip(w) {
                    *v += Complex::new(re, im);
                }
                DetectionJob { channel: 0, y }
            })
            .collect();
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let det = geosphere::core::geosphere_decoder();
        let serial = batch.detect_serial(&det);
        let amortized = det.detect_batch(&batch);
        let parallel = BatchDetector::new(&det, workers).detect_batch(&batch);
        for ((s, a), p) in serial.iter().zip(&amortized).zip(&parallel) {
            prop_assert_eq!(&s.symbols, &a.symbols);
            prop_assert_eq!(&s.symbols, &p.symbols);
            prop_assert_eq!(s.stats, a.stats);
            prop_assert_eq!(s.stats, p.stats);
        }
    }

    // --- coding ---

    #[test]
    fn conv_viterbi_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        prop_assert_eq!(viterbi::decode(&conv::encode(&bits)), bits);
    }

    #[test]
    fn viterbi_corrects_one_flip(
        bits in proptest::collection::vec(any::<bool>(), 20..100),
        pos_frac in 0.0f64..1.0,
    ) {
        let mut coded = conv::encode(&bits);
        let pos = ((coded.len() - 1) as f64 * pos_frac) as usize;
        coded[pos] = !coded[pos];
        prop_assert_eq!(viterbi::decode(&coded), bits);
    }

    #[test]
    fn scrambler_involution(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let once = Scrambler::default_seed().apply(&bits);
        let twice = Scrambler::default_seed().apply(&once);
        prop_assert_eq!(twice, bits);
    }

    #[test]
    fn interleaver_roundtrip(
        c in constellation_strategy(),
        seed_bits in proptest::collection::vec(any::<bool>(), 0..10),
    ) {
        let n_cbps = 48 * c.bits_per_symbol();
        let bits: Vec<bool> =
            (0..n_cbps).map(|k| seed_bits.get(k % seed_bits.len().max(1)).copied().unwrap_or(false)).collect();
        let il = Interleaver::new(n_cbps, c.bits_per_symbol());
        prop_assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    fn crc_detects_any_single_flip(
        bits in proptest::collection::vec(any::<bool>(), 1..120),
        pos_frac in 0.0f64..1.0,
    ) {
        let framed = geosphere::coding::append_crc(&bits);
        let mut corrupted = framed.clone();
        let pos = ((corrupted.len() - 1) as f64 * pos_frac) as usize;
        corrupted[pos] = !corrupted[pos];
        prop_assert_eq!(geosphere::coding::check_crc(&framed), Some(bits));
        prop_assert_eq!(geosphere::coding::check_crc(&corrupted), None);
    }

    // --- channel metrics ---

    #[test]
    fn lambda_at_least_unity(
        entries in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 8),
    ) {
        let data: Vec<Complex> = entries.iter().map(|&(re, im)| Complex::new(re, im)).collect();
        let h = Matrix::from_rows(4, 2, &data);
        for l in geosphere::channel::zf_snr_degradation(&h) {
            prop_assert!(l >= 1.0 - 1e-9);
        }
        prop_assert!(geosphere::channel::lambda_max(&h) >= 1.0 - 1e-9);
    }

    // --- telemetry histograms ---

    #[test]
    fn histogram_merge_preserves_totals(
        // Values span every histogram octave a latency can reach (up to
        // ~5 hours in nanoseconds) while keeping the running sums far
        // from u64 overflow — the documented domain of the recorder.
        a in proptest::collection::vec(0u64..1 << 44, 0..200),
        b in proptest::collection::vec(0u64..1 << 44, 0..200),
    ) {
        use geosphere::prof::hist::{HistogramSnapshot, LogHistogram};
        let (ha, hb) = (LogHistogram::new(), LogHistogram::new());
        for &v in &a { ha.record(v); }
        for &v in &b { hb.record(v); }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());

        // Merge is exact on counts, sums, and max — exactly what one
        // histogram fed both value streams would have reported.
        let mut merged = sa.clone();
        merged.merge(&sb);
        prop_assert_eq!(merged.count(), a.len() as u64 + b.len() as u64);
        let sum = |vs: &[u64]| vs.iter().sum::<u64>();
        prop_assert_eq!(merged.sum(), sum(&a) + sum(&b));
        prop_assert_eq!(merged.max(), a.iter().chain(&b).copied().max().unwrap_or(0));

        // Merging in the other order gives the identical snapshot, and
        // the empty snapshot is the identity.
        let mut flipped = sb.clone();
        flipped.merge(&sa);
        prop_assert_eq!(&flipped, &merged);
        let mut ident = HistogramSnapshot::empty();
        ident.merge(&merged);
        prop_assert_eq!(&ident, &merged);

        // Quantiles of the merge are bracketed by the per-side extremes
        // and never exceed the exact max.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let m = merged.quantile(q);
            prop_assert!(m <= merged.max());
            if !a.is_empty() && !b.is_empty() {
                prop_assert!(m >= sa.quantile(q).min(sb.quantile(q)));
            }
        }
    }
}

// --- coding-chain conformance: table-driven paths vs closed forms ---

/// Every `(n_subcarriers ≤ 128, constellation, code_rate)` the frame chain
/// supports: whole 16-row interleaver columns per OFDM symbol that the
/// 802.11 rotation groups (`max(Q/2, 1)` rows) tile exactly, and a whole
/// number of data bits per OFDM symbol at the code rate.
fn accepted_phy_configs() -> Vec<geosphere::phy::PhyConfig> {
    use geosphere::coding::CodeRate;
    use geosphere::phy::PhyConfig;
    let mut cfgs = Vec::new();
    for c in Constellation::ALL {
        let q = c.bits_per_symbol();
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for n_subcarriers in 1..=128 {
                let n_cbps = n_subcarriers * q;
                if n_cbps % 16 == 0
                    && (n_cbps / 16) % (q / 2).max(1) == 0
                    && (n_cbps * rate.numerator()) % rate.denominator() == 0
                {
                    cfgs.push(PhyConfig {
                        code_rate: rate,
                        n_subcarriers,
                        payload_bits: 96,
                        ..PhyConfig::new(c)
                    });
                }
            }
        }
    }
    cfgs
}

/// The permutation tables behind every interleaver stream method equal the
/// closed-form `map_index` scatter/gather, over hard bits and `f64` values,
/// on multi-symbol streams of every accepted frame shape.
#[test]
fn interleaver_tables_match_closed_form() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x1e7e);
    for cfg in accepted_phy_configs() {
        let n = cfg.n_cbps();
        let il = Interleaver::new(n, cfg.constellation.bits_per_symbol());
        let len = 3 * n;
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
        let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(-8.0..8.0)).collect();

        // Reference: transmitted[t·n + map_index(k)] = logical[t·n + k].
        let mut want_bits = vec![false; len];
        let mut want_vals = vec![0.0; len];
        for t in 0..3 {
            for k in 0..n {
                want_bits[t * n + il.map_index(k)] = bits[t * n + k];
                want_vals[t * n + il.map_index(k)] = vals[t * n + k];
            }
        }
        let what = format!("{:?} n_sc {}", cfg.constellation, cfg.n_subcarriers);
        let mut out_bits = Vec::new();
        let mut out_vals = Vec::new();
        il.interleave_stream_into(&bits, &mut out_bits);
        il.interleave_stream_into(&vals, &mut out_vals);
        assert_eq!(out_bits, want_bits, "{what}: interleave bits");
        assert_eq!(out_vals, want_vals, "{what}: interleave values");

        // Reference: logical[t·n + k] = transmitted[t·n + map_index(k)].
        let back_bits: Vec<bool> =
            (0..len).map(|i| bits[i - i % n + il.map_index(i % n)]).collect();
        let back_vals: Vec<f64> = (0..len).map(|i| vals[i - i % n + il.map_index(i % n)]).collect();
        il.deinterleave_stream_into(&bits, &mut out_bits);
        il.deinterleave_stream_into(&vals, &mut out_vals);
        assert_eq!(out_bits, back_bits, "{what}: deinterleave bits");
        assert_eq!(out_vals, back_vals, "{what}: deinterleave values");
        assert_eq!(il.deinterleave(&il.interleave(&bits[..n])), &bits[..n], "{what}: roundtrip");
    }
}

/// Hard and soft puncturing/depuncturing equal a reference filter over
/// `CodeRate::pattern()` on the mother stream of every accepted frame
/// shape (the lengths are the frame chain's own, so pattern periods end
/// mid-stream wherever the chain's do).
#[test]
fn puncturing_matches_pattern_filter() {
    use geosphere::coding::{
        depuncture_into, depuncture_soft_into, puncture_into, viterbi::CodedBit,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x9a77);
    let (mut hard, mut soft, mut hard_back, mut soft_back) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for cfg in accepted_phy_configs() {
        let mother_len = 2 * cfg.total_info_bits();
        let pat = cfg.code_rate.pattern();
        let keep = |k: usize| pat[k % pat.len()];
        let bits: Vec<bool> = (0..mother_len).map(|_| rng.gen_bool(0.5)).collect();
        let llrs: Vec<f64> = (0..mother_len).map(|_| rng.gen_range(-8.0..8.0)).collect();
        let what =
            format!("{:?} n_sc {} {:?}", cfg.constellation, cfg.n_subcarriers, cfg.code_rate);

        let want_bits: Vec<bool> = (0..mother_len).filter(|&k| keep(k)).map(|k| bits[k]).collect();
        let want_llrs: Vec<f64> = (0..mother_len).filter(|&k| keep(k)).map(|k| llrs[k]).collect();
        puncture_into(&bits, cfg.code_rate, &mut hard);
        puncture_into(&llrs, cfg.code_rate, &mut soft);
        assert_eq!(hard, want_bits, "{what}: puncture bits");
        assert_eq!(soft, want_llrs, "{what}: puncture values");
        // The chain's own invariant: punctured frames fill whole symbols.
        assert_eq!(hard.len(), cfg.n_ofdm_symbols() * cfg.n_cbps(), "{what}: coded length");

        let want_cb: Vec<CodedBit> = (0..mother_len)
            .map(|k| if keep(k) { CodedBit::from_bool(bits[k]) } else { CodedBit::Erased })
            .collect();
        let want_soft: Vec<f64> =
            (0..mother_len).map(|k| if keep(k) { llrs[k] } else { 0.0 }).collect();
        depuncture_into(&hard, cfg.code_rate, mother_len, &mut hard_back);
        depuncture_soft_into(&soft, cfg.code_rate, mother_len, &mut soft_back);
        assert_eq!(hard_back, want_cb, "{what}: depuncture bits");
        assert_eq!(soft_back, want_soft, "{what}: depuncture values");
    }
}

//! Property-based tests (proptest) on the core invariants of every layer.

use geosphere::coding::viterbi::{decode_with_erasures_into, CodedBit, ViterbiWorkspace};
use geosphere::coding::{check_crc_ok, conv, crc::crc32_words, Interleaver, Scrambler};
use geosphere::core::geoprune::{axis_offset, distance_lower_bound};
use geosphere::core::sphere::{EnumeratorFactory, GeosphereFactory, HessFactory, NodeEnumerator};
use geosphere::core::DetectorStats;
use geosphere::linalg::{qr_decompose, singular_values, Complex, Matrix};
use geosphere::modulation::{AxisZigzag, BitTable, Constellation, GridPoint};
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

/// Bits packed LSB-first into words, as the coding chain carries them.
fn pack(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        words[i / 64] |= (b as u64) << (i % 64);
    }
    words
}

fn unpack(words: &[u64], n: usize) -> Vec<bool> {
    (0..n).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect()
}

fn encode(bits: &[bool]) -> Vec<bool> {
    let mut coded = Vec::new();
    conv::encode_into(&pack(bits), bits.len(), &mut coded);
    unpack(&coded, 2 * (bits.len() + conv::CONSTRAINT - 1))
}

/// Viterbi over hard bits (no erasures).
fn hard_decode(coded: &[bool]) -> Vec<bool> {
    let symbols: Vec<CodedBit> = coded.iter().map(|&b| CodedBit::from_bool(b)).collect();
    let mut out = Vec::new();
    decode_with_erasures_into(&symbols, &mut ViterbiWorkspace::new(), &mut out);
    unpack(&out, coded.len() / 2 - (conv::CONSTRAINT - 1))
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
        let sym = (sym % c.size()) as u16;
        let table = BitTable::new(c);
        prop_assert_eq!(table.packed(table.point(sym)), sym);
    }

    #[test]
    fn axis_zigzag_sorted_and_complete(c in constellation_strategy(), t in -20.0f64..20.0) {
        let (first, mut rest) = AxisZigzag::start(c, t);
        let order: Vec<i32> = std::iter::once(c.coord_of_index(first))
            .chain(std::iter::from_fn(|| rest.next_coord(c, t)))
            .collect();
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

    // --- batched decoding engine ---

    #[test]
    fn batched_detection_matches_serial(
        entries in proptest::collection::vec((-1.5f64..1.5, -1.5f64..1.5), 4),
        noise in proptest::collection::vec((-0.2f64..0.2, -0.2f64..0.2), 8),
    ) {
        use geosphere::core::{DetectionBatch, DetectionJob, MimoDetector};

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
        prop_assert_eq!(amortized.len(), serial.len());
        for (s, a) in serial.iter().zip(&amortized) {
            prop_assert_eq!(&s.symbols, &a.symbols);
            prop_assert_eq!(s.stats, a.stats);
        }
    }

    // --- coding ---

    #[test]
    fn conv_viterbi_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        prop_assert_eq!(hard_decode(&encode(&bits)), bits);
    }

    #[test]
    fn viterbi_corrects_one_flip(
        bits in proptest::collection::vec(any::<bool>(), 20..100),
        pos_frac in 0.0f64..1.0,
    ) {
        let mut coded = encode(&bits);
        let pos = ((coded.len() - 1) as f64 * pos_frac) as usize;
        coded[pos] = !coded[pos];
        prop_assert_eq!(hard_decode(&coded), bits);
    }

    #[test]
    fn scrambler_involution(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
        let mut twice = pack(&bits);
        Scrambler::default_seed().apply_in_place(&mut twice, bits.len());
        Scrambler::default_seed().apply_in_place(&mut twice, bits.len());
        prop_assert_eq!(twice, pack(&bits));
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
        let (mut tx, mut back) = (Vec::new(), Vec::new());
        il.interleave_stream_into(&bits, &mut tx);
        il.deinterleave_stream_into(&tx, &mut back);
        prop_assert_eq!(back, bits);
    }

    #[test]
    fn crc_detects_any_single_flip(
        bits in proptest::collection::vec(any::<bool>(), 1..120),
        pos_frac in 0.0f64..1.0,
    ) {
        let crc = crc32_words(&pack(&bits), bits.len());
        let framed: Vec<bool> = bits.iter().copied().chain((0..32).map(|k| crc >> k & 1 == 1)).collect();
        let mut corrupted = framed.clone();
        let pos = ((corrupted.len() - 1) as f64 * pos_frac) as usize;
        corrupted[pos] = !corrupted[pos];
        prop_assert!(check_crc_ok(&pack(&framed), framed.len()));
        prop_assert!(!check_crc_ok(&pack(&corrupted), corrupted.len()));
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

/// `PhyConfig::validate` accepts exactly the geometries the sweep above
/// yields, over the same axes (plus zero subcarriers).
#[test]
fn validate_accepts_exactly_the_swept_geometries() {
    use geosphere::coding::CodeRate;
    use geosphere::phy::PhyConfig;
    let accepted = accepted_phy_configs();
    for c in Constellation::ALL {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            for n_subcarriers in 0..=128 {
                let cfg = PhyConfig { code_rate: rate, n_subcarriers, ..PhyConfig::new(c) };
                let swept = accepted.iter().any(|a| {
                    (a.constellation, a.code_rate, a.n_subcarriers) == (c, rate, n_subcarriers)
                });
                assert_eq!(cfg.validate().is_ok(), swept, "{c:?} {rate:?} n_sc {n_subcarriers}");
            }
        }
    }
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
        il.interleave_stream_into(&bits[..n], &mut out_bits);
        let tx = out_bits.clone();
        il.deinterleave_stream_into(&tx, &mut out_bits);
        assert_eq!(out_bits, &bits[..n], "{what}: roundtrip");
    }
}

/// Hard and soft puncturing/depuncturing equal a reference filter over
/// `CodeRate::pattern()` on the mother stream of every accepted frame
/// shape (the lengths are the frame chain's own, so pattern periods end
/// mid-stream wherever the chain's do). The hard chains depuncture
/// through their `SymbolLayout`, checked here against the puncture and
/// interleave stages it composes.
#[test]
fn puncturing_matches_pattern_filter() {
    use geosphere::coding::{depuncture_soft_into, puncture_into, viterbi::CodedBit, SymbolLayout};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x9a77);
    let (mut hard, mut soft, mut soft_back) = (Vec::new(), Vec::new(), Vec::new());
    let (mut tx, mut groups) = (Vec::new(), Vec::new());
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
        let q = cfg.constellation.bits_per_symbol();
        let layout = SymbolLayout::new(cfg.n_cbps(), q, cfg.code_rate);
        layout.interleaver().interleave_stream_into(&hard, &mut tx);
        let want_groups: Vec<u16> =
            tx.chunks(q).map(|g| g.iter().fold(0, |acc, &b| acc << 1 | b as u16)).collect();
        layout.gather_into(&pack(&bits), cfg.n_ofdm_symbols(), |g| g, &mut groups);
        assert_eq!(groups, want_groups, "{what}: layout gather");
        let mut hard_back = vec![CodedBit::One; mother_len];
        layout.scatter(groups.iter().copied(), &mut hard_back);
        depuncture_soft_into(&soft, cfg.code_rate, mother_len, &mut soft_back);
        assert_eq!(hard_back, want_cb, "{what}: depuncture bits");
        assert_eq!(soft_back, want_soft, "{what}: depuncture values");
    }
}

// --- Geosphere enumerator oracle ---

/// Rounds to the nearest odd integer (a grid coordinate, unclamped).
fn nearest_odd(x: f64) -> f64 {
    2.0 * ((x - 1.0) / 2.0).round() + 1.0
}

/// Rounds to the nearest even integer (a decision boundary).
fn nearest_even(x: f64) -> f64 {
    2.0 * (x / 2.0).round()
}

/// A node centre of one of four kinds: uniform, an exact grid point, the
/// midpoint of four grid points, or the midpoint of two. The last three
/// put symmetric neighbours at exactly equal costs, so they exercise the
/// tie rule.
fn node_center(kind: u8, re: f64, im: f64) -> Complex {
    match kind % 4 {
        0 => Complex::new(re, im),
        1 => Complex::new(nearest_odd(re), nearest_odd(im)),
        2 => Complex::new(nearest_even(re), nearest_even(im)),
        _ => Complex::new(nearest_even(re), nearest_odd(im)),
    }
}

/// `(constellation, centre, gain)` across all four constellations and the
/// four centre kinds, centres reaching a little past the grid edge.
fn node_strategy() -> impl Strategy<Value = (Constellation, Complex, f64)> {
    (constellation_strategy(), 0u8..4, -18.0f64..18.0, -18.0f64..18.0, 0.01f64..10.0)
        .prop_map(|(c, kind, re, im, gain)| (c, node_center(kind, re, im), gain))
}

/// The exact PED of a grid point: the same unit every enumerator uses.
fn ped(p: GridPoint, center: Complex, gain: f64) -> f64 {
    geosphere::linalg::simd::ped_point(p.i as f64, p.q as f64, center, gain)
}

/// One node's children, in order, as `(point, cost bits)` — every child
/// with cost below `budget`, stopping at the first that is not — plus the
/// node's counters and the largest live queue seen between calls.
struct Drained {
    children: Vec<(GridPoint, u64)>,
    stats: DetectorStats,
    max_queue: usize,
}

fn drain_geosphere(
    factory: GeosphereFactory,
    c: Constellation,
    center: Complex,
    gain: f64,
    budget: f64,
) -> Drained {
    let mut stats = DetectorStats::default();
    let mut e = factory.make(c, center, gain, &mut stats);
    let mut max_queue = e.queue_len();
    let mut children = Vec::new();
    while let Some(ch) = e.next_child(budget, &mut stats) {
        max_queue = max_queue.max(e.queue_len());
        if ch.cost >= budget {
            break;
        }
        children.push((ch.point, ch.cost.to_bits()));
    }
    Drained { children, stats, max_queue }
}

/// Reference model of the 2-D zigzag (§3.1.1) under the documented tie
/// rule, written for clarity rather than speed: each axis order is a sort
/// of the levels by distance to the target (ties to the upper level), the
/// queue is a `Vec` holding one candidate per column, and a pop takes the
/// minimum by cost, then by column coordinate (i.e. lower column index).
fn reference_children(c: Constellation, center: Complex, gain: f64) -> Vec<(GridPoint, u64)> {
    let axis = |t: f64| {
        let mut levels = c.axis_levels();
        let dist = |l: i32| (l as f64 - t).abs();
        levels.sort_by(|&a, &b| dist(a).total_cmp(&dist(b)).then(b.cmp(&a)));
        levels
    };
    let (cols, rows) = (axis(center.re), axis(center.im));
    let cost = |i: i32, q: i32| ped(GridPoint { i, q }, center, gain);
    // (cost, column coordinate, position in `rows`)
    let mut queue = vec![(cost(cols[0], rows[0]), cols[0], 0usize)];
    let mut next_col = 1;
    let mut out = Vec::new();
    while !queue.is_empty() {
        let k = (0..queue.len())
            .min_by(|&a, &b| queue[a].0.total_cmp(&queue[b].0).then(queue[a].1.cmp(&queue[b].1)))
            .unwrap();
        let (cst, col, r) = queue.swap_remove(k);
        out.push((GridPoint { i: col, q: rows[r] }, cst.to_bits()));
        if r + 1 < rows.len() {
            queue.push((cost(col, rows[r + 1]), col, r + 1));
        }
        if next_col < cols.len() {
            queue.push((cost(cols[next_col], rows[0]), cols[next_col], 0));
            next_col += 1;
        }
    }
    out
}

/// The unpruned full drain is the brute-force sort of every point's
/// `ped_point` cost, bit for bit, each point once; it follows the reference
/// model (tie rule included) child for child; its queue stays within √|O|;
/// and it costs exactly one PED per point.
fn check_full_drain(c: Constellation, center: Complex, gain: f64) {
    let got = drain_geosphere(GeosphereFactory::zigzag_only(), c, center, gain, f64::INFINITY);
    let mut expect: Vec<f64> = c.points().iter().map(|&p| ped(p, center, gain)).collect();
    expect.sort_by(f64::total_cmp);
    let costs: Vec<u64> = got.children.iter().map(|&(_, bits)| bits).collect();
    let expect: Vec<u64> = expect.iter().map(|x| x.to_bits()).collect();
    assert_eq!(costs, expect, "{c:?} at {center:?} gain {gain}: not the sorted costs");
    let mut seen: Vec<(i32, i32)> = got.children.iter().map(|(p, _)| (p.i, p.q)).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), c.size(), "{c:?} at {center:?}: a point repeated or went missing");
    assert_eq!(
        got.children,
        reference_children(c, center, gain),
        "{c:?} at {center:?} gain {gain}: order differs from the tie rule"
    );
    assert!(got.max_queue <= c.side(), "{c:?}: queue reached {}", got.max_queue);
    assert_eq!(got.stats.ped_calcs, c.size() as u64);
}

/// With pruning and a finite budget, the children are exactly the
/// unpruned order's prefix of children below the budget.
fn check_pruned_prefix(c: Constellation, center: Complex, gain: f64, budget: f64) {
    let all = drain_geosphere(GeosphereFactory::zigzag_only(), c, center, gain, f64::INFINITY);
    let prefix: Vec<_> = all
        .children
        .iter()
        .take_while(|&&(_, bits)| f64::from_bits(bits) < budget)
        .copied()
        .collect();
    let pruned = drain_geosphere(GeosphereFactory::full(), c, center, gain, budget);
    assert_eq!(pruned.children, prefix, "{c:?} at {center:?} gain {gain} budget {budget}");
    assert!(pruned.max_queue <= c.side());
    assert!(pruned.stats.ped_calcs <= all.stats.ped_calcs);
}

/// Nodes run through one reused slot match a fresh enumerator per node —
/// children, cost bits and counters after every call — while the slot is
/// left part-drained between nodes. Each node is `(c, centre, gain,
/// budget, children to take)`.
fn check_slot_replay<F: EnumeratorFactory>(
    f: &F,
    nodes: &[(Constellation, Complex, f64, f64, usize)],
) {
    let mut slot = None;
    for &(c, center, gain, budget, take) in nodes {
        let (mut s_fresh, mut s_slot) = (DetectorStats::default(), DetectorStats::default());
        let mut fresh = f.make(c, center, gain, &mut s_fresh);
        f.make_in(&mut slot, c, center, gain, &mut s_slot);
        let reused = slot.as_mut().expect("slot just filled");
        assert_eq!(s_fresh, s_slot, "{} {c:?}: reset counters", f.name());
        for _ in 0..take {
            let a = fresh.next_child(budget, &mut s_fresh);
            let b = reused.next_child(budget, &mut s_slot);
            assert_eq!(s_fresh, s_slot, "{} {c:?}", f.name());
            match (a, b) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.point, y.point, "{} {c:?}", f.name());
                    assert_eq!(x.cost.to_bits(), y.cost.to_bits(), "{} {c:?}", f.name());
                }
                _ => panic!("{} {c:?}: fresh and reused enumerations diverged", f.name()),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn geosphere_full_drain_matches_oracle(node in node_strategy()) {
        let (c, center, gain) = node;
        check_full_drain(c, center, gain);
    }

    #[test]
    fn geosphere_pruned_children_are_unpruned_prefix(
        node in node_strategy(),
        budget in 0.0f64..60.0,
    ) {
        let (c, center, gain) = node;
        check_pruned_prefix(c, center, gain, gain * budget);
    }

    #[test]
    fn enumerator_slot_replays_fresh_across_constellations(
        a in node_strategy(),
        b in node_strategy(),
        d in node_strategy(),
        budget in 1.0f64..80.0,
        take in 1usize..40,
    ) {
        // The shape sequence is fixed (64 → 16 → 256-QAM, then back to
        // 64); the strategies supply centres, gains, budget and depth.
        let shapes = [Constellation::Qam64, Constellation::Qam16, Constellation::Qam256, Constellation::Qam64];
        let nodes: Vec<_> = shapes
            .iter()
            .zip([a, b, d, a])
            .enumerate()
            .map(|(n, (&c, (_, center, gain)))| (c, center, gain, gain * budget, take + 7 * n))
            .collect();
        check_slot_replay(&GeosphereFactory::full(), &nodes);
        check_slot_replay(&GeosphereFactory::zigzag_only(), &nodes);
        check_slot_replay(&HessFactory, &nodes);
        let unbounded: Vec<_> = nodes.iter().map(|&(c, z, g, _, _)| (c, z, g, f64::INFINITY, 300)).collect();
        check_slot_replay(&GeosphereFactory::full(), &unbounded);
    }
}

/// Every grid point and every midpoint (exact ties) in and just past each
/// constellation's grid, at two gains: the oracle and the pruned prefix.
#[test]
fn geosphere_oracle_on_grid_points_and_midpoints() {
    for c in Constellation::ALL {
        let reach = c.side() as i32 + 1;
        for re in -reach..=reach {
            for im in -reach..=reach {
                let center = Complex::new(re as f64, im as f64);
                for gain in [1.0, 0.37] {
                    check_full_drain(c, center, gain);
                    check_pruned_prefix(c, center, gain, gain * 10.0);
                }
            }
        }
    }
}

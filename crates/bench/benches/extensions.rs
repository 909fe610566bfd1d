//! Micro-benchmarks for the beyond-the-paper extensions: soft-output
//! detection (counter-hypothesis searches), vector-perturbation precoding,
//! and the SISO decoders.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geosphere_core::{SoftGeosphereDetector, VectorPerturbationPrecoder};
use gs_channel::{noise_variance_for_snr_db, sample_cn, RayleighChannel};
use gs_coding::viterbi::{decode_soft_into, ViterbiWorkspace};
use gs_coding::{bcjr, conv};
use gs_linalg::{Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn soft_instances(c: Constellation, n: usize) -> Vec<(Matrix, Vec<Complex>)> {
    let mut rng = StdRng::seed_from_u64(99);
    let sigma2 = noise_variance_for_snr_db(22.0);
    let pts = c.points();
    (0..n)
        .map(|_| {
            let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
            let s: Vec<GridPoint> = (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
            let mut y = geosphere_core::apply_channel(&h, &s);
            for v in y.iter_mut() {
                *v += sample_cn(&mut rng, sigma2);
            }
            (h, y)
        })
        .collect()
}

fn bench_soft_detection(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("soft_detection_4x4_22dB");
    for c in [Constellation::Qpsk, Constellation::Qam16] {
        let set = soft_instances(c, 16);
        let det = SoftGeosphereDetector::new(noise_variance_for_snr_db(22.0));
        group.bench_with_input(BenchmarkId::from_parameter(format!("{c:?}")), &set, |b, set| {
            b.iter(|| {
                set.iter().map(|(h, y)| det.detect_soft(h, y, c).stats.ped_calcs).sum::<u64>()
            })
        });
    }
    group.finish();
}

fn bench_vp_precoding(cr: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(100);
    let c = Constellation::Qam16;
    let pts = c.points();
    let mut group = cr.benchmark_group("vp_precode");
    for users in [2usize, 4] {
        let h = RayleighChannel::new(users, users).sample_matrix(&mut rng);
        let pre = VectorPerturbationPrecoder::new(&h, c).unwrap();
        let symbols: Vec<Vec<GridPoint>> = (0..16)
            .map(|_| (0..users).map(|_| pts[rng.gen_range(0..pts.len())]).collect())
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(users), &symbols, |b, set| {
            b.iter(|| set.iter().map(|s| pre.precode(s).gamma).sum::<f64>())
        });
    }
    group.finish();
}

fn bench_siso_decoders(cr: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(101);
    let info: Vec<u64> = (0..512 / 64).map(|_| rng.gen()).collect();
    let mut mother = Vec::new();
    conv::encode_into(&info, 512, &mut mother);
    let llrs: Vec<f64> = (0..2 * 518)
        .map(|i| if mother[i / 64] >> (i % 64) & 1 == 1 { -3.0 } else { 3.0 })
        .collect();
    let (mut ws, mut out) = (ViterbiWorkspace::new(), Vec::new());
    cr.bench_function("soft_viterbi_512bits", |b| {
        b.iter(|| {
            decode_soft_into(&llrs, &mut ws, &mut out);
            out.len()
        })
    });
    cr.bench_function("bcjr_512bits", |b| b.iter(|| bcjr::siso_decode(&llrs).info_bits.len()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_soft_detection, bench_vp_precoding, bench_siso_decoders
}
criterion_main!(benches);

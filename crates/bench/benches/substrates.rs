//! Substrate micro-benchmarks: QR decomposition, Viterbi decoding, FFT,
//! the geometric-channel realization and AWGN synthesis — the fixed costs
//! surrounding the sphere search in a real receiver and its simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gs_channel::{
    noise_variance_for_snr_db, sample_cn, ApArray, ChannelModel, GeometricChannel, Pos,
    RayleighChannel,
};
use gs_coding::conv;
use gs_coding::viterbi::{decode_with_erasures_into, CodedBit, ViterbiWorkspace};
use gs_linalg::{fft, qr_decompose, Complex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_qr(cr: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = cr.benchmark_group("qr");
    for n in [2usize, 4, 8, 10] {
        let h = RayleighChannel::new(n, n).sample_matrix(&mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| qr_decompose(h).r[(0, 0)])
        });
    }
    group.finish();
}

fn bench_viterbi(cr: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let bits: Vec<bool> = (0..1024).map(|_| rng.gen_bool(0.5)).collect();
    let mut coded = Vec::new();
    conv::encode_into(&bits, &mut coded);
    let coded: Vec<CodedBit> = coded.into_iter().map(CodedBit::from_bool).collect();
    let (mut ws, mut out) = (ViterbiWorkspace::new(), Vec::new());
    cr.bench_function("viterbi_1024bits", |b| {
        b.iter(|| {
            decode_with_erasures_into(&coded, &mut ws, &mut out);
            out.len()
        })
    });
}

fn bench_fft(cr: &mut Criterion) {
    let data: Vec<Complex> =
        (0..64).map(|k| Complex::new((k as f64).sin(), (k as f64).cos())).collect();
    cr.bench_function("fft_64", |b| {
        b.iter(|| {
            let mut d = data.clone();
            fft(&mut d);
            d[0]
        })
    });
}

fn bench_channel(cr: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let ap = ApArray::new(Pos::new(0.0, 0.0), 4, 0.0);
    let clients =
        vec![Pos::new(10.0, 3.0), Pos::new(12.0, -2.0), Pos::new(8.0, 6.0), Pos::new(14.0, 1.0)];
    let model = GeometricChannel::indoor_nlos(ap, clients);
    cr.bench_function("geometric_channel_4x4_48sc", |b| {
        b.iter(|| model.realize(&mut rng).subcarrier(0)[(0, 0)])
    });
}

/// One 4×4 64-QAM frame's noise as the stream's plan draws it: 11 OFDM
/// symbols × 64 subcarriers × 4 receive antennas = 2816 `CN(0, σ²)`
/// samples at 28 dB.
fn bench_noise(cr: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(10);
    let sigma2 = noise_variance_for_snr_db(28.0);
    cr.bench_function("noise_cn_2816", |b| {
        b.iter(|| (0..2816).fold(Complex::ZERO, |acc, _| acc + sample_cn(&mut rng, sigma2)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_qr, bench_viterbi, bench_fft, bench_channel, bench_noise
}
criterion_main!(benches);

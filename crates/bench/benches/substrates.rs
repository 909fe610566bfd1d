//! Substrate micro-benchmarks: QR decomposition, Viterbi decoding, the
//! coding chain, FFT, the geometric-channel realization and AWGN
//! synthesis — the fixed costs surrounding the sphere search in a real
//! receiver and its simulator.
//!
//! The coding-chain cases use the stream's 64-QAM frame shape (64
//! subcarriers, 2048-bit payload, rate 1/2: 11 OFDM symbols, 2112 trellis
//! steps per client) and run the stages `gs-phy`'s hard chains run:
//! `tx_chain_qam64` one client's transmit chain from payload words to
//! points, `rx_demap_qam64` one client's receive chain before Viterbi,
//! and `viterbi_x4_qam64` the four clients' lockstep decode.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gs_channel::{
    noise_variance_for_snr_db, sample_cn, ApArray, ChannelModel, GeometricChannel, Pos,
    RayleighChannel,
};
use gs_coding::viterbi::{
    decode_multi_with_erasures_into, decode_with_erasures_into, CodedBit, ViterbiWorkspace,
};
use gs_coding::{conv, crc::crc32_words, CodeRate, Scrambler, SymbolLayout};
use gs_linalg::{fft, qr_decompose, Complex};
use gs_modulation::{BitTable, Constellation, GridPoint};
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
    let info: Vec<u64> = (0..1024 / 64).map(|_| rng.gen()).collect();
    let mut mother = Vec::new();
    conv::encode_into(&info, 1024, &mut mother);
    let coded: Vec<CodedBit> =
        (0..2 * 1030).map(|i| CodedBit::from_bool(mother[i / 64] >> (i % 64) & 1 == 1)).collect();
    let (mut ws, mut out) = (ViterbiWorkspace::new(), Vec::new());
    cr.bench_function("viterbi_1024bits", |b| {
        b.iter(|| {
            decode_with_erasures_into(&coded, &mut ws, &mut out);
            out.len()
        })
    });
}

/// The 64-QAM frame shape of the stream's saturating workload.
const QAM64_SUBCARRIERS: usize = 64;
const QAM64_PAYLOAD: usize = 2048;
const QAM64_SYMBOLS: usize = 11;
/// Payload + CRC + pad: 11 symbols × 192 data bits, less the 6-bit tail.
const QAM64_DATA: usize = QAM64_SYMBOLS * 192 - 6;

/// One client's transmit chain, as `gs-phy` runs it: CRC appended to the
/// payload words, scrambled, encoded, then punctured, interleaved and
/// mapped by one layout gather.
fn transmit(
    payload: &[u64],
    layout: &SymbolLayout,
    info: &mut Vec<u64>,
    mother: &mut Vec<u64>,
    out: &mut Vec<GridPoint>,
) {
    let n = QAM64_PAYLOAD;
    info.clear();
    info.extend_from_slice(payload);
    info.resize(QAM64_DATA.div_ceil(64), 0);
    info[n / 64] |= u64::from(crc32_words(info, n)) << (n % 64);
    Scrambler::default_seed().apply_in_place(info, QAM64_DATA);
    conv::encode_into(info, QAM64_DATA, mother);
    let table = BitTable::new(Constellation::Qam64);
    layout.gather_into(mother, QAM64_SYMBOLS, |bits| table.point(bits), out);
}

fn bench_coding_chain(cr: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let layout = SymbolLayout::new(QAM64_SUBCARRIERS * 6, 6, CodeRate::Half);
    let table = BitTable::new(Constellation::Qam64);
    let (mut info, mut mother, mut points) = (Vec::new(), Vec::new(), Vec::new());
    let payloads: Vec<Vec<u64>> =
        (0..4).map(|_| (0..QAM64_PAYLOAD / 64).map(|_| rng.gen()).collect()).collect();
    cr.bench_function("tx_chain_qam64", |b| {
        b.iter(|| {
            transmit(&payloads[0], &layout, &mut info, &mut mother, &mut points);
            points.len()
        })
    });

    // Four received clients, 2% of their points replaced at random.
    let mother_len = QAM64_SYMBOLS * layout.mother_bits();
    let mut received: Vec<Vec<GridPoint>> = Vec::new();
    for payload in &payloads {
        transmit(payload, &layout, &mut info, &mut mother, &mut points);
        for p in points.iter_mut() {
            if rng.gen_bool(0.02) {
                *p = table.point(rng.gen_range(0..64u16));
            }
        }
        received.push(points.clone());
    }
    let mut slab = vec![CodedBit::Erased; 4 * mother_len];
    cr.bench_function("rx_demap_qam64", |b| {
        b.iter(|| {
            layout.scatter(received[0].iter().map(|&p| table.packed(p)), &mut slab[..mother_len]);
            slab[0]
        })
    });

    for (rx, block) in received.iter().zip(slab.chunks_exact_mut(mother_len)) {
        layout.scatter(rx.iter().map(|&p| table.packed(p)), block);
    }
    let (mut ws, mut out) = (ViterbiWorkspace::new(), Vec::new());
    cr.bench_function("viterbi_x4_qam64", |b| {
        b.iter(|| {
            decode_multi_with_erasures_into(&slab, 4, &mut ws, &mut out);
            out[0]
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
    targets = bench_qr, bench_viterbi, bench_coding_chain, bench_fft, bench_channel, bench_noise
}
criterion_main!(benches);

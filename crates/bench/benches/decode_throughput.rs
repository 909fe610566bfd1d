//! Wall-clock decode throughput per detector × constellation × MIMO size.
//!
//! Supporting evidence for the paper's feasibility argument: PED counts
//! are the architecture-neutral metric (Figs. 14–15), but wall-clock
//! vectors/second show the same ordering on a real CPU.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geosphere_core::{ethsd_decoder, geosphere_decoder, MimoDetector, MmseSicDetector, ZfDetector};
use gs_bench::{frame_decode_scenario, serial_reference_frame, FrameDecodeScenario};
use gs_channel::{
    noise_variance_for_snr_db, sample_cn, ChannelModel, RayleighChannel, SelectiveRayleighChannel,
};
use gs_linalg::{Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};
use gs_phy::{decode_frame_batched_into, FrameWorkspace, PhyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instances(
    c: Constellation,
    na: usize,
    nc: usize,
    snr_db: f64,
    n: usize,
) -> Vec<(Matrix, Vec<Complex>)> {
    let mut rng = StdRng::seed_from_u64(42);
    let sigma2 = noise_variance_for_snr_db(snr_db);
    let pts = c.points();
    (0..n)
        .map(|_| {
            let h = RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(c.scale());
            let s: Vec<GridPoint> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
            let mut y = geosphere_core::apply_channel(&h, &s);
            for v in y.iter_mut() {
                *v += sample_cn(&mut rng, sigma2);
            }
            (h, y)
        })
        .collect()
}

fn bench_decoders(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("decode_4x4_20dB");
    for c in [Constellation::Qam16, Constellation::Qam64, Constellation::Qam256] {
        let set = instances(c, 4, 4, 20.0, 64);
        let detectors: Vec<(&str, Box<dyn MimoDetector>)> = vec![
            ("geosphere", Box::new(geosphere_decoder())),
            ("ethsd", Box::new(ethsd_decoder())),
            ("zf", Box::new(ZfDetector)),
            ("mmse-sic", Box::new(MmseSicDetector::new(0.01))),
        ];
        for (name, det) in detectors {
            group.bench_with_input(BenchmarkId::new(name, format!("{c:?}")), &set, |b, set| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for (h, y) in set {
                        acc += det.detect(h, y, c).stats.visited_nodes.max(1);
                    }
                    acc
                })
            });
        }
    }
    group.finish();
}

/// Frame-level decode: the per-job serial oracle
/// (`gs_bench::serial_reference_frame`) vs `decode_frame_batched_into` on
/// a fresh workspace per frame (per-subcarrier QR amortized across the
/// frame's OFDM symbols, fanned out over a worker pool). One 64-subcarrier
/// 4×4 64-QAM frame per iteration; outputs are bit-identical, so any gap
/// is pure engine overhead/speedup.
fn bench_frame_decode(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("frame_decode_4x4_qam64_64sc");
    let FrameDecodeScenario { cfg, channel: ch, snr_db, .. } = frame_decode_scenario();
    let det = geosphere_decoder();

    group.bench_function("serial", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(77);
            serial_reference_frame(&cfg, &ch, &det, snr_db, &mut rng).stats.ped_calcs
        })
    });
    for workers in [1usize, 2, 4, 8] {
        // The worker count is taken as given (never clamped to the
        // hardware), so on small machines the larger series are
        // oversubscribed rather than merged.
        group.bench_function(BenchmarkId::new("batched", format!("{workers}w")), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(77);
                let mut ws = FrameWorkspace::new();
                decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, workers, &mut ws)
                    .stats
                    .ped_calcs
            })
        });
    }
    // The steady-state receive loop: one FrameWorkspace held across frames
    // (decode_frame_batched_into), so planning, detection, and the receive
    // chain are allocation-free per frame. Outputs are bit-identical to the
    // series above; any gap is pure allocator/reuse savings (plus, at >1
    // worker, the persistent pool replacing per-frame thread spawns).
    for workers in [1usize, 4] {
        group.bench_function(
            BenchmarkId::new("batched_into_reused_ws", format!("{workers}w")),
            |b| {
                let mut ws = FrameWorkspace::new();
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(77);
                    decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, workers, &mut ws)
                        .stats
                        .ped_calcs
                })
            },
        );
    }
    group.finish();
}

/// The frame-level workspace-reuse win, isolated: the same frame decoded
/// through a fresh `FrameWorkspace` per frame (a one-off decode) versus
/// one long-lived workspace — the steady-state receiver configuration
/// whose per-frame zero-allocation contract `tests/alloc_regression.rs`
/// enforces.
fn bench_frame_workspace_reuse(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("frame_workspace_reuse_4x4_qam16_48sc");
    let cfg = PhyConfig { payload_bits: 2048, ..PhyConfig::new(Constellation::Qam16) };
    let snr_db = 24.0;
    let model = SelectiveRayleighChannel {
        n_fft: 64,
        n_subcarriers: cfg.n_subcarriers,
        ..SelectiveRayleighChannel::indoor(4, 4)
    };
    let ch = model.realize(&mut StdRng::seed_from_u64(2015));
    let det = geosphere_decoder();

    group.bench_function("fresh_workspace_per_frame", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(78);
            let mut ws = FrameWorkspace::new();
            decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, 1, &mut ws).stats.ped_calcs
        })
    });
    group.bench_function("reused_workspace", |b| {
        let mut ws = FrameWorkspace::new();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(78);
            decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, 1, &mut ws).stats.ped_calcs
        })
    });
    group.finish();
}

/// The allocation-refactor win, isolated: the same per-symbol
/// `detect_with_qr` searches driven (a) with a fresh `SearchWorkspace` per
/// call — the old allocate-per-symbol behavior — versus (b) through one
/// long-lived workspace, the steady-state receiver configuration where the
/// hot path performs zero heap allocations (enforced by
/// `tests/alloc_regression.rs`).
fn bench_workspace_reuse(cr: &mut Criterion) {
    let mut group = cr.benchmark_group("workspace_reuse_4x4_qam64_20dB");
    let c = Constellation::Qam64;
    let nc = 4;
    let set = instances(c, 4, nc, 20.0, 64);
    let prepared: Vec<_> = set
        .iter()
        .map(|(h, y)| {
            let qr = gs_linalg::qr_decompose(h);
            let yhat = qr.rotate(y);
            (qr, yhat)
        })
        .collect();
    let det = geosphere_decoder();

    group.bench_function("fresh_workspace_per_symbol", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (qr, yhat) in &prepared {
                let mut ws = det.make_workspace();
                let mut stats = geosphere_core::DetectorStats::default();
                det.detect_with_qr(&qr.r, &yhat[..nc], c, &mut ws, &mut stats);
                acc += stats.visited_nodes;
            }
            acc
        })
    });
    group.bench_function("reused_workspace", |b| {
        let mut ws = det.make_workspace();
        b.iter(|| {
            let mut acc = 0u64;
            for (qr, yhat) in &prepared {
                let mut stats = geosphere_core::DetectorStats::default();
                det.detect_with_qr(&qr.r, &yhat[..nc], c, &mut ws, &mut stats);
                acc += stats.visited_nodes;
            }
            acc
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_decoders, bench_frame_decode, bench_workspace_reuse, bench_frame_workspace_reuse
}
criterion_main!(benches);

//! Golden search counters: the exact operation totals of the three
//! depth-first decoders on fixed-seed workloads.
//!
//! `DetectorStats` counts are machine-independent, so they pin the search
//! itself: any change to which children are enumerated, in what order, or
//! which bounds fire, moves at least one total. A pure speed change to an
//! enumerator must leave every number below untouched.
//!
//! The constants were captured on the commit before the fixed-capacity
//! Geosphere enumerator replaced the `BinaryHeap` one (and before the
//! shared compact zigzag cursor), by running this file against that tree.
//! They are not tuned to the current code: if one moves, the search
//! changed.

use geosphere::channel::{
    noise_variance_for_snr_db, sample_cn, ChannelModel, RayleighChannel, SelectiveRayleighChannel,
};
use geosphere::core::sphere::EnumeratorFactory;
use geosphere::core::{
    apply_channel, ethsd_decoder, geosphere_decoder, geosphere_zigzag_only_decoder, Detection,
    DetectionBatch, DetectionJob, DetectorStats, MimoDetector, SphereDecoder,
};
use geosphere::linalg::Matrix;
use geosphere::modulation::Constellation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed workload: grid-domain channels and the jobs that use them.
struct Workload {
    c: Constellation,
    channels: Vec<Matrix>,
    jobs: Vec<DetectionJob>,
}

/// `n_symbols` OFDM symbols over every subcarrier of `channel`, job order
/// symbol-major like a frame's detection batch.
fn workload(
    c: Constellation,
    channel: geosphere::channel::MimoChannel,
    snr_db: f64,
    n_symbols: usize,
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let channels: Vec<Matrix> = channel.iter().map(|h| h.scale(c.scale())).collect();
    let pts = c.points();
    let noise_var = noise_variance_for_snr_db(snr_db);
    let mut jobs = Vec::new();
    for _ in 0..n_symbols {
        for (k, h) in channels.iter().enumerate() {
            let s: Vec<_> = (0..h.cols()).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
            let mut y = apply_channel(h, &s);
            for v in y.iter_mut() {
                *v += sample_cn(&mut rng, noise_var);
            }
            jobs.push(DetectionJob { channel: k, y });
        }
    }
    Workload { c, channels, jobs }
}

/// 4×4 64-QAM over the indoor frequency-selective channel at 28 dB:
/// 48 subcarriers × 6 symbols = 288 detections.
fn selective_qam64() -> Workload {
    let mut rng = StdRng::seed_from_u64(1401);
    let ch = SelectiveRayleighChannel::indoor(4, 4).realize(&mut rng);
    workload(Constellation::Qam64, ch, 28.0, 6, 1402)
}

/// 4×4 16-QAM over flat Rayleigh at 30 dB: one channel, 256 detections.
fn flat_qam16() -> Workload {
    let mut rng = StdRng::seed_from_u64(1403);
    let ch = RayleighChannel::new(4, 4).realize(&mut rng);
    workload(Constellation::Qam16, ch, 30.0, 256, 1404)
}

/// Sums the counters of `dets`.
fn total(dets: &[Detection]) -> DetectorStats {
    dets.iter().fold(DetectorStats::default(), |acc, d| acc + d.stats)
}

/// Counter totals of `dec` on `w`, checked equal between the per-job
/// `detect` path and the batched path (lockstep first descents on).
fn totals<F: EnumeratorFactory>(dec: &SphereDecoder<F>, w: &Workload) -> DetectorStats {
    let serial: Vec<Detection> =
        w.jobs.iter().map(|j| dec.detect(&w.channels[j.channel], &j.y, w.c)).collect();
    let batch = DetectionBatch { channels: &w.channels, jobs: &w.jobs, c: w.c };
    let mut ws = dec.make_workspace();
    let mut out = Vec::new();
    dec.detect_batch_into(&batch, &mut ws, &mut out);
    assert_eq!(total(&serial), total(&out), "{}: batched and per-job counters differ", dec.name());
    total(&serial)
}

fn stats(
    ped_calcs: u64,
    visited_nodes: u64,
    slices: u64,
    bound_checks: u64,
    bound_prunes: u64,
    complex_mults: u64,
) -> DetectorStats {
    DetectorStats { ped_calcs, visited_nodes, slices, bound_checks, bound_prunes, complex_mults }
}

#[test]
fn selective_qam64_28db_counters() {
    let w = selective_qam64();
    assert_eq!(
        totals(&geosphere_decoder(), &w),
        stats(9180, 4608, 4477, 13870, 3058, 9169),
        "Geosphere"
    );
    assert_eq!(
        totals(&geosphere_zigzag_only_decoder(), &w),
        stats(12714, 4608, 4477, 0, 0, 9169),
        "Geosphere (2D zigzag only)"
    );
    assert_eq!(totals(&ethsd_decoder(), &w), stats(44854, 4608, 4477, 0, 0, 9169), "ETH-SD");
}

#[test]
fn flat_qam16_30db_counters() {
    let w = flat_qam16();
    assert_eq!(
        totals(&geosphere_decoder(), &w),
        stats(1024, 1024, 1024, 3072, 2048, 1536),
        "Geosphere"
    );
    assert_eq!(
        totals(&geosphere_zigzag_only_decoder(), &w),
        stats(3072, 1024, 1024, 0, 0, 1536),
        "Geosphere (2D zigzag only)"
    );
    assert_eq!(totals(&ethsd_decoder(), &w), stats(6144, 1024, 1024, 0, 0, 1536), "ETH-SD");
}

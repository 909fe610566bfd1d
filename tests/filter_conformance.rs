//! Conformance tests for the linear, MMSE-SIC and MMSE-PIC filters under
//! the per-batch preprocessing rule: batched detection must be
//! **exactly** (bit-for-bit) the seed implementations, and a reused
//! workspace must rebuild every filter when the next batch's channels
//! change.
//!
//! The oracles below re-implement the seed detectors' math directly
//! (pseudo-inverse + slice for ZF/MMSE, the per-stage sub-channel loop for
//! MMSE-SIC) so the comparison is against the original arithmetic, not
//! against the production code itself.

use geosphere_core::{
    apply_channel, slice_vector, Detection, DetectionBatch, DetectionJob, DetectorStats,
    MimoDetector, MmseDetector, MmseSicDetector, ZfDetector,
};
use gs_channel::{sample_cn, ChannelModel, RayleighChannel};
use gs_linalg::{pseudo_inverse, regularized_pseudo_inverse, Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};
use gs_phy::{uplink_frame_iterative_into, FrameWorkspace, PhyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_symbols(rng: &mut StdRng, c: Constellation, n: usize) -> Vec<GridPoint> {
    let pts = c.points();
    (0..n).map(|_| pts[rng.gen_range(0..pts.len())]).collect()
}

fn random_batch(
    rng: &mut StdRng,
    c: Constellation,
    na: usize,
    nc: usize,
    n_channels: usize,
    n_jobs: usize,
) -> (Vec<Matrix>, Vec<DetectionJob>) {
    let channels: Vec<Matrix> = (0..n_channels)
        .map(|_| RayleighChannel::new(na, nc).sample_matrix(rng).scale(c.scale()))
        .collect();
    let jobs: Vec<DetectionJob> = (0..n_jobs)
        .map(|j| {
            let channel = j % n_channels;
            let s = random_symbols(rng, c, nc);
            let mut y = apply_channel(&channels[channel], &s);
            for v in y.iter_mut() {
                *v += sample_cn(rng, 0.05);
            }
            DetectionJob { channel, y }
        })
        .collect();
    (channels, jobs)
}

/// The seed ZF/MMSE implementation, re-derived: filter construction per
/// call, matched-filter fallback on singular channels.
fn linear_oracle(h: &Matrix, y: &[Complex], c: Constellation, lambda: Option<f64>) -> Detection {
    let mut stats = DetectorStats::default();
    stats.complex_mults += (h.rows() * h.cols()) as u64;
    let filt = match lambda {
        None => pseudo_inverse(h),
        Some(l) => regularized_pseudo_inverse(h, l),
    };
    let w = filt.unwrap_or_else(|_| h.hermitian());
    let symbols = slice_vector(&w.mul_vec(y), c, &mut stats);
    Detection { symbols, stats }
}

/// The seed MMSE-SIC implementation, re-derived: per-stage sub-channel
/// pseudo-inverse, hard-decision cancellation, descending-SNR order.
fn sic_oracle(h: &Matrix, y: &[Complex], c: Constellation, noise_variance: f64) -> Detection {
    let nc = h.cols();
    let mut stats = DetectorStats::default();
    let lambda = noise_variance / c.energy();
    let mut order: Vec<usize> = (0..nc).collect();
    let norms: Vec<f64> = (0..nc).map(|k| h.col(k).iter().map(|z| z.norm_sqr()).sum()).collect();
    order.sort_by(|&a, &b| norms[b].partial_cmp(&norms[a]).unwrap());

    let mut residual: Vec<Complex> = y.to_vec();
    let mut remaining: Vec<usize> = order.clone();
    let mut symbols = vec![GridPoint::default(); nc];
    while !remaining.is_empty() {
        let sub = Matrix::from_fn(h.rows(), remaining.len(), |r, k| h[(r, remaining[k])]);
        stats.complex_mults += (sub.rows() * sub.cols()) as u64;
        let filt = match regularized_pseudo_inverse(&sub, lambda) {
            Ok(w) => w,
            Err(_) => sub.hermitian(),
        };
        let est = filt.mul_vec(&residual);
        let stream = remaining[0];
        let decided = c.slice(est[0]);
        stats.slices += 1;
        symbols[stream] = decided;
        let contrib = decided.to_complex();
        for (r, res) in residual.iter_mut().enumerate() {
            *res -= h[(r, stream)] * contrib;
        }
        stats.complex_mults += h.rows() as u64;
        remaining.remove(0);
    }
    Detection { symbols, stats }
}

fn assert_matches_oracle(
    name: &str,
    got: &[Detection],
    jobs: &[DetectionJob],
    oracle: impl Fn(usize) -> Detection,
) {
    assert_eq!(got.len(), jobs.len(), "{name}: output length");
    for (k, d) in got.iter().enumerate() {
        let expect = oracle(k);
        assert_eq!(d.symbols, expect.symbols, "{name}: job {k} symbols");
        assert_eq!(d.stats, expect.stats, "{name}: job {k} stats");
    }
}

#[test]
fn linear_detection_matches_seed_oracle() {
    let mut rng = StdRng::seed_from_u64(7001);
    let c = Constellation::Qam16;
    let (channels, jobs) = random_batch(&mut rng, c, 4, 3, 4, 24);
    let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };

    let zf = ZfDetector;
    let mmse = MmseDetector::new(0.05);
    let lambda = 0.05 / c.energy();

    for pass in 0..2 {
        // Per-call `detect`, whole-batch `detect_batch`, and the workspace
        // form across two passes (the second rebuilds every filter).
        let mut ws = zf.make_batch_workspace();
        let mut out = Vec::new();
        zf.detect_batch_with(&batch, &mut ws, &mut out);
        assert_matches_oracle("ZF batch_with", &out, &jobs, |k| {
            linear_oracle(&channels[jobs[k].channel], &jobs[k].y, c, None)
        });
        zf.detect_batch_with(&batch, &mut ws, &mut out);
        assert_matches_oracle("ZF batch_with warm", &out, &jobs, |k| {
            linear_oracle(&channels[jobs[k].channel], &jobs[k].y, c, None)
        });

        let out = mmse.detect_batch(&batch);
        assert_matches_oracle("MMSE batch", &out, &jobs, |k| {
            linear_oracle(&channels[jobs[k].channel], &jobs[k].y, c, Some(lambda))
        });

        for (k, job) in jobs.iter().enumerate() {
            let got = zf.detect(&channels[job.channel], &job.y, c);
            let expect = linear_oracle(&channels[job.channel], &job.y, c, None);
            assert_eq!(got.symbols, expect.symbols, "ZF detect job {k} pass {pass}");
            assert_eq!(got.stats, expect.stats, "ZF detect job {k} pass {pass}");
        }
    }
}

#[test]
fn sic_detection_matches_seed_oracle() {
    let mut rng = StdRng::seed_from_u64(7002);
    let c = Constellation::Qam16;
    let (channels, jobs) = random_batch(&mut rng, c, 4, 4, 3, 18);
    let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
    let sic = MmseSicDetector::new(0.05);

    let mut ws = sic.make_batch_workspace();
    let mut out = Vec::new();
    for pass in 0..2 {
        sic.detect_batch_with(&batch, &mut ws, &mut out);
        assert_matches_oracle(&format!("SIC batch_with pass {pass}"), &out, &jobs, |k| {
            sic_oracle(&channels[jobs[k].channel], &jobs[k].y, c, 0.05)
        });
    }
    for (k, job) in jobs.iter().enumerate() {
        let got = sic.detect(&channels[job.channel], &job.y, c);
        let expect = sic_oracle(&channels[job.channel], &job.y, c, 0.05);
        assert_eq!(got.symbols, expect.symbols, "SIC detect job {k}");
        assert_eq!(got.stats, expect.stats, "SIC detect job {k}");
    }
}

#[test]
fn reused_workspace_rebuilds_filters_when_channels_change() {
    // One workspace decodes batch A, then batch B, whose channel table has
    // the same shape but new contents at every index. B's output must
    // equal a fresh-workspace decode of B: filters built for A's channels
    // must not survive into the next batch.
    let mut rng = StdRng::seed_from_u64(7003);
    let c = Constellation::Qpsk;
    let (channels_a, jobs_a) = random_batch(&mut rng, c, 3, 3, 2, 10);
    let (channels_b, jobs_b) = random_batch(&mut rng, c, 3, 3, 2, 10);
    let batch_a = DetectionBatch { channels: &channels_a, jobs: &jobs_a, c };
    let batch_b = DetectionBatch { channels: &channels_b, jobs: &jobs_b, c };

    for det in
        [&ZfDetector as &dyn MimoDetector, &MmseDetector::new(0.02), &MmseSicDetector::new(0.02)]
    {
        let mut ws = det.make_batch_workspace();
        let mut out = Vec::new();
        det.detect_batch_with(&batch_a, &mut ws, &mut out);
        det.detect_batch_with(&batch_b, &mut ws, &mut out);
        let fresh = det.detect_batch(&batch_b);
        for (k, (got, expect)) in out.iter().zip(&fresh).enumerate() {
            assert_eq!(got.symbols, expect.symbols, "{} batch B job {k}", det.name());
            assert_eq!(got.stats, expect.stats, "{} batch B job {k}", det.name());
        }
    }
}

#[test]
fn reused_workspace_rebuilds_iterative_grams_when_channels_change() {
    // The iterative receiver's batch is the frame: one workspace decodes a
    // frame on channel A, then a frame on channel B (same shape), and the
    // second must equal a fresh-workspace decode. At this SNR a fresh
    // decode recovers every client, so column Grams left over from A would
    // show as CRC failures.
    let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) };
    let model = RayleighChannel::new(4, 4);
    let mut ws = FrameWorkspace::new();
    for seed in [7005u64, 7006, 7007] {
        let ch_a = model.realize(&mut StdRng::seed_from_u64(seed));
        let ch_b = model.realize(&mut StdRng::seed_from_u64(seed + 100));
        uplink_frame_iterative_into(
            &cfg,
            &ch_a,
            22.0,
            2,
            &mut StdRng::seed_from_u64(seed),
            &mut ws,
        );
        let mut fresh_ws = FrameWorkspace::new();
        let fresh = uplink_frame_iterative_into(
            &cfg,
            &ch_b,
            22.0,
            2,
            &mut StdRng::seed_from_u64(seed + 1),
            &mut fresh_ws,
        );
        assert!(fresh.client_ok.iter().all(|&ok| ok), "seed {seed}: fresh decode must succeed");
        let reused = uplink_frame_iterative_into(
            &cfg,
            &ch_b,
            22.0,
            2,
            &mut StdRng::seed_from_u64(seed + 1),
            &mut ws,
        );
        assert_eq!(reused.client_ok, fresh.client_ok, "seed {seed}");
        assert_eq!(reused.stats, fresh.stats, "seed {seed}");
        assert_eq!(reused.detections, fresh.detections, "seed {seed}");
    }
}

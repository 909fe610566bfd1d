//! The batched decode path must be bit-identical to the per-job serial
//! reference (`gs_bench::serial_reference_frame`) — same seed, same
//! outcome, same RNG state afterwards. Amortizing QR across a frame's
//! OFDM symbols, or cutting a frame into contiguous batches, can change
//! wall-clock, never results.

use geosphere::channel::{ChannelModel, RayleighChannel, SelectiveRayleighChannel};
use geosphere::core::{geosphere_decoder, DetectionBatch, DetectionJob, MimoDetector};
use geosphere::linalg::Matrix;
use geosphere::modulation::Constellation;
use geosphere::phy::{
    decode_frame_batched_into, decode_frame_with_csi_into, estimate_channel, FrameWorkspace,
    PhyConfig,
};
use gs_bench::serial_reference_frame;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serial and batched uplink decodes of the same seeded frame must agree
/// exactly — symbols, CRC outcomes, op counts and the RNG state after the
/// frame. (`decode_frame_batched_into` detects on the calling thread; its
/// `workers` argument is inert.)
#[test]
fn batched_frame_decode_is_bit_identical_across_worker_counts() {
    for (c, na, nc, snr_db, seed) in [
        (Constellation::Qpsk, 2, 2, 12.0, 401u64),
        (Constellation::Qam16, 4, 2, 22.0, 402),
        (Constellation::Qam64, 4, 4, 28.0, 403),
    ] {
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(c) };
        let ch = RayleighChannel::new(na, nc).realize(&mut StdRng::seed_from_u64(seed));
        let det = geosphere_decoder();

        let mut rng_serial = StdRng::seed_from_u64(seed ^ 0xABCD);
        let serial = serial_reference_frame(&cfg, &ch, &det, snr_db, &mut rng_serial);
        // The serial run's post-frame RNG draw: what runs next must see the
        // same generator state whichever path decoded the frame.
        let serial_next = rng_serial.gen_range(0..u64::MAX);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut ws = FrameWorkspace::new();
        let batched = decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, 1, &mut ws);
        assert_eq!(batched.client_ok, serial.client_ok, "{c:?} {na}x{nc}");
        assert_eq!(batched.stats, serial.stats, "{c:?} {na}x{nc}");
        assert_eq!(batched.detections, serial.detections, "{c:?} {na}x{nc}");
        assert_eq!(rng.gen_range(0..u64::MAX), serial_next, "{c:?}: RNG stream diverged");
    }
}

/// Same contract over a frequency-selective channel, where the batch's
/// channel table holds one matrix per subcarrier (the QR-amortization
/// fast path in the sphere decoders).
#[test]
fn batched_decode_matches_serial_on_selective_channel() {
    let c = Constellation::Qam16;
    let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(c) };
    let model = SelectiveRayleighChannel::indoor(4, 2);
    let ch = model.realize(&mut StdRng::seed_from_u64(77));
    let det = geosphere_decoder();

    let mut rng = StdRng::seed_from_u64(78);
    let serial = serial_reference_frame(&cfg, &ch, &det, 24.0, &mut rng);
    let mut rng = StdRng::seed_from_u64(78);
    let mut ws = FrameWorkspace::new();
    let batched = decode_frame_batched_into(&cfg, &ch, &det, 24.0, &mut rng, 1, &mut ws);
    assert_eq!(batched.client_ok, serial.client_ok);
    assert_eq!(batched.stats, serial.stats);
}

/// Decoding against an estimated channel is deterministic: the outcome
/// and the post-frame RNG state repeat through a fresh or a reused
/// workspace, on flat and selective channels alike, and `csi = truth`
/// reproduces the genie-CSI decode exactly.
#[test]
fn estimated_csi_decode_is_bit_identical_across_worker_counts() {
    let flat = RayleighChannel::new(4, 2).realize(&mut StdRng::seed_from_u64(501));
    let selective = SelectiveRayleighChannel::indoor(4, 3).realize(&mut StdRng::seed_from_u64(502));
    for (label, truth, c, snr_db) in [
        ("flat", flat, Constellation::Qam16, 20.0),
        ("selective", selective, Constellation::Qpsk, 14.0),
    ] {
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(c) };
        let det = geosphere_decoder();
        let est = estimate_channel(&truth, snr_db, &mut StdRng::seed_from_u64(503)).channel;

        let decode = |csi: &_, ws: &mut FrameWorkspace| {
            let mut rng = StdRng::seed_from_u64(504);
            let out = decode_frame_with_csi_into(&cfg, &truth, csi, &det, snr_db, &mut rng, ws)
                .expect("the CSI has the channel's shape")
                .clone();
            (out, rng.gen_range(0..u64::MAX))
        };
        let mut reused = FrameWorkspace::new();
        let (reference, reference_next) = decode(&est, &mut FrameWorkspace::new());
        assert!(reference.stats.ped_calcs > 0, "{label}: the search must run");
        for round in 0..2 {
            let (out, next) = decode(&est, &mut reused);
            assert_eq!(out.client_ok, reference.client_ok, "{label} round {round}");
            assert_eq!(out.stats, reference.stats, "{label} round {round}");
            assert_eq!(out.detections, reference.detections, "{label} round {round}");
            assert_eq!(next, reference_next, "{label} round {round}: RNG stream diverged");
        }

        let (with_truth, truth_next) = decode(&truth, &mut reused);
        let mut rng = StdRng::seed_from_u64(504);
        let mut ws = FrameWorkspace::new();
        let genie = decode_frame_batched_into(&cfg, &truth, &det, snr_db, &mut rng, 1, &mut ws);
        assert_eq!(with_truth.client_ok, genie.client_ok, "{label}");
        assert_eq!(with_truth.stats, genie.stats, "{label}");
        assert_eq!(with_truth.detections, genie.detections, "{label}");
        assert_eq!(truth_next, rng.gen_range(0..u64::MAX), "{label}");
    }
}

/// The core-layer engine honors the same contract on a raw batch.
#[test]
fn core_batch_detector_is_deterministic() {
    let c = Constellation::Qam16;
    let mut rng = StdRng::seed_from_u64(91);
    let channels: Vec<Matrix> = (0..8)
        .map(|_| RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale()))
        .collect();
    let pts = c.points();
    let symbol_major: Vec<DetectionJob> = (0..96)
        .map(|j| {
            let channel = j % channels.len();
            let s: Vec<_> = (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
            let mut y = geosphere::core::apply_channel(&channels[channel], &s);
            for v in y.iter_mut() {
                *v += geosphere::channel::sample_cn(&mut rng, 0.05);
            }
            DetectionJob { channel, y }
        })
        .collect();
    // A frame's jobs are channel-major (a batch then walks same-channel
    // runs in lockstep); any other order must match too.
    let mut channel_major = symbol_major.clone();
    channel_major.sort_by_key(|job| job.channel);
    let geo = geosphere_decoder();
    let mut ws = geo.make_batch_workspace();
    let mut out = Vec::new();
    for (order, jobs) in [("channel-major", channel_major), ("symbol-major", symbol_major)] {
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let reference = batch.detect_serial(&geo);
        // The whole batch, then contiguous ranges of it as separate
        // batches, through one recycled workspace (a stream worker reuses
        // its own across frames).
        for parts in [1usize, 3, 8] {
            let chunk = jobs.len().div_ceil(parts);
            let mut k = 0;
            for range in jobs.chunks(chunk) {
                geo.detect_batch_with(
                    &DetectionBatch { channels: &channels, jobs: range, c },
                    &mut ws,
                    &mut out,
                );
                assert_eq!(out.len(), range.len(), "{order}, {parts} parts");
                for a in &out {
                    assert_eq!(a.symbols, reference[k].symbols, "{order}: job {k}, {parts} parts");
                    assert_eq!(a.stats, reference[k].stats, "{order}: job {k}, {parts} parts");
                    k += 1;
                }
            }
            assert_eq!(k, jobs.len(), "{order}, {parts} parts: every job covered");
        }
    }
}

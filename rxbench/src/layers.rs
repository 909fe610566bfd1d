//! The traced run's serial layer replay: the window's leading frames
//! decoded again on one thread through `gs-phy`'s staged API, with a span
//! around each call into a layer.

use crate::check::mismatch;
use crate::drive::Delivery;
use crate::workload::{Inputs, Workload};
use geosphere_core::{geosphere_decoder, DetectionBatch, DetectorStats, MimoDetector};
use gs_linalg::{qr_decompose_into, Qr, QrWorkspace};
use gs_phy::{decode_frame_batched_into, FrameWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

/// One span: a timed call into a layer for one frame.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer and call, e.g. `phy.plan`.
    pub name: &'static str,
    /// Frame index.
    pub frame: u64,
    /// Start, µs since the replay began.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

/// What the layer replay measured.
#[derive(Debug, Default)]
pub struct LayerReplay {
    /// Every span, in the order recorded.
    pub spans: Vec<Span>,
    /// PED computations of the replayed detections.
    pub ped_calcs: u64,
    /// Frames replayed.
    pub frames: usize,
    /// Staged outcomes that differ from the delivered ones.
    pub errors: Vec<String>,
}

impl LayerReplay {
    /// Durations (µs) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).collect()
    }
}

/// Span names, one per layer call.
pub const PLAN: &str = "phy.plan";
/// QR of every planned channel (`gs-linalg`).
pub const QR: &str = "linalg.qr";
/// Batched sphere detection (`geosphere-core`).
pub const DETECT: &str = "core.detect";
/// Assembly and the receive chains (`gs-phy` + `gs-coding`).
pub const RECOVER: &str = "phy.recover";
/// The one-call single-worker decode, the serial baseline.
pub const SERIAL: &str = "phy.serial_frame";

/// Replays frames `first..first + n` serially. Each is planned, its
/// channels QR-factorized, detected, and recovered through the staged
/// API, then decoded once more through the single-worker one-call path;
/// the staged outcome is checked against the stream's delivery.
pub fn replay(
    w: &Workload,
    inputs: &Inputs,
    deliveries: &[Delivery],
    first: u64,
    n: u64,
) -> LayerReplay {
    let delivered: HashMap<u64, &Delivery> = deliveries.iter().map(|d| (d.index, d)).collect();
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let mut serial_ws = FrameWorkspace::new();
    let mut det_ws = det.make_batch_workspace();
    let mut out = Vec::new();
    let (mut qr_ws, mut qr) = (QrWorkspace::new(), Qr::default());
    let mut r = LayerReplay::default();
    let origin = Instant::now();
    let span = |spans: &mut Vec<Span>, name, frame, t0: Instant| {
        let t1 = Instant::now();
        spans.push(Span {
            name,
            frame,
            start_us: t0.duration_since(origin).as_secs_f64() * 1e6,
            dur_us: t1.duration_since(t0).as_secs_f64() * 1e6,
        });
    };
    for k in first..first + n {
        let spec = inputs.frame(k);
        let ch = &inputs.channels[spec.channel];

        let t = Instant::now();
        ws.plan_uplink(&w.cfg, ch, w.snr_db, &mut StdRng::seed_from_u64(spec.seed));
        span(&mut r.spans, PLAN, k, t);

        let t = Instant::now();
        for h in ws.planned_channels() {
            qr_decompose_into(h, &mut qr_ws, &mut qr);
            std::hint::black_box(&qr);
        }
        span(&mut r.spans, QR, k, t);

        let t = Instant::now();
        let batch = DetectionBatch {
            channels: ws.planned_channels(),
            jobs: ws.planned_jobs(),
            c: w.cfg.constellation,
        };
        det.detect_batch_with(&batch, &mut det_ws, &mut out);
        span(&mut r.spans, DETECT, k, t);

        let t = Instant::now();
        let mut stats = DetectorStats::default();
        ws.begin_detection_assembly();
        for (idx, d) in out.iter().enumerate() {
            ws.absorb_detection(&mut stats, idx, d);
        }
        let outcome = ws.finish_uplink(&w.cfg, stats);
        span(&mut r.spans, RECOVER, k, t);
        r.ped_calcs += outcome.stats.ped_calcs;
        match delivered.get(&k) {
            Some(d) => r.errors.extend(mismatch(d, outcome)),
            None => r.errors.push(format!("layer replay: frame {k} was not delivered")),
        }

        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(spec.seed);
        decode_frame_batched_into(&w.cfg, ch, &det, w.snr_db, &mut rng, 1, &mut serial_ws);
        span(&mut r.spans, SERIAL, k, t);
        r.frames += 1;
    }
    r
}

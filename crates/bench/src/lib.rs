//! # gs-bench
//!
//! The benchmark harness of the Geosphere workspace. One binary per paper
//! table/figure (run with `cargo run -p gs-bench --release --bin <name>`),
//! plus Criterion micro-benchmarks for the decoders and substrates.
//!
//! Every binary accepts `--quick` (small smoke run) and `--full`
//! (figure-fidelity run); the default sits in between.
//!
//! The crate also holds the per-job serial receive path,
//! [`serial_reference_frame`]: the oracle the batched decode is checked
//! against (`tests/batch_determinism.rs`) and the denominator of the
//! `frame_decode` speed gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geosphere_core::{DetectorStats, MimoDetector};
use gs_channel::MimoChannel;
use gs_phy::{FrameWorkspace, PhyConfig, UplinkOutcome};
use gs_sim::ExperimentParams;
use rand::Rng;

/// Parses the common `--quick` / `--full` / `--seed N` flags.
pub fn params_from_args() -> ExperimentParams {
    let args: Vec<String> = std::env::args().collect();
    let mut params = if args.iter().any(|a| a == "--quick") {
        ExperimentParams::quick()
    } else if args.iter().any(|a| a == "--full") {
        ExperimentParams::full()
    } else {
        // Default: between quick and full — enough fidelity to see the
        // paper's shapes in minutes.
        ExperimentParams {
            seed: 2014,
            frames_per_point: 6,
            groups_per_point: 5,
            payload_bits: 1024,
            workers: 1,
        }
    };
    if let Some(pos) = args.iter().position(|a| a == "--seed") {
        if let Some(v) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
            params.seed = v;
        }
    }
    // `--workers N` fans frame decoding out across N threads (0 = machine
    // parallelism); measured numbers are bit-identical to serial.
    if let Some(pos) = args.iter().position(|a| a == "--workers") {
        if let Some(v) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
            params.workers = v;
        }
    }
    params
}

/// Reads an integer flag like `--clients 4`.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reads a float flag like `--target-fer 0.01`.
pub fn arg_f64(name: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|p| args.get(p + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Prints a rule line for table output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Decodes one uplink frame the way a subcarrier-at-a-time receiver would:
/// a fresh [`FrameWorkspace`], the staged plan
/// ([`FrameWorkspace::plan_uplink`], genie CSI), one
/// [`MimoDetector::detect`] per (OFDM symbol, subcarrier) job with fresh
/// channel preprocessing each time, then the receive chains. It draws the
/// same randomness as [`gs_phy::decode_frame_batched_into`], which must
/// match it bit for bit at every worker count.
pub fn serial_reference_frame<R: Rng + ?Sized>(
    cfg: &PhyConfig,
    ch: &MimoChannel,
    detector: &dyn MimoDetector,
    snr_db: f64,
    rng: &mut R,
) -> UplinkOutcome {
    let mut ws = FrameWorkspace::new();
    ws.plan_uplink(cfg, ch, snr_db, rng);
    ws.begin_detection_assembly();
    let mut stats = DetectorStats::default();
    for idx in 0..ws.planned_jobs().len() {
        let job = &ws.planned_jobs()[idx];
        let det = detector.detect(&ws.planned_channels()[job.channel], &job.y, cfg.constellation);
        ws.absorb_detection(&mut stats, idx, &det);
    }
    ws.finish_uplink(cfg, stats).clone()
}

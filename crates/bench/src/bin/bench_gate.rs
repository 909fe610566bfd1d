//! The CI bench-regression gates for the frame hot paths.
//!
//! Seven modes, selected by `--mode`:
//!
//! * `frame_decode` (default, PR 4): times one 64-subcarrier 4×4 64-QAM
//!   uplink frame at 28 dB through the Geosphere decoder across the decode
//!   modes (`serial`: the per-job oracle
//!   `gs_bench::serial_reference_frame`; `batched_*`:
//!   `decode_frame_batched_into` on a fresh workspace per frame at several
//!   worker counts; `batched_into_*`: the steady-state reused-workspace
//!   path), writes `BENCH_pr4.json`, and gates the `batched_1w / serial`
//!   ratio against `crates/bench/baselines/pr4_frame_decode.json`.
//! * `frame_stream` (PR 5): measures **sustained frames/sec** over the same
//!   scenario — back-to-back single-worker `decode_frame_batched_into` vs the
//!   `gs-runtime` streaming pipeline kept full at 2 and 4 detection
//!   workers — writes `BENCH_pr5.json`, and gates the
//!   `stream_4w / serial` per-frame-time ratio against
//!   `crates/bench/baselines/pr5_frame_stream.json`. On a multi-core box
//!   the ratio is well below 1 — the streaming acceptance target is ≥1.3×
//!   sustained throughput at 4 workers; a single-core runner can only hold
//!   the pipeline-overhead line. Because this ratio genuinely depends on
//!   core count (unlike `frame_decode`'s 1-worker-vs-1-worker metric),
//!   the tight relative gate only arms when the runner's available
//!   parallelism matches the `"parallelism"` recorded in the baseline; on
//!   a mismatch, a core-count-independent **ceiling** (stream must never
//!   exceed serial per-frame time by more than 25%) still catches
//!   catastrophic streaming regressions.
//! * `deadline_storm` (PR 6): the adaptive-control-plane gate. Measures
//!   the serial per-frame time of the storm's frame shape at the sphere
//!   ceiling *and* the MMSE floor, places a machine-relative deadline at
//!   the slot-pool depth times the geometric mean of the two (above what
//!   the floor can sustain at saturation, below what sphere-only can),
//!   then drives the same saturating multi-client load through a
//!   static-sphere pipeline and the adaptive ladder
//!   (`gs_sim::run_deadline_storm`),
//!   followed by a storm → drain → trickle pass
//!   (`gs_sim::run_drain_recovery`). **Hard gates** (machine-independent
//!   by construction, since the deadline is calibrated in-process): the
//!   adaptive pipeline must miss *strictly fewer* deadlines than static
//!   sphere, must actually degrade during the storm, and must climb back
//!   to the sphere tier after the drain. A **soft gate** against
//!   `crates/bench/baselines/pr6_deadline_storm.json` bounds the adaptive
//!   miss rate at the baseline's figure plus 0.25 absolute headroom
//!   (miss rates are load-sensitive across runner generations; the
//!   headroom keeps the gate about regressions, not runner lottery).
//!   Writes `BENCH_pr6.json`.
//! * `multi_symbol` (PR 7): times the same frame through the full batched
//!   decode twice in-process — once with the multi-symbol sphere lockstep
//!   and the multi-stream Viterbi disengaged (`single_sym`, the pre-batch
//!   per-symbol path) and once with the defaults (`multi_sym`) — writes
//!   `BENCH_pr7.json`, and gates the `multi_sym / single_sym` ratio
//!   against `crates/bench/baselines/pr7_multi_symbol.json`. Both sides of
//!   this ratio are in-process timings with independent co-tenancy noise
//!   tails, so this mode gates on per-mode **minima** (noise is strictly
//!   additive; the min is the stable estimator) with a 15% band instead
//!   of the trimmed-mean/10% pairing the other timing modes use.
//! * `metrics` (PR 8): the telemetry-accuracy gate. Saturates a streaming
//!   pipeline from a driver thread while a live `gs-telemetry`
//!   `/metrics` endpoint serves it, scrapes twice one second apart, and
//!   **hard-gates** (no committed baseline needed — both sides of the
//!   comparison are measured in the same run, so the hardware term is
//!   absent, not merely cancelled): the exposition must lint clean and
//!   stay counter-monotone across the scrapes, and
//!   `gs_windowed_frames_per_sec` at the second scrape must agree with
//!   the actual delivered rate (Δ`gs_frames_completed_total` over
//!   Δ`gs_uptime_seconds`) within 10% — the regression this catches is
//!   exactly the pre-PR-8 bug where the 128-entry delivery ring clamped
//!   the windowed figure at 128 fps while the bench sustained several
//!   hundred. Writes `BENCH_pr8.json` including the latency/queue-wait/
//!   slack histogram summaries.
//!
//! The timing and storm gates are **machine-relative**: the timing modes
//! (`frame_decode`, `frame_stream`, `multi_symbol`, `trace`) compare the
//! ratio of two modes measured in the same process against a committed
//! baseline ratio or a fixed bound, and the storm mode calibrates its
//! deadline from in-process measurements; `metrics` and `campaign` are
//! correctness gates with no timing ratio. Absolute milliseconds vary with
//! the runner's silicon (ephemeral CI machines span CPU generations); the
//! ratio cancels the hardware term, so the gate trips on code regressions
//! rather than on runner lottery. **Failing** = exit code 1 (for the
//! baseline-relative timing modes, a regression of more than 10%, or 15%
//! for `multi_symbol`). The absolute means are
//! still recorded in the JSON for human inspection.
//!
//! The mean is trimmed (middle half of the sorted samples) so one noisy
//! scheduler hiccup on a shared runner cannot fail the gate by itself;
//! an improvement beyond the baseline prints a hint to refresh it.
//!
//! * `trace` (PR 10): the flight-recorder overhead gate. Measures the
//!   sustained streaming per-frame time twice in the same process —
//!   recorder disarmed, then armed — and hard-gates the armed/disarmed
//!   minimum ratio at 1.05 (≤5% fps overhead with the recorder live).
//!   Both sides carry independent in-process noise tails, so the gate
//!   uses per-mode minima like `multi_symbol`. Without `--features
//!   gs-prof/trace` the recorder is compiled out, both runs measure
//!   identical code, and the gate documents the erasure. Writes
//!   `BENCH_pr10.json`.
//! * `campaign`: runs the seeded scenario campaign at the fidelity
//!   `GS_SPEEDUP` selects and hard-gates on any scenario's invariant
//!   violations (no timing baseline).
//!
//! Flags: `--mode frame_decode|frame_stream|multi_symbol|deadline_storm|metrics|campaign|trace`,
//! `--out <path>`, `--baseline <path>`, `--samples <n>`,
//! `--write-baseline` (regenerate the committed baseline instead of
//! gating — run on a quiet machine).

use geosphere_core::{geosphere_decoder, DetectorTier, MmseDetector};
use gs_bench::serial_reference_frame;
use gs_channel::{noise_variance_for_snr_db, ChannelModel, MimoChannel, SelectiveRayleighChannel};
use gs_modulation::Constellation;
use gs_phy::{decode_frame_batched_into, FrameWorkspace, PhyConfig};
use gs_runtime::{FrameStream, StreamConfig, UplinkFrame};
use gs_sim::scenario::presets;
use gs_sim::{run_campaign, run_deadline_storm, run_drain_recovery, CampaignConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allowed regression of the gated ratio vs the baseline's ratio.
const MAX_REGRESSION: f64 = 0.10;
/// The multi_symbol gate carries independent noise in both sides of its
/// in-process ratio (see the min-based gating comment in `main`), so it
/// gets a slightly wider band than the single-noise-term mode gates.
const MULTI_SYMBOL_MAX_REGRESSION: f64 = 0.15;

struct ModeResult {
    name: &'static str,
    mean_ms: f64,
    min_ms: f64,
}

/// Trimmed mean (middle half) and min of raw per-frame times, in ms.
fn summarize(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let min = samples[0];
    let lo = samples.len() / 4;
    let hi = samples.len() - lo;
    let mid = &samples[lo..hi];
    (mid.iter().sum::<f64>() / mid.len() as f64 * 1e3, min * 1e3)
}

fn time_mode(samples: usize, mut f: impl FnMut() -> u64) -> (f64, f64) {
    // Two warmup frames grow every workspace/pool buffer before timing.
    std::hint::black_box(f());
    std::hint::black_box(f());
    let raw: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    summarize(raw)
}

/// The one timing harness every mode goes through (PR 4–6 each grew a
/// copy of this loop; they now share it): two warmups, `samples` timed
/// calls, trimmed mean + min, normalized to per-frame ms when one call
/// covers `frames_per_call` frames.
fn measure_mode(
    name: &'static str,
    samples: usize,
    frames_per_call: usize,
    f: impl FnMut() -> u64,
) -> ModeResult {
    let (mean, min) = time_mode(samples, f);
    let n = frames_per_call as f64;
    ModeResult { name, mean_ms: mean / n, min_ms: min / n }
}

/// The shared scenario of both modes: one 64-subcarrier 4×4 64-QAM uplink
/// frame at 28 dB through the Geosphere decoder over a frequency-selective
/// indoor channel.
fn scenario() -> (PhyConfig, f64, MimoChannel) {
    let cfg =
        PhyConfig { n_subcarriers: 64, payload_bits: 2048, ..PhyConfig::new(Constellation::Qam64) };
    let model = SelectiveRayleighChannel {
        n_fft: 64,
        n_subcarriers: 64,
        ..SelectiveRayleighChannel::indoor(4, 4)
    };
    let ch = model.realize(&mut StdRng::seed_from_u64(2014));
    (cfg, 28.0, ch)
}

fn run_all(samples: usize) -> Vec<ModeResult> {
    let (cfg, snr_db, ch) = scenario();
    let det = geosphere_decoder();

    let mut out = Vec::new();
    out.push(measure_mode("serial", samples, 1, || {
        let mut rng = StdRng::seed_from_u64(77);
        serial_reference_frame(&cfg, &ch, &det, snr_db, &mut rng).stats.ped_calcs
    }));

    // One-shot decodes: a fresh workspace (and so a fresh pool) per frame.
    for (name, workers) in [("batched_1w", 1usize), ("batched_2w", 2), ("batched_4w", 4)] {
        out.push(measure_mode(name, samples, 1, || {
            let mut rng = StdRng::seed_from_u64(77);
            let mut ws = FrameWorkspace::new();
            decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, workers, &mut ws)
                .stats
                .ped_calcs
        }));
    }

    for (name, workers) in [("batched_into_1w", 1usize), ("batched_into_4w", 4)] {
        let mut ws = FrameWorkspace::new();
        out.push(measure_mode(name, samples, 1, || {
            let mut rng = StdRng::seed_from_u64(77);
            decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, workers, &mut ws)
                .stats
                .ped_calcs
        }));
    }
    out
}

/// `multi_symbol` mode (PR 7): the same frame as `frame_decode`, one
/// worker, decoded with every multi-symbol batching knob off
/// (`single_sym`: per-job sphere searches, per-client Viterbi) and with
/// the defaults on (`multi_sym`: lockstep sphere descents through
/// `cdot_soa_multi`, one SoA Viterbi pass across the frame's clients).
/// Both produce bit-identical frames; the gate is purely about speed.
fn run_multi(samples: usize) -> Vec<ModeResult> {
    let (cfg, snr_db, ch) = scenario();
    let mut out = Vec::new();
    {
        let det = geosphere_decoder().with_single_symbol();
        let mut ws = FrameWorkspace::new();
        ws.set_per_client_viterbi(true);
        out.push(measure_mode("single_sym", samples, 1, || {
            let mut rng = StdRng::seed_from_u64(77);
            decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, 1, &mut ws).stats.ped_calcs
        }));
    }
    {
        let det = geosphere_decoder();
        let mut ws = FrameWorkspace::new();
        out.push(measure_mode("multi_sym", samples, 1, || {
            let mut rng = StdRng::seed_from_u64(77);
            decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, 1, &mut ws).stats.ped_calcs
        }));
    }
    out
}

/// Frames pushed through per timed sample in `frame_stream` mode — enough
/// that the pipeline's fill/drain edges are a small fraction of the
/// sample, so the number approximates *sustained* throughput.
const STREAM_FRAMES_PER_SAMPLE: usize = 24;

/// Keeps the pipeline full from one thread: admit until refused, then
/// consume one and continue; drain the tail. Returns an opaque checksum.
fn drive_stream(stream: &FrameStream, ch: &Arc<MimoChannel>, snr_db: f64, n: usize) -> u64 {
    let mut acc = 0u64;
    let mut submitted = 0usize;
    let mut received = 0usize;
    while received < n {
        if submitted < n {
            let f = UplinkFrame::new(submitted % 4, Arc::clone(ch), snr_db, 77 + submitted as u64);
            if stream.try_submit(f).is_ok() {
                submitted += 1;
                continue;
            }
        }
        let done = stream.recv().expect("stream died mid-benchmark");
        acc += done.outcome().stats.ped_calcs;
        received += 1;
    }
    acc
}

/// `frame_stream` mode: sustained frames/sec, serial vs the streaming
/// runtime at 2 and 4 detection workers. Results are **per-frame** ms so
/// the JSON stays comparable with `frame_decode`'s shape.
fn run_stream(samples: usize) -> Vec<ModeResult> {
    let (cfg, snr_db, ch) = scenario();
    let ch = Arc::new(ch);
    let det = geosphere_decoder();
    let mut out = Vec::new();

    // Serial baseline: back-to-back single-worker frames through one
    // recycled workspace — the exact loop a non-streaming receiver runs.
    {
        let mut ws = FrameWorkspace::new();
        out.push(measure_mode("serial", samples, STREAM_FRAMES_PER_SAMPLE, || {
            let mut acc = 0u64;
            for k in 0..STREAM_FRAMES_PER_SAMPLE {
                let mut rng = StdRng::seed_from_u64(77 + k as u64);
                acc += decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, 1, &mut ws)
                    .stats
                    .ped_calcs;
            }
            acc
        }));
    }

    for (name, workers) in [("stream_2w", 2usize), ("stream_4w", 4)] {
        let mut sc = StreamConfig::new(4);
        sc.workers = workers;
        sc.capacity = 8;
        let stream = FrameStream::new(cfg, det, sc);
        out.push(measure_mode(name, samples, STREAM_FRAMES_PER_SAMPLE, || {
            drive_stream(&stream, &ch, snr_db, STREAM_FRAMES_PER_SAMPLE)
        }));
    }
    out
}

/// Absolute headroom over the baseline's adaptive miss rate before the
/// soft storm gate trips: miss rates move with runner load in ways the
/// ratio trick cannot cancel, so this gate catches "the control plane
/// stopped helping", not single-digit-percent drift.
const STORM_MISS_HEADROOM: f64 = 0.25;

/// What the `deadline_storm` mode measured, ready to render and gate.
struct StormGateResult {
    serial_frame_ms: f64,
    floor_frame_ms: f64,
    deadline_ms: f64,
    static_miss_rate: f64,
    adaptive_miss_rate: f64,
    static_misses: u64,
    adaptive_misses: u64,
    submitted: u64,
    tier_admissions: [u64; DetectorTier::COUNT],
    drain_degraded: bool,
    drain_recovered: bool,
}

/// `deadline_storm` mode: calibrate a machine-relative deadline from the
/// serial sphere per-frame time, then run the storm comparison and the
/// drain-recovery pass from `gs-sim`.
fn run_storm_gate(samples: usize) -> StormGateResult {
    // The 64-subcarrier 4×4 64-QAM shape of the other two modes, run at a
    // lower SNR: the sphere search deepens sharply there while the MMSE
    // floor's cost is SNR-independent, so the sphere/MMSE per-frame gap —
    // the corridor the calibrated deadline sits in — is wide enough to
    // separate the two pipelines cleanly.
    let (cfg, _, _) = scenario();
    let snr_db = presets::STORM_SNR_DB;
    let model = SelectiveRayleighChannel {
        n_fft: 64,
        n_subcarriers: 64,
        ..SelectiveRayleighChannel::indoor(4, 4)
    };

    let capacity = presets::STORM_CAPACITY;

    // Serial calibration on the storm's frame shape, one worker, recycled
    // workspace: the per-frame cost at the sphere ceiling and at the MMSE
    // floor. Deadlines are stamped at submission, so under saturation a
    // frame's latency is roughly the slot-pool depth times the per-frame
    // service time; the deadline goes at the *geometric mean* of the two
    // tiers' projected latencies — above what the floor can sustain,
    // below what sphere-only can — and, being derived from in-process
    // measurements, lands in that corridor on any silicon.
    let ch = model.realize(&mut StdRng::seed_from_u64(2014));
    let mut ws = FrameWorkspace::new();
    let serial_frame = |det: &dyn Fn(&mut FrameWorkspace) -> u64, ws: &mut FrameWorkspace| {
        measure_mode("calibration", samples, 4, || {
            let mut acc = 0u64;
            for _ in 0..4 {
                acc += det(ws);
            }
            acc
        })
        .mean_ms
    };
    let sphere = geosphere_decoder();
    let serial_frame_ms = serial_frame(
        &|ws| {
            let mut rng = StdRng::seed_from_u64(2014);
            decode_frame_batched_into(&cfg, &ch, &sphere, snr_db, &mut rng, 1, ws).stats.ped_calcs
        },
        &mut ws,
    );
    let mmse = MmseDetector::new(noise_variance_for_snr_db(snr_db));
    let floor_frame_ms = serial_frame(
        &|ws| {
            let mut rng = StdRng::seed_from_u64(2014);
            decode_frame_batched_into(&cfg, &ch, &mmse, snr_db, &mut rng, 1, ws).stats.ped_calcs
        },
        &mut ws,
    );

    let latency_ms = capacity as f64 * (serial_frame_ms * floor_frame_ms).sqrt();
    let deadline = Duration::from_secs_f64((latency_ms / 1e3).max(0.25e-3));
    // The scenario shape (clients, frames, topology, SNR) is the shared
    // `presets::deadline_storm` definition — the campaign engine's
    // `campaign_storm` scenario is the same storm under a pinned tier.
    let storm = presets::deadline_storm(deadline, 2014);

    let cmp = run_deadline_storm(&cfg, &model, &storm);
    // Idle > the control plane's one-second miss window so storm misses
    // age out; 16 trickle frames cover two dwell periods of climbing.
    let drain = run_drain_recovery(&cfg, &model, &storm, Duration::from_millis(1200), 16);

    StormGateResult {
        serial_frame_ms,
        floor_frame_ms,
        deadline_ms: deadline.as_secs_f64() * 1e3,
        static_miss_rate: cmp.static_miss_rate(),
        adaptive_miss_rate: cmp.adaptive_miss_rate(),
        static_misses: cmp.static_sphere.deadline_misses,
        adaptive_misses: cmp.adaptive.deadline_misses,
        submitted: cmp.adaptive.submitted,
        tier_admissions: cmp.adaptive_tier_admissions,
        drain_degraded: drain.degraded,
        drain_recovered: drain.recovered,
    }
}

fn render_storm_json(r: &StormGateResult, samples: usize) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"deadline_storm_4x4_qam64\",");
    let _ = writeln!(s, "  \"samples\": {samples},");
    let _ = writeln!(s, "  \"simd_tier\": \"{}\",", gs_linalg::simd::active_tier().name());
    let _ = writeln!(s, "  \"parallelism\": {},", machine_parallelism());
    let _ = writeln!(s, "  \"serial_frame_ms\": {:.6},", r.serial_frame_ms);
    let _ = writeln!(s, "  \"floor_frame_ms\": {:.6},", r.floor_frame_ms);
    let _ = writeln!(s, "  \"deadline_ms\": {:.6},", r.deadline_ms);
    let _ = writeln!(s, "  \"modes\": {{");
    let _ = writeln!(
        s,
        "    \"static_sphere\": {{\"miss_rate\": {:.6}, \"misses\": {}, \"submitted\": {}}},",
        r.static_miss_rate, r.static_misses, r.submitted
    );
    let _ = writeln!(
        s,
        "    \"adaptive\": {{\"miss_rate\": {:.6}, \"misses\": {}, \"submitted\": {}}}",
        r.adaptive_miss_rate, r.adaptive_misses, r.submitted
    );
    let _ = writeln!(s, "  }},");
    let _ = writeln!(
        s,
        "  \"tier_admissions\": {{\"sphere\": {}, \"fsd\": {}, \"mmse\": {}}},",
        r.tier_admissions[0], r.tier_admissions[1], r.tier_admissions[2]
    );
    let _ = writeln!(
        s,
        "  \"drain\": {{\"degraded\": {}, \"recovered\": {}}}",
        r.drain_degraded, r.drain_recovered
    );
    let _ = writeln!(s, "}}");
    s
}

/// The number following `"mode": {"miss_rate":` in the storm JSON.
fn extract_miss_rate(json: &str, mode: &str) -> Option<f64> {
    let key = format!("\"{mode}\"");
    let after_mode = &json[json.find(&key)? + key.len()..];
    number_after(after_mode, "\"miss_rate\":")
}

/// Runs, renders, and gates the `deadline_storm` mode end to end.
fn storm_gate_main(out_path: &str, baseline_path: &str, samples: usize, write_baseline: bool) {
    let r = run_storm_gate(samples);
    let json = render_storm_json(&r, samples);
    println!(
        "deadline storm: sphere frame {:.3} ms, mmse frame {:.3} ms, deadline {:.3} ms",
        r.serial_frame_ms, r.floor_frame_ms, r.deadline_ms
    );
    println!(
        "static_sphere      miss rate {:.3}  ({}/{} frames)",
        r.static_miss_rate, r.static_misses, r.submitted
    );
    println!(
        "adaptive           miss rate {:.3}  ({}/{} frames, tiers sphere/fsd/mmse = {}/{}/{})",
        r.adaptive_miss_rate,
        r.adaptive_misses,
        r.submitted,
        r.tier_admissions[0],
        r.tier_admissions[1],
        r.tier_admissions[2]
    );
    println!("drain: degraded {} recovered {}", r.drain_degraded, r.drain_recovered);

    if write_baseline {
        std::fs::write(baseline_path, &json).expect("write baseline");
        println!("baseline written to {baseline_path}");
        return;
    }
    std::fs::write(out_path, &json).expect("write results");
    println!("results written to {out_path}");

    // Hard gates — deadline calibration makes these machine-independent.
    let mut failed = false;
    if r.adaptive_miss_rate >= r.static_miss_rate {
        eprintln!(
            "BENCH REGRESSION: adaptive miss rate {:.3} is not strictly below static \
             sphere's {:.3} — the control plane is not helping under the storm",
            r.adaptive_miss_rate, r.static_miss_rate
        );
        failed = true;
    }
    if !r.drain_degraded {
        eprintln!("BENCH REGRESSION: the storm never degraded the adaptive ladder");
        failed = true;
    }
    if !r.drain_recovered {
        eprintln!(
            "BENCH REGRESSION: the ladder did not climb back to the sphere tier after \
             the drain — degradation ratcheted"
        );
        failed = true;
    }

    // Soft gate against the committed baseline.
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("no committed baseline at {baseline_path}: {e}"));
    let base_adaptive = extract_miss_rate(&baseline, "adaptive")
        .unwrap_or_else(|| panic!("baseline is missing adaptive.miss_rate"));
    let limit = base_adaptive + STORM_MISS_HEADROOM;
    println!(
        "gate: adaptive miss rate {:.4} vs baseline {base_adaptive:.4} (limit {limit:.4})",
        r.adaptive_miss_rate
    );
    if r.adaptive_miss_rate > limit {
        eprintln!(
            "BENCH REGRESSION: adaptive miss rate {:.4} exceeds the baseline {base_adaptive:.4} \
             by more than the {STORM_MISS_HEADROOM} headroom",
            r.adaptive_miss_rate
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// The base seed of the CI campaign. Every scenario's seed derives from
/// this via splitmix64, so re-running any index locally reproduces its
/// report byte-for-byte.
const CAMPAIGN_BASE_SEED: u64 = 2014;

/// `campaign` mode: run the seeded scenario campaign at the fidelity the
/// `GS_SPEEDUP` env knob selects and gate hard on invariant violations.
/// The campaign is self-judging — every scenario carries its own
/// invariants (serial bit-identity, in-order delivery, exact miss and
/// refusal accounting) — so there is no timing baseline to compare
/// against and `--write-baseline` has nothing to write.
fn campaign_gate_main(out_path: &str) {
    // Lethal fault scenarios kill workers by panicking them on purpose;
    // keep those expected backtraces out of the gate's output while
    // leaving every other panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected worker fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let config = CampaignConfig::from_env(CAMPAIGN_BASE_SEED);
    println!(
        "campaign: {} scenarios x {} frames/client (speedup {}, base seed {})",
        config.scenarios, config.frames_per_client, config.speedup, config.base_seed
    );
    let report = run_campaign(&config);
    let json = report.render_json();
    std::fs::write(out_path, &json).expect("write campaign report");
    println!("results written to {out_path}");

    let offered: u64 = report.outcomes.iter().map(|o| o.offered).sum();
    let delivered: u64 = report.outcomes.iter().map(|o| o.delivered).sum();
    let faults = report.outcomes.iter().filter(|o| o.fault != "none").count();
    let fired = report.outcomes.iter().filter(|o| o.fault_fired).count();
    println!(
        "campaign: {} frames offered, {} delivered; {} scenarios carried a fault \
         ({} fired); checksum {:#018x}",
        offered,
        delivered,
        faults,
        fired,
        report.checksum()
    );

    let violations = report.total_violations();
    if violations > 0 {
        for o in report.outcomes.iter().filter(|o| !o.violations.is_empty()) {
            eprintln!(
                "CAMPAIGN VIOLATION: scenario {} (seed {:#018x}, {}):",
                o.index, o.seed, o.descriptor
            );
            for v in &o.violations {
                eprintln!("  - {v}");
            }
            eprintln!(
                "  reproduce with: gs_sim::run_scenario_by_index({}, {:#x}, {})",
                o.index, config.base_seed, config.frames_per_client
            );
        }
        eprintln!("CAMPAIGN FAILED: {violations} invariant violations");
        std::process::exit(1);
    }
    println!("gate: zero invariant violations across {} scenarios", report.outcomes.len());
}

/// How far `gs_windowed_frames_per_sec` may sit from the measured
/// delivered rate before the `metrics` gate trips.
const METRICS_RATE_TOLERANCE: f64 = 0.10;
/// The historic ring capacity the windowed rate used to clamp at; the
/// anti-clamp assertion only arms when the pipeline measurably exceeds it
/// with margin, so a slow single-core runner cannot trip it spuriously.
const LEGACY_WINDOW_EVENTS: f64 = 128.0;

/// `metrics` mode: saturate a stream while scraping its live endpoint,
/// then gate the scraped windowed throughput against the measured one.
fn metrics_gate_main(out_path: &str) {
    use gs_telemetry::{assert_counters_monotone, lint_exposition, scrape, MetricsServer};

    let (cfg, snr_db, ch) = scenario();
    let ch = Arc::new(ch);
    let mut sc = StreamConfig::new(4);
    sc.workers = 4;
    sc.capacity = 8;
    let stream = Arc::new(FrameStream::new(cfg, geosphere_decoder(), sc));
    let server = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&stream)).expect("bind endpoint");

    // Saturating driver, same admit-until-refused discipline as
    // `drive_stream` but time-bounded: runs until told to stop, then
    // drains its tail so the stream ends idle.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver = {
        let (stream, ch, stop) = (Arc::clone(&stream), Arc::clone(&ch), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut submitted = 0usize;
            let mut received = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let f =
                    UplinkFrame::new(submitted % 4, Arc::clone(&ch), snr_db, 77 + submitted as u64);
                if stream.try_submit(f).is_ok() {
                    submitted += 1;
                    continue;
                }
                std::hint::black_box(
                    stream.recv().expect("stream died mid-scrape").outcome().stats.ped_calcs,
                );
                received += 1;
            }
            while received < submitted {
                std::hint::black_box(
                    stream.recv().expect("stream died mid-drain").outcome().stats.ped_calcs,
                );
                received += 1;
            }
        })
    };

    // Let the pipeline reach steady state, then bracket one second with
    // two scrapes. Rates come from the endpoint itself (Δcompleted over
    // Δuptime), so no host clock enters the comparison.
    std::thread::sleep(Duration::from_millis(700));
    let first = scrape(server.addr(), "/metrics").expect("scrape #1");
    let first = lint_exposition(&first).expect("scrape #1 lints clean");
    std::thread::sleep(Duration::from_millis(1000));
    let second = scrape(server.addr(), "/metrics").expect("scrape #2");
    let second = lint_exposition(&second).expect("scrape #2 lints clean");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    driver.join().expect("driver thread panicked");

    let monotone = assert_counters_monotone(&first, &second).expect("counters monotone");
    let value = |expo: &gs_telemetry::Exposition, name: &str| -> f64 {
        expo.value(name, &[]).unwrap_or_else(|| panic!("series {name} missing"))
    };
    let delta_completed =
        value(&second, "gs_frames_completed_total") - value(&first, "gs_frames_completed_total");
    let delta_secs = value(&second, "gs_uptime_seconds") - value(&first, "gs_uptime_seconds");
    assert!(delta_secs > 0.5, "scrapes must bracket a real interval, got {delta_secs}s");
    let measured_fps = delta_completed / delta_secs;
    let windowed_fps = value(&second, "gs_windowed_frames_per_sec");

    // Histogram summaries for the JSON artifact, merged across lanes.
    let stats = stream.stats();
    let mut latency = gs_prof::hist::HistogramSnapshot::empty();
    for h in &stats.latency_per_client {
        latency.merge(h);
    }
    let mut queue_wait = gs_prof::hist::HistogramSnapshot::empty();
    for h in &stats.queue_wait_per_shard {
        queue_wait.merge(h);
    }

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"metrics_endpoint_4x4_qam64_64sc\",");
    let _ = writeln!(s, "  \"simd_tier\": \"{}\",", gs_linalg::simd::active_tier().name());
    let _ = writeln!(s, "  \"parallelism\": {},", machine_parallelism());
    let _ = writeln!(s, "  \"measured_fps\": {measured_fps:.3},");
    let _ = writeln!(s, "  \"windowed_fps\": {windowed_fps:.3},");
    let _ = writeln!(s, "  \"window_ratio\": {:.4},", windowed_fps / measured_fps);
    let _ = writeln!(s, "  \"lint_samples\": {},", second.samples.len());
    let _ = writeln!(s, "  \"monotone_counter_series\": {monotone},");
    let _ = writeln!(s, "  \"completed\": {},", stats.completed);
    let _ = writeln!(s, "  \"deadline_misses\": {},", stats.deadline_misses);
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut hist_json = |name: &str, h: &gs_prof::hist::HistogramSnapshot, comma: &str| {
        let _ = writeln!(
            s,
            "  \"{name}\": {{\"count\": {}, \"p50_s\": {:.6}, \"p90_s\": {:.6}, \
             \"p99_s\": {:.6}, \"max_s\": {:.6}, \"mean_s\": {:.6}}}{comma}",
            h.count(),
            secs(h.quantile(0.5)),
            secs(h.quantile(0.9)),
            secs(h.quantile(0.99)),
            secs(h.max()),
            h.mean() / 1e9,
        );
    };
    hist_json("submit_delivery_latency", &latency, ",");
    hist_json("shard_queue_wait", &queue_wait, ",");
    hist_json("deadline_slack", &stats.deadline_slack, ",");
    hist_json("deadline_lateness", &stats.deadline_lateness, "");
    let _ = writeln!(s, "}}");
    std::fs::write(out_path, &s).expect("write results");

    println!(
        "metrics endpoint: measured {measured_fps:.1} fps, windowed {windowed_fps:.1} fps, \
         latency p50 {:.3} ms p99 {:.3} ms, queue wait p99 {:.3} ms",
        secs(latency.quantile(0.5)) * 1e3,
        secs(latency.quantile(0.99)) * 1e3,
        secs(queue_wait.quantile(0.99)) * 1e3,
    );
    println!("lint ok: {} samples, {monotone} counter series monotone", second.samples.len());
    println!("results written to {out_path}");

    let mut failed = false;
    let ratio = windowed_fps / measured_fps;
    println!(
        "gate: windowed/measured ratio {ratio:.4} must stay within \
         {METRICS_RATE_TOLERANCE} of 1.0"
    );
    if !(1.0 - METRICS_RATE_TOLERANCE..=1.0 + METRICS_RATE_TOLERANCE).contains(&ratio) {
        eprintln!(
            "BENCH REGRESSION: windowed rate {windowed_fps:.1} fps disagrees with the \
             measured {measured_fps:.1} fps by more than {:.0}%",
            METRICS_RATE_TOLERANCE * 100.0
        );
        failed = true;
    }
    // The anti-clamp check: only meaningful when this machine actually
    // pushes past the historic ring capacity with margin.
    if measured_fps > LEGACY_WINDOW_EVENTS * 1.25 && windowed_fps <= LEGACY_WINDOW_EVENTS {
        eprintln!(
            "BENCH REGRESSION: windowed rate {windowed_fps:.1} fps is clamped at the \
             historic {LEGACY_WINDOW_EVENTS}-event ring capacity while the pipeline \
             sustains {measured_fps:.1} fps"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Allowed armed-over-disarmed per-frame-time ratio in `trace` mode:
/// the flight recorder may cost at most 5% of sustained throughput.
const TRACE_MAX_OVERHEAD_RATIO: f64 = 1.05;

/// `trace` mode: sustained streaming per-frame time with the flight
/// recorder disarmed vs armed, measured back to back in one process so
/// the hardware term cancels. Hard gate, no committed baseline.
fn trace_gate_main(out_path: &str, samples: usize) {
    use gs_prof::trace as gtrace;

    let (cfg, snr_db, ch) = scenario();
    let ch = Arc::new(ch);
    let det = geosphere_decoder();
    let mut results = Vec::new();
    for (name, armed) in [("disarmed", false), ("armed", true)] {
        gtrace::set_armed(armed);
        let mut sc = StreamConfig::new(4);
        sc.workers = 4;
        sc.capacity = 8;
        let stream = FrameStream::new(cfg, det, sc);
        results.push(measure_mode(name, samples, STREAM_FRAMES_PER_SAMPLE, || {
            drive_stream(&stream, &ch, snr_db, STREAM_FRAMES_PER_SAMPLE)
        }));
    }
    gtrace::set_armed(true);

    let min_of = |mode: &str| -> f64 {
        results.iter().find(|r| r.name == mode).map(|r| r.min_ms).expect("mode measured")
    };
    let ratio = min_of("armed") / min_of("disarmed");

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"trace_overhead_4x4_qam64_64sc\",");
    let _ = writeln!(s, "  \"samples\": {samples},");
    let _ = writeln!(s, "  \"simd_tier\": \"{}\",", gs_linalg::simd::active_tier().name());
    let _ = writeln!(s, "  \"parallelism\": {},", machine_parallelism());
    let _ = writeln!(s, "  \"recorder_compiled_in\": {},", gtrace::recording_enabled());
    let _ = writeln!(s, "  \"modes\": {{");
    for (k, r) in results.iter().enumerate() {
        let comma = if k + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    \"{}\": {{\"mean_ms\": {:.6}, \"min_ms\": {:.6}}}{comma}",
            r.name, r.mean_ms, r.min_ms
        );
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"armed_over_disarmed_min\": {ratio:.4}");
    let _ = writeln!(s, "}}");
    std::fs::write(out_path, &s).expect("write results");

    for r in &results {
        println!("{:<18} mean {:8.3} ms   min {:8.3} ms", r.name, r.mean_ms, r.min_ms);
    }
    if !gtrace::recording_enabled() {
        println!(
            "recorder compiled out (rebuild with --features gs-prof/trace to measure it live)"
        );
    }
    println!("results written to {out_path}");
    println!(
        "gate: armed/disarmed min ratio {ratio:.4} must stay below {TRACE_MAX_OVERHEAD_RATIO}"
    );
    if ratio > TRACE_MAX_OVERHEAD_RATIO {
        eprintln!(
            "BENCH REGRESSION: the armed flight recorder costs {:.1}% of sustained \
             streaming throughput (limit {:.0}%)",
            (ratio - 1.0) * 100.0,
            (TRACE_MAX_OVERHEAD_RATIO - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}

fn render_json(
    results: &[ModeResult],
    bench: &str,
    samples: usize,
    stage_profile: Option<&str>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"{bench}\",");
    let _ = writeln!(s, "  \"samples\": {samples},");
    let _ = writeln!(s, "  \"simd_tier\": \"{}\",", gs_linalg::simd::active_tier().name());
    let _ = writeln!(s, "  \"parallelism\": {},", machine_parallelism());
    let modes_comma = if stage_profile.is_some() { "," } else { "" };
    let _ = writeln!(s, "  \"modes\": {{");
    for (k, r) in results.iter().enumerate() {
        let comma = if k + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    \"{}\": {{\"mean_ms\": {:.6}, \"min_ms\": {:.6}}}{comma}",
            r.name, r.mean_ms, r.min_ms
        );
    }
    let _ = writeln!(s, "  }}{modes_comma}");
    if let Some(frag) = stage_profile {
        s.push_str(frag);
    }
    let _ = writeln!(s, "}}");
    s
}

/// How many single-worker frames the profiled bracket decodes. Enough
/// that per-frame attribution is stable; small enough to add <1 s.
const PROFILE_FRAMES: usize = 16;

/// Decode `PROFILE_FRAMES` frames with one worker between two profiler
/// snapshots; returns the bracketed per-stage delta and the wall-clock
/// envelope in seconds. The single warmup frame before the bracket grows
/// every buffer and registers the thread tables, so the measured frames
/// reflect the steady state.
fn profile_frames() -> (gs_prof::StageProfile, f64) {
    let (cfg, snr_db, ch) = scenario();
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let decode = |seed: u64, ws: &mut FrameWorkspace| {
        let mut rng = StdRng::seed_from_u64(seed);
        decode_frame_batched_into(&cfg, &ch, &det, snr_db, &mut rng, 1, ws).stats.ped_calcs
    };
    std::hint::black_box(decode(77, &mut ws));
    let before = gs_prof::snapshot();
    let t0 = Instant::now();
    for k in 0..PROFILE_FRAMES {
        std::hint::black_box(decode(77 + k as u64, &mut ws));
    }
    let wall = t0.elapsed().as_secs_f64();
    (gs_prof::snapshot().delta(&before), wall)
}

/// Print the per-stage table to stdout and return the `"stage_profile"`
/// JSON fragment for [`render_json`]. Cycles are self-time (scopes nest
/// without double-counting), so the `pct` column partitions the table
/// total and `coverage` is table-total ÷ wall-clock — the fraction of
/// frame time the taxonomy reaches.
fn dump_stage_profile(p: &gs_prof::StageProfile, wall_secs: f64) -> String {
    let tps = gs_prof::ticks_per_sec();
    let frames = PROFILE_FRAMES as f64;
    let total = p.total_cycles() as f64;
    let coverage = if wall_secs > 0.0 { (total / tps) / wall_secs } else { 0.0 };
    println!();
    println!(
        "stage profile ({PROFILE_FRAMES} frames, 1 worker, self-time; tick clock {:.2} GHz):",
        tps / 1e9
    );
    println!(
        "  {:<13} {:>9} {:>12} {:>12} {:>6}",
        "stage", "ms/frame", "invocations", "bytes", "pct"
    );
    for r in p.stages.iter() {
        if r.cycles == 0 && r.invocations == 0 && r.bytes == 0 {
            continue;
        }
        println!(
            "  {:<13} {:>9.4} {:>12} {:>12} {:>5.1}%",
            r.stage.name(),
            (r.cycles as f64 / tps) * 1e3 / frames,
            r.invocations,
            r.bytes,
            if total > 0.0 { 100.0 * r.cycles as f64 / total } else { 0.0 },
        );
    }
    let top = p.top_stage().map(|s| s.name()).unwrap_or("none");
    println!(
        "  coverage {:.1}% of {:.3} ms/frame wall; top stage: {top}",
        coverage * 100.0,
        wall_secs * 1e3 / frames
    );

    let mut s = String::new();
    let _ = writeln!(s, "  \"stage_profile\": {{");
    let _ = writeln!(s, "    \"frames\": {PROFILE_FRAMES},");
    let _ = writeln!(s, "    \"ticks_per_sec\": {tps:.0},");
    let _ = writeln!(s, "    \"wall_ms_per_frame\": {:.6},", wall_secs * 1e3 / frames);
    let _ = writeln!(s, "    \"coverage\": {coverage:.4},");
    let _ = writeln!(s, "    \"top_stage\": \"{top}\",");
    let _ = writeln!(s, "    \"stages\": {{");
    for (k, r) in p.stages.iter().enumerate() {
        let comma = if k + 1 == p.stages.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "      \"{}\": {{\"cycles\": {}, \"invocations\": {}, \"bytes\": {}}}{comma}",
            r.stage.name(),
            r.cycles,
            r.invocations,
            r.bytes
        );
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "  }}");
    s
}

fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Minimal extractors for our own JSON format — no general JSON parser
/// needed (or available offline).
fn number_after(json: &str, key: &str) -> Option<f64> {
    let after_field = &json[json.find(key)? + key.len()..];
    let num: String = after_field
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
        .collect();
    num.parse().ok()
}

/// The number following `"mode" : {... "field":`.
fn extract_field(json: &str, mode: &str, field: &str) -> Option<f64> {
    let key = format!("\"{mode}\"");
    let after_mode = &json[json.find(&key)? + key.len()..];
    number_after(after_mode, &format!("\"{field}\":"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).and_then(|p| args.get(p + 1).cloned())
    };
    let mode = flag_value("--mode").unwrap_or_else(|| "frame_decode".into());
    let samples_flag = flag_value("--samples").and_then(|v| v.parse().ok());
    let write_baseline = args.iter().any(|a| a == "--write-baseline");

    // The storm mode gates miss rates, not timing ratios — it has its own
    // render/gate path.
    if mode == "deadline_storm" {
        let out = flag_value("--out").unwrap_or_else(|| "BENCH_pr6.json".into());
        let baseline = flag_value("--baseline")
            .unwrap_or_else(|| "crates/bench/baselines/pr6_deadline_storm.json".into());
        storm_gate_main(&out, &baseline, samples_flag.unwrap_or(12), write_baseline);
        return;
    }
    // The metrics mode gates the endpoint against an in-run measurement —
    // self-relative, so it takes no baseline (and `--write-baseline` has
    // nothing to write).
    if mode == "metrics" {
        let out = flag_value("--out").unwrap_or_else(|| "BENCH_pr8.json".into());
        metrics_gate_main(&out);
        return;
    }
    // The campaign mode gates on seeded-scenario invariants (bit-identity,
    // ordering, miss accounting) — deterministic, so no baseline either.
    if mode == "campaign" {
        let out = flag_value("--out").unwrap_or_else(|| "CAMPAIGN_pr9.json".into());
        campaign_gate_main(&out);
        return;
    }
    // The trace mode gates the recorder against an in-process disarmed
    // run — self-relative, no baseline.
    if mode == "trace" {
        let out = flag_value("--out").unwrap_or_else(|| "BENCH_pr10.json".into());
        trace_gate_main(&out, samples_flag.unwrap_or(12));
        return;
    }

    // Per-mode defaults: (bench label, out, baseline, gated mode,
    // in-run reference mode — the denominator cancelling the hardware
    // term: "serial" for the PR 4/5 gates, "single_sym" for PR 7's).
    let (bench, default_out, default_baseline, gated_mode, reference_mode) = match mode.as_str() {
        "frame_decode" => (
            "frame_decode_4x4_qam64_64sc",
            "BENCH_pr4.json",
            "crates/bench/baselines/pr4_frame_decode.json",
            "batched_1w",
            "serial",
        ),
        "frame_stream" => (
            "frame_stream_4x4_qam64_64sc",
            "BENCH_pr5.json",
            "crates/bench/baselines/pr5_frame_stream.json",
            "stream_4w",
            "serial",
        ),
        "multi_symbol" => (
            "multi_symbol_4x4_qam64_64sc",
            "BENCH_pr7.json",
            "crates/bench/baselines/pr7_multi_symbol.json",
            "multi_sym",
            "single_sym",
        ),
        other => {
            panic!(
                "unknown --mode {other:?} (expected frame_decode|frame_stream|\
                 multi_symbol|deadline_storm|metrics|campaign|trace)"
            )
        }
    };
    let out_path = flag_value("--out").unwrap_or_else(|| default_out.into());
    let baseline_path = flag_value("--baseline").unwrap_or_else(|| default_baseline.into());
    let samples: usize = samples_flag.unwrap_or(12);

    let results = match mode.as_str() {
        "frame_stream" => run_stream(samples),
        "multi_symbol" => run_multi(samples),
        _ => run_all(samples),
    };
    // The per-stage attribution table rides along whenever the binary was
    // built with `--features gs-prof/profile`; without it the
    // instrumentation is compiled out and there is nothing to dump.
    let stage_fragment = if gs_prof::enabled() {
        let (profile, wall) = profile_frames();
        Some(dump_stage_profile(&profile, wall))
    } else {
        println!(
            "stage profile: compiled out (rebuild with --features gs-prof/profile to dump it)"
        );
        None
    };
    let json = render_json(&results, bench, samples, stage_fragment.as_deref());
    for r in &results {
        println!("{:<18} mean {:8.3} ms   min {:8.3} ms", r.name, r.mean_ms, r.min_ms);
    }
    if mode == "frame_stream" {
        let mean_of = |mode: &str| -> f64 {
            results.iter().find(|r| r.name == mode).map(|r| r.mean_ms).expect("mode measured")
        };
        println!(
            "sustained throughput: serial {:.1} fps, stream_4w {:.1} fps ({:.2}x)",
            1e3 / mean_of("serial"),
            1e3 / mean_of("stream_4w"),
            mean_of("serial") / mean_of("stream_4w"),
        );
    }

    if write_baseline {
        std::fs::write(&baseline_path, &json).expect("write baseline");
        println!("baseline written to {baseline_path}");
        return;
    }

    std::fs::write(&out_path, &json).expect("write results");
    println!("results written to {out_path}");

    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("no committed baseline at {baseline_path}: {e}"));

    // The frame_stream ratio is *not* core-count independent: stream_4w
    // scales with real cores while serial does not, so the gate only
    // means something against a baseline from a machine with the same
    // available parallelism. On a mismatch, record the numbers but skip
    // the pass/fail judgement — a green gate must never come from
    // comparing a 1-core baseline on a 4-core runner (or vice versa).
    // frame_decode gates 1-worker vs 1-worker and stays unconditional.
    let mean_of = |results: &[ModeResult], mode: &str| -> f64 {
        results.iter().find(|r| r.name == mode).map(|r| r.mean_ms).expect("mode measured")
    };
    if mode == "frame_stream" {
        let base_par = number_after(&baseline, "\"parallelism\":").map(|p| p as usize);
        let cur_par = machine_parallelism();
        if base_par != Some(cur_par) {
            // The tight relative gate is disarmed, but a core-count
            // independent bound still holds on ANY machine: adding cores
            // can only help the stream, so its per-frame time must never
            // exceed serial by more than the single-core pipeline
            // overhead plus headroom. This keeps a catastrophic streaming
            // regression from sailing through green on a runner whose
            // core count doesn't match the committed baseline.
            const STREAM_OVERHEAD_CEILING: f64 = 1.25;
            let cur_ratio = mean_of(&results, gated_mode) / mean_of(&results, reference_mode);
            println!(
                "tight gate skipped: baseline parallelism {} vs this machine's {cur_par} — \
                 the stream/serial ratio is only comparable on matching core counts; \
                 refresh with --write-baseline on a machine like the CI runner to arm it. \
                 Applying the universal ceiling instead: ratio {cur_ratio:.4} must stay \
                 below {STREAM_OVERHEAD_CEILING}",
                base_par.map_or("unrecorded".into(), |p| p.to_string()),
            );
            if cur_ratio > STREAM_OVERHEAD_CEILING {
                eprintln!(
                    "BENCH REGRESSION: {gated_mode}/{reference_mode} ratio {cur_ratio:.4} \
                     exceeds the core-count-independent ceiling {STREAM_OVERHEAD_CEILING}"
                );
                std::process::exit(1);
            }
            return;
        }
    }
    // The multi_symbol gate compares on per-mode minima instead of the
    // trimmed means the other modes use. Its ratio has two in-process
    // timing measurements, each carrying an independent co-tenancy noise
    // tail; at a 10% tolerance the mean-based ratio flakes on busy
    // runners. Scheduler interference is strictly additive, so the
    // minimum over the sample set is the stable estimator of the
    // undisturbed frame time and holds the ratio steady to a few
    // percent. A slightly wider tolerance absorbs what two-sided min
    // jitter remains.
    let (metric_field, tolerance) = if mode == "multi_symbol" {
        ("min_ms", MULTI_SYMBOL_MAX_REGRESSION)
    } else {
        ("mean_ms", MAX_REGRESSION)
    };
    let metric_of = |results: &[ModeResult], mode: &str| -> f64 {
        results
            .iter()
            .find(|r| r.name == mode)
            .map(|r| if metric_field == "min_ms" { r.min_ms } else { r.mean_ms })
            .expect("mode measured")
    };
    let base_gated = extract_field(&baseline, gated_mode, metric_field)
        .unwrap_or_else(|| panic!("baseline is missing {gated_mode}.{metric_field}"));
    let base_ref = extract_field(&baseline, reference_mode, metric_field)
        .unwrap_or_else(|| panic!("baseline is missing {reference_mode}.{metric_field}"));
    let base_ratio = base_gated / base_ref;
    let cur_ratio = metric_of(&results, gated_mode) / metric_of(&results, reference_mode);

    let limit = base_ratio * (1.0 + tolerance);
    println!(
        "gate: {gated_mode}/{reference_mode} ratio {cur_ratio:.4} vs baseline \
         {base_ratio:.4} (limit {limit:.4})"
    );
    if cur_ratio > limit {
        eprintln!(
            "BENCH REGRESSION: {gated_mode}/{reference_mode} ratio {cur_ratio:.4} exceeds \
             the baseline ratio {base_ratio:.4} by more than {:.0}%",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    if cur_ratio < base_ratio * (1.0 - tolerance) {
        println!(
            "note: {gated_mode} is now >{:.0}% faster relative to {reference_mode} than \
             the baseline — consider refreshing it with --write-baseline",
            tolerance * 100.0
        );
    }
}

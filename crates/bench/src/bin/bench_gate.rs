//! The CI bench-regression gates. Each `--mode` measures, records named
//! numbers, checks them, and writes them; every check is machine
//! independent: an in-process ratio, or a bound calibrated in-process.
//!
//! | mode | gated value | limit |
//! |---|---|---|
//! | `frame_decode` (default) | trimmed-mean `batched_1w/serial` | baseline × 1.10 |
//! | `frame_stream` | trimmed-mean `stream_4w/serial` | baseline × 1.10 if parallelism equals the baseline's, else 1.25 |
//! | `multi_symbol` | min `multi_sym/single_sym` | baseline × 1.15 |
//! | `trace` | min `armed/disarmed` | 1.05 |
//! | `deadline_storm` | adaptive miss rate < static; degraded; recovered; adaptive miss rate | baseline + 0.25 |
//! | `metrics` | both scrapes lint clean; counters monotone; windowed/measured | within ±10%, plus the anti-clamp check above 160 fps |
//! | `campaign` | invariant violations | 0, with the repro line for each violating scenario |
//!
//! Why each gate holds:
//!
//! * `frame_decode`: both sides decode the shared scenario
//!   ([`gs_bench::frame_decode_scenario`]) on one worker, so the ratio
//!   cancels the runner's silicon; the trimmed mean (middle half) drops
//!   scheduler hiccups.
//! * `frame_stream`: the 4-worker stream scales with real cores while
//!   serial does not, so the tight gate only compares equal core counts;
//!   elsewhere the stream must at least not exceed serial by 25%.
//! * `multi_symbol`: both sides carry independent co-tenancy noise, which
//!   is strictly additive, so the minimum is the stable estimator and the
//!   band is wider.
//! * `trace`: the same binary streams with the flight recorder disarmed
//!   and armed, alternating one sample of each so host drift hits both
//!   sides; minima as in `multi_symbol`. Without `gs-prof/trace` both
//!   sides measure identical code.
//! * `deadline_storm`: the deadline sits at the slot-pool depth times the
//!   geometric mean of the measured sphere and MMSE frame times, above
//!   what the floor sustains and below what sphere-only can, on any
//!   silicon; the baseline headroom absorbs runner load.
//! * `metrics`: the endpoint's windowed rate and the delivered rate
//!   (Δ`gs_frames_completed_total` over Δ`gs_uptime_seconds`) come from
//!   the same two scrapes one second apart; the anti-clamp check catches a
//!   delivery window stuck at its historic 128-event capacity.
//! * `campaign`: every seeded scenario carries its own invariants; the
//!   repro line re-runs a violating scenario byte-for-byte.
//!
//! Each run writes `BENCH_<mode>.json` (or `--out <path>`): one flat JSON
//! object of header fields and `"key": number` pairs, with the per-stage
//! profile as `stage.*` keys when built with `--features gs-prof/profile`.
//! `campaign` writes `CampaignReport::render_json` instead; that report
//! is timing-independent, and CI `cmp`s the `GS_SPEEDUP=16` run against
//! its baseline byte for byte. A baseline is a committed copy of a run's
//! output at `crates/bench/baselines/<mode>.json`; to refresh one, copy a
//! run's output over it. Flags: `--mode <mode>`,
//! `--out <path>`, `--samples <n>` (timed samples per measurement, 12).

use geosphere_core::{geosphere_decoder, DetectorTier, MimoDetector, MmseDetector};
use gs_bench::{frame_decode_scenario, serial_reference_frame, FrameDecodeScenario};
use gs_channel::{noise_variance_for_snr_db, MimoChannel};
use gs_phy::{decode_frame_batched_into, FrameWorkspace, PhyConfig};
use gs_runtime::{FrameStream, StreamConfig, UplinkFrame};
use gs_sim::scenario::presets;
use gs_sim::{run_campaign, run_deadline_storm, run_drain_recovery, CampaignConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Allowed regression of a baseline-relative trimmed-mean ratio.
const MAX_REGRESSION: f64 = 0.10;
/// `multi_symbol`'s wider band: both sides of its ratio carry noise.
const MULTI_SYMBOL_MAX_REGRESSION: f64 = 0.15;
/// `frame_stream`'s core-count-independent ceiling: adding cores can only
/// help the stream, so it never exceeds serial by more than this.
const STREAM_OVERHEAD_CEILING: f64 = 1.25;
/// Allowed armed-over-disarmed per-frame time: the flight recorder may
/// cost at most 5% of sustained throughput.
const TRACE_MAX_OVERHEAD_RATIO: f64 = 1.05;
/// Absolute headroom over the baseline's adaptive miss rate: miss rates
/// move with runner load, so this catches "the control plane stopped
/// helping", not drift.
const STORM_MISS_HEADROOM: f64 = 0.25;
/// How far the windowed rate may sit from the measured delivered rate.
const METRICS_RATE_TOLERANCE: f64 = 0.10;
/// The historic delivery-ring capacity the windowed rate used to clamp
/// at; the anti-clamp check arms only above 1.25× this, so a slow runner
/// cannot trip it.
const LEGACY_WINDOW_EVENTS: f64 = 128.0;
/// Frames per timed streaming sample: enough that fill and drain are a
/// small fraction, so the figure approximates sustained throughput.
const STREAM_FRAMES: usize = 24;
/// Single-worker frames in the profiled bracket: stable attribution,
/// well under a second.
const PROFILE_FRAMES: usize = 16;
/// The campaign's base seed; every scenario's seed derives from it.
const CAMPAIGN_BASE_SEED: u64 = 2014;

/// One run: its named numbers, in measurement order, and its checks.
#[derive(Default)]
struct Run {
    values: Vec<(String, f64)>,
    /// Names of the checks that failed.
    failed: Vec<String>,
    /// `campaign`'s output, written in place of the flat object.
    report: Option<String>,
}

impl Run {
    /// Records and prints a named number; returns it.
    fn set(&mut self, key: impl Into<String>, value: f64) -> f64 {
        let key = key.into();
        println!("{key:<36} {value:.4}");
        self.values.push((key, value));
        value
    }

    /// Times `f` with [`time_frames`] and records `<name>.mean_ms` and
    /// `<name>.min_ms`.
    fn time(
        &mut self,
        name: &str,
        samples: usize,
        frames: usize,
        f: impl FnMut() -> u64,
    ) -> (f64, f64) {
        let (mean, min) = time_frames(samples, frames, f);
        (self.set(format!("{name}.mean_ms"), mean), self.set(format!("{name}.min_ms"), min))
    }

    /// The one check: `value` passes at or below `limit`. Prints the
    /// comparison and records a failure, which exits the run with code 1.
    /// Conditions are checked as 0/1 flags of the failure against 0.
    fn check(&mut self, name: &str, value: f64, limit: f64) {
        let ok = value <= limit;
        println!("gate: {name} {value:.4} (limit {limit:.4}) {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.failed.push(name.into());
        }
    }
}

/// The trimmed mean (middle half) and minimum per frame, in ms, over
/// `samples` calls of `f` covering `frames` frames each, after two warmup
/// calls that grow every workspace and pool buffer.
fn time_frames(samples: usize, frames: usize, mut f: impl FnMut() -> u64) -> (f64, f64) {
    black_box(f());
    black_box(f());
    let secs: Vec<f64> = (0..samples).map(|_| time_once(&mut f)).collect();
    per_frame_ms(secs, frames)
}

/// Seconds taken by one call of `f`.
fn time_once(f: &mut impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// The trimmed mean (middle half) and minimum per frame, in ms, of
/// samples covering `frames` frames each.
fn per_frame_ms(mut secs: Vec<f64>, frames: usize) -> (f64, f64) {
    secs.sort_by(f64::total_cmp);
    let trim = secs.len() / 4;
    let mid = &secs[trim..secs.len() - trim];
    let ms = 1e3 / frames as f64;
    (mid.iter().sum::<f64>() / mid.len() as f64 * ms, secs[0] * ms)
}

/// 0/1 for a condition, as a named number or a check value.
fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The one result format: header fields, then the run's named numbers,
/// each printed in full precision so it reads back exactly.
fn render(mode: &str, samples: usize, values: &[(String, f64)]) -> String {
    let mut s = format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"simd_tier\": \"{}\",\n  \"parallelism\": {},\n  \
         \"samples\": {samples}",
        gs_linalg::simd::active_tier().name(),
        machine_parallelism()
    );
    for (key, value) in values {
        let value = if value.is_finite() { value.to_string() } else { "null".into() };
        let _ = write!(s, ",\n  \"{key}\": {value}");
    }
    s.push_str("\n}\n");
    s
}

/// The number under `key` in an object written by [`render`].
fn lookup(json: &str, key: &str) -> Result<f64, String> {
    let pattern = format!("\"{key}\": ");
    let start = json.find(&pattern).ok_or_else(|| format!("no key {key:?}"))? + pattern.len();
    let rest = &json[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].parse().map_err(|e| format!("key {key:?} is not a number: {e}"))
}

/// The committed baseline of `mode`, found from the crate, not the
/// working directory.
fn baseline_path(mode: &str) -> PathBuf {
    [env!("CARGO_MANIFEST_DIR"), "baselines", &format!("{mode}.json")].iter().collect()
}

/// `key` in `mode`'s committed baseline; panics with the reason if absent.
fn baseline(mode: &str, key: &str) -> f64 {
    let path = baseline_path(mode);
    std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|json| lookup(&json, key))
        .unwrap_or_else(|e| panic!("baseline {}: {e}", path.display()))
}

/// Decodes the scenario's frame for `seed` on one worker through `ws`.
fn decode<D>(
    s: &FrameDecodeScenario,
    det: &D,
    snr_db: f64,
    seed: u64,
    ws: &mut FrameWorkspace,
) -> u64
where
    D: MimoDetector + Clone + PartialEq + 'static,
{
    let mut rng = StdRng::seed_from_u64(seed);
    decode_frame_batched_into(&s.cfg, &s.channel, det, snr_db, &mut rng, 1, ws).stats.ped_calcs
}

/// The streaming pipeline every stream mode drives: 4 clients, 4
/// detection workers, 8 slots.
fn stream_4w<D: MimoDetector + Clone + PartialEq + 'static>(cfg: PhyConfig, det: D) -> FrameStream {
    let mut sc = StreamConfig::new(4);
    sc.workers = 4;
    sc.capacity = 8;
    FrameStream::new(cfg, det, sc)
}

/// Keeps the pipeline full from one thread for `n` frames: admit until
/// refused, then consume one; drains the tail. Returns a checksum.
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
        acc += stream.recv().expect("stream died mid-benchmark").outcome().stats.ped_calcs;
        received += 1;
    }
    acc
}

/// The serial oracle vs the batched decode on a fresh workspace per frame.
fn frame_decode(run: &mut Run, samples: usize) {
    let s = frame_decode_scenario();
    let det = geosphere_decoder();
    let (serial, _) = run.time("serial", samples, 1, || {
        let mut rng = StdRng::seed_from_u64(77);
        serial_reference_frame(&s.cfg, &s.channel, &det, s.snr_db, &mut rng).stats.ped_calcs
    });
    let (batched, _) = run.time("batched_1w", samples, 1, || {
        decode(&s, &det, s.snr_db, 77, &mut FrameWorkspace::new())
    });
    let ratio = run.set("batched_1w/serial", batched / serial);
    let limit = baseline("frame_decode", "batched_1w/serial") * (1.0 + MAX_REGRESSION);
    run.check("batched_1w/serial", ratio, limit);
}

/// Sustained per-frame time: back-to-back single-worker decodes through a
/// recycled workspace vs the streaming runtime kept full.
fn frame_stream(run: &mut Run, samples: usize) {
    let s = frame_decode_scenario();
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let (serial, _) = run.time("serial", samples, STREAM_FRAMES, || {
        (0..STREAM_FRAMES as u64).map(|k| decode(&s, &det, s.snr_db, 77 + k, &mut ws)).sum()
    });
    let stream = stream_4w(s.cfg, det);
    let ch = Arc::new(s.channel);
    let (streamed, _) = run.time("stream_4w", samples, STREAM_FRAMES, || {
        drive_stream(&stream, &ch, s.snr_db, STREAM_FRAMES)
    });
    let ratio = run.set("stream_4w/serial", streamed / serial);
    println!("sustained: serial {:.1} fps, stream_4w {:.1} fps", 1e3 / serial, 1e3 / streamed);
    let limit = if baseline("frame_stream", "parallelism") == machine_parallelism() as f64 {
        baseline("frame_stream", "stream_4w/serial") * (1.0 + MAX_REGRESSION)
    } else {
        println!("parallelism differs from the baseline's: core-count-independent ceiling");
        STREAM_OVERHEAD_CEILING
    };
    run.check("stream_4w/serial", ratio, limit);
}

/// The frame decoded with every multi-symbol batching knob off
/// (per-job sphere searches, per-client Viterbi) and with the defaults
/// (lockstep descents, one SoA Viterbi pass); both bit-identical.
fn multi_symbol(run: &mut Run, samples: usize) {
    let s = frame_decode_scenario();
    let det = geosphere_decoder().with_single_symbol();
    let mut ws = FrameWorkspace::new();
    ws.set_per_client_viterbi(true);
    let (_, single) =
        run.time("single_sym", samples, 1, || decode(&s, &det, s.snr_db, 77, &mut ws));
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let (_, multi) = run.time("multi_sym", samples, 1, || decode(&s, &det, s.snr_db, 77, &mut ws));
    let ratio = run.set("multi_sym/single_sym", multi / single);
    let limit =
        baseline("multi_symbol", "multi_sym/single_sym") * (1.0 + MULTI_SYMBOL_MAX_REGRESSION);
    run.check("multi_sym/single_sym", ratio, limit);
}

/// Sustained streaming with the flight recorder disarmed and armed, one
/// sample of each in turn (after two warmup rounds), so drift in the
/// host's load lands on both sides alike.
fn trace(run: &mut Run, samples: usize) {
    use gs_prof::trace as gtrace;
    let s = frame_decode_scenario();
    let ch = Arc::new(s.channel);
    let sides = [("disarmed", false), ("armed", true)];
    let streams = sides.map(|_| stream_4w(s.cfg, geosphere_decoder()));
    let mut secs = [Vec::new(), Vec::new()];
    for round in 0..samples + 2 {
        for ((&(_, armed), stream), secs) in sides.iter().zip(&streams).zip(&mut secs) {
            gtrace::set_armed(armed);
            let t = time_once(&mut || drive_stream(stream, &ch, s.snr_db, STREAM_FRAMES));
            if round >= 2 {
                secs.push(t);
            }
        }
    }
    let mut min_ms = Vec::new();
    for ((name, _), secs) in sides.into_iter().zip(secs) {
        let (mean, min) = per_frame_ms(secs, STREAM_FRAMES);
        run.set(format!("{name}.mean_ms"), mean);
        min_ms.push(run.set(format!("{name}.min_ms"), min));
    }
    gtrace::set_armed(true);
    if run.set("recorder_compiled_in", flag(gtrace::recording_enabled())) == 0.0 {
        println!("recorder compiled out (rebuild with --features gs-prof/trace to measure it)");
    }
    let ratio = run.set("armed/disarmed", min_ms[1] / min_ms[0]);
    run.check("armed/disarmed", ratio, TRACE_MAX_OVERHEAD_RATIO);
}

/// Calibrates a deadline from serial sphere and MMSE frame times at the
/// storm's lower SNR (where the sphere search deepens and MMSE does not),
/// then runs the storm comparison and the storm → drain → trickle pass.
fn deadline_storm(run: &mut Run, samples: usize) {
    let s = frame_decode_scenario();
    let snr_db = presets::STORM_SNR_DB;
    let mut ws = FrameWorkspace::new();
    let sphere = geosphere_decoder();
    let (serial, _) = time_frames(samples, 4, || {
        (0..4).map(|_| decode(&s, &sphere, snr_db, 2014, &mut ws)).sum()
    });
    let mmse = MmseDetector::new(noise_variance_for_snr_db(snr_db));
    let (floor, _) =
        time_frames(samples, 4, || (0..4).map(|_| decode(&s, &mmse, snr_db, 2014, &mut ws)).sum());
    run.set("serial_frame_ms", serial);
    run.set("floor_frame_ms", floor);

    // Under saturation a frame's latency is about the slot-pool depth
    // times the per-frame service time.
    let latency_ms = presets::STORM_CAPACITY as f64 * (serial * floor).sqrt();
    let deadline = Duration::from_secs_f64((latency_ms / 1e3).max(0.25e-3));
    run.set("deadline_ms", deadline.as_secs_f64() * 1e3);
    // The storm at the calibration's frame shape: 4×4, 64 subcarriers.
    let storm = presets::deadline_storm(deadline, 2014).phy(s.cfg).antennas(4, 4);
    let cmp = run_deadline_storm(&storm);
    // Idle longer than the one-second miss window so storm misses age out;
    // 16 trickle frames cover two dwell periods of climbing.
    let drain = run_drain_recovery(&storm, Duration::from_millis(1200), 16);

    let static_rate = run.set("static_sphere.miss_rate", cmp.static_miss_rate());
    run.set("static_sphere.misses", cmp.static_sphere.deadline_misses as f64);
    let adaptive = run.set("adaptive.miss_rate", cmp.adaptive_miss_rate());
    run.set("adaptive.misses", cmp.adaptive.deadline_misses as f64);
    run.set("submitted", cmp.adaptive.submitted as f64);
    for (tier, n) in DetectorTier::ALL.iter().zip(cmp.adaptive_tier_admissions) {
        run.set(format!("tier_admissions.{}", tier.name()), n as f64);
    }
    run.set("drain.degraded", flag(drain.degraded));
    run.set("drain.recovered", flag(drain.recovered));

    run.check("adaptive.miss_rate >= static_sphere.miss_rate", flag(adaptive >= static_rate), 0.0);
    run.check("storm did not degrade the ladder", flag(!drain.degraded), 0.0);
    run.check("ladder did not recover after the drain", flag(!drain.recovered), 0.0);
    let limit = baseline("deadline_storm", "adaptive.miss_rate") + STORM_MISS_HEADROOM;
    run.check("adaptive.miss_rate", adaptive, limit);
}

/// Saturates a stream from a driver thread while its live `/metrics`
/// endpoint serves it, and brackets one second with two scrapes. Rates
/// come from the endpoint itself, so no host clock enters the comparison.
fn metrics(run: &mut Run) {
    use gs_telemetry::{
        assert_counters_monotone, lint_exposition, scrape, Exposition, MetricsServer,
    };

    let s = frame_decode_scenario();
    let (ch, snr_db) = (Arc::new(s.channel), s.snr_db);
    let stream = Arc::new(stream_4w(s.cfg, geosphere_decoder()));
    let server = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&stream)).expect("bind endpoint");
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let (stream, stop) = (Arc::clone(&stream), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                black_box(drive_stream(&stream, &ch, snr_db, STREAM_FRAMES));
            }
        })
    };
    let scrape_linted = |n: u32| {
        let text = scrape(server.addr(), "/metrics").expect("scrape");
        lint_exposition(&text).unwrap_or_else(|e| panic!("scrape #{n} does not lint clean: {e}"))
    };
    std::thread::sleep(Duration::from_millis(700));
    let first = scrape_linted(1);
    std::thread::sleep(Duration::from_millis(1000));
    let second = scrape_linted(2);
    stop.store(true, Ordering::Relaxed);
    driver.join().expect("driver thread panicked");

    let value = |expo: &Exposition, name: &str| -> f64 {
        expo.value(name, &[]).unwrap_or_else(|| panic!("series {name} missing"))
    };
    let delta = |name: &str| value(&second, name) - value(&first, name);
    let delta_secs = delta("gs_uptime_seconds");
    assert!(delta_secs > 0.5, "scrapes must bracket a real interval, got {delta_secs}s");
    let measured = run.set("measured_fps", delta("gs_frames_completed_total") / delta_secs);
    let windowed = run.set("windowed_fps", value(&second, "gs_windowed_frames_per_sec"));
    let ratio = run.set("window_ratio", windowed / measured);
    run.set("lint_samples", second.samples.len() as f64);
    let monotone = assert_counters_monotone(&first, &second);
    if let Err(e) = &monotone {
        eprintln!("counters not monotone: {e}");
    }
    run.set("monotone_counter_series", monotone.as_ref().map_or(0.0, |&n| n as f64));

    let stats = stream.stats();
    run.set("completed", stats.completed as f64);
    run.set("deadline_misses", stats.deadline_misses as f64);
    let mut latency = gs_prof::hist::HistogramSnapshot::empty();
    stats.latency_per_client.iter().for_each(|h| latency.merge(h));
    let mut queue_wait = gs_prof::hist::HistogramSnapshot::empty();
    stats.queue_wait_per_shard.iter().for_each(|h| queue_wait.merge(h));
    for (name, h) in [
        ("submit_delivery_latency", &latency),
        ("shard_queue_wait", &queue_wait),
        ("deadline_slack", &stats.deadline_slack),
        ("deadline_lateness", &stats.deadline_lateness),
    ] {
        run.set(format!("{name}.count"), h.count() as f64);
        for (q, label) in [(0.5, "p50_s"), (0.9, "p90_s"), (0.99, "p99_s")] {
            run.set(format!("{name}.{label}"), h.quantile(q) as f64 / 1e9);
        }
        run.set(format!("{name}.max_s"), h.max() as f64 / 1e9);
        run.set(format!("{name}.mean_s"), h.mean() / 1e9);
    }

    run.check("counters not monotone", flag(monotone.is_err()), 0.0);
    run.check("|windowed/measured - 1|", (ratio - 1.0).abs(), METRICS_RATE_TOLERANCE);
    let clamped = measured > LEGACY_WINDOW_EVENTS * 1.25 && windowed <= LEGACY_WINDOW_EVENTS;
    run.check("windowed rate clamped at the legacy ring", flag(clamped), 0.0);
}

/// The seeded scenario campaign at the fidelity `GS_SPEEDUP` selects.
fn campaign(run: &mut Run) {
    // Lethal fault scenarios panic workers on purpose; keep those
    // expected backtraces quiet and every other panic loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload().downcast_ref::<String>();
        if !msg.is_some_and(|m| m.starts_with("injected worker fault")) {
            default_hook(info);
        }
    }));
    let config = CampaignConfig::from_env(CAMPAIGN_BASE_SEED);
    println!(
        "campaign: {} scenarios x {} frames/client (speedup {}, base seed {})",
        config.scenarios, config.frames_per_client, config.speedup, config.base_seed
    );
    let report = run_campaign(&config);
    let sum = |f: fn(&gs_sim::ScenarioOutcome) -> u64| report.outcomes.iter().map(f).sum::<u64>();
    run.set("offered", sum(|o| o.offered) as f64);
    run.set("delivered", sum(|o| o.delivered) as f64);
    run.set("fault_scenarios", sum(|o| u64::from(o.fault != "none")) as f64);
    run.set("faults_fired", sum(|o| u64::from(o.fault_fired)) as f64);
    println!("campaign checksum {:#018x}", report.checksum());
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
    run.check("invariant violations", report.total_violations() as f64, 0.0);
    run.report = Some(report.render_json());
}

/// Decodes [`PROFILE_FRAMES`] steady-state frames on one worker between
/// two profiler snapshots and records the self-time table as `stage.*`
/// keys; `stage.coverage` is table total ÷ wall clock.
fn stage_profile(run: &mut Run) {
    let s = frame_decode_scenario();
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    black_box(decode(&s, &det, s.snr_db, 77, &mut ws));
    let before = gs_prof::snapshot();
    let t0 = Instant::now();
    for k in 0..PROFILE_FRAMES as u64 {
        black_box(decode(&s, &det, s.snr_db, 77 + k, &mut ws));
    }
    let wall = t0.elapsed().as_secs_f64();
    let p = gs_prof::snapshot().delta(&before);
    let tps = gs_prof::ticks_per_sec();
    let frames = PROFILE_FRAMES as f64;
    run.set("stage.frames", frames);
    run.set("stage.ticks_per_sec", tps);
    run.set("stage.wall_ms_per_frame", wall * 1e3 / frames);
    run.set("stage.coverage", p.total_cycles() as f64 / tps / wall);
    for r in p.stages.iter().filter(|r| r.cycles + r.invocations + r.bytes > 0) {
        let name = r.stage.name();
        run.set(format!("stage.{name}.ms_per_frame"), r.cycles as f64 / tps * 1e3 / frames);
        run.set(format!("stage.{name}.cycles"), r.cycles as f64);
        run.set(format!("stage.{name}.invocations"), r.invocations as f64);
        run.set(format!("stage.{name}.bytes"), r.bytes as f64);
    }
}

fn main() {
    gs_bench::check_flags(&["--mode", "--samples", "--out"]);
    let mode = gs_bench::arg("--mode", "frame_decode".to_string());
    let samples = gs_bench::arg("--samples", 12);
    let out = gs_bench::arg("--out", format!("BENCH_{mode}.json"));

    let mut run = Run::default();
    match mode.as_str() {
        "frame_decode" => frame_decode(&mut run, samples),
        "frame_stream" => frame_stream(&mut run, samples),
        "multi_symbol" => multi_symbol(&mut run, samples),
        "trace" => trace(&mut run, samples),
        "deadline_storm" => deadline_storm(&mut run, samples),
        "metrics" => metrics(&mut run),
        "campaign" => campaign(&mut run),
        other => panic!(
            "unknown --mode {other:?} (expected frame_decode|frame_stream|multi_symbol|trace|\
             deadline_storm|metrics|campaign)"
        ),
    }
    if gs_prof::enabled() && run.report.is_none() {
        stage_profile(&mut run);
    }
    let json = run.report.take().unwrap_or_else(|| render(&mode, samples, &run.values));
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("results written to {out}");
    if !run.failed.is_empty() {
        eprintln!("BENCH REGRESSION in {mode}: {}", run.failed.join("; "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_written_key_reads_back_equal() {
        let values: Vec<(String, f64)> = [
            ("serial.mean_ms", 3.194247123456789),
            ("batched_1w/serial", 0.7247),
            ("stage.crc.cycles", 686170.0),
            ("crc.cycles", 1.0),
            ("tiny", 1.5e-12),
            ("huge", 2.5e300),
            ("negative", -0.125),
            ("zero", 0.0),
        ]
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
        let json = render("frame_decode", 12, &values);
        for (key, value) in &values {
            assert_eq!(lookup(&json, key), Ok(*value), "{key} in\n{json}");
        }
        assert_eq!(lookup(&json, "samples"), Ok(12.0));
        assert_eq!(lookup(&json, "parallelism"), Ok(machine_parallelism() as f64));
    }

    #[test]
    fn missing_key_is_an_error() {
        let json = render("frame_decode", 12, &[("present".into(), 1.0)]);
        let err = lookup(&json, "absent").unwrap_err();
        assert!(err.contains("absent"), "{err}");
        assert!(lookup(&json, "mode").is_err(), "a string header is not a number");
        let nan = render("frame_decode", 12, &[("nan".into(), f64::NAN)]);
        assert!(lookup(&nan, "nan").is_err(), "a non-finite value must not read back as a pass");
    }

    #[test]
    fn check_passes_at_the_limit_and_fails_above_it() {
        let mut run = Run::default();
        run.check("at", 1.1, 1.1);
        run.check("below", 0.5, 1.1);
        assert!(run.failed.is_empty());
        run.check("above", 1.1f64.next_up(), 1.1);
        run.check("nan", f64::NAN, 1.1);
        assert_eq!(run.failed, ["above", "nan"]);
    }

    #[test]
    fn committed_baselines_carry_their_gated_keys() {
        for (mode, key) in [
            ("frame_decode", "batched_1w/serial"),
            ("frame_stream", "stream_4w/serial"),
            ("frame_stream", "parallelism"),
            ("multi_symbol", "multi_sym/single_sym"),
            ("deadline_storm", "adaptive.miss_rate"),
        ] {
            assert!(baseline(mode, key).is_finite(), "{mode}: {key}");
        }
    }
}

//! `rxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds a `FrameStream` with the fixed benchmark topology, warms it up,
//! runs one workload's timed window, checks the delivered output against
//! the serial reference decoder and the runtime's own counters, and
//! prints every metric by name and unit. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! workload traced (spans around every call the benchmark makes into a
//! layer, a 10 Hz telemetry sampler) followed by an untraced reference
//! window, replays the leading frames serially through the staged
//! `gs-phy` API, and reports the per-layer metrics; the spans are written
//! to `rxbench/out/`.

use rxbench::check::{leading_counts, replay_check};
use rxbench::drive::{self, accounting_errors, Slice, Window};
use rxbench::layers::{self, LayerReplay};
use rxbench::stats::{mean, median, peak_rss_mib, percentile, Rank};
use rxbench::workload::{self, stream_config, Inputs, Workload, CLIENTS, COUNT_FRAMES};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: rxbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\nworkloads:";

/// Fewer complete slices than this and a window's throughput and CPU cost
/// are taken over the whole window instead of as medians over slices.
const MIN_SLICES: usize = 3;
/// Stream constructions timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = "rxbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The checks of one window: failures against frames offered, and any
/// error that makes the run incorrect.
struct Checked {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    replayed: usize,
}

fn check_window(w: &Workload, inputs: &Inputs, win: &Window) -> Checked {
    let mut errors = win.errors.clone();
    errors.extend(accounting_errors(win));
    let (replayed, mismatches) = replay_check(w, inputs, &win.log.kept);
    let lost = win.admitted.saturating_sub(win.log.delivered);
    let failed = win.refused + lost + mismatches.len() as u64;
    errors.extend(mismatches);
    Checked { attempted: win.offered, failed, errors, replayed }
}

fn ms_rank(samples: impl Iterator<Item = u64>, q: f64, scale: f64) -> Rank {
    let mut v: Vec<f64> = samples.map(|ns| ns as f64 / scale).collect();
    percentile(&mut v, q).unwrap_or(Rank { value: 0.0, beyond: 0, samples: 0 })
}

fn cpu_ms_per_frame(win: &Window) -> f64 {
    win.cpu_seconds * 1e3 / win.log.timed.max(1) as f64
}

/// The end-to-end metrics of an untraced window, all but `setup_s`. The
/// block p99 latency goes into the validity record, not the metrics: on a
/// shared 2-vCPU host it follows the neighbours' stalls, not the receiver
/// (see `METRICS.md`).
fn end_to_end(w: &Workload, win: &Window, failed: u64) -> (Vec<Metric>, String) {
    let log = &win.log;
    let window_ok_bits = log.timed_ok_payloads * w.cfg.payload_bits as u64;
    let none = Rank { value: 0.0, beyond: 0, samples: 0 };
    let (ranks, blocks) = log.latency.summary().unwrap_or((vec![none; 2], 0));
    let (p50, p99) = (ranks[0], ranks[1]);
    // Throughput and CPU cost are medians over the window's one-second
    // slices, which a few seconds of host stalls cannot move.
    let sliced = |per: fn(&Slice, f64) -> f64, whole: f64| {
        if log.slices.len() < MIN_SLICES {
            return whole;
        }
        let payload_bits = w.cfg.payload_bits as f64;
        median(&log.slices.iter().map(|s| per(s, payload_bits)).collect::<Vec<_>>())
    };
    let offered = win.offered.max(1) as f64;
    let metrics = vec![
        m(
            "frames_per_s",
            sliced(|s, _| s.frames as f64 / s.seconds, log.timed as f64 / win.seconds),
            "1/s",
        ),
        m(
            "goodput_mbps",
            sliced(
                |s, bits| s.ok_payloads as f64 * bits / s.seconds / 1e6,
                window_ok_bits as f64 / win.seconds / 1e6,
            ),
            "Mbit/s",
        ),
        m("latency_p50_ms", p50.value, "ms"),
        m("ontime_frac", log.on_time as f64 / offered, "frac"),
        m(
            "crc_ok_frac",
            log.ok_payloads as f64 / (log.delivered.max(1) * CLIENTS as u64) as f64,
            "frac",
        ),
        m("ok_frac", 1.0 - failed as f64 / offered, "frac"),
        m(
            "cpu_ms_per_frame",
            sliced(|s, _| s.cpu_seconds * 1e3 / s.frames as f64, cpu_ms_per_frame(win)),
            "ms",
        ),
        m("peak_rss_mb", peak_rss_mib(), "MiB"),
    ];
    let samples = format!(
        "\"frames_in_window\":{},\"slices\":{},\"latency_samples\":{},\"latency_blocks\":{blocks},\"latency_p99_ms\":{},\"latency_p99_beyond_per_block\":{}",
        log.timed,
        log.slices.len(),
        p99.samples,
        p99.value,
        p99.beyond
    );
    (metrics, samples)
}

/// The per-layer metrics of a traced window, its layer replay, and the
/// untraced reference window run right after it.
fn per_layer(traced: &Window, reference: &Window, replay: &LayerReplay) -> (Vec<Metric>, String) {
    let frames: Vec<_> = traced.log.kept.iter().filter(|d| d.in_window).collect();
    let per_frame = |name| mean(&replay.durations(name));
    let (plan, qr, detect, recover) = (
        per_frame(layers::PLAN),
        per_frame(layers::QR),
        per_frame(layers::DETECT),
        per_frame(layers::RECOVER),
    );
    let detect_total_ns: f64 = replay.durations(layers::DETECT).iter().sum::<f64>() * 1e3;
    let counts = leading_counts(&traced.log.kept, 0, COUNT_FRAMES).unwrap_or_default();
    let per_det = |x: u64| x as f64 / counts.detections.max(1) as f64;
    let mut waits = gs_prof::hist::HistogramSnapshot::empty();
    for h in &traced.stats_after.queue_wait_per_shard {
        waits.merge(h);
    }
    let renders: Vec<f64> = traced.telemetry.iter().map(|t| t.render_us).collect();
    let bytes: Vec<f64> = traced.telemetry.iter().map(|t| t.bytes as f64).collect();
    let occupancy: Vec<f64> = traced.telemetry.iter().map(|t| t.occupancy).collect();
    let traced_cpu = cpu_ms_per_frame(traced);
    let submit = |q| ms_rank(frames.iter().map(|d| d.submit_ns), q, 1e3).value;
    let inflight = |q| ms_rank(frames.iter().map(|d| d.inflight_ns), q, 1e6).value;
    let lag = ms_rank(traced.lag_ns.iter().copied(), 0.99, 1e6);
    let metrics = vec![
        m("core.detect_us_per_frame", detect, "us"),
        m("core.ns_per_ped", detect_total_ns / replay.ped_calcs.max(1) as f64, "ns"),
        m("core.peds_per_detection", per_det(counts.stats.ped_calcs), "count"),
        m("core.visited_per_detection", per_det(counts.stats.visited_nodes), "count"),
        m("core.bound_prunes_per_detection", per_det(counts.stats.bound_prunes), "count"),
        m("linalg.qr_us_per_frame", qr, "us"),
        m("phy.plan_us_per_frame", plan, "us"),
        m("phy.recover_us_per_frame", recover, "us"),
        m("phy.serial_frame_us", mean(&replay.durations(layers::SERIAL)), "us"),
        m("runtime.submit_us_p50", submit(0.5), "us"),
        m("runtime.submit_us_p99", submit(0.99), "us"),
        m("runtime.inflight_ms_p50", inflight(0.5), "ms"),
        m("runtime.inflight_ms_p99", inflight(0.99), "ms"),
        m("runtime.queue_wait_us_p50", waits.quantile(0.5) as f64 / 1e3, "us"),
        m("runtime.queue_wait_us_p99", waits.quantile(0.99) as f64 / 1e3, "us"),
        m("runtime.occupancy_mean", mean(&occupancy), "frac"),
        m("runtime.refused", traced.refused as f64, "count"),
        m("runtime.unaccounted_ms_per_frame", traced_cpu - (plan + detect + recover) / 1e3, "ms"),
        m("telemetry.render_us", median(&renders), "us"),
        m("telemetry.exposition_bytes", median(&bytes), "bytes"),
        m("gen.lag_p99_ms", lag.value, "ms"),
        m("trace.overhead_frac", traced_cpu / cpu_ms_per_frame(reference) - 1.0, "frac"),
    ];
    let samples = format!(
        "\"frames_in_window\":{},\"count_frames\":{},\"layer_frames\":{},\"telemetry_samples\":{},\"lag_samples\":{},\"lag_p99_beyond\":{}",
        frames.len(),
        counts.frames,
        replay.frames,
        traced.telemetry.len(),
        lag.samples,
        lag.beyond
    );
    (metrics, samples)
}

/// Writes the traced window's and the layer replay's spans as TSV:
/// `span  client  seq  frame  start_us  dur_us`, stream spans keyed by
/// `(client, seq)`, replay spans by frame index.
fn write_spans(
    w: &Workload,
    seed: u64,
    traced: &Window,
    replay: &LayerReplay,
) -> std::io::Result<String> {
    let mut out = String::from("span\tclient\tseq\tframe\tstart_us\tdur_us\n");
    let us = |t: Instant| t.duration_since(traced.start).as_secs_f64() * 1e6;
    for d in &traced.log.kept {
        let recv = us(d.recv_at);
        let inflight = d.inflight_ns as f64 / 1e3;
        let submit = d.submit_ns as f64 / 1e3;
        let (c, s, f) = (d.client, d.seq, d.index);
        let _ =
            writeln!(out, "runtime.submit\t{c}\t{s}\t{f}\t{}\t{submit}", recv - inflight - submit);
        let _ = writeln!(out, "runtime.inflight\t{c}\t{s}\t{f}\t{}\t{inflight}", recv - inflight);
    }
    for sp in &replay.spans {
        let _ = writeln!(out, "{}\t\t\t{}\t{}\t{}", sp.name, sp.frame, sp.start_us, sp.dur_us);
    }
    std::fs::create_dir_all(TRACE_DIR)?;
    let path = format!("{TRACE_DIR}/spans-{}-seed{seed}.tsv", w.name);
    std::fs::write(&path, out)?;
    Ok(path)
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// The run-validity record: what the numbers depend on besides the code.
fn validity(
    w: &Workload,
    inputs: &Inputs,
    args: &Args,
    synth_s: f64,
    win: &Window,
    samples: &str,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut env: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("GS_")).collect();
    env.sort();
    let env = env
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect::<Vec<_>>()
        .join(",");
    let sc = stream_config();
    // Share of the window's frames that flew through a channel realization
    // an earlier frame already used.
    let distinct: HashSet<usize> = (0..win.offered).map(|k| inputs.frame(k).channel).collect();
    let reuse = 1.0 - distinct.len() as f64 / win.offered.max(1) as f64;
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"simd_tier\":\"{}\",\"gs_env\":{{{env}}},\"topology\":{{\"clients\":{},\"workers\":{},\"shards\":{},\"planners\":{},\"capacity\":{},\"pin\":{}}},\"detector\":\"geosphere (pinned)\",\"channel_pool\":{},\"channel_reuse_frac\":{reuse},\"synthesis_s\":{synth_s},\"offered\":{},\"delivered\":{},{samples}}}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gs_linalg::simd::active_tier().name(),
        sc.clients,
        sc.workers,
        sc.shards,
        sc.planners,
        sc.capacity,
        sc.pin,
        w.pool_size,
        win.offered,
        win.log.delivered,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rxbench: {e}\n{USAGE} {}", workload::NAMES.join(", "));
            return ExitCode::from(2);
        }
    };
    if gs_prof::enabled() || gs_prof::trace::recording_enabled() {
        eprintln!(
            "rxbench: built with gs-prof's `profile` or `trace` feature; end-to-end numbers \
             would include in-program instrumentation. Rebuild without them."
        );
        return ExitCode::from(2);
    }
    let Some(w) = workload::workload(&args.workload) else {
        eprintln!(
            "rxbench: unknown workload {:?}\n{USAGE} {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };

    let t = Instant::now();
    let inputs = Inputs::generate(&w, args.seed, args.seconds);
    let synth_s = t.elapsed().as_secs_f64();
    let mut ready = match drive::setup(&w, &inputs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rxbench: set-up failed: {e}");
            return ExitCode::from(1);
        }
    };

    let (mut metrics, checked, record) = if args.trace {
        let traced = drive::run_window(&mut ready, &w, &inputs, args.seconds, 0, true);
        let next = traced.offered;
        let reference = drive::run_window(&mut ready, &w, &inputs, args.seconds, next, false);
        let replay = layers::replay(&w, &inputs, &traced.log.kept, 0, w.layer_frames as u64);
        let (metrics, samples) = per_layer(&traced, &reference, &replay);
        let mut checked = check_window(&w, &inputs, &traced);
        let c2 = check_window(&w, &inputs, &reference);
        checked.attempted += c2.attempted;
        checked.failed += c2.failed;
        checked.replayed += c2.replayed;
        checked.errors.extend(c2.errors);
        checked.errors.extend(replay.errors.iter().cloned());
        if leading_counts(&traced.log.kept, 0, COUNT_FRAMES).is_none() {
            checked
                .errors
                .push(format!("the first {} frames were not all delivered", COUNT_FRAMES));
        }
        match write_spans(&w, args.seed, &traced, &replay) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => checked.errors.push(format!("writing spans: {e}")),
        }
        let record = validity(&w, &inputs, &args, synth_s, &traced, &samples);
        (metrics, checked, record)
    } else {
        let win = drive::run_window(&mut ready, &w, &inputs, args.seconds, 0, false);
        let checked = check_window(&w, &inputs, &win);
        let (metrics, samples) = end_to_end(&w, &win, checked.failed);
        let record = validity(&w, &inputs, &args, synth_s, &win, &samples);
        (metrics, checked, record)
    };
    let first_setup_s = ready.setup_s;
    drop(ready);
    if !args.trace {
        // The other set-ups are timed only now, after `peak_rss_mb` was
        // read: the memory of streams built and dropped before the window
        // would otherwise stay resident and enter it.
        let mut setup_s = vec![first_setup_s];
        for _ in 1..SETUP_REPS {
            match drive::setup(&w, &inputs) {
                Ok(r) => setup_s.push(r.setup_s),
                Err(e) => {
                    eprintln!("rxbench: set-up failed: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        metrics.push(m("setup_s", median(&setup_s), "s"));
    }

    println!("validity {record}");
    println!("checked: {} deliveries replayed against the serial decoder", checked.replayed);
    for e in &checked.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = checked.errors.is_empty() && metrics.iter().all(|x| x.value.is_finite());
    let mut json = String::new();
    for x in &metrics {
        println!("{} = {} {}", x.name, x.value, x.unit);
        if !json.is_empty() {
            json.push(',');
        }
        let value = if x.value.is_finite() { x.value } else { 0.0 };
        let _ = write!(json, "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", x.name, x.unit);
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        checked.attempted.max(1),
        checked.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

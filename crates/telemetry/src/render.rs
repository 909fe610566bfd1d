//! [`RuntimeStats`] → Prometheus text exposition format (version 0.0.4).
//!
//! Pure string rendering: no I/O, no locks, deterministic for a given
//! snapshot. The renderer is what the [`MetricsServer`](crate::MetricsServer)
//! serves and what the e2e tests compare against [`RuntimeStats`] field by
//! field. Histograms are exported as Prometheus *summaries* (pre-computed
//! quantiles, `_sum`, `_count`) because the log-bucketed edges are an
//! implementation detail — plus an explicit `_max` gauge per family, which
//! a summary cannot carry but an operator staring at deadline overshoot
//! wants.

use geosphere_core::DetectorTier;
use gs_prof::hist::HistogramSnapshot;
use gs_prof::trace;
use gs_runtime::RuntimeStats;
use std::fmt::Write as _;

/// Quantiles exported for every histogram-backed summary family.
pub const QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// Cap on per-client latency summary lanes. Clients beyond the cap are
/// merged into one `client="other"` lane so a base station with hundreds
/// of attached clients cannot blow up scrape cardinality.
pub const MAX_CLIENT_LANES: usize = 16;

const NS_PER_SEC: f64 = 1e9;

/// Appends one `# TYPE` header.
fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one unlabeled sample.
fn sample(out: &mut String, name: &str, value: f64) {
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one sample with a single `key="value"` label.
fn sample1(out: &mut String, name: &str, key: &str, label: &str, value: f64) {
    let _ = writeln!(out, "{name}{{{key}=\"{label}\"}} {value}");
}

/// Renders nanosecond histograms as one summary family in **seconds**,
/// one series per `(key, value)` label.
fn summary(out: &mut String, name: &str, key: &str, series: &[(String, &HistogramSnapshot)]) {
    type_line(out, name, "summary");
    for (value, hist) in series {
        for q in QUANTILES {
            let _ = writeln!(
                out,
                "{name}{{{key}=\"{value}\",quantile=\"{q}\"}} {}",
                hist.quantile(q) as f64 / NS_PER_SEC
            );
        }
        sample1(out, &format!("{name}_sum"), key, value, hist.sum() as f64 / NS_PER_SEC);
        sample1(out, &format!("{name}_count"), key, value, hist.count() as f64);
    }
    // The exact observed maximum, as its own gauge family (summaries have
    // no max series in the exposition format).
    let max_name = format!("{name}_max");
    type_line(out, &max_name, "gauge");
    for (value, hist) in series {
        sample1(out, &max_name, key, value, hist.max() as f64 / NS_PER_SEC);
    }
}

/// Renders an *unlabeled* summary family from one histogram.
fn summary_single(out: &mut String, name: &str, hist: &HistogramSnapshot) {
    type_line(out, name, "summary");
    for q in QUANTILES {
        let _ =
            writeln!(out, "{name}{{quantile=\"{q}\"}} {}", hist.quantile(q) as f64 / NS_PER_SEC);
    }
    sample(out, &format!("{name}_sum"), hist.sum() as f64 / NS_PER_SEC);
    sample(out, &format!("{name}_count"), hist.count() as f64);
    type_line(out, &format!("{name}_max"), "gauge");
    sample(out, &format!("{name}_max"), hist.max() as f64 / NS_PER_SEC);
}

/// Renders a [`RuntimeStats`] snapshot as a complete Prometheus text
/// exposition: lifetime counters, instantaneous gauges (including the
/// corrected windowed rates), latency/queue-wait/deadline summaries, and
/// — when the workspace is built with `--features profile` — the
/// stage-attributed cycle table as `gs_stage_*_total{stage=...}` series.
///
/// Every metric name is emitted exactly once with a `# TYPE` header, so
/// the output always passes [`lint_exposition`](crate::lint_exposition).
///
/// Per-client latency lanes are capped at [`MAX_CLIENT_LANES`]: clients
/// `0..MAX_CLIENT_LANES` keep their own `client="<i>"` series (stable
/// labels — a client's lane never changes identity as others join), and
/// everything beyond is merged into a single `client="other"` summary.
pub fn render_runtime_stats(stats: &RuntimeStats) -> String {
    let mut out = String::with_capacity(4096);

    // Lifetime pipeline counters, in stage order (already clamped
    // monotone by the snapshot).
    for (name, v) in [
        ("gs_frames_submitted_total", stats.submitted),
        ("gs_frames_planned_total", stats.planned),
        ("gs_frames_detected_total", stats.detected),
        ("gs_frames_recovered_total", stats.recovered),
        ("gs_frames_completed_total", stats.completed),
        ("gs_deadline_misses_total", stats.deadline_misses),
    ] {
        type_line(&mut out, name, "counter");
        sample(&mut out, name, v as f64);
    }

    type_line(&mut out, "gs_tier_admissions_total", "counter");
    for tier in DetectorTier::ALL {
        sample1(
            &mut out,
            "gs_tier_admissions_total",
            "tier",
            tier.name(),
            stats.tier_admissions[tier.index()] as f64,
        );
    }

    // Instantaneous gauges.
    for (name, v) in [
        ("gs_current_tier", stats.current_tier.index() as f64),
        ("gs_in_flight", stats.in_flight as f64),
        ("gs_capacity", stats.capacity as f64),
        ("gs_occupancy", stats.occupancy()),
        ("gs_workers", stats.workers as f64),
        ("gs_queue_depth", stats.queue_depth as f64),
        ("gs_uptime_seconds", stats.elapsed.as_secs_f64()),
        ("gs_frames_per_sec", stats.frames_per_sec),
        ("gs_windowed_frames_per_sec", stats.windowed_frames_per_sec),
        ("gs_windowed_miss_rate", stats.windowed_miss_rate),
    ] {
        type_line(&mut out, name, "gauge");
        sample(&mut out, name, v);
    }

    // Latency summaries (nanosecond histograms exported in seconds).
    // Per-client lanes are capped: the tail merges into `client="other"`.
    let mut other = HistogramSnapshot::empty();
    let mut per_client: Vec<(String, &HistogramSnapshot)> = Vec::new();
    for (i, h) in stats.latency_per_client.iter().enumerate() {
        if i < MAX_CLIENT_LANES {
            per_client.push((i.to_string(), h));
        } else {
            other.merge(h);
        }
    }
    if stats.latency_per_client.len() > MAX_CLIENT_LANES {
        per_client.push((String::from("other"), &other));
    }
    summary(&mut out, "gs_submit_delivery_latency_seconds", "client", &per_client);

    let [queue_wait] = &stats.queue_wait_per_shard;
    summary_single(&mut out, "gs_queue_wait_seconds", queue_wait);
    summary_single(&mut out, "gs_deadline_slack_seconds", &stats.deadline_slack);
    summary_single(&mut out, "gs_deadline_lateness_seconds", &stats.deadline_lateness);

    // Stage-attributed cycle table (all-zero and therefore elided unless
    // the workspace was built with the `profile` feature).
    if gs_prof::enabled() {
        let profile = stats.stage_profile();
        type_line(&mut out, "gs_stage_cycles_total", "counter");
        for r in &profile.stages {
            sample1(&mut out, "gs_stage_cycles_total", "stage", r.stage.name(), r.cycles as f64);
        }
        type_line(&mut out, "gs_stage_invocations_total", "counter");
        for r in &profile.stages {
            sample1(
                &mut out,
                "gs_stage_invocations_total",
                "stage",
                r.stage.name(),
                r.invocations as f64,
            );
        }
        type_line(&mut out, "gs_stage_bytes_total", "counter");
        for r in &profile.stages {
            sample1(&mut out, "gs_stage_bytes_total", "stage", r.stage.name(), r.bytes as f64);
        }
    }

    // Flight-recorder anomaly families. Trigger counts are maintained even
    // when the recorder is compiled out, so these are always present (the
    // dump gauge just stays 0 without `--features trace`).
    type_line(&mut out, "gs_trace_triggers_total", "counter");
    let triggers = trace::trigger_counts();
    for t in trace::Trigger::ALL {
        sample1(
            &mut out,
            "gs_trace_triggers_total",
            "trigger",
            t.name(),
            triggers[t.index()] as f64,
        );
    }
    type_line(&mut out, "gs_trace_dumps", "gauge");
    sample(&mut out, "gs_trace_dumps", trace::dump_count() as f64);
    type_line(&mut out, "gs_trace_recording_enabled", "gauge");
    sample(&mut out, "gs_trace_recording_enabled", trace::recording_enabled() as u64 as f64);

    out
}

/// Sentinel-aware integer: [`trace::NO_TIER`]-style "none" markers render
/// as `-1` so the JSON consumer gets one honest convention instead of
/// magic max values.
fn opt_int(raw: u64, none: u64) -> i64 {
    if raw == none {
        -1
    } else {
        raw as i64
    }
}

/// Renders the retained flight-recorder dumps as the `/trace` JSON
/// payload: trigger counters, recorder state, and — per dump — the
/// assembled per-frame timelines with span/instant offsets in
/// microseconds relative to each dump's earliest event. Hand-rolled like
/// the rest of the crate (no serde in an offline workspace); every string
/// emitted is a static identifier, so no escaping is needed.
pub fn render_trace_dumps(dumps: &[trace::TraceDump]) -> String {
    let mut out = String::with_capacity(1024 + dumps.len() * 4096);
    out.push_str("{\"recording_enabled\":");
    let _ = write!(out, "{}", trace::recording_enabled());
    let _ = write!(out, ",\"armed\":{}", trace::armed());
    out.push_str(",\"triggers\":{");
    let triggers = trace::trigger_counts();
    for (i, t) in trace::Trigger::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", t.name(), triggers[t.index()]);
    }
    out.push_str("},\"dumps\":[");
    for (di, dump) in dumps.iter().enumerate() {
        if di > 0 {
            out.push(',');
        }
        let tpu = if dump.ticks_per_us > 0.0 { dump.ticks_per_us } else { 1.0 };
        let t0 = dump.events.iter().map(|e| e.tsc).min().unwrap_or(0);
        let us = |t: u64| t.saturating_sub(t0) as f64 / tpu;
        let _ = write!(
            out,
            "{{\"seq\":{},\"trigger\":\"{}\",\"frame\":{},\"unix_ms\":{},\"event_count\":{},\"timelines\":[",
            dump.seq,
            dump.trigger.name(),
            opt_int(dump.frame, trace::NO_FRAME),
            dump.unix_ms,
            dump.events.len()
        );
        for (ti, tl) in dump.timelines.iter().enumerate() {
            if ti > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"frame\":{},\"client\":{},\"tier\":{},\"begin_us\":{:.3},\"duration_us\":{:.3},\"spans\":[",
                tl.frame,
                opt_int(tl.client as u64, trace::NO_CLIENT as u64),
                opt_int(tl.tier as u64, trace::NO_TIER as u64),
                us(tl.begin),
                us(tl.end) - us(tl.begin)
            );
            for (si, s) in tl.spans.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"point\":\"{}\",\"thread\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                    s.point.name(),
                    s.thread,
                    us(s.begin),
                    us(s.end) - us(s.begin)
                );
            }
            out.push_str("],\"instants\":[");
            for (ii, ev) in tl.instants.iter().enumerate() {
                if ii > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"point\":\"{}\",\"thread\":{},\"at_us\":{:.3}}}",
                    ev.point.name(),
                    ev.thread,
                    us(ev.tsc)
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

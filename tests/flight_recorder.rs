//! End-to-end test of the per-frame flight recorder: drive real frames
//! with already-hopeless deadlines through the streaming runtime, let
//! every delivery fire the deadline-miss anomaly trigger, and check the
//! whole observability surface — trigger counters (maintained even when
//! the recorder is compiled out), the `/metrics` families, the dashboard
//! at `/`, the dump JSON at `/trace` — and, with `--features trace`, that
//! the retained dump's timeline covers the full submit→delivery causal
//! chain with every hard-chain stage, and that `/trace/latest` serves the
//! Chrome export.

use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::PhyConfig;
use geosphere::prof::trace as gtrace;
use geosphere::runtime::{FrameStream, StreamConfig};
use geosphere::sim::{drive, DeadlineSpec, Pacing, Scenario, SnrSpec, TrafficMix};
use geosphere::telemetry::{lint_exposition, scrape, MetricsServer};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 2;
const FRAMES_PER_CLIENT: usize = 12;

#[test]
fn deadline_misses_fire_the_recorder_and_surface_everywhere() {
    // Process-global recorder state: start from a clean slate and disable
    // dump rate limiting so every miss is eligible to capture.
    gtrace::clear_dumps();
    gtrace::set_min_dump_gap_ms(0);
    gtrace::set_armed(true);
    let triggers_before = gtrace::trigger_counts();

    let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
    let stream = Arc::new(FrameStream::new(cfg, geosphere_decoder(), StreamConfig::new(CLIENTS)));
    let server = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&stream)).expect("bind");
    let plan = Scenario::new(1014)
        .phy(cfg)
        .clients(CLIENTS)
        .frames_per_client(FRAMES_PER_CLIENT)
        .antennas(4, 2)
        .traffic(TrafficMix::Saturation)
        .snr(SnrSpec::Fixed(24.0))
        // A deadline no frame can make: every delivery is a miss and every
        // miss pulls the anomaly trigger.
        .deadlines(DeadlineSpec::Within(Duration::from_nanos(1)))
        .plan();
    let report = drive(&stream, &plan, Pacing::Replay { in_flight: usize::MAX }).traffic();
    assert!(report.submitted > 0, "traffic must actually have flowed");
    assert_eq!(
        report.deadline_misses, report.submitted,
        "a 1 ns deadline must miss on every delivered frame"
    );

    // Trigger counters move regardless of the feature: they are the
    // always-on half of the anomaly surface.
    let triggers = gtrace::trigger_counts();
    let miss_idx = gtrace::Trigger::DeadlineMiss.index();
    let new_misses = triggers[miss_idx] - triggers_before[miss_idx];
    assert_eq!(new_misses, report.deadline_misses, "one trigger per missed deadline");

    // /metrics carries the trigger families (and still lints clean).
    let body = scrape(server.addr(), "/metrics").expect("scrape /metrics");
    let expo = lint_exposition(&body).expect("exposition lints clean");
    let scraped_misses = expo
        .value("gs_trace_triggers_total", &[("trigger", "deadline_miss")])
        .expect("deadline_miss trigger series");
    assert!(scraped_misses >= new_misses as f64);
    assert!(expo.value("gs_trace_dumps", &[]).is_some());
    let enabled = expo.value("gs_trace_recording_enabled", &[]).expect("recording gauge");
    assert_eq!(enabled != 0.0, gtrace::recording_enabled());

    // The dashboard and the dump endpoint are served either way.
    let dash = scrape(server.addr(), "/").expect("scrape /");
    assert!(dash.contains("Geosphere ops cockpit"), "dashboard page served at /");
    assert!(dash.contains("/trace"), "dashboard polls the trace endpoint");
    let trace_json = scrape(server.addr(), "/trace").expect("scrape /trace");
    assert!(trace_json.starts_with('{') && trace_json.ends_with('}'));
    assert!(trace_json.contains("\"deadline_miss\":"));

    #[cfg(feature = "trace")]
    {
        // The recorder is live: a deadline-missing run must retain a dump
        // whose timelines cover the whole causal chain.
        assert!(gtrace::dump_count() > 0, "misses must have captured at least one dump");
        let dumps = gtrace::recent_dumps();
        assert!(dumps.iter().any(|d| d.trigger == gtrace::Trigger::DeadlineMiss));

        // At least one frame's timeline must run submit → delivery with
        // every hard-chain stage in between (the dump snapshots whole
        // rings, so fully-recorded frames are guaranteed at this scale).
        let full_chain = dumps.iter().flat_map(|d| &d.timelines).find(|tl| {
            gtrace::CONTROL_CHAIN.iter().all(|p| tl.has_point(*p))
                && gtrace::HARD_CHAIN.iter().all(|p| tl.has_point(*p))
        });
        let tl = full_chain.expect("some timeline covers submit→delivery with all stages");
        // And causally: control chain in pipeline order.
        let ticks: Vec<u64> =
            gtrace::CONTROL_CHAIN.iter().map(|p| tl.first_tsc(*p).unwrap()).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "control chain out of order: {ticks:?}");

        // The JSON endpoints reflect the retained dumps.
        assert!(trace_json.contains("\"timelines\":"));
        assert!(trace_json.contains("\"deadline_miss\""));
        let chrome = scrape(server.addr(), "/trace/latest").expect("scrape /trace/latest");
        assert!(chrome.contains("\"traceEvents\":["), "chrome export served");
        assert!(chrome.contains("trigger:"), "chrome export carries the trigger marker");
    }
    #[cfg(not(feature = "trace"))]
    {
        // Compiled out: triggers count, but nothing is ever captured.
        assert_eq!(gtrace::dump_count(), 0);
        assert!(
            scrape(server.addr(), "/trace/latest").is_err(),
            "/trace/latest must 404 with no retained dumps"
        );
    }

    drop(server);
}

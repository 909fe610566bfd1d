//! End-to-end test of the operations cockpit: drive real frames through
//! the streaming runtime, scrape the live `/metrics` endpoint over a raw
//! TCP connection, parse the exposition, and require the scraped counters
//! to match a [`RuntimeStats`] snapshot *exactly* — the endpoint is a
//! rendering of the snapshot, not a second bookkeeping system.

use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::PhyConfig;
use geosphere::runtime::{FrameStream, StreamConfig};
use geosphere::sim::{drive, DeadlineSpec, Pacing, Scenario, SnrSpec, TrafficMix};
use geosphere::telemetry::{
    assert_counters_monotone, lint_exposition, render_runtime_stats, scrape, scrape_deadline,
    MetricsServer, MAX_CLIENT_LANES, QUANTILES,
};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 3;
const FRAMES_PER_CLIENT: usize = 20;
const SATURATE: Pacing = Pacing::Replay { in_flight: usize::MAX };

/// `CLIENTS × FRAMES_PER_CLIENT` saturation-order frames of 4×2 i.i.d.
/// Rayleigh at 24 dB.
fn burst(cfg: PhyConfig, seed: u64, deadlines: DeadlineSpec) -> Scenario {
    Scenario::new(seed)
        .phy(cfg)
        .clients(CLIENTS)
        .frames_per_client(FRAMES_PER_CLIENT)
        .antennas(4, 2)
        .traffic(TrafficMix::Saturation)
        .snr(SnrSpec::Fixed(24.0))
        .deadlines(deadlines)
}

#[test]
fn scraped_metrics_match_runtime_stats_exactly() {
    let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
    let stream = Arc::new(FrameStream::new(cfg, geosphere_decoder(), StreamConfig::new(CLIENTS)));
    let server = MetricsServer::spawn("127.0.0.1:0", Arc::clone(&stream)).expect("bind");
    let plan = burst(cfg, 814, DeadlineSpec::Within(Duration::from_millis(250))).plan();

    let report = drive(&stream, &plan, SATURATE).traffic();
    assert!(report.submitted > 0, "traffic must actually have flowed");

    // The driver has drained every completion, so the stream is idle and
    // the scrape must agree with a snapshot taken around it bit for bit.
    let body = scrape(server.addr(), "/metrics").expect("scrape");
    let expo = lint_exposition(&body).expect("exposition lints clean");
    let stats = stream.stats();

    for (name, expect) in [
        ("gs_frames_submitted_total", stats.submitted),
        ("gs_frames_planned_total", stats.planned),
        ("gs_frames_detected_total", stats.detected),
        ("gs_frames_recovered_total", stats.recovered),
        ("gs_frames_completed_total", stats.completed),
        ("gs_deadline_misses_total", stats.deadline_misses),
    ] {
        assert_eq!(expo.value(name, &[]), Some(expect as f64), "{name}");
    }
    assert_eq!(stats.submitted, (CLIENTS * FRAMES_PER_CLIENT) as u64 - report.dropped);

    let tiers: f64 =
        expo.series("gs_tier_admissions_total").iter().map(|sample| sample.value).sum();
    assert_eq!(tiers, stats.tier_admissions.iter().sum::<u64>() as f64);

    for (name, expect) in [
        ("gs_in_flight", stats.in_flight as f64),
        ("gs_capacity", stats.capacity as f64),
        ("gs_occupancy", stats.occupancy()),
        ("gs_workers", stats.workers as f64),
        ("gs_queue_depth", stats.queue_depth as f64),
        ("gs_current_tier", stats.current_tier.index() as f64),
    ] {
        assert_eq!(expo.value(name, &[]), Some(expect), "{name}");
    }
    assert_eq!(expo.value("gs_in_flight", &[]), Some(0.0), "stream must be idle after drain");
    assert_eq!(expo.value("gs_queue_depth", &[]), Some(0.0), "no task queued after drain");

    // Histogram-backed summaries: one series set per client, counts
    // consistent with the pipeline counters, quantiles ordered.
    for client in 0..CLIENTS {
        let label = client.to_string();
        let count = expo
            .value("gs_submit_delivery_latency_seconds_count", &[("client", &label)])
            .expect("latency count series");
        assert_eq!(count, stats.latency_per_client[client].count() as f64);
        let qs: Vec<f64> = QUANTILES
            .iter()
            .map(|q| {
                expo.value(
                    "gs_submit_delivery_latency_seconds",
                    &[("client", &label), ("quantile", &q.to_string())],
                )
                .expect("latency quantile series")
            })
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must be ordered: {qs:?}");
        let max = expo
            .value("gs_submit_delivery_latency_seconds_max", &[("client", &label)])
            .expect("latency max series");
        assert!(qs.iter().all(|&q| q <= max + 1e-12));
    }
    let latency_total: u64 = stats.latency_per_client.iter().map(|h| h.count()).sum();
    assert_eq!(latency_total, stats.completed, "every delivery records one latency sample");
    assert_eq!(
        stats.deadline_slack.count() + stats.deadline_lateness.count(),
        stats.completed,
        "every delivery lands in exactly one of slack/lateness"
    );
    let queue_waits = stats.queue_wait_per_shard[0].count();
    assert_eq!(expo.value("gs_queue_wait_seconds_count", &[]), Some(queue_waits as f64));
    assert!(queue_waits >= stats.detected, "each frame's task waited in the queue");

    // The endpoint serves exactly what the renderer produces.
    let rendered = lint_exposition(&render_runtime_stats(&stats)).expect("renderer lints clean");
    assert_eq!(rendered.types, expo.types, "served families match direct rendering");

    // A second burst: counters move forward, never backward, and the new
    // scrape still lints.
    drive(&stream, &plan, SATURATE);
    let second = lint_exposition(&scrape(server.addr(), "/metrics").expect("scrape #2"))
        .expect("second exposition lints clean");
    let compared = assert_counters_monotone(&expo, &second).expect("counters monotone");
    assert!(compared >= 9, "all counter series present in both scrapes");
    assert!(
        second.value("gs_frames_completed_total", &[])
            > expo.value("gs_frames_completed_total", &[]),
        "second burst completed more frames"
    );

    // Unknown paths 404 (scrape surfaces that as an error), wrong methods
    // are rejected, and shutdown is clean + idempotent.
    assert!(scrape(server.addr(), "/nope").is_err());
    let mut server = server;
    server.shutdown();
    server.shutdown();
    assert!(scrape(server.addr(), "/metrics").is_err(), "endpoint is down after shutdown");
}

/// Per-client latency lanes are capped at `MAX_CLIENT_LANES`: the first
/// clients keep their own series and the tail folds into a single
/// `client="other"` lane without losing any samples. A stream with no more
/// clients than the cap has no overflow lane.
#[test]
fn client_lanes_past_the_cap_fold_into_other() {
    let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
    let render = |clients: usize| {
        let stream = FrameStream::new(cfg, geosphere_decoder(), StreamConfig::new(clients));
        let plan = burst(cfg, 915, DeadlineSpec::None).clients(clients).frames_per_client(2).plan();
        drive(&stream, &plan, SATURATE);
        let stats = stream.stats();
        let expo = lint_exposition(&render_runtime_stats(&stats)).expect("exposition lints");
        (stats, expo)
    };
    fn count_in(expo: &geosphere::telemetry::Exposition, label: &str) -> Option<f64> {
        expo.value("gs_submit_delivery_latency_seconds_count", &[("client", label)])
    }

    let (stats, capped) = render(MAX_CLIENT_LANES + 2);
    for (i, lane) in stats.latency_per_client[..MAX_CLIENT_LANES].iter().enumerate() {
        assert_eq!(count_in(&capped, &i.to_string()), Some(lane.count() as f64), "client {i}");
    }
    for i in MAX_CLIENT_LANES..stats.latency_per_client.len() {
        assert_eq!(count_in(&capped, &i.to_string()), None, "client {i} must fold into other");
    }
    let tail: u64 = stats.latency_per_client[MAX_CLIENT_LANES..].iter().map(|h| h.count()).sum();
    assert!(tail > 0, "the folded clients must have delivered frames");
    assert_eq!(count_in(&capped, "other"), Some(tail as f64), "overflow lane keeps every sample");

    // A stream at the cap keeps every client's lane and has no overflow lane.
    let (stats, full) = render(MAX_CLIENT_LANES);
    assert_eq!(count_in(&full, "other"), None, "a {MAX_CLIENT_LANES}-client stream must not fold");
    let last = MAX_CLIENT_LANES - 1;
    assert_eq!(
        count_in(&full, &last.to_string()),
        Some(stats.latency_per_client[last].count() as f64)
    );
}

/// A scrape against a peer that accepts the connection but never responds
/// must give up at the caller's deadline instead of hanging.
#[test]
fn scrape_gives_up_at_its_deadline_against_a_stalled_peer() {
    // A bound-but-never-accepted listener: the kernel completes the TCP
    // handshake, the request lands in a buffer, and no byte ever comes
    // back — exactly the stall the deadline exists for.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let start = std::time::Instant::now();
    let err = scrape_deadline(addr, "/metrics", Duration::from_millis(250))
        .expect_err("stalled peer must not yield a body");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "unexpected error: {err}");
    assert!(start.elapsed() < Duration::from_secs(3), "deadline must bound the wait");
    drop(listener);
}

//! Operations cockpit demo: the streaming runtime under saturating
//! uplink traffic with a live Prometheus `/metrics` endpoint scraping it.
//!
//! ```sh
//! cargo run --release --example metrics_endpoint          # bounded demo
//! cargo run --release --example metrics_endpoint -- --serve  # keep serving
//! ```
//!
//! The bounded run (what CI's metrics smoke job executes) drives two
//! traffic bursts, self-scrapes the endpoint between them, lints the
//! exposition, checks counters are monotone across the scrapes, and
//! prints the headline series. A third, deadline-hopeless burst then fires
//! the flight recorder's anomaly triggers, and the demo fetches the live
//! dashboard (`/`) and dump summary (`/trace`); set `GS_TRACE_OUT=path`
//! to save a trace JSON sample (the Chrome/Perfetto export when built
//! with `--features trace`). With `--serve` it leaves the endpoint up
//! on `GS_METRICS_ADDR` (default `127.0.0.1:9184`) for a real Prometheus
//! to scrape — and a browser to watch: `http://127.0.0.1:9184/`.

use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::PhyConfig;
use geosphere::runtime::{FrameStream, StreamConfig};
use geosphere::sim::{drive, DeadlineSpec, Pacing, Scenario, SnrSpec, TrafficMix};
use geosphere::telemetry::{assert_counters_monotone, lint_exposition, scrape, MetricsServer};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let serve_forever = std::env::args().any(|a| a == "--serve");
    let addr = std::env::var("GS_METRICS_ADDR").unwrap_or_else(|_| {
        // Bounded demo binds port 0 so parallel CI jobs never collide.
        if serve_forever {
            "127.0.0.1:9184".into()
        } else {
            "127.0.0.1:0".into()
        }
    });

    let cfg = PhyConfig { payload_bits: 1024, ..PhyConfig::new(Constellation::Qam16) };
    let clients = 4;
    let stream = Arc::new(FrameStream::new(cfg, geosphere_decoder(), StreamConfig::new(clients)));
    let server = MetricsServer::spawn(&addr, Arc::clone(&stream)).expect("bind metrics endpoint");
    println!("serving http://{}/metrics", server.addr());

    let burst = Scenario::new(2014)
        .phy(cfg)
        .clients(clients)
        .frames_per_client(25)
        .antennas(4, 2)
        .traffic(TrafficMix::Saturation)
        .snr(SnrSpec::Fixed(26.0))
        .deadlines(DeadlineSpec::Within(Duration::from_millis(50)));
    let saturate = Pacing::Replay { in_flight: usize::MAX };

    drive(&stream, &burst.plan(), saturate);
    let first = scrape(server.addr(), "/metrics").expect("scrape #1");
    let first = lint_exposition(&first).expect("exposition lints clean");

    drive(&stream, &burst.plan(), saturate);
    let second = scrape(server.addr(), "/metrics").expect("scrape #2");
    let second = lint_exposition(&second).expect("exposition lints clean");

    let monotone =
        assert_counters_monotone(&first, &second).expect("counters monotone across scrapes");
    println!("lint ok: {} samples, {} counter series monotone", second.samples.len(), monotone);

    for name in [
        "gs_frames_completed_total",
        "gs_deadline_misses_total",
        "gs_windowed_frames_per_sec",
        "gs_windowed_miss_rate",
        "gs_uptime_seconds",
    ] {
        println!("  {name} = {}", second.value(name, &[]).expect("headline series present"));
    }
    for (q, label) in [("0.5", "p50"), ("0.99", "p99")] {
        if let Some(v) =
            second.value("gs_submit_delivery_latency_seconds", &[("client", "0"), ("quantile", q)])
        {
            println!("  latency client=0 {label} = {v:.6}s");
        }
    }

    let stats = stream.stats();
    assert_eq!(
        second.value("gs_frames_submitted_total", &[]),
        Some(stats.submitted as f64),
        "scrape disagrees with RuntimeStats (stream idle, so counts are stable)"
    );
    println!("metrics endpoint agrees with RuntimeStats ({} frames)", stats.submitted);

    // Flight recorder: a hopeless-deadline burst guarantees deadline-miss
    // anomalies, so (when built with `--features trace`) a dump is retained
    // and the dashboard's anomaly panel has something to show.
    use geosphere::prof::trace as gtrace;
    gtrace::set_min_dump_gap_ms(0);
    let hopeless =
        Scenario { seed: 2015, ..burst }.deadlines(DeadlineSpec::Within(Duration::from_nanos(1)));
    let report = drive(&stream, &hopeless.plan(), saturate).traffic();
    println!("anomaly burst: {} deadline misses triggered", report.deadline_misses);

    let dash = scrape(server.addr(), "/").expect("scrape /");
    assert!(dash.contains("ops cockpit"), "dashboard page served at /");
    let trace_json = scrape(server.addr(), "/trace").expect("scrape /trace");
    println!(
        "dashboard: {} bytes at /, dump summary: {} bytes at /trace",
        dash.len(),
        trace_json.len()
    );
    println!(
        "flight recorder compiled in: {}, retained dumps: {}",
        gtrace::recording_enabled(),
        gtrace::dump_count()
    );
    // CI's metrics smoke job sets GS_TRACE_OUT and uploads the file: the
    // Chrome export of the freshest dump when the recorder is live, else
    // the (dump-free) summary so the artifact is always well-formed JSON.
    if let Ok(out) = std::env::var("GS_TRACE_OUT") {
        let payload = if gtrace::dump_count() > 0 {
            scrape(server.addr(), "/trace/latest").expect("scrape /trace/latest")
        } else {
            trace_json
        };
        std::fs::write(&out, &payload).expect("write GS_TRACE_OUT");
        println!("wrote {} bytes of trace JSON to {out}", payload.len());
    }

    if serve_forever {
        println!("--serve: endpoint stays up; ctrl-c to exit");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}

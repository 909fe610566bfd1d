//! Streaming base-station runtime: Poisson multi-client uplink traffic
//! flowing through the `gs-runtime` pipeline (plan → sharded detect →
//! recover), with backpressure, deadlines, and live runtime stats.
//!
//! ```sh
//! cargo run --release --example streaming_uplink
//! ```
//!
//! Knobs: `GS_NO_PIN` disables worker pinning, `GS_SIMD` selects the
//! kernel tier; the stream runs one shard per memory domain.

use geosphere::channel::RayleighChannel;
use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::PhyConfig;
use geosphere::runtime::{FrameStream, StreamConfig};
use geosphere::sim::{run_poisson_uplink, PoissonParams};
use std::time::Duration;

fn main() {
    let cfg = PhyConfig { payload_bits: 1024, ..PhyConfig::new(Constellation::Qam16) };
    let clients = 4;

    let mut sc = StreamConfig::new(clients);
    sc.workers = 4;
    let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
    println!(
        "runtime: {} detection workers over {} shard(s), {} slots",
        stream.workers(),
        stream.shards(),
        stream.capacity()
    );

    // Each frame is a 2-stream MU-MIMO uplink into a four-antenna AP
    // (RayleighChannel::new(rx, tx)); the four *source lanes* above are
    // ordering domains, each offering its own Poisson arrival process.
    // Frames carry a 50 ms deadline.
    let model = RayleighChannel::new(4, 2);

    for rate_hz in [50.0, f64::INFINITY] {
        let params = PoissonParams {
            clients,
            frames_per_client: 25,
            rate_hz,
            snr_db: 26.0,
            deadline: Some(Duration::from_millis(50)),
            seed: 2014,
        };
        let label = if rate_hz.is_finite() {
            format!("paced {rate_hz} fps/client")
        } else {
            "saturation".into()
        };
        let report = run_poisson_uplink(&stream, &model, &params);
        println!(
            "\n--- {label} ---\n\
             offered {:>4}   admitted {:>4}   dropped {:>3}\n\
             delivered ok {:>4}   deadline misses {:>3}\n\
             elapsed {:>8.1?}   sustained {:>8.1} frames/sec",
            report.offered,
            report.submitted,
            report.dropped,
            report.frames_all_ok,
            report.deadline_misses,
            report.elapsed,
            report.frames_per_sec,
        );
    }

    let stats = stream.stats();
    println!(
        "\nruntime totals: {} submitted, {} completed, {} deadline misses, \
         occupancy {:.0}%, shard queue depths {:?}",
        stats.submitted,
        stats.completed,
        stats.deadline_misses,
        100.0 * stats.occupancy(),
        stats.shard_queue_depths,
    );
}

//! Streaming base-station runtime: multi-client uplink traffic, paced
//! Poisson and saturating, flowing through the `gs-runtime` pipeline
//! (plan → detect → recover on one worker pool), with backpressure,
//! deadlines, and live runtime stats.
//!
//! ```sh
//! cargo run --release --example streaming_uplink
//! ```
//!
//! Knobs: `GS_NO_PIN` disables worker pinning, `GS_SIMD` selects the
//! kernel tier; every worker serves the stream's one queue.

use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::PhyConfig;
use geosphere::runtime::{FrameStream, StreamConfig};
use geosphere::sim::{drive, DeadlineSpec, Pacing, Scenario, SnrSpec, TrafficMix};
use std::time::Duration;

fn main() {
    let cfg = PhyConfig { payload_bits: 1024, ..PhyConfig::new(Constellation::Qam16) };
    let clients = 4;

    let mut sc = StreamConfig::new(clients);
    sc.workers = 4;
    let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
    println!(
        "runtime: {} detection workers on one queue, {} slots",
        stream.workers(),
        stream.capacity()
    );

    // Each frame is a 2-stream MU-MIMO uplink into a four-antenna AP over
    // i.i.d. Rayleigh fading; the four *source lanes* above are ordering
    // domains, each offering its own arrival process. Frames carry a
    // 50 ms deadline. The paced run submits each frame at its Poisson
    // arrival time and drops it when every slot is busy; the saturation
    // run offers every frame at once and waits for free slots.
    let workload = Scenario::new(2014)
        .phy(cfg)
        .clients(clients)
        .frames_per_client(25)
        .antennas(4, 2)
        .snr(SnrSpec::Fixed(26.0))
        .deadlines(DeadlineSpec::Within(Duration::from_millis(50)));

    for (label, traffic, pacing) in [
        ("paced 50 fps/client", TrafficMix::Poisson { rate_hz: 50.0 }, Pacing::WallClock),
        ("saturation", TrafficMix::Saturation, Pacing::Replay { in_flight: usize::MAX }),
    ] {
        let plan = workload.clone().traffic(traffic).plan();
        let report = drive(&stream, &plan, pacing).traffic();
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
         occupancy {:.0}%, queue depth {}",
        stats.submitted,
        stats.completed,
        stats.deadline_misses,
        100.0 * stats.occupancy(),
        stats.queue_depth,
    );
}

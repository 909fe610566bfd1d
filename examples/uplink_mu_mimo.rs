//! Multi-user MIMO uplink over the emulated office testbed: four
//! single-antenna clients transmit simultaneously to a four-antenna AP
//! through coded OFDM frames; the AP decodes with zero-forcing and with
//! Geosphere and we compare delivered throughput.
//!
//! ```sh
//! cargo run --release --example uplink_mu_mimo
//! ```

use geosphere::channel::Testbed;
use geosphere::modulation::Constellation;
use geosphere::phy::{measure, FrameWorkspace, PhyConfig};
use geosphere::sim::{select_groups, DetectorKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let tb = Testbed::office();
    let snr_db = 20.0;
    let group = &select_groups(&tb, 4, snr_db, 5.0, 1)[0];
    println!(
        "selected AP {} with clients {:?} (mean link SNR {:.1} dB)",
        group.ap, group.clients, group.mean_snr_db
    );
    let model = tb.channel(group.ap, &group.clients, 4);
    let mut ws = FrameWorkspace::new();

    for c in [Constellation::Qam16, Constellation::Qam64] {
        let cfg = PhyConfig { payload_bits: 1024, ..PhyConfig::new(c) };
        println!(
            "\n--- {c:?} (per-stream PHY rate {:.0} Mbps, {} OFDM symbols/frame) ---",
            cfg.phy_rate_mbps(),
            cfg.n_ofdm_symbols()
        );
        for kind in [DetectorKind::Zf, DetectorKind::MmseSic, DetectorKind::Geosphere] {
            let det = kind.build(snr_db);
            let mut rng = StdRng::seed_from_u64(99);
            let m = measure(&cfg, &model, &det, snr_db, 10, &mut rng, 1, &mut ws);
            println!(
                "{:<12} throughput {:>6.1} Mbps   FER {:>5.2}   per-client FER {:?}",
                kind.name(),
                m.throughput_mbps,
                m.fer,
                m.client_fer.iter().map(|f| (f * 100.0).round() / 100.0).collect::<Vec<_>>(),
            );
        }
    }

    println!(
        "\nOn this poorly-conditioned 4x4 office channel, zero-forcing's noise\n\
         amplification kills whole streams; Geosphere's ML detection keeps all\n\
         four clients' frames alive at the same SNR."
    );
}

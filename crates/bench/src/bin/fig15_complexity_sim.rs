//! Figure 15: simulation-based complexity at the SNR where each
//! constellation reaches ~10% FER — ETH-SD vs 2D-zigzag-only vs full
//! Geosphere, on Rayleigh (solid bars) and emulated-testbed (striped bars)
//! channels.
//!
//! `--clients 2` reproduces Fig. 15(a) (2 clients × 4 AP antennas);
//! `--clients 4` reproduces Fig. 15(b). `--target-fer 0.01` reproduces the
//! §5.3.2 discussion point (geometric pruning worth up to 47% extra).
//! N.B. (paper): each sphere decoder visits the same number of nodes.

use gs_bench::{arg, params_from_args, rule};
use gs_channel::Testbed;
use gs_modulation::Constellation;
use gs_sim::complexity_at_target_fer;

fn main() {
    let params = params_from_args(&["--clients", "--target-fer"]);
    let clients = arg("--clients", 4);
    let target_fer = arg("--target-fer", 0.10);
    let tb = Testbed::office();

    println!(
        "Figure 15 — Avg PED calcs/subcarrier at ~{:.0}% FER, {clients} clients x 4 AP antennas",
        target_fer * 100.0
    );
    rule(100);
    println!(
        "{:>8} {:>9} | {:>10} {:>12} {:>12} | {:>12} {:>10}",
        "const.", "channel", "ETH-SD", "2D-zigzag", "Geosphere", "Geo/ETH", "nodes"
    );
    rule(100);
    let points: Vec<_> = [Constellation::Qam16, Constellation::Qam64, Constellation::Qam256]
        .into_iter()
        .flat_map(|c| [None, Some(&tb)].map(|tb_opt| (c, tb_opt)))
        .collect();
    let results = params.map_points(&points, |&(c, tb_opt)| {
        complexity_at_target_fer(&params, tb_opt, clients, 4, c, target_fer)
    });
    for (&(c, _), pts) in points.iter().zip(&results) {
        let (eth, zz, full) = (&pts[0], &pts[1], &pts[2]);
        println!(
            "{:>8} {:>9} | {:>10.1} {:>12.1} {:>12.1} | {:>11.0}% {:>10.1}",
            format!("{:?}", c),
            eth.channel,
            eth.ped_per_subcarrier,
            zz.ped_per_subcarrier,
            full.ped_per_subcarrier,
            100.0 * full.ped_per_subcarrier / eth.ped_per_subcarrier.max(1e-9),
            full.nodes_per_subcarrier,
        );
        // The paper's invariant: identical visited nodes across decoders.
        let max_dev = (eth.nodes_per_subcarrier - full.nodes_per_subcarrier)
            .abs()
            .max((zz.nodes_per_subcarrier - full.nodes_per_subcarrier).abs());
        if max_dev > 1e-6 {
            println!("  !! visited-node mismatch: {max_dev}");
        }
    }
    rule(100);
    println!("Geo/ETH = full Geosphere PEDs as a fraction of ETH-SD PEDs (lower is better).");
}

//! Figure 14: average partial-Euclidean-distance calculations per
//! subcarrier for ETH-SD vs Geosphere, over the same testbed operating
//! points as Figure 11.
//!
//! Expected shape: "Geosphere is consistently less computationally
//! demanding than ETH-SD, and the gains increase when SNR increases …
//! in the 25 dB range, our computational savings can be up to 63%."

use gs_bench::{params_from_args, rule};
use gs_channel::Testbed;
use gs_sim::{testbed_throughput, DetectorKind, PAPER_CONFIGS, PAPER_SNRS};

fn main() {
    let params = params_from_args(&[]);
    let tb = Testbed::office();

    println!("Figure 14 — Avg PED calculations per subcarrier, ETH-SD vs Geosphere");
    rule(90);
    println!(
        "{:<16} {:>6} | {:>12} {:>12} {:>9} | {:>12}",
        "config", "SNR dB", "ETH-SD", "Geosphere", "savings", "const."
    );
    rule(90);
    // Complexity corresponding to the Fig. 11 throughput runs: both
    // decoders are ML-equivalent, so they share the oracle constellation
    // choice.
    let points: Vec<_> = PAPER_CONFIGS
        .iter()
        .flat_map(|&(nc, na)| PAPER_SNRS.map(|snr| (nc, na, snr)))
        .flat_map(|(nc, na, snr)| {
            [DetectorKind::EthSd, DetectorKind::Geosphere].map(|d| (nc, na, snr, d))
        })
        .collect();
    let mut results = params
        .map_points(&points, |&(nc, na, snr, d)| testbed_throughput(&params, &tb, nc, na, snr, d))
        .into_iter();
    let mut next = || results.next().expect("one result per point");
    for &(nc, na) in &PAPER_CONFIGS {
        for &snr in &PAPER_SNRS {
            let (eth, geo) = (next(), next());
            let savings = 100.0 * (1.0 - geo.ped_per_subcarrier / eth.ped_per_subcarrier.max(1e-9));
            println!(
                "{:<16} {:>6.0} | {:>12.1} {:>12.1} {:>8.0}% | {:>12?}",
                format!("{nc}c x {na}a"),
                snr,
                eth.ped_per_subcarrier,
                geo.ped_per_subcarrier,
                savings,
                geo.constellation,
            );
        }
        rule(90);
    }
}

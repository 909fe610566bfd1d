//! Figure 11: testbed uplink throughput, zero-forcing vs Geosphere, for
//! {2×2, 2×4, 3×4, 4×4} client/antenna configurations at 15/20/25 dB.
//!
//! Expected shape (paper §5.2): Geosphere consistently ≥ ZF; gains up to
//! 47% at 2×2 and >2× at 4×4; gains grow with condition number and SNR.

use gs_bench::{params_from_args, rule};
use gs_channel::Testbed;
use gs_sim::{testbed_throughput, DetectorKind, PAPER_CONFIGS, PAPER_SNRS};

fn main() {
    let params = params_from_args(&[]);
    let tb = Testbed::office();

    println!("Figure 11 — Net uplink throughput (Mbps), zero-forcing vs Geosphere");
    rule(86);
    println!(
        "{:<16} {:>6} | {:>12} {:>12} {:>8} | {:>10}",
        "config", "SNR dB", "ZF Mbps", "Geo Mbps", "gain", "Geo const."
    );
    rule(86);
    let points: Vec<_> = PAPER_CONFIGS
        .iter()
        .flat_map(|&(nc, na)| PAPER_SNRS.map(|snr| (nc, na, snr)))
        .flat_map(|(nc, na, snr)| {
            [DetectorKind::Zf, DetectorKind::Geosphere].map(|d| (nc, na, snr, d))
        })
        .collect();
    let mut results = params
        .map_points(&points, |&(nc, na, snr, d)| testbed_throughput(&params, &tb, nc, na, snr, d))
        .into_iter();
    let mut next = || results.next().expect("one result per point");
    for &(nc, na) in &PAPER_CONFIGS {
        for &snr in &PAPER_SNRS {
            let (zf, geo) = (next(), next());
            let gain = if zf.throughput_mbps > 0.0 {
                geo.throughput_mbps / zf.throughput_mbps
            } else {
                f64::INFINITY
            };
            println!(
                "{:<16} {:>6.0} | {:>12.1} {:>12.1} {:>7.2}x | {:>10?}",
                format!("{nc}c x {na}a"),
                snr,
                zf.throughput_mbps,
                geo.throughput_mbps,
                gain,
                geo.constellation,
            );
        }
        rule(86);
    }
}

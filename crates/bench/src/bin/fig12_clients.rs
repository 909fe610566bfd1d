//! Figure 12: testbed uplink throughput vs number of clients at a
//! four-antenna AP, 20 dB SNR, zero-forcing vs Geosphere.
//!
//! Expected shape: "Geosphere achieves linear gains in throughput with the
//! number of clients while zero-forcing does not." Also checks the paper's
//! TDMA question: Geosphere with 4 clients beats ZF with 3 (up to 36%).

use gs_bench::{params_from_args, rule};
use gs_channel::Testbed;
use gs_sim::{testbed_throughput, DetectorKind};

fn main() {
    let params = params_from_args(&[]);
    let tb = Testbed::office();
    let snr = 20.0;

    println!("Figure 12 — Throughput vs number of clients (4-antenna AP, 20 dB)");
    rule(70);
    println!("{:>8} | {:>12} {:>12} {:>8}", "clients", "ZF Mbps", "Geo Mbps", "gain");
    rule(70);
    let points: Vec<_> = (1..=4usize)
        .flat_map(|nc| [DetectorKind::Zf, DetectorKind::Geosphere].map(|d| (nc, d)))
        .collect();
    let mut results = params
        .map_points(&points, |&(nc, d)| testbed_throughput(&params, &tb, nc, 4, snr, d))
        .into_iter();
    let mut next = || results.next().expect("one result per point");
    let mut zf3 = 0.0;
    let mut geo4 = 0.0;
    for nc in 1..=4usize {
        let (zf, geo) = (next(), next());
        if nc == 3 {
            zf3 = zf.throughput_mbps;
        }
        if nc == 4 {
            geo4 = geo.throughput_mbps;
        }
        let gain = if zf.throughput_mbps > 0.0 {
            geo.throughput_mbps / zf.throughput_mbps
        } else {
            f64::INFINITY
        };
        println!(
            "{:>8} | {:>12.1} {:>12.1} {:>7.2}x",
            nc, zf.throughput_mbps, geo.throughput_mbps, gain
        );
    }
    rule(70);
    println!(
        "Geosphere(4 clients) vs ZF(3 clients) — the TDMA question (paper: up to +36%): {:+.0}%",
        100.0 * (geo4 / zf3 - 1.0)
    );
}

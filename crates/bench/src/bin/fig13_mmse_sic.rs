//! Figure 13: simulated uplink throughput at a ten-antenna AP over i.i.d.
//! Rayleigh fading at 20 dB, for zero-forcing, MMSE-SIC, and Geosphere,
//! as the number of clients grows from 2 to 10.
//!
//! Expected shape: all three track each other while clients ≪ antennas;
//! as the client count approaches the antenna count, MMSE-SIC beats ZF but
//! error propagation keeps it under Geosphere, which is "almost two times
//! faster for the 10×10 case".

use gs_bench::{arg, params_from_args, rule};
use gs_sim::{rayleigh_throughput, DetectorKind};

fn main() {
    let params = params_from_args(&["--antennas"]);
    let na = arg("--antennas", 10);
    let snr = 20.0;

    println!("Figure 13 — Rayleigh channel, {na}-antenna AP, 20 dB");
    rule(78);
    println!(
        "{:>8} | {:>11} {:>11} {:>11} | {:>14}",
        "clients", "ZF Mbps", "SIC Mbps", "Geo Mbps", "Geo/ZF"
    );
    rule(78);
    let points: Vec<_> = (2..=na)
        .step_by(2)
        .flat_map(|nc| {
            [DetectorKind::Zf, DetectorKind::MmseSic, DetectorKind::Geosphere].map(|d| (nc, d))
        })
        .collect();
    let mut results = params
        .map_points(&points, |&(nc, d)| rayleigh_throughput(&params, nc, na, snr, d))
        .into_iter();
    let mut next = || results.next().expect("one result per point");
    for nc in (2..=na).step_by(2) {
        let (zf, sic, geo) = (next(), next(), next());
        let gain = if zf.throughput_mbps > 0.0 {
            geo.throughput_mbps / zf.throughput_mbps
        } else {
            f64::INFINITY
        };
        println!(
            "{:>8} | {:>11.1} {:>11.1} {:>11.1} | {:>13.2}x",
            nc, zf.throughput_mbps, sic.throughput_mbps, geo.throughput_mbps, gain
        );
    }
    rule(78);
}

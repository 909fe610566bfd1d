//! Figure 10: CDF of Λ (dB) — the worst per-user SNR degradation due to
//! zero-forcing noise amplification — across testbed links and subcarriers.
//!
//! The paper's reading: "zero-forcing will result in 30% of the MIMO
//! channels experiencing an SNR degradation of more than 5 dB, while 90% of
//! the channels will face such a degradation for 4×4 links"; and for 2
//! clients × 4 antennas "the maximum degradation … will be less than three
//! decibels for 90% of the channels".

use gs_bench::{params_from_args, rule};
use gs_channel::Testbed;
use gs_sim::{conditioning_cdfs, PAPER_CONFIGS};

fn main() {
    let params = params_from_args(&[]);
    let tb = Testbed::office();
    let max_links = 60;

    println!("Figure 10 — CDF of Lambda (dB), worst-user ZF SNR degradation");
    rule(72);
    println!(
        "{:>10} | {:>10} {:>10} {:>10} {:>10}",
        "CDF", "2c x 2a", "2c x 4a", "3c x 4a", "4c x 4a"
    );
    rule(72);

    let cdfs = params.map_points(&PAPER_CONFIGS, |&(nc, na)| {
        conditioning_cdfs(&params, &tb, nc, na, max_links).1
    });

    for pct in [5, 10, 25, 50, 75, 90, 95] {
        let p = pct as f64 / 100.0;
        print!("{:>9}% |", pct);
        for cdf in &cdfs {
            print!(" {:>9.1}", cdf.quantile(p));
        }
        println!();
    }
    rule(72);
    println!("Fraction of links with Lambda > 5 dB (paper: ~30% for 2x2, ~90% for 4x4):");
    for (cdf, &(nc, na)) in cdfs.iter().zip(PAPER_CONFIGS.iter()) {
        println!("  {nc} clients x {na} AP antennas: {:.0}%", 100.0 * cdf.fraction_above(5.0));
    }
    println!(
        "2 clients x 4 antennas, 90th percentile (paper: < 3 dB): {:.1} dB",
        cdfs[1].quantile(0.9)
    );
}

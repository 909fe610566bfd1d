//! Figure 9: CDF of κ² (dB) across testbed links, subcarriers, and spatial
//! streams, for 2×2, 2×4, 3×4, and 4×4 configurations.
//!
//! Higher κ² = worse channel conditioning. The paper's headline reading:
//! "in the two-client, two receive antenna case, 60% of the links
//! experience channels with condition numbers larger than 10 dB while in
//! the 4×4 case, nearly all links are poorly conditioned."

use gs_bench::{params_from_args, rule};
use gs_channel::Testbed;
use gs_sim::{conditioning_cdfs, PAPER_CONFIGS};

fn main() {
    let params = params_from_args(&[]);
    let tb = Testbed::office();
    let max_links = 60;

    println!("Figure 9 — CDF of kappa^2 (dB) across links and subcarriers");
    rule(72);
    println!(
        "{:>10} | {:>10} {:>10} {:>10} {:>10}",
        "CDF", "2c x 2a", "2c x 4a", "3c x 4a", "4c x 4a"
    );
    rule(72);

    let cdfs = params.map_points(&PAPER_CONFIGS, |&(nc, na)| {
        conditioning_cdfs(&params, &tb, nc, na, max_links).0
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
    println!("Fraction of links with kappa^2 > 10 dB (paper: 60% for 2x2; ~all for 4x4):");
    for (cdf, &(nc, na)) in cdfs.iter().zip(PAPER_CONFIGS.iter()) {
        println!("  {nc} clients x {na} AP antennas: {:.0}%", 100.0 * cdf.fraction_above(10.0));
    }
}

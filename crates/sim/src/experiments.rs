//! Experiment runners for every figure and table in the paper's §5.
//!
//! Each function reproduces one evaluation artifact; the `gs-bench` binaries
//! are thin printers over these. Parameters are scaled by
//! [`ExperimentParams`] so the same code serves quick smoke tests and
//! full-fidelity runs.

use crate::selection::{select_groups, UserGroup};
use geosphere_core::{
    ethsd_decoder, geosphere_decoder, geosphere_zigzag_only_decoder, MimoDetector, MmseDetector,
    MmseSicDetector, ZfDetector,
};
use gs_channel::{noise_variance_for_snr_db, Cdf, RayleighChannel, Testbed};
use gs_modulation::Constellation;
use gs_phy::{measure, snr_for_target_fer, FrameWorkspace, Measurement, PhyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Scale knobs shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentParams {
    /// Master RNG seed (every experiment derives from it deterministically).
    pub seed: u64,
    /// Frames measured per (group, constellation, detector) point.
    pub frames_per_point: usize,
    /// Testbed user groups averaged per operating point.
    pub groups_per_point: usize,
    /// Payload bits per client frame.
    pub payload_bits: usize,
    /// Decode worker threads for [`gs_phy::decode_frame_batched_into`]:
    /// `1` = detect inline on the calling thread, any other count = fan
    /// per-subcarrier detections out across that many pool threads (`0` =
    /// machine parallelism). Measured numbers are bit-identical at every
    /// count; only wall-clock changes. Each experiment holds one
    /// [`gs_phy::FrameWorkspace`] for its *entire* sweep (every SNR point,
    /// constellation, and group) and passes it to every [`measure()`] and
    /// [`snr_for_target_fer()`] call, so per-frame planning and
    /// receive-chain buffers — and the worker pool — warm up once per run,
    /// not once per point.
    pub workers: usize,
}

impl ExperimentParams {
    /// Fast parameters for smoke tests and CI.
    pub fn quick() -> Self {
        ExperimentParams {
            seed: 2014,
            frames_per_point: 3,
            groups_per_point: 3,
            payload_bits: 512,
            workers: 1,
        }
    }

    /// Full-fidelity parameters for regenerating the figures.
    pub fn full() -> Self {
        ExperimentParams {
            seed: 2014,
            frames_per_point: 12,
            groups_per_point: 8,
            payload_bits: 2048,
            workers: 0,
        }
    }

    fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt))
    }

    fn cfg(&self, c: Constellation) -> PhyConfig {
        PhyConfig { payload_bits: self.payload_bits, ..PhyConfig::new(c) }
    }
}

/// The detectors the evaluation compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DetectorKind {
    /// Zero-forcing (the paper's primary baseline).
    Zf,
    /// Linear MMSE.
    Mmse,
    /// MMSE with successive interference cancellation.
    MmseSic,
    /// Full Geosphere (2-D zigzag + geometric pruning).
    Geosphere,
    /// Geosphere ablation: 2-D zigzag only.
    GeosphereZigzagOnly,
    /// The ETH-SD baseline sphere decoder.
    EthSd,
}

impl DetectorKind {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            DetectorKind::Zf => "Zero-forcing",
            DetectorKind::Mmse => "MMSE",
            DetectorKind::MmseSic => "MMSE-SIC",
            DetectorKind::Geosphere => "Geosphere",
            DetectorKind::GeosphereZigzagOnly => "Geosphere (2D zigzag only)",
            DetectorKind::EthSd => "ETH-SD",
        }
    }

    /// Builds the detector for a given operating SNR, as the shared handle
    /// the multi-worker decode path, [`geosphere_core::DetectorLadder`],
    /// and the streaming runtime all take.
    pub fn build(self, snr_db: f64) -> Arc<dyn MimoDetector> {
        let sigma2 = noise_variance_for_snr_db(snr_db);
        match self {
            DetectorKind::Zf => Arc::new(ZfDetector),
            DetectorKind::Mmse => Arc::new(MmseDetector::new(sigma2)),
            DetectorKind::MmseSic => Arc::new(MmseSicDetector::new(sigma2)),
            // Sphere decoders carry a generous runtime guard (50k visited
            // nodes per vector): exact ML at every sane operating point, but
            // bounded on hopeless SNR/constellation pairs that rate
            // adaptation probes and discards (e.g. 64-QAM at 10x10, 20 dB).
            DetectorKind::Geosphere => Arc::new(geosphere_decoder().with_node_budget(50_000)),
            DetectorKind::GeosphereZigzagOnly => {
                Arc::new(geosphere_zigzag_only_decoder().with_node_budget(50_000))
            }
            DetectorKind::EthSd => Arc::new(ethsd_decoder().with_node_budget(50_000)),
        }
    }
}

/// One throughput operating point (a bar of Fig. 11/12 or a point of
/// Fig. 13).
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// The detector measured.
    pub detector: DetectorKind,
    /// Number of clients.
    pub clients: usize,
    /// AP antennas.
    pub ap_antennas: usize,
    /// Operating SNR (dB).
    pub snr_db: f64,
    /// The oracle-rate-adaptation constellation choice.
    pub constellation: Constellation,
    /// Net uplink throughput (Mbps).
    pub throughput_mbps: f64,
    /// Pooled frame error rate at the chosen constellation.
    pub fer: f64,
    /// Average PED calculations per subcarrier (sphere decoders).
    pub ped_per_subcarrier: f64,
    /// Average visited nodes per subcarrier (sphere decoders).
    pub nodes_per_subcarrier: f64,
}

fn merge_measurements(points: &[Measurement]) -> (f64, f64, f64, f64) {
    let n = points.len().max(1) as f64;
    let mbps = points.iter().map(|m| m.throughput_mbps).sum::<f64>() / n;
    let fer = points.iter().map(|m| m.fer).sum::<f64>() / n;
    let ped = points.iter().map(|m| m.per_subcarrier.ped_calcs).sum::<f64>() / n;
    let nodes = points.iter().map(|m| m.per_subcarrier.visited_nodes).sum::<f64>() / n;
    (mbps, fer, ped, nodes)
}

/// Fig. 11 / Fig. 12 point: testbed uplink throughput with SNR-band user
/// selection and oracle rate adaptation.
pub fn testbed_throughput(
    params: &ExperimentParams,
    tb: &Testbed,
    n_clients: usize,
    ap_antennas: usize,
    snr_db: f64,
    detector: DetectorKind,
) -> ThroughputPoint {
    let groups = select_groups(tb, n_clients, snr_db, 5.0, params.groups_per_point);
    let mut best: Option<(Constellation, Vec<Measurement>)> = None;
    // One workspace across every (constellation, group) measurement.
    let mut ws = FrameWorkspace::new();
    for c in Constellation::ALL {
        let cfg = params.cfg(c);
        let det = detector.build(snr_db);
        let mut rng = params.rng(snr_db as u64 * 1000 + n_clients as u64 * 10 + c.size() as u64);
        let ms: Vec<Measurement> = groups
            .iter()
            .map(|g: &UserGroup| {
                let model = tb.channel(g.ap, &g.clients, ap_antennas);
                measure(
                    &cfg,
                    &model,
                    &det,
                    snr_db,
                    params.frames_per_point,
                    &mut rng,
                    params.workers,
                    &mut ws,
                )
            })
            .collect();
        let (mbps, _, _, _) = merge_measurements(&ms);
        let better = match &best {
            None => true,
            Some((_, prev)) => mbps > merge_measurements(prev).0,
        };
        if better {
            best = Some((c, ms));
        }
    }
    let (constellation, ms) = best.expect("nonempty constellation set");
    let (throughput_mbps, fer, ped, nodes) = merge_measurements(&ms);
    ThroughputPoint {
        detector,
        clients: n_clients,
        ap_antennas,
        snr_db,
        constellation,
        throughput_mbps,
        fer,
        ped_per_subcarrier: ped,
        nodes_per_subcarrier: nodes,
    }
}

/// Fig. 13 point: Rayleigh-channel uplink throughput (simulated ten-antenna
/// AP, varying client counts).
pub fn rayleigh_throughput(
    params: &ExperimentParams,
    n_clients: usize,
    ap_antennas: usize,
    snr_db: f64,
    detector: DetectorKind,
) -> ThroughputPoint {
    let model = RayleighChannel::new(ap_antennas, n_clients);
    let mut best: Option<(Constellation, Measurement)> = None;
    // One workspace across the constellation scan.
    let mut ws = FrameWorkspace::new();
    for c in Constellation::ALL {
        let cfg = params.cfg(c);
        let det = detector.build(snr_db);
        let mut rng = params.rng(7_000_000 + n_clients as u64 * 100 + c.size() as u64);
        let m = measure(
            &cfg,
            &model,
            &det,
            snr_db,
            params.frames_per_point * params.groups_per_point,
            &mut rng,
            params.workers,
            &mut ws,
        );
        let better = match &best {
            None => true,
            Some((_, b)) => m.throughput_mbps > b.throughput_mbps,
        };
        if better {
            best = Some((c, m));
        }
    }
    let (constellation, m) = best.expect("nonempty constellation set");
    ThroughputPoint {
        detector,
        clients: n_clients,
        ap_antennas,
        snr_db,
        constellation,
        throughput_mbps: m.throughput_mbps,
        fer: m.fer,
        ped_per_subcarrier: m.per_subcarrier.ped_calcs,
        nodes_per_subcarrier: m.per_subcarrier.visited_nodes,
    }
}

/// One Fig. 15 bar: average PED calculations per subcarrier for one
/// decoder at the SNR hitting a target FER.
#[derive(Clone, Debug)]
pub struct ComplexityPoint {
    /// The decoder measured.
    pub detector: DetectorKind,
    /// Constellation.
    pub constellation: Constellation,
    /// Channel family label ("Rayleigh" or "Testbed").
    pub channel: &'static str,
    /// Operating SNR found for the target FER (dB).
    pub snr_db: f64,
    /// Average exact PED calculations per subcarrier.
    pub ped_per_subcarrier: f64,
    /// Average visited nodes per subcarrier.
    pub nodes_per_subcarrier: f64,
}

/// Fig. 15 column: complexity of ETH-SD vs zigzag-only vs full Geosphere
/// at the SNR where the constellation reaches `target_fer`, on Rayleigh or
/// testbed channels.
pub fn complexity_at_target_fer(
    params: &ExperimentParams,
    tb: Option<&Testbed>,
    n_clients: usize,
    ap_antennas: usize,
    constellation: Constellation,
    target_fer: f64,
) -> Vec<ComplexityPoint> {
    let cfg = params.cfg(constellation);
    let channel_label = if tb.is_some() { "Testbed" } else { "Rayleigh" };

    // One workspace across the calibration and all three decoders'
    // measurements.
    let mut ws = FrameWorkspace::new();
    // Calibrate the operating SNR with the (ML) Geosphere decoder.
    let mut rng = params.rng(9_000_000 + constellation.size() as u64 + n_clients as u64);
    let snr_db = match tb {
        Some(tb) => {
            let groups = select_groups(tb, n_clients, 22.0, 20.0, 1);
            let model = tb.channel(groups[0].ap, &groups[0].clients, ap_antennas);
            snr_for_target_fer(
                &cfg,
                &model,
                &geosphere_decoder(),
                target_fer,
                params.frames_per_point,
                &mut rng,
                params.workers,
                &mut ws,
            )
        }
        None => {
            let model = RayleighChannel::new(ap_antennas, n_clients);
            snr_for_target_fer(
                &cfg,
                &model,
                &geosphere_decoder(),
                target_fer,
                params.frames_per_point,
                &mut rng,
                params.workers,
                &mut ws,
            )
        }
    };

    [DetectorKind::EthSd, DetectorKind::GeosphereZigzagOnly, DetectorKind::Geosphere]
        .into_iter()
        .map(|kind| {
            let det = kind.build(snr_db);
            // Identical seed across decoders: all three see the *same*
            // channel and noise realizations, which is what makes the
            // visited-node counts comparable (and equal, per the paper).
            let mut rng = params.rng(11_000_000 + constellation.size() as u64 * 7);
            let m = match tb {
                Some(tb) => {
                    let groups = select_groups(tb, n_clients, 22.0, 20.0, 1);
                    let model = tb.channel(groups[0].ap, &groups[0].clients, ap_antennas);
                    measure(
                        &cfg,
                        &model,
                        &det,
                        snr_db,
                        params.frames_per_point,
                        &mut rng,
                        params.workers,
                        &mut ws,
                    )
                }
                None => {
                    let model = RayleighChannel::new(ap_antennas, n_clients);
                    measure(
                        &cfg,
                        &model,
                        &det,
                        snr_db,
                        params.frames_per_point,
                        &mut rng,
                        params.workers,
                        &mut ws,
                    )
                }
            };
            ComplexityPoint {
                detector: kind,
                constellation,
                channel: channel_label,
                snr_db,
                ped_per_subcarrier: m.per_subcarrier.ped_calcs,
                nodes_per_subcarrier: m.per_subcarrier.visited_nodes,
            }
        })
        .collect()
}

/// Fig. 9 / Fig. 10 data: κ² and Λ CDFs for one antenna configuration.
pub fn conditioning_cdfs(
    params: &ExperimentParams,
    tb: &Testbed,
    n_clients: usize,
    ap_antennas: usize,
    max_links: usize,
) -> (Cdf, Cdf) {
    let mut rng = params.rng(13_000_000 + n_clients as u64 * 31 + ap_antennas as u64);
    let kappa = tb.kappa_cdf(&mut rng, n_clients, ap_antennas, max_links);
    let mut rng = params.rng(15_000_000 + n_clients as u64 * 31 + ap_antennas as u64);
    let lambda = tb.lambda_cdf(&mut rng, n_clients, ap_antennas, max_links);
    (kappa, lambda)
}

/// The four antenna configurations the paper sweeps in Figs. 9–11 and 14:
/// `(clients, AP antennas)`.
pub const PAPER_CONFIGS: [(usize, usize); 4] = [(2, 2), (2, 4), (3, 4), (4, 4)];

/// The three SNR bands of Fig. 11/14.
pub const PAPER_SNRS: [f64; 3] = [15.0, 20.0, 25.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_kind_builds_all() {
        for kind in [
            DetectorKind::Zf,
            DetectorKind::Mmse,
            DetectorKind::MmseSic,
            DetectorKind::Geosphere,
            DetectorKind::GeosphereZigzagOnly,
            DetectorKind::EthSd,
        ] {
            let det = kind.build(20.0);
            assert!(!det.name().is_empty());
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn testbed_throughput_point_sane() {
        let params = ExperimentParams::quick();
        let tb = Testbed::office();
        let p = testbed_throughput(&params, &tb, 2, 2, 25.0, DetectorKind::Geosphere);
        assert_eq!(p.clients, 2);
        assert!(p.throughput_mbps >= 0.0);
        assert!(p.fer >= 0.0 && p.fer <= 1.0);
        assert!(p.ped_per_subcarrier > 0.0, "sphere decoder must compute PEDs");
    }

    #[test]
    fn geosphere_at_least_zf_throughput_quick() {
        // The paper's headline direction, at smoke-test scale.
        let params = ExperimentParams::quick();
        let tb = Testbed::office();
        let geo = testbed_throughput(&params, &tb, 4, 4, 20.0, DetectorKind::Geosphere);
        let zf = testbed_throughput(&params, &tb, 4, 4, 20.0, DetectorKind::Zf);
        assert!(
            geo.throughput_mbps >= zf.throughput_mbps,
            "Geosphere {:.1} vs ZF {:.1} Mbps",
            geo.throughput_mbps,
            zf.throughput_mbps
        );
    }

    #[test]
    fn rayleigh_throughput_point_sane() {
        let params = ExperimentParams::quick();
        let p = rayleigh_throughput(&params, 2, 4, 20.0, DetectorKind::MmseSic);
        assert!(p.throughput_mbps > 0.0, "2x4 at 20 dB should carry traffic");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The multi-worker path (pooled decode of shared `dyn` detectors,
        // pooled SNR calibration) must reproduce the inline single-worker
        // decode exactly; Debug output covers every field, floats bit for
        // bit.
        let run = |workers| {
            let params = ExperimentParams { workers, ..ExperimentParams::quick() };
            format!(
                "{:?}",
                complexity_at_target_fer(&params, None, 2, 4, Constellation::Qam16, 0.1)
            )
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn conditioning_cdfs_nonempty() {
        let params = ExperimentParams::quick();
        let tb = Testbed::office();
        let (kappa, lambda) = conditioning_cdfs(&params, &tb, 2, 2, 10);
        assert!(!kappa.is_empty());
        assert!(!lambda.is_empty());
        assert!(kappa.quantile(0.5) >= 0.0);
        assert!(lambda.quantile(0.5) >= 0.0);
    }
}

//! Frame-error-rate and throughput measurement.
//!
//! Runs repeated uplink frames over fresh channel realizations (the
//! paper's per-frame i.i.d. sampling, §5.3.2 footnote: coherence times of
//! "driving speeds and slower") and aggregates FER, net throughput, and
//! per-subcarrier detector complexity. Every frame goes through the one
//! hard receive path, [`decode_frame_batched_into`], on a caller-held
//! [`FrameWorkspace`].

use crate::config::PhyConfig;
use crate::frame::FrameWorkspace;
use crate::txrx::decode_frame_batched_into;
use geosphere_core::{AverageStats, DetectorStats, MimoDetector};
use gs_channel::ChannelModel;
use rand::Rng;

/// Aggregated measurement over many frames.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Frames attempted per client.
    pub frames: usize,
    /// Number of clients.
    pub clients: usize,
    /// Per-client frame error rate.
    pub client_fer: Vec<f64>,
    /// Overall frame error rate (all clients pooled).
    pub fer: f64,
    /// Net uplink throughput in Mbps: payload bits delivered across all
    /// clients divided by total airtime.
    pub throughput_mbps: f64,
    /// Detector complexity averaged per subcarrier detection.
    pub per_subcarrier: AverageStats,
}

/// Measures FER/throughput/complexity for one (channel model, detector,
/// SNR, PHY config) operating point: `frames` fresh channel realizations,
/// each decoded through [`decode_frame_batched_into`] on `workers` threads
/// (`1` = inline on the calling thread, `0` = machine parallelism).
///
/// Results are bit-identical at every worker count for the same `rng`
/// state — the decode path is deterministic — so only wall-clock depends
/// on `workers`. A caller-held `ws` carried across a whole sweep (SNR
/// grids, constellation scans, per-group loops) keeps its plan/receive
/// buffers and worker pool warm: after the first frame each further
/// frame's decode performs zero heap allocations, and only the per-frame
/// channel realization still allocates.
#[allow(clippy::too_many_arguments)]
pub fn measure<R, M, D>(
    cfg: &PhyConfig,
    model: &M,
    detector: &D,
    snr_db: f64,
    frames: usize,
    rng: &mut R,
    workers: usize,
    ws: &mut FrameWorkspace,
) -> Measurement
where
    R: Rng + ?Sized,
    M: ChannelModel,
    D: MimoDetector + Clone + PartialEq + 'static,
{
    let mut acc = MeasureAccum::new(model.num_tx());
    for _ in 0..frames {
        let ch = model.realize(rng);
        let out = decode_frame_batched_into(cfg, &ch, detector, snr_db, rng, workers, ws);
        acc.absorb(out);
    }
    acc.finish(cfg, frames)
}

/// Accumulates per-frame outcomes into a [`Measurement`].
struct MeasureAccum {
    clients: usize,
    ok_count: Vec<usize>,
    stats: DetectorStats,
    detections: u64,
}

impl MeasureAccum {
    fn new(clients: usize) -> Self {
        MeasureAccum {
            clients,
            ok_count: vec![0; clients],
            stats: DetectorStats::default(),
            detections: 0,
        }
    }

    fn absorb(&mut self, out: &crate::txrx::UplinkOutcome) {
        for (k, &ok) in out.client_ok.iter().enumerate() {
            if ok {
                self.ok_count[k] += 1;
            }
        }
        self.stats += out.stats;
        self.detections += out.detections;
    }

    fn finish(self, cfg: &PhyConfig, frames: usize) -> Measurement {
        let client_fer: Vec<f64> =
            self.ok_count.iter().map(|&ok| 1.0 - ok as f64 / frames as f64).collect();
        let total_ok: usize = self.ok_count.iter().sum();
        let fer = 1.0 - total_ok as f64 / (frames * self.clients) as f64;
        let delivered_bits = (total_ok * cfg.payload_bits) as f64;
        let airtime = frames as f64 * cfg.airtime_seconds();
        Measurement {
            frames,
            clients: self.clients,
            client_fer,
            fer,
            throughput_mbps: delivered_bits / airtime / 1e6,
            per_subcarrier: AverageStats::from_total(self.stats, self.detections),
        }
    }
}

/// Finds (by bisection over a dB grid) the SNR at which `detector` reaches
/// a target FER — used by the Fig. 15 methodology ("an SNR such that each
/// constellation reaches a frame error rate of approximately 10%"). Every
/// probe is a [`measure`] on `workers` threads through `ws`, so the result
/// does not depend on the worker count.
#[allow(clippy::too_many_arguments)]
pub fn snr_for_target_fer<R, M, D>(
    cfg: &PhyConfig,
    model: &M,
    detector: &D,
    target_fer: f64,
    frames: usize,
    rng: &mut R,
    workers: usize,
    ws: &mut FrameWorkspace,
) -> f64
where
    R: Rng + ?Sized,
    M: ChannelModel,
    D: MimoDetector + Clone + PartialEq + 'static,
{
    // Seven bisection steps over [0, 50] dB.
    let mut lo = 0.0f64;
    let mut hi = 50.0f64;
    for _ in 0..7 {
        let mid = (lo + hi) / 2.0;
        if measure(cfg, model, detector, mid, frames, rng, workers, ws).fer > target_fer {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosphere_core::{geosphere_decoder, ZfDetector};
    use gs_channel::RayleighChannel;
    use gs_modulation::Constellation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg(c: Constellation) -> PhyConfig {
        PhyConfig { payload_bits: 256, ..PhyConfig::new(c) }
    }

    /// One-off measurement on a fresh workspace, inline detection.
    fn measure_once<D>(
        cfg: &PhyConfig,
        model: &RayleighChannel,
        det: &D,
        snr_db: f64,
        frames: usize,
        rng: &mut StdRng,
    ) -> Measurement
    where
        D: MimoDetector + Clone + PartialEq + 'static,
    {
        measure(cfg, model, det, snr_db, frames, rng, 1, &mut FrameWorkspace::new())
    }

    #[test]
    fn high_snr_full_throughput() {
        let mut rng = StdRng::seed_from_u64(181);
        let cfg = small_cfg(Constellation::Qam16);
        let model = RayleighChannel::new(4, 2);
        let m = measure_once(&cfg, &model, &geosphere_decoder(), 38.0, 8, &mut rng);
        assert!(m.fer < 0.1, "FER {}", m.fer);
        // 2 clients × 24 Mbps PHY, scaled by payload/total-info efficiency.
        assert!(m.throughput_mbps > 20.0, "throughput {}", m.throughput_mbps);
    }

    #[test]
    fn zero_snr_zero_throughput() {
        let mut rng = StdRng::seed_from_u64(182);
        let cfg = small_cfg(Constellation::Qam64);
        let model = RayleighChannel::new(2, 2);
        let m = measure_once(&cfg, &model, &ZfDetector, -10.0, 4, &mut rng);
        assert!(m.fer > 0.99);
        assert!(m.throughput_mbps < 0.5);
    }

    #[test]
    fn per_client_fer_lengths() {
        let mut rng = StdRng::seed_from_u64(183);
        let cfg = small_cfg(Constellation::Qpsk);
        let model = RayleighChannel::new(4, 3);
        let m = measure_once(&cfg, &model, &ZfDetector, 20.0, 3, &mut rng);
        assert_eq!(m.client_fer.len(), 3);
        assert_eq!(m.clients, 3);
        for f in &m.client_fer {
            assert!((0.0..=1.0).contains(f));
        }
    }

    #[test]
    fn measure_batched_into_matches_measure_batched() {
        // A fresh workspace per measurement vs one recycled across worker
        // counts: identical results at every count.
        let cfg = small_cfg(Constellation::Qam16);
        let model = RayleighChannel::new(4, 2);
        let det = geosphere_decoder();
        let mut ws = FrameWorkspace::new();
        for workers in [1usize, 3] {
            let mut rng = StdRng::seed_from_u64(185);
            let mut fresh_ws = FrameWorkspace::new();
            let reference = measure(&cfg, &model, &det, 20.0, 4, &mut rng, workers, &mut fresh_ws);
            let mut rng = StdRng::seed_from_u64(185);
            let pooled = measure(&cfg, &model, &det, 20.0, 4, &mut rng, workers, &mut ws);
            assert_eq!(pooled.client_fer, reference.client_fer, "workers {workers}");
            assert_eq!(pooled.fer, reference.fer, "workers {workers}");
            assert_eq!(
                pooled.per_subcarrier.ped_calcs, reference.per_subcarrier.ped_calcs,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn sweep_reused_workspace_matches_fresh() {
        // A workspace carried across a whole sweep (several SNR points,
        // inline and pooled) must be bit-identical to fresh-workspace
        // measurement at every point.
        let cfg = small_cfg(Constellation::Qam16);
        let model = RayleighChannel::new(4, 2);
        let det = geosphere_decoder();
        let mut ws = FrameWorkspace::new();
        for snr in [10.0, 18.0, 26.0] {
            for (seed, workers) in [(186, 1), (187, 2)] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut fresh_ws = FrameWorkspace::new();
                let fresh = measure(&cfg, &model, &det, snr, 3, &mut rng, workers, &mut fresh_ws);
                let mut rng = StdRng::seed_from_u64(seed);
                let reused = measure(&cfg, &model, &det, snr, 3, &mut rng, workers, &mut ws);
                assert_eq!(reused.client_fer, fresh.client_fer, "snr {snr} workers {workers}");
                assert_eq!(reused.per_subcarrier.ped_calcs, fresh.per_subcarrier.ped_calcs);
            }
        }
    }

    #[test]
    fn snr_search_brackets_target() {
        let mut rng = StdRng::seed_from_u64(184);
        let cfg = small_cfg(Constellation::Qpsk);
        let model = RayleighChannel::new(4, 2);
        let det = geosphere_decoder();
        let mut ws = FrameWorkspace::new();
        let snr = snr_for_target_fer(&cfg, &model, &det, 0.1, 6, &mut rng, 1, &mut ws);
        assert!((0.0..50.0).contains(&snr), "snr {snr}");
        // At snr+10 dB the FER must be clearly below target.
        let m = measure(&cfg, &model, &det, snr + 10.0, 10, &mut rng, 1, &mut ws);
        assert!(m.fer <= 0.35, "fer {} at {} dB", m.fer, snr + 10.0);
    }
}

//! Batched MIMO detection — the workspace's scaling layer.
//!
//! An OFDM frame is an embarrassingly parallel batch of per-subcarrier
//! sphere searches (paper §4: one independent detection per OFDM symbol ×
//! subcarrier), and those searches share a tiny set of distinct channel
//! matrices — one per subcarrier, reused across every OFDM symbol of the
//! frame. This module exploits the second property:
//!
//! * [`DetectionBatch`] describes a batch as a shared channel table plus
//!   jobs that reference channels by index, so per-channel preprocessing
//!   (QR factorization) is computed once per *channel*, not once per
//!   *detection* — [`SphereDecoder`](crate::SphereDecoder) overrides
//!   [`MimoDetector::detect_batch_with`] to do exactly that.
//! * A frame's jobs arrive **channel-major**: `gs-phy`'s planner writes
//!   every OFDM symbol of subcarrier 0, then of subcarrier 1, and so on,
//!   so a contiguous job range spans whole channel runs and its detector
//!   factorizes each of its channels once. Batches in any other order
//!   decode bit-identically; they only lose the amortization across
//!   same-channel jobs that are not adjacent.
//!
//! The first property is used one layer up: `gs-runtime`'s `FrameStream`
//! cuts a frame's jobs into contiguous per-shard ranges of its worker
//! pool, and each range is one batch here. Results are bit-identical to
//! detecting each job serially however the jobs are cut: detection
//! consumes no shared mutable state and QR factorization is
//! deterministic.
//!
//! Workspace ownership: a caller holds one [`DetectorWorkspace`](crate::DetectorWorkspace) per
//! thread for its whole life (see [`MimoDetector::detect_batch_with`]),
//! so per-node enumerators, per-level search state, and per-channel QR
//! factors are reused across every job and frame — zero heap allocations
//! per symbol after warmup.

use crate::detector::{Detection, MimoDetector};
use gs_linalg::{Complex, Matrix};
use gs_modulation::Constellation;

/// One detection problem inside a batch: an index into the batch's shared
/// channel table plus the received vector.
#[derive(Clone, Debug)]
pub struct DetectionJob {
    /// Index into [`DetectionBatch::channels`].
    pub channel: usize,
    /// Received vector (one entry per AP antenna).
    pub y: Vec<Complex>,
}

/// A batch of detection problems sharing a table of grid-domain channels.
///
/// The channel table is the unit of preprocessing reuse: every job whose
/// `channel` index matches shares one QR factorization in detectors that
/// support it.
#[derive(Clone, Copy, Debug)]
pub struct DetectionBatch<'a> {
    /// Distinct grid-domain channel matrices (constellation scale folded
    /// in), typically one per OFDM subcarrier.
    pub channels: &'a [Matrix],
    /// The detection problems, each referencing a channel by index.
    pub jobs: &'a [DetectionJob],
    /// The constellation every stream uses.
    pub c: Constellation,
}

impl DetectionBatch<'_> {
    /// Detects every job serially through plain [`MimoDetector::detect`],
    /// with no preprocessing reuse — the reference the batched paths are
    /// checked against.
    pub fn detect_serial<D: MimoDetector + ?Sized>(&self, detector: &D) -> Vec<Detection> {
        self.jobs
            .iter()
            .map(|job| detector.detect(&self.channels[job.channel], &job.y, self.c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::apply_channel;
    use crate::{
        ethsd_decoder, geosphere_decoder, geosphere_zigzag_only_decoder, MmseDetector,
        MmseSicDetector, ZfDetector,
    };
    use gs_channel::{sample_cn, RayleighChannel};
    use gs_modulation::GridPoint;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_batch(
        seed: u64,
        c: Constellation,
        na: usize,
        nc: usize,
        n_channels: usize,
        n_jobs: usize,
        noise: f64,
    ) -> (Vec<Matrix>, Vec<DetectionJob>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let channels: Vec<Matrix> = (0..n_channels)
            .map(|_| RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(c.scale()))
            .collect();
        let pts = c.points();
        let jobs: Vec<DetectionJob> = (0..n_jobs)
            .map(|j| {
                let channel = j % n_channels;
                let s: Vec<GridPoint> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
                let mut y = apply_channel(&channels[channel], &s);
                for v in y.iter_mut() {
                    *v += sample_cn(&mut rng, noise);
                }
                DetectionJob { channel, y }
            })
            .collect();
        (channels, jobs)
    }

    #[test]
    fn batched_matches_serial_reference_all_detectors() {
        let c = Constellation::Qam16;
        let (channels, jobs) = random_batch(301, c, 4, 4, 6, 48, 0.05);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let detectors: Vec<Box<dyn MimoDetector>> = vec![
            Box::new(geosphere_decoder()),
            Box::new(ethsd_decoder()),
            Box::new(ZfDetector),
            Box::new(MmseSicDetector::new(0.05)),
            // The rest of what the experiments build (`DetectorKind::build`).
            Box::new(MmseDetector::new(0.05)),
            Box::new(geosphere_zigzag_only_decoder().with_node_budget(50_000)),
            Box::new(geosphere_decoder().with_node_budget(50_000)),
            Box::new(ethsd_decoder().with_node_budget(50_000)),
        ];
        for det in &detectors {
            let reference = batch.detect_serial(det.as_ref());
            let amortized = det.detect_batch(&batch);
            assert_eq!(amortized.len(), reference.len());
            for (k, (a, r)) in amortized.iter().zip(&reference).enumerate() {
                assert_eq!(a.symbols, r.symbols, "{} amortized job {k}", det.name());
                assert_eq!(a.stats, r.stats, "{} amortized job {k}", det.name());
            }
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let batch = DetectionBatch { channels: &[], jobs: &[], c: Constellation::Qpsk };
        let det = geosphere_decoder();
        assert!(det.detect_batch(&batch).is_empty());
        // A recycled output buffer is cleared, not appended to.
        let (channels, jobs) = random_batch(302, Constellation::Qpsk, 2, 2, 1, 3, 0.01);
        let mut out = det.detect_batch(&DetectionBatch {
            channels: &channels,
            jobs: &jobs,
            c: Constellation::Qpsk,
        });
        assert_eq!(out.len(), 3);
        det.detect_batch_with(&batch, &mut det.make_batch_workspace(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn detectors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::GeosphereDecoder>();
        assert_send_sync::<crate::EthSdDecoder>();
        assert_send_sync::<ZfDetector>();
        assert_send_sync::<MmseSicDetector>();
        assert_send_sync::<Box<dyn MimoDetector>>();
    }
}

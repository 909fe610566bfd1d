//! The detector **tier ladder**: an ordered family of detectors a control
//! plane can step through as load changes.
//!
//! Geosphere's sphere decoder is the quality ceiling, but its complexity
//! is channel-dependent; under a deadline storm a base station is better
//! served by a cheaper detector that *meets* deadlines than an exact one
//! that misses them. [`DetectorTier`] names the rungs of that trade —
//! sphere (exact ML) → FSD (fixed complexity, near-ML) → MMSE (linear
//! floor) — and [`DetectorLadder`] binds one [`MimoDetector`] to each rung
//! behind a single dispatch point.
//!
//! The ladder dispatches through the same opaque
//! [`DetectorWorkspace`] the batched entry points already use, but keeps
//! **one sub-workspace per rung** ([`DetectorWorkspace::get_or_insert`]
//! replaces its contents when the stored type changes, so a bare workspace
//! bounced between a sphere decoder and an MMSE detector would re-allocate
//! on every switch). With the per-rung split, each rung's scratch warms
//! once and tier switches stay allocation-free thereafter for detectors
//! with allocation-free batch paths (the sphere and linear families; FSD
//! and K-best allocate internally per detection regardless of workspace).

use crate::detector::{Detection, DetectorWorkspace, MimoDetector};
use crate::fsd::FsdDetector;
use crate::linear::MmseDetector;
use crate::DetectionBatch;
use std::sync::Arc;

/// One rung of the detection-quality ladder, ordered from the most exact
/// (and most expensive) detector down to the cheapest floor.
///
/// The discriminants are the ladder indices: `Sphere = 0` is the top rung,
/// higher values are progressively degraded tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum DetectorTier {
    /// Exact maximum-likelihood sphere decoding — the paper's detector,
    /// the quality target whenever the pipeline keeps up.
    #[default]
    Sphere = 0,
    /// Fixed-complexity near-ML search (FSD / K-best family): bounded,
    /// channel-independent work per detection.
    Fsd = 1,
    /// Linear MMSE filtering — the cheapest rung, the floor the ladder
    /// degrades to under sustained overload.
    Mmse = 2,
}

impl DetectorTier {
    /// Number of rungs.
    pub const COUNT: usize = 3;

    /// Every tier, top rung first.
    pub const ALL: [DetectorTier; DetectorTier::COUNT] =
        [DetectorTier::Sphere, DetectorTier::Fsd, DetectorTier::Mmse];

    /// The ladder index of this tier (`0` = top).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The tier at ladder index `i`, if any.
    pub fn from_index(i: usize) -> Option<DetectorTier> {
        DetectorTier::ALL.get(i).copied()
    }

    /// One rung cheaper, or `None` when already at the floor.
    pub fn degraded(self) -> Option<DetectorTier> {
        DetectorTier::from_index(self.index() + 1)
    }

    /// One rung more exact, or `None` when already at the top.
    pub fn recovered(self) -> Option<DetectorTier> {
        self.index().checked_sub(1).and_then(DetectorTier::from_index)
    }

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            DetectorTier::Sphere => "sphere",
            DetectorTier::Fsd => "fsd",
            DetectorTier::Mmse => "mmse",
        }
    }
}

/// Per-rung scratch stored inside a [`DetectorWorkspace`], so each tier's
/// detector keeps its own warmed state across tier switches.
#[derive(Default)]
struct TierWorkspace {
    rungs: [DetectorWorkspace; DetectorTier::COUNT],
}

/// One detector per [`DetectorTier`] rung, behind a single batched
/// dispatch point ([`DetectorLadder::detect_batch_indexed_with`]).
///
/// Cloning a ladder clones three `Arc` handles — ladders are cheap to
/// share across a worker pool.
#[derive(Clone)]
pub struct DetectorLadder {
    rungs: [Arc<dyn MimoDetector>; DetectorTier::COUNT],
}

impl DetectorLadder {
    /// A ladder from explicit rung detectors, top first.
    pub fn new(
        sphere: Arc<dyn MimoDetector>,
        fsd: Arc<dyn MimoDetector>,
        mmse: Arc<dyn MimoDetector>,
    ) -> Self {
        DetectorLadder { rungs: [sphere, fsd, mmse] }
    }

    /// The degenerate ladder running `detector` at every rung — how a
    /// fixed-detector pipeline expresses itself in ladder form (tier
    /// choices then change labeling, never bits).
    pub fn uniform(detector: Arc<dyn MimoDetector>) -> Self {
        DetectorLadder { rungs: [Arc::clone(&detector), Arc::clone(&detector), detector] }
    }

    /// The default production ladder: Geosphere sphere decoding on top,
    /// [`FsdDetector`] in the middle, [`MmseDetector`] (built from the
    /// physical `noise_variance`, unit-signal-power convention) as the
    /// floor.
    pub fn geosphere_default(noise_variance: f64) -> Self {
        DetectorLadder::new(
            Arc::new(crate::geosphere_decoder()),
            Arc::new(FsdDetector::new()),
            Arc::new(MmseDetector::new(noise_variance)),
        )
    }

    /// The detector bound to `tier`.
    pub fn detector(&self, tier: DetectorTier) -> &Arc<dyn MimoDetector> {
        &self.rungs[tier.index()]
    }

    /// Detects the jobs selected by `indices` with `tier`'s detector,
    /// through that rung's own sub-workspace inside `ws` — bit-identical
    /// to calling the rung detector's
    /// [`MimoDetector::detect_batch_indexed_with`] directly, and
    /// allocation-free once the rung has warmed (for rung detectors whose
    /// batch path is).
    pub fn detect_batch_indexed_with(
        &self,
        tier: DetectorTier,
        batch: &DetectionBatch,
        indices: &[usize],
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        let rung_ws = &mut ws.get_or_insert(TierWorkspace::default).rungs[tier.index()];
        self.rungs[tier.index()].detect_batch_indexed_with(batch, indices, rung_ws, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectionJob;
    use gs_channel::{ChannelModel, RayleighChannel};
    use gs_linalg::Matrix;
    use gs_modulation::Constellation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tier_order_and_stepping() {
        assert_eq!(DetectorTier::default(), DetectorTier::Sphere);
        assert_eq!(DetectorTier::Sphere.degraded(), Some(DetectorTier::Fsd));
        assert_eq!(DetectorTier::Fsd.degraded(), Some(DetectorTier::Mmse));
        assert_eq!(DetectorTier::Mmse.degraded(), None, "the floor cannot degrade");
        assert_eq!(DetectorTier::Mmse.recovered(), Some(DetectorTier::Fsd));
        assert_eq!(DetectorTier::Sphere.recovered(), None, "the top cannot recover");
        for (i, t) in DetectorTier::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(DetectorTier::from_index(i), Some(t));
        }
        assert_eq!(DetectorTier::from_index(DetectorTier::COUNT), None);
    }

    /// Ladder dispatch must be bit-identical to the rung detector called
    /// directly, for every rung, including after tier switches through one
    /// shared workspace.
    #[test]
    fn ladder_dispatch_matches_direct_detectors() {
        let c = Constellation::Qam16;
        let mut rng = StdRng::seed_from_u64(2014);
        let ch = RayleighChannel::new(4, 4).realize(&mut rng);
        let h = ch.subcarrier(0).scale(c.scale());
        let channels: Vec<Matrix> = vec![h.clone()];
        let pts = c.points();
        let rand_symbols = |rng: &mut StdRng| -> Vec<_> {
            (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect()
        };
        let jobs: Vec<DetectionJob> = (0..6)
            .map(|k| {
                let s = rand_symbols(&mut rng);
                let mut y = crate::apply_channel(&h, &s);
                // Small deterministic perturbation so slicing is non-trivial.
                for (i, z) in y.iter_mut().enumerate() {
                    *z += gs_linalg::Complex::new(0.01 * (k + i) as f64, -0.01 * i as f64);
                }
                DetectionJob { channel: 0, y }
            })
            .collect();
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let indices: Vec<usize> = (0..jobs.len()).collect();

        let ladder = DetectorLadder::geosphere_default(0.05);
        let mut ws = DetectorWorkspace::new();
        let mut out = Vec::new();
        // Two passes: the second reuses sub-workspaces warmed by the first,
        // interleaving tier switches.
        for _ in 0..2 {
            for tier in DetectorTier::ALL {
                ladder.detect_batch_indexed_with(tier, &batch, &indices, &mut ws, &mut out);
                let det = ladder.detector(tier);
                let mut direct = Vec::new();
                det.detect_batch_indexed_with(
                    &batch,
                    &indices,
                    &mut det.make_batch_workspace(),
                    &mut direct,
                );
                assert_eq!(out.len(), direct.len());
                for (a, b) in out.iter().zip(direct.iter()) {
                    assert_eq!(a.symbols, b.symbols, "{tier:?} symbols diverge");
                    assert_eq!(a.stats, b.stats, "{tier:?} op counts diverge");
                }
            }
        }
    }

    #[test]
    fn uniform_ladder_runs_one_detector_everywhere() {
        let det: Arc<dyn MimoDetector> = Arc::new(crate::linear::ZfDetector);
        let ladder = DetectorLadder::uniform(Arc::clone(&det));
        for tier in DetectorTier::ALL {
            assert!(Arc::ptr_eq(ladder.detector(tier), &det));
        }
    }
}

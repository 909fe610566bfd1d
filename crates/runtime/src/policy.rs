//! The adaptation control plane: pluggable policies that pick a
//! [`DetectorTier`] per admission from runtime pressure signals.
//!
//! The streaming engine consults its [`AdaptationPolicy`] once per
//! admitted frame, handing it a [`PressureSignal`] snapshot (the windowed
//! deadline-miss rate and slot-pool occupancy).
//! The returned tier is stamped on the frame and selects which rung of the
//! stream's [`DetectorLadder`](geosphere_core::DetectorLadder) detects it.
//!
//! Two policies ship:
//!
//! * [`PinnedPolicy`] — a constant tier. `FrameStream::new` pins
//!   [`DetectorTier::Sphere`], which is how the fixed-detector pipeline
//!   keeps its bit-identity contract: tier choice never varies, so the
//!   stream remains a pure function of each submission.
//! * [`HysteresisPolicy`] — the default closed-loop ladder walk: degrade
//!   sphere → FSD → MMSE as pressure rises, climb back as the slot pool
//!   drains, with separated degrade/recover thresholds and a minimum
//!   dwell between moves so the tier cannot flap when the signal sits at
//!   a threshold.
//!
//! Policies are plain mutable state behind the stream's admission path —
//! unit-testable by feeding synthetic signals, no engine required.

use geosphere_core::DetectorTier;

/// The pressure snapshot handed to [`AdaptationPolicy::select_tier`] at
/// each admission.
///
/// All signals are cheap, slightly stale reads — admission-time
/// observations, not barriers. `occupancy` counts the admission being
/// decided (the slot is already claimed when the policy runs).
///
/// The pool's queue depth is not a signal: the queue holds at most one
/// task per in-flight frame, and the admitted frame's task is not queued
/// yet, so the depth stays below `in_flight` and occupancy already bounds
/// it.
#[derive(Clone, Copy, Debug)]
pub struct PressureSignal {
    /// Fraction of recently delivered frames that missed their deadline
    /// ([`RuntimeStats::windowed_miss_rate`](crate::RuntimeStats::windowed_miss_rate));
    /// `0.0` while the window is empty.
    pub miss_rate: f64,
    /// Slot-pool occupancy `0.0..=1.0` (`in_flight / capacity`).
    pub occupancy: f64,
    /// Frames in flight, including this admission.
    pub in_flight: usize,
    /// The slot-pool bound.
    pub capacity: usize,
}

/// Picks the detector tier for each admitted frame.
///
/// `select_tier` runs on the submitting thread under the stream's policy
/// lock — implementations should be quick and must not allocate on the
/// steady-state path (the zero-allocation contract covers admission).
pub trait AdaptationPolicy: Send {
    /// Chooses the tier for the admission described by `signal`.
    fn select_tier(&mut self, signal: &PressureSignal) -> DetectorTier;
}

/// The constant policy: every admission decodes at the pinned tier.
///
/// With a pinned policy the stream's outputs are bit-identical to serial
/// decoding with the pinned rung's detector — the determinism contract
/// the `stream_determinism` suite asserts per tier.
#[derive(Clone, Copy, Debug)]
pub struct PinnedPolicy(pub DetectorTier);

impl AdaptationPolicy for PinnedPolicy {
    fn select_tier(&mut self, _signal: &PressureSignal) -> DetectorTier {
        self.0
    }
}

/// The default closed-loop policy: a hysteresis ladder walk.
///
/// A tier move needs two things at once:
///
/// * **Signal past a threshold.** Degrading needs `occupancy ≥ 0.85`
///   *or* `miss_rate ≥ 0.10`; recovering needs `occupancy ≤ 0.35` *and*
///   `miss_rate ≤ 0.02`. The recover thresholds sit well below the degrade
///   thresholds, so any signal held between them changes nothing — the
///   hysteresis band that prevents flapping at a single threshold.
/// * **Dwell.** At least 4 admissions must pass since the last move,
///   bounding the walk rate even when the signal oscillates across the
///   whole band.
///
/// Each move is one rung: sphere → FSD → MMSE degrading, the reverse
/// recovering.
#[derive(Clone, Debug)]
pub struct HysteresisPolicy {
    /// Degrade when slot-pool occupancy reaches this fraction.
    degrade_occupancy: f64,
    /// Recover only when slot-pool occupancy is at or below this fraction.
    recover_occupancy: f64,
    /// Degrade when the windowed miss rate reaches this fraction.
    degrade_miss_rate: f64,
    /// Recover only when the windowed miss rate is at or below this
    /// fraction.
    recover_miss_rate: f64,
    /// Minimum admissions between tier moves.
    dwell: u32,
    tier: DetectorTier,
    admissions_since_move: u32,
}

impl HysteresisPolicy {
    /// The policy with the thresholds above, starting at the top tier.
    pub fn new() -> Self {
        let dwell = 4;
        HysteresisPolicy {
            degrade_occupancy: 0.85,
            recover_occupancy: 0.35,
            degrade_miss_rate: 0.10,
            recover_miss_rate: 0.02,
            dwell,
            tier: DetectorTier::Sphere,
            // A fresh policy may move on its first admission.
            admissions_since_move: dwell,
        }
    }
}

impl Default for HysteresisPolicy {
    fn default() -> Self {
        HysteresisPolicy::new()
    }
}

impl AdaptationPolicy for HysteresisPolicy {
    fn select_tier(&mut self, signal: &PressureSignal) -> DetectorTier {
        let PressureSignal { occupancy, miss_rate, .. } = *signal;
        let hot = occupancy >= self.degrade_occupancy || miss_rate >= self.degrade_miss_rate;
        let cool = occupancy <= self.recover_occupancy && miss_rate <= self.recover_miss_rate;
        if self.admissions_since_move >= self.dwell {
            let moved = if hot {
                self.tier.degraded()
            } else if cool {
                self.tier.recovered()
            } else {
                None
            };
            if let Some(next) = moved {
                self.tier = next;
                self.admissions_since_move = 0;
            }
        }
        self.admissions_since_move = self.admissions_since_move.saturating_add(1);
        self.tier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(miss_rate: f64, in_flight: usize, capacity: usize) -> PressureSignal {
        PressureSignal {
            miss_rate,
            occupancy: if capacity == 0 { 0.0 } else { in_flight as f64 / capacity as f64 },
            in_flight,
            capacity,
        }
    }

    #[test]
    fn pinned_policy_never_moves() {
        let mut p = PinnedPolicy(DetectorTier::Fsd);
        for load in [0.0, 0.5, 1.0] {
            let s = signal(load, 8, 8);
            assert_eq!(p.select_tier(&s), DetectorTier::Fsd);
        }
    }

    #[test]
    fn sustained_pressure_walks_to_the_floor_and_idle_walks_back() {
        let mut p = HysteresisPolicy::new();
        // Saturated: degrade one rung per dwell until the MMSE floor.
        let mut seen = Vec::new();
        for _ in 0..(3 * p.dwell) {
            seen.push(p.select_tier(&signal(0.5, 8, 8)));
        }
        assert_eq!(seen.first().copied(), Some(DetectorTier::Fsd), "first hot admission degrades");
        assert_eq!(seen.last().copied(), Some(DetectorTier::Mmse));
        assert!(seen.windows(2).all(|w| w[1] >= w[0]), "degradation is monotone");
        // Stays at the floor under pressure.
        assert_eq!(p.select_tier(&signal(0.5, 8, 8)), DetectorTier::Mmse);
        // Drained: climb back to sphere, one rung per dwell.
        let mut tier = DetectorTier::Mmse;
        for _ in 0..(3 * p.dwell) {
            tier = p.select_tier(&signal(0.0, 1, 8));
        }
        assert_eq!(tier, DetectorTier::Sphere, "idle stream recovers the top tier");
    }

    #[test]
    fn no_flapping_inside_the_hysteresis_band() {
        let mut p = HysteresisPolicy::new();
        // Degrade once at the threshold…
        let s_hot = signal(0.0, 87, 100); // occupancy 0.87 ≥ 0.85
        assert_eq!(p.select_tier(&s_hot), DetectorTier::Fsd);
        // …then hold the signal just *below* the degrade threshold but
        // above the recover threshold: the tier must never change again,
        // in either direction, however long it holds.
        let s_band = signal(0.0, 80, 100); // 0.35 < 0.80 < 0.85
        for _ in 0..100 {
            assert_eq!(
                p.select_tier(&s_band),
                DetectorTier::Fsd,
                "signal inside the hysteresis band must not move the tier"
            );
        }
        // Oscillating tightly around the degrade threshold cannot climb
        // back either (recovery needs ≤ 0.35): at worst it walks further
        // down, one rung per dwell — never up-down flapping.
        let mut tiers = Vec::new();
        for k in 0..40 {
            let s = if k % 2 == 0 { s_hot } else { s_band };
            tiers.push(p.select_tier(&s));
        }
        assert!(tiers.windows(2).all(|w| w[1] >= w[0]), "no upward move while hot: {tiers:?}");
    }

    #[test]
    fn miss_rate_alone_degrades_and_blocks_recovery() {
        let mut p = HysteresisPolicy::new();
        // Low occupancy, high miss rate: the deadline signal must degrade.
        assert_eq!(p.select_tier(&signal(0.5, 1, 8)), DetectorTier::Fsd);
        // Occupancy drained but misses still in the window: the ladder
        // keeps walking down (recovery must wait for *both* signals).
        let mut tier = DetectorTier::Fsd;
        for _ in 0..(2 * p.dwell) {
            let next = p.select_tier(&signal(0.5, 1, 8));
            assert!(next >= tier, "misses in the window must block recovery");
            tier = next;
        }
        assert_eq!(tier, DetectorTier::Mmse);
        // Window clean → climb back.
        let mut tier = DetectorTier::Mmse;
        for _ in 0..(3 * p.dwell) {
            tier = p.select_tier(&signal(0.0, 1, 8));
        }
        assert_eq!(tier, DetectorTier::Sphere);
    }

    #[test]
    fn dwell_bounds_the_walk_rate() {
        let mut p = HysteresisPolicy::new();
        p.dwell = 8;
        p.admissions_since_move = 8;
        let s = signal(0.5, 8, 8);
        let tiers: Vec<DetectorTier> = (0..17).map(|_| p.select_tier(&s)).collect();
        // Moves at admissions 0 and 8; in between the tier holds.
        assert_eq!(tiers[0], DetectorTier::Fsd);
        assert!(tiers[1..8].iter().all(|&t| t == DetectorTier::Fsd));
        assert_eq!(tiers[8], DetectorTier::Mmse);
        assert!(tiers[9..].iter().all(|&t| t == DetectorTier::Mmse));
    }
}

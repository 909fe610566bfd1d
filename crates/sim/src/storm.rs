//! Deadline-storm and drain-recovery runs for the adaptive control
//! plane.
//!
//! Two questions about `gs-runtime`'s closed loop, asked the way the
//! bench gate (and CI) asks them:
//!
//! * **Storm** ([`run_deadline_storm`]): under a saturating load where
//!   every frame carries a deadline, does the adaptive ladder (sphere →
//!   FSD → MMSE under pressure) deliver a *lower miss rate* than a
//!   pipeline welded to sphere decoding? Both pipelines see the same
//!   plan (same channels, same seeds).
//! * **Drain** ([`run_drain_recovery`]): after the storm passes and the
//!   queue drains, does the policy climb back to the top tier — i.e. is
//!   the degradation a *mode*, not a ratchet?
//!
//! The storm is a [`Scenario`] (canonically [`presets::deadline_storm`])
//! with a [`DeadlineSpec::Within`] deadline, fed by [`drive`] in replay
//! order at full window: admission waits for a free slot, so the
//! miss-rate comparison is about detection speed, not ingress loss.
//!
//! [`presets::deadline_storm`]: crate::scenario::presets::deadline_storm
//! [`DeadlineSpec::Within`]: crate::DeadlineSpec::Within

use crate::scenario::{DeadlineSpec, Scenario};
use crate::traffic::{drive, Pacing, TrafficMix, TrafficReport};
use geosphere_core::geosphere_decoder;
use gs_runtime::{DetectorTier, FrameStream, HysteresisPolicy};
use std::time::Duration;

/// Replay at full window: the storm's saturating load.
const FULL: Pacing = Pacing::Replay { in_flight: usize::MAX };

/// The storm verdict: the same offered load through a static-sphere
/// pipeline and through the default adaptive control plane.
#[derive(Clone, Debug)]
pub struct StormComparison {
    /// The static pipeline (sphere decoding for every frame).
    pub static_sphere: TrafficReport,
    /// The adaptive pipeline ([`HysteresisPolicy`] over the default
    /// ladder).
    pub adaptive: TrafficReport,
    /// The adaptive run's admissions per tier — evidence the ladder
    /// actually moved (a storm that never degrades is not a storm).
    pub adaptive_tier_admissions: [u64; DetectorTier::COUNT],
}

impl StormComparison {
    /// Deadline misses as a fraction of submitted frames, static pipeline.
    pub fn static_miss_rate(&self) -> f64 {
        miss_rate(&self.static_sphere)
    }

    /// Deadline misses as a fraction of submitted frames, adaptive
    /// pipeline.
    pub fn adaptive_miss_rate(&self) -> f64 {
        miss_rate(&self.adaptive)
    }
}

fn miss_rate(report: &TrafficReport) -> f64 {
    if report.submitted == 0 {
        0.0
    } else {
        report.deadline_misses as f64 / report.submitted as f64
    }
}

/// The default adaptive pipeline for `storm`.
fn adaptive_stream(storm: &Scenario) -> FrameStream {
    FrameStream::adaptive(storm.phy, storm.ladder(), HysteresisPolicy::new(), storm.stream_config())
}

/// Runs the same deadline storm through a static-sphere pipeline and the
/// default adaptive pipeline, returning both reports.
///
/// The two runs are sequential (not concurrent), so they do not contend
/// for cores; neither drops at ingress — every offered frame is decoded
/// and accounted.
pub fn run_deadline_storm(storm: &Scenario) -> StormComparison {
    let plan = storm.plan();

    let static_stream = FrameStream::new(storm.phy, geosphere_decoder(), storm.stream_config());
    let static_sphere = drive(&static_stream, &plan, FULL).traffic();
    drop(static_stream);

    let adaptive_stream = adaptive_stream(storm);
    let adaptive = drive(&adaptive_stream, &plan, FULL).traffic();
    let adaptive_tier_admissions = adaptive_stream.stats().tier_admissions;

    StormComparison { static_sphere, adaptive, adaptive_tier_admissions }
}

/// What [`run_drain_recovery`] observed.
#[derive(Clone, Debug)]
pub struct DrainRecoveryReport {
    /// The storm phase, through the adaptive pipeline.
    pub storm: TrafficReport,
    /// Whether the storm drove at least one admission below the top tier.
    pub degraded: bool,
    /// The tier of each trickle frame, in submission order.
    pub trickle_tiers: Vec<DetectorTier>,
    /// Whether the final trickle admission was back at
    /// [`DetectorTier::Sphere`].
    pub recovered: bool,
}

/// Storm → drain → trickle: drives a deadline storm through an adaptive
/// stream, lets the queue drain for `idle`, then submits `trickle`
/// deadline-free frames of the same scenario shape one at a time,
/// recording the tier each decoded at. Recovery means the ladder climbed
/// back to sphere by the last trickle frame.
///
/// `idle` must exceed the control plane's one-second miss-rate window for
/// stale storm misses to age out; the trickle needs enough frames for the
/// policy's dwell to allow two climbs (MMSE → FSD → sphere).
pub fn run_drain_recovery(storm: &Scenario, idle: Duration, trickle: usize) -> DrainRecoveryReport {
    let stream = adaptive_stream(storm);
    let storm_report = drive(&stream, &storm.plan(), FULL).traffic();
    let after_storm = stream.stats();
    let degraded =
        after_storm.tier_admissions[DetectorTier::Sphere.index()] < after_storm.submitted;

    std::thread::sleep(idle);

    let calm = Scenario {
        seed: storm.seed ^ 0xD5A1_4EC0,
        clients: 1,
        frames_per_client: trickle,
        traffic: TrafficMix::Saturation,
        deadlines: DeadlineSpec::None,
        fault: None,
        ..storm.clone()
    };
    let trickle = drive(&stream, &calm.plan(), Pacing::Replay { in_flight: 1 });
    let trickle_tiers: Vec<DetectorTier> =
        trickle.records.iter().filter(|r| r.delivered).map(|r| r.tier).collect();
    let recovered = trickle_tiers.last() == Some(&DetectorTier::Sphere);

    DrainRecoveryReport { storm: storm_report, degraded, trickle_tiers, recovered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{presets, ChannelSpec, SnrSpec};

    /// 3 clients × 12 frames of 4×4 i.i.d. Rayleigh at 24 dB, 2 workers,
    /// 6 slots; the deadline is tight against sphere decoding at
    /// saturation, roomy for the MMSE floor.
    fn storm() -> Scenario {
        presets::deadline_storm(Duration::from_millis(4), 2014)
            .frames_per_client(12)
            .antennas(4, 4)
            .channel(ChannelSpec::IidRayleigh)
            .snr(SnrSpec::Fixed(24.0))
    }

    #[test]
    fn storm_degrades_and_both_pipelines_account_consistently() {
        let report = run_deadline_storm(&storm());
        for r in [&report.static_sphere, &report.adaptive] {
            assert_eq!(r.offered, 36);
            assert_eq!(r.submitted, 36, "saturation mode never drops");
            assert_eq!(r.dropped, 0);
        }
        let total: u64 = report.adaptive_tier_admissions.iter().sum();
        assert_eq!(total, 36, "every admission is attributed to a tier");
        // A storm this tight must push the adaptive ladder off the top
        // rung at least once.
        assert!(
            report.adaptive_tier_admissions[DetectorTier::Sphere.index()] < 36,
            "storm never degraded: {:?}",
            report.adaptive_tier_admissions
        );
    }

    #[test]
    fn drained_stream_recovers_the_top_tier() {
        let report = run_drain_recovery(&storm(), Duration::from_millis(1200), 16);
        assert_eq!(report.storm.submitted, 36);
        assert!(report.degraded, "the storm phase must degrade at least one admission");
        assert!(
            report.recovered,
            "after the drain the ladder must climb back to sphere: {:?}",
            report.trickle_tiers
        );
        // The climb is monotone: tiers never degrade during the trickle.
        assert!(
            report.trickle_tiers.windows(2).all(|w| w[1] <= w[0]),
            "trickle tiers must only climb: {:?}",
            report.trickle_tiers
        );
    }
}

//! Campaign reproducibility: the same base seed must produce a
//! byte-identical `CAMPAIGN_*.json` report — including injected-fault
//! timing and miss counts — no matter how many runner threads execute
//! the scenarios. This is the property the CI campaign gate leans on:
//! a failing scenario's seed, re-run locally on any machine with any
//! parallelism, reproduces the exact report that failed.

use geosphere::sim::{run_scenario_by_index, CampaignConfig, CampaignReport};
use proptest::prelude::*;

/// A CI-sized campaign: small enough that proptest can afford several
/// full runs per case, large enough that the sampler exercises faulted
/// and fault-free scenarios (every 16th index is the storm preset, and
/// the fault axis fires on roughly half the rest).
fn tiny_campaign(base_seed: u64, scenarios: usize, threads: usize) -> CampaignReport {
    let config = CampaignConfig {
        base_seed,
        scenarios,
        frames_per_client: 4,
        runner_threads: threads,
        speedup: 1,
    };
    geosphere::sim::run_campaign(&config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Serial and 4-way-parallel runs of the same seeded campaign render
    /// byte-identical reports, and neither run violates an invariant.
    #[test]
    fn report_is_a_pure_function_of_the_seed(base_seed in 0u64..1_000_000) {
        let serial = tiny_campaign(base_seed, 17, 1);
        let parallel = tiny_campaign(base_seed, 17, 4);
        prop_assert_eq!(serial.total_violations(), 0,
            "serial run violated invariants: {:?}",
            serial.outcomes.iter().flat_map(|o| o.violations.clone()).collect::<Vec<_>>());
        prop_assert_eq!(parallel.total_violations(), 0,
            "parallel run violated invariants: {:?}",
            parallel.outcomes.iter().flat_map(|o| o.violations.clone()).collect::<Vec<_>>());
        prop_assert_eq!(serial.checksum(), parallel.checksum());
        prop_assert_eq!(serial.render_json(), parallel.render_json());
    }

    /// Any single scenario re-run by `(index, base_seed)` — the repro
    /// recipe the campaign gate prints on failure — reproduces its
    /// outcome from the full campaign exactly, fault firing included.
    #[test]
    fn scenario_repro_by_index_matches_the_campaign(
        base_seed in 0u64..1_000_000,
        index in 0usize..17,
    ) {
        let campaign = tiny_campaign(base_seed, 17, 4);
        let solo = run_scenario_by_index(index, base_seed, 4);
        let from_campaign = &campaign.outcomes[index];
        prop_assert_eq!(solo.seed, from_campaign.seed);
        prop_assert_eq!(&solo.descriptor, &from_campaign.descriptor);
        prop_assert_eq!(solo.delivered, from_campaign.delivered);
        prop_assert_eq!(solo.refused, from_campaign.refused);
        prop_assert_eq!(solo.misses, from_campaign.misses);
        prop_assert_eq!(solo.fault_fired, from_campaign.fault_fired);
        prop_assert_eq!(solo.checksum, from_campaign.checksum);
        prop_assert_eq!(&solo.violations, &from_campaign.violations);
    }
}

/// The seeded sampler must hit every fault family within a CI-sized
/// campaign, and lethal faults must always fire where they were armed —
/// the report records them as outcomes, never as aborts.
#[test]
fn faults_fire_and_are_recorded_as_outcomes() {
    let report = tiny_campaign(2014, 64, 0);
    assert_eq!(report.total_violations(), 0, "CI-shaped campaign must be violation-free");
    let lethal: Vec<_> =
        report.outcomes.iter().filter(|o| o.fault.starts_with("worker_panic")).collect();
    assert!(!lethal.is_empty(), "64 sampled scenarios must include lethal faults");
    for o in &lethal {
        assert!(o.fault_fired, "scenario {} armed {} but it never fired", o.index, o.fault);
        assert!(
            o.delivered < o.offered,
            "scenario {}: a lethal fault must cost at least the dying frame",
            o.index
        );
    }
}

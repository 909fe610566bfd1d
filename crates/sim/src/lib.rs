//! # gs-sim
//!
//! The multi-user uplink network simulator behind the Geosphere paper's
//! evaluation (§5): SNR-band user selection over the emulated office
//! testbed, oracle rate adaptation, and one runner per figure — throughput
//! comparisons (Figs. 11–13), complexity comparisons (Figs. 14–15), and the
//! channel-conditioning CDFs (Figs. 9–10). Beyond the paper, a
//! [`Scenario`] describes a multi-client workload for the `gs-runtime`
//! streaming engine, and [`drive`] is the one loop that feeds its plan
//! to a stream: the campaign ([`campaign`]), the deadline storm
//! ([`storm`]) and the examples all run through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod distributed;
pub mod experiments;
pub mod faults;
pub mod scenario;
pub mod selection;
pub mod storm;
pub mod traffic;

pub use campaign::{
    run_campaign, run_scenario, run_scenario_by_index, CampaignConfig, CampaignReport,
    ScenarioOutcome,
};
pub use distributed::{DistributedChannel, DistributedCluster};
pub use experiments::{
    complexity_at_target_fer, conditioning_cdfs, rayleigh_throughput, testbed_throughput,
    ComplexityPoint, DetectorKind, ExperimentParams, ThroughputPoint, PAPER_CONFIGS, PAPER_SNRS,
};
pub use faults::FaultSpec;
pub use scenario::{ChannelSpec, DeadlineSpec, PlannedFrame, Scenario, SnrSpec};
pub use selection::{select_groups, UserGroup};
pub use storm::{run_deadline_storm, run_drain_recovery, DrainRecoveryReport, StormComparison};
pub use traffic::{drive, DriveReport, FrameRecord, Pacing, TrafficMix, TrafficReport};

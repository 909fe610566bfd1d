//! The campaign runner: thousands of seeded scenarios, executed in
//! parallel, invariant-checked, and rendered into one deterministic
//! report.
//!
//! A campaign ([`run_campaign`]) expands a base seed into [`Scenario`]s
//! ([`Scenario::sampled`]), runs them across runner threads — each
//! thread reusing one serial-reference [`FrameWorkspace`], each scenario
//! building and dropping its own [`FrameStream`] — and checks
//! per-scenario invariants:
//!
//! * **bit-identity**: every delivered frame's detection outcome (CRC
//!   bits, detection count, PED work) equals the serial
//!   `decode_frame_batched_into` reference at the scenario's pinned tier;
//! * **in-order delivery**: per-client completion sequences are contiguous
//!   and monotone;
//! * **miss accounting**: frames in pre-expired deadline windows are all
//!   delivered and all recorded as misses, generous/deadline-free frames
//!   never are, and the stream's [`RuntimeStats`] counters (submitted,
//!   completed, deadline misses) agree exactly with the driver's counts;
//! * **fault containment**: a lethal fault fires where armed, kills
//!   exactly the frames after its position, and surfaces as typed
//!   `StreamDead` errors — never an abort or a hang; a
//!   slot-exhaustion burst is refused at exactly the pool capacity.
//!
//! Every scenario reaches its stream through [`drive`]: replayed at full
//! window for healthy and storm scenarios, in lockstep for lethal faults
//! (so the armed ordinal kills a known frame), and with the consumer
//! stalled for slot exhaustion; the invariants read its per-frame
//! records.
//!
//! Scenario outcomes carry an FNV-1a checksum over every delivered
//! frame's bits, and [`CampaignReport::render_json`] contains no
//! wall-clock fields, so a campaign report is **byte-identical** across
//! re-runs, runner thread counts, and machines — re-running one failing
//! seed locally reproduces CI's line exactly
//! (`tests/campaign_determinism.rs`).
//!
//! Fidelity scales with the `GS_SPEEDUP` knob
//! ([`CampaignConfig::from_env`]): speedup 1 is the full 1024-scenario
//! campaign, higher values shrink both the scenario count (÷ speedup)
//! and the per-client frame count (÷ √speedup). CI runs speedup 16
//! (64 scenarios); release qualification runs 1.
//!
//! [`RuntimeStats`]: gs_runtime::RuntimeStats

use crate::faults::FaultSpec;
use crate::scenario::{DeadlineKind, Scenario};
use crate::traffic::{drive, ok_mask, Pacing};
use gs_phy::{decode_frame_batched_into, FrameWorkspace};
use gs_runtime::{FrameStream, PinnedPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Campaign sizing. Build with [`CampaignConfig::full`] and scale with
/// [`CampaignConfig::at_speedup`] / [`CampaignConfig::from_env`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Seed the whole campaign derives from.
    pub base_seed: u64,
    /// Scenarios to run.
    pub scenarios: usize,
    /// Frames per client per scenario.
    pub frames_per_client: usize,
    /// Runner threads (`0` = available parallelism, capped at 8).
    pub runner_threads: usize,
    /// The fidelity divisor this config was scaled by (recorded in the
    /// report).
    pub speedup: u64,
}

/// Full-fidelity scenario count (speedup 1).
const FULL_SCENARIOS: usize = 1024;
/// Full-fidelity frames per client (speedup 1).
const FULL_FRAMES_PER_CLIENT: usize = 32;

impl CampaignConfig {
    /// The full-fidelity campaign: 1024 scenarios × 32 frames/client.
    pub fn full(base_seed: u64) -> Self {
        CampaignConfig {
            base_seed,
            scenarios: FULL_SCENARIOS,
            frames_per_client: FULL_FRAMES_PER_CLIENT,
            runner_threads: 0,
            speedup: 1,
        }
    }

    /// Scales fidelity down by `speedup`: scenario count ÷ speedup
    /// (floor 8), frames per client ÷ √speedup (floor 4). Speedup 16 is
    /// the CI shape: 64 scenarios × 8 frames/client.
    pub fn at_speedup(mut self, speedup: u64) -> Self {
        let s = speedup.max(1);
        self.speedup = s;
        self.scenarios = (FULL_SCENARIOS / s as usize).max(8);
        let sqrt = (s as f64).sqrt().round().max(1.0) as usize;
        self.frames_per_client = (FULL_FRAMES_PER_CLIENT / sqrt).max(4);
        self
    }

    /// The full campaign scaled by the `GS_SPEEDUP` environment knob
    /// (positive integer; unset = 1 = full fidelity; garbage warns and
    /// falls back to full fidelity per the workspace env policy).
    pub fn from_env(base_seed: u64) -> Self {
        let s = gs_linalg::env::env_knob(
            "GS_SPEEDUP",
            "a positive integer fidelity divisor",
            "running the campaign at full fidelity",
            1u64,
            1u64,
            |v| v.parse().ok().filter(|&x| x >= 1),
        );
        CampaignConfig::full(base_seed).at_speedup(s)
    }
}

/// One scenario's verdict, ready for the report.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Campaign index (report order).
    pub index: usize,
    /// The scenario's seed — re-run it with [`run_scenario_by_index`].
    pub seed: u64,
    /// Human descriptor of the sampled axes.
    pub descriptor: String,
    /// Channel family name.
    pub channel: &'static str,
    /// Traffic mix name.
    pub traffic: &'static str,
    /// Pinned tier name.
    pub tier: &'static str,
    /// Fault taxonomy name, `"none"` when the scenario is healthy.
    pub fault: String,
    /// Frames the scenario offered.
    pub offered: u64,
    /// Frames delivered with a completion.
    pub delivered: u64,
    /// Frames refused at ingress (slot exhaustion, post-death submits).
    pub refused: u64,
    /// Delivered frames with every client stream CRC-clean.
    pub all_ok: u64,
    /// Delivered frames accounted as deadline misses.
    pub misses: u64,
    /// Whether the armed fault actually fired.
    pub fault_fired: bool,
    /// FNV-1a checksum over every delivered frame's outcome bits, in
    /// global submission order.
    pub checksum: u64,
    /// Invariant violations (empty = scenario passed).
    pub violations: Vec<String>,
    /// Flight-recorder repro recipe, attached only when the scenario
    /// violated an invariant (so passing campaign artifacts stay
    /// byte-identical across runs). Mentions the retained trace dump when
    /// the workspace was built with `--features trace`.
    pub flight_record: Option<String>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Re-runs campaign scenario `index` of the campaign rooted at
/// `base_seed` — the local-reproduction entry: its rendered line is
/// byte-identical to the same scenario's line in the full campaign
/// report.
pub fn run_scenario_by_index(
    index: usize,
    base_seed: u64,
    frames_per_client: usize,
) -> ScenarioOutcome {
    let scenario = Scenario::sampled(index as u64, base_seed, frames_per_client);
    run_scenario(&scenario, index, &mut FrameWorkspace::new())
}

/// Runs one scenario end to end — drive, invariants, serial reference —
/// on a stream of its own, reusing the caller's serial-reference
/// workspace.
pub fn run_scenario(scenario: &Scenario, index: usize, ws: &mut FrameWorkspace) -> ScenarioOutcome {
    let plan = scenario.plan();
    let n = plan.len();
    let mut violations: Vec<String> = Vec::new();

    let stream = FrameStream::adaptive(
        scenario.phy,
        scenario.ladder(),
        PinnedPolicy(scenario.tier),
        scenario.stream_config(),
    );

    // The healthy / deadline-storm drive keeps the pipeline full: slots
    // recycle mid-scenario and every admitted frame is delivered.
    let full = Pacing::Replay { in_flight: usize::MAX };
    let mut fault_fired = false;
    let mut lethal = false;
    let report = match scenario.fault {
        Some(FaultSpec::WorkerPanic { after_frames } | FaultSpec::ShardLoss { after_frames }) => {
            // Lockstep: exactly one frame in flight, so every frame before
            // the armed one delivers and none after it is admitted.
            stream.inject_worker_panic_at(after_frames);
            lethal = true;
            let report = drive(&stream, &plan, Pacing::Replay { in_flight: 1 });
            let delivered = report.delivered();
            fault_fired = report.died > 0;
            if !fault_fired {
                violations
                    .push(format!("lethal fault armed after {after_frames} frames never fired"));
            } else if delivered != after_frames {
                violations.push(format!(
                    "lethal fault killed the wrong frame: {delivered} delivered, \
                     expected {after_frames}"
                ));
            }
            report
        }
        Some(FaultSpec::SlotExhaustion { burst }) => {
            // Stalled-consumer burst: admissions must cap at the slot
            // pool's capacity, the rest refused — bounded memory under
            // overload, no hangs, no loss of admitted frames.
            let burst_n = burst.min(n);
            let mut report = drive(&stream, &plan[..burst_n], Pacing::Stalled);
            let expect = burst_n.min(scenario.capacity) as u64;
            if report.admitted != expect {
                violations.push(format!(
                    "slot pool admitted {} of a {burst_n}-frame burst, expected {expect}",
                    report.admitted
                ));
            }
            fault_fired = report.refused > 0;
            // The tail (if the burst did not cover the plan) runs full.
            let tail = drive(&stream, &plan[burst_n..], full);
            report.records.extend(tail.records);
            report.admitted += tail.admitted;
            report.refused += tail.refused;
            report.died += tail.died;
            report
        }
        _ => drive(&stream, &plan, full),
    };
    let records = &report.records;
    if !lethal && (report.died > 0 || stream.is_dead()) {
        violations.push("stream died without a lethal fault".into());
    }

    // --- Post-drive invariants ---------------------------------------

    let traffic = report.traffic();
    let (delivered, all_ok, misses) =
        (report.delivered(), traffic.frames_all_ok, traffic.deadline_misses);

    // In-order delivery: each client's deliveries, in plan order, carry
    // the sequence numbers 0, 1, 2, … of the scenario's own stream.
    let mut next_seq: Vec<u64> = vec![0; scenario.clients];
    for (pf, rec) in plan.iter().zip(records).filter(|(_, r)| r.delivered) {
        let client = pf.client;
        if rec.seq != next_seq[client] {
            violations.push(format!(
                "out-of-order delivery for client {client}: seq {} where {} was due",
                rec.seq, next_seq[client]
            ));
        }
        next_seq[client] = rec.seq + 1;
        if rec.tier != scenario.tier {
            violations.push(format!(
                "a frame of client {client} decoded at {} instead of the pinned {}",
                rec.tier.name(),
                scenario.tier.name()
            ));
        }
    }

    // A deadline storm "fires" when its expired window actually lands
    // misses (the lethal and exhaustion drives set the flag themselves).
    if let Some(FaultSpec::DeadlineStorm { start, len }) = scenario.fault {
        fault_fired = records[start.min(records.len())..(start + len).min(records.len())]
            .iter()
            .any(|r| r.delivered && r.missed);
    }

    // Deadline regimes are wall-clock independent by construction:
    // pre-expired windows always miss, generous/free frames never do.
    for (idx, (pf, rec)) in plan.iter().zip(records).enumerate() {
        if !rec.delivered {
            continue;
        }
        match pf.deadline {
            DeadlineKind::Expired if !rec.missed => {
                violations.push(format!("frame {idx} had an expired deadline but was not a miss"))
            }
            DeadlineKind::Generous | DeadlineKind::Free if rec.missed => {
                violations.push(format!("frame {idx} missed an unmissable deadline"))
            }
            _ => {}
        }
    }

    // The stream's counters must agree exactly with the driver's own
    // accounting.
    let stats = stream.stats();
    if stats.submitted != report.admitted {
        violations.push(format!(
            "stats.submitted reads {} but the driver admitted {}",
            stats.submitted, report.admitted
        ));
    }
    if stats.completed != delivered {
        violations.push(format!(
            "stats.completed reads {} but the driver received {delivered}",
            stats.completed
        ));
    }
    if stats.deadline_misses != misses {
        violations.push(format!(
            "stats.deadline_misses reads {} but the driver counted {misses}",
            stats.deadline_misses
        ));
    }

    // Bit-identity: every delivered frame equals the serial reference
    // decode at the pinned tier, by the rung of the same default ladder
    // the stream was built with.
    let ladder = scenario.ladder();
    let reference = ladder.detector(scenario.tier);
    for (idx, (pf, rec)) in plan.iter().zip(records).enumerate() {
        if !rec.delivered {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(pf.seed);
        let serial = decode_frame_batched_into(
            &scenario.phy,
            &pf.channel,
            &**reference,
            pf.snr_db,
            &mut rng,
            1,
            ws,
        );
        let serial_mask = ok_mask(&serial.client_ok);
        if serial_mask != rec.ok_mask
            || serial.detections != rec.detections
            || serial.stats.ped_calcs != rec.ped_calcs
        {
            violations.push(format!(
                "frame {idx} diverges from the serial reference \
                 (ok {serial_mask:#x} vs {:#x}, detections {} vs {}, ped {} vs {})",
                rec.ok_mask,
                serial.detections,
                rec.detections,
                serial.stats.ped_calcs,
                rec.ped_calcs
            ));
        }
    }

    // Checksum over the plan in global submission order: the scenario's
    // byte-reproducibility boils down to this number plus the counters.
    let mut checksum = fnv_fold(FNV_OFFSET, scenario.seed);
    for rec in records {
        checksum = fnv_fold(checksum, rec.delivered as u64);
        if rec.delivered {
            checksum = fnv_fold(checksum, rec.ok_mask);
            checksum = fnv_fold(checksum, rec.detections);
            checksum = fnv_fold(checksum, rec.ped_calcs);
            checksum = fnv_fold(checksum, rec.missed as u64);
        }
    }

    // An invariant violation is a flight-recorder anomaly: fire the
    // trigger (always counted; captures a ring dump when the workspace is
    // built with `--features trace` and the recorder is armed) and attach
    // a repro recipe to the failing outcome. Green scenarios attach
    // nothing, so the passing campaign artifact stays byte-identical.
    let flight_record = if violations.is_empty() {
        None
    } else {
        use gs_prof::trace as gtrace;
        let captured = gtrace::trigger(gtrace::Trigger::Violation, gtrace::NO_FRAME);
        let mut recipe = format!(
            "repro: run_scenario_by_index(index {index}, seed {}) [{}]",
            scenario.seed,
            scenario.descriptor()
        );
        if captured {
            if let Some(dump) = gtrace::recent_dumps().last() {
                let _ = write!(
                    recipe,
                    "; trace dump seq {} retained ({} events, {} frame timelines) — \
                     serve /trace or /trace/latest to inspect",
                    dump.seq,
                    dump.events.len(),
                    dump.timelines.len()
                );
            }
        }
        Some(recipe)
    };

    ScenarioOutcome {
        index,
        seed: scenario.seed,
        descriptor: scenario.descriptor(),
        channel: scenario.channel.name(),
        traffic: scenario.traffic.name(),
        tier: scenario.tier.name(),
        fault: scenario.fault.map_or_else(|| "none".into(), |f| f.name().to_string()),
        offered: n as u64,
        delivered,
        refused: report.refused,
        all_ok,
        misses,
        fault_fired,
        checksum,
        violations,
        flight_record,
    }
}

/// The campaign verdict: every scenario outcome (index order) plus the
/// config that produced them.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The sizing the campaign ran at.
    pub config: CampaignConfig,
    /// Per-scenario outcomes, sorted by campaign index.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    /// Total invariant violations across all scenarios.
    pub fn total_violations(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Campaign-wide checksum: FNV-1a over the per-scenario checksums in
    /// index order.
    pub fn checksum(&self) -> u64 {
        self.outcomes
            .iter()
            .fold(fnv_fold(FNV_OFFSET, self.config.base_seed), |h, o| fnv_fold(h, o.checksum))
    }

    /// Counts outcomes per value of `key` (used for the aggregate
    /// distributions in the JSON).
    fn distribution(&self, key: impl Fn(&ScenarioOutcome) -> &str) -> Vec<(String, usize)> {
        let mut map = std::collections::BTreeMap::new();
        for o in &self.outcomes {
            *map.entry(key(o).to_string()).or_insert(0usize) += 1;
        }
        map.into_iter().collect()
    }

    /// Renders the deterministic campaign artifact: integers, names, and
    /// checksums only — **no wall-clock fields** — scenario entries in
    /// index order. Byte-identical across re-runs, thread counts, and
    /// machines for the same `(base_seed, speedup)`.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let agg = |f: fn(&ScenarioOutcome) -> u64| -> u64 { self.outcomes.iter().map(f).sum() };
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"campaign\": \"geosphere_scenario_campaign\",");
        let _ = writeln!(s, "  \"schema\": 1,");
        let _ = writeln!(s, "  \"base_seed\": {},", self.config.base_seed);
        let _ = writeln!(s, "  \"speedup\": {},", self.config.speedup);
        let _ = writeln!(s, "  \"scenario_count\": {},", self.outcomes.len());
        let _ = writeln!(s, "  \"frames_per_client\": {},", self.config.frames_per_client);
        let _ = writeln!(s, "  \"checksum\": \"{:#018x}\",", self.checksum());
        let _ = writeln!(s, "  \"aggregate\": {{");
        let _ = writeln!(s, "    \"frames_offered\": {},", agg(|o| o.offered));
        let _ = writeln!(s, "    \"frames_delivered\": {},", agg(|o| o.delivered));
        let _ = writeln!(s, "    \"frames_refused\": {},", agg(|o| o.refused));
        let _ = writeln!(s, "    \"frames_all_ok\": {},", agg(|o| o.all_ok));
        let _ = writeln!(s, "    \"deadline_misses\": {},", agg(|o| o.misses));
        let _ = writeln!(
            s,
            "    \"faults_injected\": {},",
            self.outcomes.iter().filter(|o| o.fault != "none").count()
        );
        let _ = writeln!(
            s,
            "    \"faults_fired\": {},",
            self.outcomes.iter().filter(|o| o.fault_fired).count()
        );
        let _ = writeln!(s, "    \"violations\": {},", self.total_violations());
        let mut dist = |name: &str, entries: Vec<(String, usize)>, comma: &str| {
            let _ = write!(s, "    \"{name}\": {{");
            let mut first = true;
            for (k, v) in entries {
                let _ = write!(s, "{}\"{k}\": {v}", if first { "" } else { ", " });
                first = false;
            }
            let _ = writeln!(s, "}}{comma}");
        };
        dist("by_channel", self.distribution(|o| o.channel), ",");
        dist("by_traffic", self.distribution(|o| o.traffic), ",");
        dist("by_tier", self.distribution(|o| o.tier), ",");
        dist("by_fault", self.distribution(|o| &o.fault), "");
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"scenarios\": [");
        for (i, o) in self.outcomes.iter().enumerate() {
            let comma = if i + 1 == self.outcomes.len() { "" } else { "," };
            let _ = write!(
                s,
                "    {{\"index\": {}, \"seed\": {}, \"descriptor\": \"{}\", \
                 \"offered\": {}, \"delivered\": {}, \"refused\": {}, \"all_ok\": {}, \
                 \"misses\": {}, \"fault_fired\": {}, \"checksum\": \"{:#018x}\", \
                 \"violations\": [",
                o.index,
                o.seed,
                o.descriptor,
                o.offered,
                o.delivered,
                o.refused,
                o.all_ok,
                o.misses,
                o.fault_fired,
                o.checksum,
            );
            for (j, v) in o.violations.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
            }
            let _ = write!(s, "]");
            // Only failing scenarios carry a flight record — the field is
            // absent (not null) on the deterministic passing path.
            if let Some(fr) = &o.flight_record {
                let _ = write!(
                    s,
                    ", \"flight_record\": \"{}\"",
                    fr.replace('\\', "\\\\").replace('"', "\\\"")
                );
            }
            let _ = writeln!(s, "}}{comma}");
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }
}

/// Runs the campaign: expands `config.scenarios` seeded scenarios and
/// executes them across runner threads. Each thread reuses one
/// serial-reference [`FrameWorkspace`] across its scenarios, and each
/// scenario runs on a [`FrameStream`] of its own; outcomes land in index
/// order regardless of scheduling, so the report is thread-count
/// independent.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let threads = if config.runner_threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
    } else {
        config.runner_threads
    };
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<ScenarioOutcome>>> =
        (0..config.scenarios).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut ws = FrameWorkspace::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= config.scenarios {
                        break;
                    }
                    let scenario =
                        Scenario::sampled(i as u64, config.base_seed, config.frames_per_client);
                    let outcome = run_scenario(&scenario, i, &mut ws);
                    *results[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(outcome);
                }
            });
        }
    });

    let outcomes = results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every scenario index was claimed and completed")
        })
        .collect();
    CampaignReport { config: config.clone(), outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ChannelSpec, DeadlineSpec, SnrSpec};
    use crate::traffic::TrafficMix;
    use gs_runtime::DetectorTier;

    fn small(seed: u64) -> Scenario {
        Scenario::new(seed).clients(2).frames_per_client(4).topology(2, 1, 3)
    }

    #[test]
    fn healthy_scenario_passes_all_invariants() {
        let s = small(11)
            .channel(ChannelSpec::IidRayleigh)
            .snr(SnrSpec::Fixed(24.0))
            .deadlines(DeadlineSpec::Generous)
            .tier(DetectorTier::Sphere);
        let out = run_scenario(&s, 0, &mut FrameWorkspace::new());
        assert_eq!(out.violations, Vec::<String>::new());
        assert_eq!(out.offered, 8);
        assert_eq!(out.delivered, 8);
        assert_eq!(out.refused, 0);
        assert_eq!(out.misses, 0);
        assert!(!out.fault_fired);
    }

    #[test]
    fn expired_window_misses_are_exact() {
        let s = small(12).deadlines(DeadlineSpec::ExpiredWindow { start: 2, len: 3 });
        let out = run_scenario(&s, 0, &mut FrameWorkspace::new());
        assert_eq!(out.violations, Vec::<String>::new());
        assert_eq!(out.delivered, 8, "expired deadlines never drop frames");
        assert_eq!(out.misses, 3, "exactly the window misses");
    }

    #[test]
    fn worker_panic_is_a_recorded_outcome_not_an_abort() {
        let s = small(13).fault(FaultSpec::WorkerPanic { after_frames: 3 });
        let out = run_scenario(&s, 0, &mut FrameWorkspace::new());
        assert_eq!(out.violations, Vec::<String>::new());
        assert!(out.fault_fired);
        assert_eq!(out.delivered, 3);
        assert!(out.refused >= 1, "post-death submissions are refused, not lost");
    }

    #[test]
    fn shard_loss_kills_the_armed_shard() {
        let s = small(14).topology(2, 2, 3).fault(FaultSpec::ShardLoss { after_frames: 2 });
        let out = run_scenario(&s, 0, &mut FrameWorkspace::new());
        assert_eq!(out.violations, Vec::<String>::new());
        assert!(out.fault_fired);
        assert_eq!(out.delivered, 2);
    }

    #[test]
    fn slot_exhaustion_caps_at_capacity() {
        let s = small(15).fault(FaultSpec::SlotExhaustion { burst: 8 });
        let out = run_scenario(&s, 0, &mut FrameWorkspace::new());
        assert_eq!(out.violations, Vec::<String>::new());
        assert!(out.fault_fired);
        assert_eq!(out.delivered, 3, "capacity-many frames survive the burst");
        assert_eq!(out.refused, 5, "the rest are refused, not lost");
    }

    #[test]
    fn scenario_outcomes_are_reproducible() {
        let s = small(16)
            .channel(ChannelSpec::BlockFading {
                trajectory: gs_channel::DopplerTrajectory::Constant(0.05),
            })
            .traffic(TrafficMix::Pareto { rate_hz: 900.0, alpha: 1.9 })
            .fault(FaultSpec::WorkerPanic { after_frames: 5 });
        let a = run_scenario(&s, 0, &mut FrameWorkspace::new());
        let b = run_scenario(&s, 0, &mut FrameWorkspace::new());
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.misses, b.misses);
        assert_eq!(a.violations, b.violations);
    }

    #[test]
    fn campaign_report_is_thread_count_invariant() {
        let mut cfg = CampaignConfig::full(2014).at_speedup(64);
        cfg.scenarios = 12; // keep the unit test fast; the integration
                            // suite runs the full CI shape
        cfg.frames_per_client = 4;
        let mut one = cfg.clone();
        one.runner_threads = 1;
        let mut four = cfg.clone();
        four.runner_threads = 4;
        let a = run_campaign(&one);
        let b = run_campaign(&four);
        assert_eq!(a.total_violations(), 0, "{:?}", collect_violations(&a));
        assert_eq!(a.render_json(), b.render_json(), "report must not depend on thread count");
    }

    fn collect_violations(r: &CampaignReport) -> Vec<&String> {
        r.outcomes.iter().flat_map(|o| o.violations.iter()).collect()
    }

    #[test]
    fn speedup_scales_both_axes() {
        let full = CampaignConfig::full(1);
        assert_eq!((full.scenarios, full.frames_per_client), (1024, 32));
        let ci = CampaignConfig::full(1).at_speedup(16);
        assert_eq!((ci.scenarios, ci.frames_per_client), (64, 8));
        let floor = CampaignConfig::full(1).at_speedup(100_000);
        assert!(floor.scenarios >= 8 && floor.frames_per_client >= 4);
    }
}

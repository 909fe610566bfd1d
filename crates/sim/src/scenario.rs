//! The scenario DSL for seeded campaigns.
//!
//! A [`Scenario`] is one fully-specified stress test of the streaming
//! runtime, composed from orthogonal axes:
//!
//! * **channel** ([`ChannelSpec`]) — per-frame i.i.d. Rayleigh (the
//!   paper's simulation model), AR(1) correlated block fading under a
//!   mobility/Doppler trajectory, block fading with bursty co-channel
//!   interference, or the frequency-selective indoor testbed emulation;
//! * **traffic** ([`TrafficMix`]) — which arrival process orders the
//!   clients' frames (the campaign replays the *order*, not the
//!   wall-clock pacing, so outcomes stay time-independent);
//! * **SNR** ([`SnrSpec`]) — fixed operating point or a bounded
//!   per-client random walk;
//! * **deadlines** ([`DeadlineSpec`]) — deadline-free, uniformly
//!   generous (never missable), a window of pre-expired deadlines
//!   (always missed, by construction — wall-clock independent either
//!   way), or a relative deadline stamped when the frame is offered
//!   (wall-clock dependent, for the deadline storm);
//! * **topology** — clients, detection workers, slot-pool capacity;
//! * **frame shape** — the [`PhyConfig`] every frame decodes with and
//!   the antenna counts of its channels;
//! * **detector** — a pinned [`DetectorTier`], so every frame's outcome
//!   is bit-comparable against the serial reference decode;
//! * **fault** ([`FaultSpec`]) — at most one injected failure.
//!
//! Everything — channel draws, arrival order, frame payloads, fault
//! position — derives from the scenario's one `u64` seed, so a scenario
//! is its seed: re-running it reproduces the identical report, and a
//! campaign of thousands is just a seed range.
//!
//! [`Scenario::sampled`] is the campaign's generator: it spreads
//! scenarios across the full cross product of the axes above.
//! [`presets`] holds the named scenarios shared with the bench gate: the
//! wall-clock storm of `bench_gate --mode deadline_storm` and the
//! campaign's exact storm are one definition. A scenario's
//! [`plan`](Scenario::plan) is what [`drive`](crate::traffic::drive)
//! feeds to a stream.

use crate::faults::FaultSpec;
use crate::traffic::TrafficMix;
use gs_channel::{
    noise_variance_for_snr_db, ChannelModel, DopplerTrajectory, FadingProcess, InterferenceBurst,
    MimoChannel, RayleighChannel, SelectiveRayleighChannel, SnrWalk,
};
use gs_modulation::Constellation;
use gs_phy::PhyConfig;
use gs_runtime::{DetectorLadder, DetectorTier, StreamConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// SplitMix64 — the seed-spreading hash used to derive independent
/// sub-seeds (per client, per frame, per axis) from one scenario seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The channel family a scenario draws its per-frame channels from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChannelSpec {
    /// Per-frame i.i.d. Rayleigh — the paper's §5.2 simulation model.
    IidRayleigh,
    /// AR(1) Gauss–Markov correlated block fading whose coherence follows
    /// a mobility trajectory (see [`FadingProcess`]).
    BlockFading {
        /// Normalized-Doppler trajectory across the scenario.
        trajectory: DopplerTrajectory,
    },
    /// Correlated block fading plus a Markov-modulated co-channel
    /// interferer that knocks `penalty_db` off the operating SNR while a
    /// burst is on.
    BurstyInterference {
        /// Normalized-Doppler trajectory across the scenario.
        trajectory: DopplerTrajectory,
        /// Per-frame probability a burst starts.
        p_on: f64,
        /// Per-frame probability an ongoing burst ends.
        p_off: f64,
        /// SNR penalty while the interferer is on, in dB.
        penalty_db: f64,
    },
    /// The frequency-selective emulated indoor office testbed.
    SelectiveIndoor,
}

impl ChannelSpec {
    /// Stable name for reports and descriptors.
    pub fn name(&self) -> &'static str {
        match self {
            ChannelSpec::IidRayleigh => "iid_rayleigh",
            ChannelSpec::BlockFading { .. } => "block_fading",
            ChannelSpec::BurstyInterference { .. } => "bursty_interference",
            ChannelSpec::SelectiveIndoor => "selective_indoor",
        }
    }
}

/// How a scenario's operating SNR evolves per client.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SnrSpec {
    /// One fixed operating point for every frame.
    Fixed(f64),
    /// A bounded per-client random walk (see [`SnrWalk`]).
    Walk {
        /// Starting SNR in dB.
        start_db: f64,
        /// Maximum per-frame step in dB.
        step_db: f64,
        /// Lower reflection bound in dB.
        min_db: f64,
        /// Upper reflection bound in dB.
        max_db: f64,
    },
}

impl SnrSpec {
    /// The SNR the scenario's detector ladder is parameterized at.
    pub fn base_db(&self) -> f64 {
        match *self {
            SnrSpec::Fixed(db) => db,
            SnrSpec::Walk { start_db, .. } => start_db,
        }
    }

    /// Stable name for reports and descriptors.
    pub fn name(&self) -> &'static str {
        match self {
            SnrSpec::Fixed(_) => "fixed",
            SnrSpec::Walk { .. } => "walk",
        }
    }
}

/// The frame shape every campaign scenario decodes: the paper's 48-
/// subcarrier rate-1/2 16-QAM configuration with a small payload, so one
/// scenario costs milliseconds and a campaign of thousands stays CI-sized.
pub fn campaign_phy_config() -> PhyConfig {
    PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) }
}

/// The deadline regime frames are submitted under. Campaign scenarios
/// only use regimes whose miss/hit outcome is wall-clock independent:
/// `Generous` deadlines are never missable, `ExpiredWindow` deadlines are
/// always missed. `Within` is the wall-clock regime of the deadline
/// storm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineSpec {
    /// Deadline-free submission.
    None,
    /// Every frame carries a far-future deadline (exercises the EDF path
    /// without ever missing).
    Generous,
    /// Frames `start .. start + len` (global submission order) carry
    /// already-expired deadlines; the rest are generous.
    ExpiredWindow {
        /// First frame of the expired window.
        start: usize,
        /// Window length in frames.
        len: usize,
    },
    /// Every frame must complete within this long of being offered for
    /// submission (waiting for a free slot counts against it).
    Within(Duration),
}

impl DeadlineSpec {
    /// Stable name for reports and descriptors.
    pub fn name(&self) -> &'static str {
        match self {
            DeadlineSpec::None => "none",
            DeadlineSpec::Generous => "generous",
            DeadlineSpec::ExpiredWindow { .. } => "expired_window",
            DeadlineSpec::Within(_) => "within",
        }
    }
}

/// The deadline a planned frame is stamped with at submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineKind {
    /// No deadline.
    Free,
    /// Far in the future — delivered frames can never miss it.
    Generous,
    /// Already expired at submission — delivered frames always miss it.
    Expired,
    /// This long after the frame is offered for submission.
    Within(Duration),
}

/// One frame of a planned scenario, in global submission order.
#[derive(Clone, Debug)]
pub struct PlannedFrame {
    /// Submitting client lane.
    pub client: usize,
    /// The frame's payload/noise seed.
    pub seed: u64,
    /// Operating SNR for this frame (after walks and interference).
    pub snr_db: f64,
    /// The realized channel.
    pub channel: Arc<MimoChannel>,
    /// The deadline regime this frame is stamped with.
    pub deadline: DeadlineKind,
    /// Arrival offset from the start of the run, drawn by the scenario's
    /// traffic mix (zero for every frame under saturation).
    pub at: Duration,
}

/// One fully-specified campaign scenario. Construct with
/// [`Scenario::new`] and the builder methods, or sample the cross
/// product with [`Scenario::sampled`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The scenario's identity: every random draw derives from this.
    pub seed: u64,
    /// Concurrent client lanes.
    pub clients: usize,
    /// Frames each client offers.
    pub frames_per_client: usize,
    /// Detection workers.
    pub workers: usize,
    /// Slot-pool capacity.
    pub capacity: usize,
    /// The frame shape every frame decodes with.
    pub phy: PhyConfig,
    /// Receive antennas per frame.
    pub num_rx: usize,
    /// Spatial streams per frame.
    pub num_streams: usize,
    /// Channel family.
    pub channel: ChannelSpec,
    /// Arrival process ordering the clients' frames.
    pub traffic: TrafficMix,
    /// SNR evolution.
    pub snr: SnrSpec,
    /// Deadline regime.
    pub deadlines: DeadlineSpec,
    /// Pinned detector tier.
    pub tier: DetectorTier,
    /// At most one injected fault.
    pub fault: Option<FaultSpec>,
}

impl Scenario {
    /// A minimal healthy scenario: 2 clients × 8 frames of
    /// [`campaign_phy_config`], 4×2 i.i.d. Rayleigh at 24 dB, Poisson
    /// order, deadline-free, sphere tier, no fault.
    pub fn new(seed: u64) -> Self {
        Scenario {
            seed,
            clients: 2,
            frames_per_client: 8,
            workers: 2,
            capacity: 4,
            phy: campaign_phy_config(),
            num_rx: 4,
            num_streams: 2,
            channel: ChannelSpec::IidRayleigh,
            traffic: TrafficMix::Poisson { rate_hz: 1000.0 },
            snr: SnrSpec::Fixed(24.0),
            deadlines: DeadlineSpec::None,
            tier: DetectorTier::Sphere,
            fault: None,
        }
    }

    /// Sets the client count.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n.max(1);
        self
    }

    /// Sets frames per client.
    pub fn frames_per_client(mut self, n: usize) -> Self {
        self.frames_per_client = n.max(1);
        self
    }

    /// Sets workers and slot-pool capacity.
    pub fn topology(mut self, workers: usize, capacity: usize) -> Self {
        self.workers = workers.max(1);
        self.capacity = capacity.max(1);
        self
    }

    /// Sets the frame shape.
    pub fn phy(mut self, phy: PhyConfig) -> Self {
        self.phy = phy;
        self
    }

    /// Sets the receive antenna and spatial stream counts.
    pub fn antennas(mut self, num_rx: usize, num_streams: usize) -> Self {
        self.num_rx = num_rx.max(1);
        self.num_streams = num_streams.max(1);
        self
    }

    /// Sets the channel family.
    pub fn channel(mut self, spec: ChannelSpec) -> Self {
        self.channel = spec;
        self
    }

    /// Sets the arrival process.
    pub fn traffic(mut self, mix: TrafficMix) -> Self {
        self.traffic = mix;
        self
    }

    /// Sets the SNR evolution.
    pub fn snr(mut self, spec: SnrSpec) -> Self {
        self.snr = spec;
        self
    }

    /// Sets the deadline regime.
    pub fn deadlines(mut self, spec: DeadlineSpec) -> Self {
        self.deadlines = spec;
        self
    }

    /// Pins the detector tier.
    pub fn tier(mut self, tier: DetectorTier) -> Self {
        self.tier = tier;
        self
    }

    /// Injects a fault.
    pub fn fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Total frames the scenario offers.
    pub fn total_frames(&self) -> usize {
        self.clients * self.frames_per_client
    }

    /// The stream shape: one lane per client, the scenario's workers and
    /// slot-pool capacity.
    pub fn stream_config(&self) -> StreamConfig {
        let mut sc = StreamConfig::new(self.clients);
        sc.workers = self.workers;
        sc.capacity = self.capacity;
        sc
    }

    /// The default detector ladder at the scenario's base SNR.
    pub fn ladder(&self) -> DetectorLadder {
        DetectorLadder::geosphere_default(noise_variance_for_snr_db(self.snr.base_db()))
    }

    /// Compact human descriptor, e.g.
    /// `ch=block_fading tr=bursty snr=fixed dl=generous tier=fsd fault=worker_panic@3`.
    pub fn descriptor(&self) -> String {
        format!(
            "ch={} tr={} snr={} dl={} tier={} fault={}",
            self.channel.name(),
            self.traffic.name(),
            self.snr.name(),
            self.deadlines.name(),
            self.tier.name(),
            self.fault.map_or_else(|| "none".into(), |f| f.describe()),
        )
    }

    /// The effective deadline regime of global frame `idx`, after folding
    /// a [`FaultSpec::DeadlineStorm`] window over the base spec.
    fn deadline_kind(&self, idx: usize) -> DeadlineKind {
        if let Some(FaultSpec::DeadlineStorm { start, len }) = self.fault {
            if idx >= start && idx < start + len {
                return DeadlineKind::Expired;
            }
        }
        match self.deadlines {
            DeadlineSpec::None => DeadlineKind::Free,
            DeadlineSpec::Generous => DeadlineKind::Generous,
            DeadlineSpec::ExpiredWindow { start, len } => {
                if idx >= start && idx < start + len {
                    DeadlineKind::Expired
                } else {
                    DeadlineKind::Generous
                }
            }
            DeadlineSpec::Within(d) => DeadlineKind::Within(d),
        }
    }

    /// Expands the scenario into its frame plan: channels realized,
    /// per-frame SNRs walked, arrival order merged, deadline kinds
    /// stamped — a pure function of the scenario (and therefore of its
    /// seed).
    pub fn plan(&self) -> Vec<PlannedFrame> {
        let (na, nc) = (self.num_rx, self.num_streams);
        let mut per_client: Vec<Vec<PlannedFrame>> = Vec::with_capacity(self.clients);
        for client in 0..self.clients {
            // Independent streams per client and per concern, so the
            // channel draws are invariant to traffic order and clients
            // are invariant to each other.
            let mut ch_rng =
                StdRng::seed_from_u64(splitmix64(self.seed ^ 0xC4A2 ^ (client as u64) << 8));
            let mut snr_rng =
                StdRng::seed_from_u64(splitmix64(self.seed ^ 0x54A1 ^ (client as u64) << 8));
            let mut fading = match self.channel {
                ChannelSpec::BlockFading { trajectory }
                | ChannelSpec::BurstyInterference { trajectory, .. } => {
                    Some(FadingProcess::new(na, nc, trajectory))
                }
                _ => None,
            };
            let mut burst = match self.channel {
                ChannelSpec::BurstyInterference { p_on, p_off, penalty_db, .. } => {
                    Some(InterferenceBurst::new(p_on, p_off, penalty_db))
                }
                _ => None,
            };
            let mut walk = match self.snr {
                SnrSpec::Fixed(_) => None,
                SnrSpec::Walk { start_db, step_db, min_db, max_db } => {
                    Some(SnrWalk::new(start_db, step_db, min_db, max_db))
                }
            };
            let frames = (0..self.frames_per_client)
                .map(|k| {
                    let channel = match self.channel {
                        ChannelSpec::IidRayleigh => {
                            RayleighChannel::new(na, nc).realize(&mut ch_rng)
                        }
                        ChannelSpec::SelectiveIndoor => SelectiveRayleighChannel {
                            n_subcarriers: self.phy.n_subcarriers,
                            ..SelectiveRayleighChannel::indoor(na, nc)
                        }
                        .realize(&mut ch_rng),
                        ChannelSpec::BlockFading { .. }
                        | ChannelSpec::BurstyInterference { .. } => fading
                            .as_mut()
                            .expect("fading process present")
                            .advance(self.frames_per_client, &mut ch_rng),
                    };
                    let mut snr_db = match (&mut walk, self.snr) {
                        (Some(w), _) => w.advance(&mut snr_rng),
                        (None, SnrSpec::Fixed(db)) => db,
                        (None, SnrSpec::Walk { start_db, .. }) => start_db,
                    };
                    if let Some(b) = burst.as_mut() {
                        snr_db -= b.advance(&mut snr_rng);
                    }
                    PlannedFrame {
                        client,
                        seed: splitmix64(
                            self.seed ^ ((client as u64) << 32) ^ (k as u64).wrapping_add(1),
                        ),
                        snr_db,
                        channel: Arc::new(channel),
                        deadline: DeadlineKind::Free, // stamped after the merge
                        at: Duration::ZERO,
                    }
                })
                .collect();
            per_client.push(frames);
        }

        // Merge into global submission order by the traffic mix's virtual
        // arrival times (stable: ties keep client order, per-client
        // sequence preserved).
        let mut tr_rng = StdRng::seed_from_u64(splitmix64(self.seed ^ 0x007A_FF1C));
        let mut merged: Vec<(Duration, usize, PlannedFrame)> =
            Vec::with_capacity(self.total_frames());
        for (client, frames) in per_client.into_iter().enumerate() {
            let at = self.traffic.schedule(self.frames_per_client, &mut tr_rng);
            for (t, f) in at.into_iter().zip(frames) {
                merged.push((t, client, f));
            }
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

        merged
            .into_iter()
            .enumerate()
            .map(|(idx, (at, _, mut f))| {
                f.deadline = self.deadline_kind(idx);
                f.at = at;
                f
            })
            .collect()
    }

    /// Samples scenario `index` of a campaign rooted at `base_seed`,
    /// spreading indices across the cross product of channel families ×
    /// traffic mixes × SNR specs × deadline regimes × detector tiers ×
    /// fault/no-fault. `frames_per_client` is the campaign's fidelity
    /// knob. Every 16th scenario is the shared deadline-storm preset
    /// ([`presets::campaign_storm`]).
    pub fn sampled(index: u64, base_seed: u64, frames_per_client: usize) -> Self {
        let seed = splitmix64(base_seed ^ splitmix64(index.wrapping_add(1)));
        if index % 16 == 15 {
            return presets::campaign_storm(seed, frames_per_client);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        fn pick(rng: &mut StdRng, n: usize) -> usize {
            ((rng.gen::<f64>() * n as f64) as usize).min(n - 1)
        }

        let clients = 1 + pick(&mut rng, 3);
        let workers = 1 + pick(&mut rng, 3);
        // A retired shard-count draw, kept so every later draw stays put.
        let _ = pick(&mut rng, 2.min(workers));
        let capacity = 2 + pick(&mut rng, 5);
        let frames_per_client = frames_per_client.max(2);
        let total = clients * frames_per_client;

        let channel = match pick(&mut rng, 4) {
            0 => ChannelSpec::IidRayleigh,
            1 => ChannelSpec::BlockFading {
                trajectory: match pick(&mut rng, 3) {
                    0 => DopplerTrajectory::Constant(0.01 + 0.2 * rng.gen::<f64>()),
                    1 => DopplerTrajectory::Ramp { from: 0.005, to: 0.3 },
                    _ => DopplerTrajectory::Orbit { center: 0.1, swing: 0.08, period: 16 },
                },
            },
            2 => ChannelSpec::BurstyInterference {
                trajectory: DopplerTrajectory::Constant(0.02 + 0.1 * rng.gen::<f64>()),
                p_on: 0.15,
                p_off: 0.35,
                penalty_db: 4.0 + 6.0 * rng.gen::<f64>(),
            },
            _ => ChannelSpec::SelectiveIndoor,
        };
        let traffic = match pick(&mut rng, 4) {
            0 => TrafficMix::Poisson { rate_hz: 1000.0 },
            1 => {
                TrafficMix::Bursty { calm_hz: 200.0, burst_hz: 5000.0, p_enter: 0.15, p_exit: 0.3 }
            }
            2 => TrafficMix::Pareto { rate_hz: 1000.0, alpha: 1.6 + rng.gen::<f64>() },
            _ => TrafficMix::Diurnal {
                rate_hz: 1000.0,
                swing: 0.7,
                period: Duration::from_millis(20),
            },
        };
        let snr = match pick(&mut rng, 2) {
            0 => SnrSpec::Fixed(18.0 + 10.0 * rng.gen::<f64>()),
            _ => SnrSpec::Walk {
                start_db: 22.0,
                step_db: 1.0 + 2.0 * rng.gen::<f64>(),
                min_db: 14.0,
                max_db: 30.0,
            },
        };
        let deadlines = match pick(&mut rng, 3) {
            0 => DeadlineSpec::None,
            1 => DeadlineSpec::Generous,
            _ => {
                let len = 1 + pick(&mut rng, total.max(2) - 1);
                DeadlineSpec::ExpiredWindow { start: pick(&mut rng, total - len + 1), len }
            }
        };
        let tier =
            DetectorTier::from_index(pick(&mut rng, DetectorTier::COUNT)).expect("tier index");
        // Roughly half the scenarios carry a fault, spread over the
        // taxonomy; lethal faults need at least one survivable frame.
        let fault = match pick(&mut rng, 8) {
            0 | 1 => {
                Some(FaultSpec::WorkerPanic { after_frames: 1 + pick(&mut rng, total - 1) as u64 })
            }
            2 | 3 => {
                let len = 1 + pick(&mut rng, total.max(2) - 1);
                Some(FaultSpec::DeadlineStorm { start: pick(&mut rng, total - len + 1), len })
            }
            4 => Some(FaultSpec::SlotExhaustion { burst: total }),
            _ => None,
        };
        Scenario {
            seed,
            clients,
            frames_per_client,
            workers,
            capacity,
            phy: campaign_phy_config(),
            num_rx: 4,
            num_streams: 2,
            channel,
            traffic,
            snr,
            deadlines,
            tier,
            fault,
        }
    }
}

/// Named scenarios shared between the campaign and the bench gate, so a
/// stress shape is defined once. `bench_gate --mode deadline_storm`
/// drives [`presets::deadline_storm`] (at its own frame shape); the
/// campaign's periodic storm scenarios are [`presets::campaign_storm`],
/// the same scenario with its wall-clock deadline swapped for an exact
/// pre-expired window.
pub mod presets {
    use super::*;

    /// Concurrent sources in the canonical deadline storm.
    pub const STORM_CLIENTS: usize = 3;
    /// Frames per source in the canonical (bench-gate) storm.
    pub const STORM_FRAMES_PER_CLIENT: usize = 16;
    /// Operating SNR of the storm: low enough that the sphere search
    /// deepens sharply while the MMSE floor stays cheap, keeping the
    /// deadline corridor between the tiers wide.
    pub const STORM_SNR_DB: f64 = 18.0;
    /// Detection workers in the storm pipelines.
    pub const STORM_WORKERS: usize = 2;
    /// Slot-pool bound in the storm pipelines — also the queue depth the
    /// bench gate multiplies its calibrated per-frame time by.
    pub const STORM_CAPACITY: usize = 6;

    /// The canonical deadline storm: a saturating multi-client load over
    /// the indoor testbed channel where every frame must complete within
    /// `deadline` of being offered — the wall-clock adaptive-vs-static
    /// comparison run by `bench_gate --mode deadline_storm` and
    /// [`crate::run_deadline_storm`]. The deadline is the caller's (the
    /// bench calibrates a machine-relative one).
    pub fn deadline_storm(deadline: Duration, seed: u64) -> Scenario {
        Scenario::new(seed)
            .clients(STORM_CLIENTS)
            .frames_per_client(STORM_FRAMES_PER_CLIENT)
            .topology(STORM_WORKERS, STORM_CAPACITY)
            .channel(ChannelSpec::SelectiveIndoor)
            .traffic(TrafficMix::Saturation)
            .snr(SnrSpec::Fixed(STORM_SNR_DB))
            .deadlines(DeadlineSpec::Within(deadline))
    }

    /// The campaign's deterministic variant of the same storm: identical
    /// topology, channel, SNR and saturation order, but every frame in a
    /// pre-expired deadline window (so misses are exact, not
    /// wall-clock-dependent), sphere tier pinned.
    pub fn campaign_storm(seed: u64, frames_per_client: usize) -> Scenario {
        let frames_per_client = frames_per_client.max(2);
        let total = STORM_CLIENTS * frames_per_client;
        deadline_storm(Duration::ZERO, seed)
            .frames_per_client(frames_per_client)
            .deadlines(DeadlineSpec::None)
            .tier(DetectorTier::Sphere)
            .fault(FaultSpec::DeadlineStorm { start: 0, len: total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        let build = || {
            Scenario::new(42)
                .clients(3)
                .frames_per_client(5)
                .channel(ChannelSpec::BlockFading {
                    trajectory: DopplerTrajectory::Ramp { from: 0.01, to: 0.2 },
                })
                .traffic(TrafficMix::Pareto { rate_hz: 800.0, alpha: 1.7 })
                .snr(SnrSpec::Walk { start_db: 22.0, step_db: 1.5, min_db: 16.0, max_db: 28.0 })
                .deadlines(DeadlineSpec::ExpiredWindow { start: 4, len: 6 })
        };
        let a = build().plan();
        let b = build().plan();
        assert_eq!(a.len(), 15);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.snr_db, y.snr_db);
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.channel.average_entry_power(), y.channel.average_entry_power());
        }
        // A different seed moves everything.
        let c = Scenario { seed: 43, ..build() }.plan();
        assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn deadline_windows_stamp_the_right_frames() {
        let s = Scenario::new(7)
            .clients(1)
            .frames_per_client(10)
            .deadlines(DeadlineSpec::ExpiredWindow { start: 3, len: 4 });
        let plan = s.plan();
        for (idx, f) in plan.iter().enumerate() {
            let expect =
                if (3..7).contains(&idx) { DeadlineKind::Expired } else { DeadlineKind::Generous };
            assert_eq!(f.deadline, expect, "frame {idx}");
        }
        // A deadline-storm fault overrides a deadline-free base.
        let s = Scenario::new(7)
            .clients(1)
            .frames_per_client(10)
            .fault(FaultSpec::DeadlineStorm { start: 8, len: 2 });
        let plan = s.plan();
        assert_eq!(plan[7].deadline, DeadlineKind::Free);
        assert_eq!(plan[8].deadline, DeadlineKind::Expired);
        assert_eq!(plan[9].deadline, DeadlineKind::Expired);
    }

    #[test]
    fn plan_preserves_per_client_order_and_counts() {
        let s = Scenario::new(99).clients(4).frames_per_client(6).traffic(TrafficMix::Bursty {
            calm_hz: 100.0,
            burst_hz: 4000.0,
            p_enter: 0.2,
            p_exit: 0.25,
        });
        let plan = s.plan();
        assert_eq!(plan.len(), 24);
        let mut counts = [0usize; 4];
        let mut last_seed = [None::<u64>; 4];
        for f in &plan {
            counts[f.client] += 1;
            // Per-client seeds must appear in their per-client sequence
            // order: recompute the expected seed from the count.
            let k = counts[f.client] - 1;
            let expect = splitmix64(s.seed ^ ((f.client as u64) << 32) ^ (k as u64 + 1));
            assert_eq!(f.seed, expect);
            last_seed[f.client] = Some(f.seed);
        }
        assert!(counts.iter().all(|&c| c == 6));
    }

    #[test]
    fn sampled_scenarios_cover_the_axes() {
        let mut channels = std::collections::BTreeSet::new();
        let mut traffics = std::collections::BTreeSet::new();
        let mut tiers = std::collections::BTreeSet::new();
        let mut faults = std::collections::BTreeSet::new();
        let mut with_fault = 0usize;
        for i in 0..64 {
            let s = Scenario::sampled(i, 2014, 6);
            channels.insert(s.channel.name());
            traffics.insert(s.traffic.name());
            tiers.insert(s.tier.name());
            if let Some(f) = s.fault {
                faults.insert(f.name());
                with_fault += 1;
            }
            assert!(s.total_frames() >= 2);
            assert!((1..=3).contains(&s.workers), "workers sampled sanely");
        }
        assert!(channels.len() >= 3, "≥3 channel models required, got {channels:?}");
        assert!(traffics.len() >= 3, "≥3 traffic mixes required, got {traffics:?}");
        assert_eq!(tiers.len(), 3, "all tiers sampled: {tiers:?}");
        assert_eq!(faults.len(), 3, "full fault taxonomy sampled: {faults:?}");
        assert!((16..=48).contains(&with_fault), "fault/no-fault mix: {with_fault}/64");
    }

    #[test]
    fn storm_preset_matches_the_bench_gate_shape() {
        let sc = presets::deadline_storm(Duration::from_millis(4), 2014);
        assert_eq!(sc.clients, presets::STORM_CLIENTS);
        assert_eq!(sc.frames_per_client, presets::STORM_FRAMES_PER_CLIENT);
        assert_eq!(sc.snr.base_db(), presets::STORM_SNR_DB);
        assert_eq!((sc.workers, sc.capacity), (2, 6));
        let within = DeadlineKind::Within(Duration::from_millis(4));
        assert!(sc.plan().iter().all(|f| f.deadline == within && f.at == Duration::ZERO));

        let s = presets::campaign_storm(1, 4);
        assert_eq!(s.clients, presets::STORM_CLIENTS);
        assert_eq!((s.workers, s.capacity), (2, 6));
        assert_eq!(s.snr.base_db(), presets::STORM_SNR_DB);
        // Every frame of the campaign storm sits in the expired window.
        assert!(s.plan().iter().all(|f| f.deadline == DeadlineKind::Expired));
    }
}

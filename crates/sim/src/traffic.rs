//! Multi-client traffic and the one stream driver.
//!
//! The paper's evaluation decodes frames one at a time; a base station
//! serves *arrival processes*. [`TrafficMix`] names the open-loop
//! arrival process each client's frames follow:
//!
//! * **Poisson** — exponential inter-arrival gaps, the memoryless
//!   baseline.
//! * **Bursty** — a Markov-modulated Poisson process: a client alternates
//!   between a calm and a burst state with different rates, producing the
//!   clumped arrivals that stress admission and EDF ordering.
//! * **Pareto** — heavy-tailed inter-arrivals (mean matched to the
//!   requested rate): long silences punctuated by dense clusters, the
//!   classic self-similar traffic shape.
//! * **Diurnal** — a sinusoidally rate-modulated Poisson process: load
//!   sweeps between quiet and peak phases within one run.
//! * **Saturation** — no pacing: every frame is due at once.
//!
//! Every schedule is a pure function of the seed. A [`Scenario`] merges
//! its clients' schedules into one [`PlannedFrame`] plan, channels
//! realized before any clock starts, and [`drive`] — the one loop in
//! this crate that submits to a [`FrameStream`] — feeds that plan to a
//! stream under a [`Pacing`]: replaying its order (the campaign's
//! time-independent drives, and saturation under backpressure), with the
//! consumer stalled (slot exhaustion), or on the wall clock, where an
//! arrival that finds every slot occupied is *dropped and counted*, the
//! standard loss model for an overloaded ingress. [`DriveReport`] keeps
//! one record per planned frame; [`TrafficReport`] is its aggregate.
//!
//! [`Scenario`]: crate::Scenario

use crate::scenario::{DeadlineKind, PlannedFrame};
use gs_runtime::{DetectorTier, FrameStream, TrySubmitError, UplinkFrame};
use rand::Rng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// An open-loop per-client arrival process family. See the module docs
/// for the members' shapes; all are parameterized in frames/sec and
/// sampled deterministically from the driving RNG.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficMix {
    /// Unpaced: every frame is due at once (all-zero offsets).
    Saturation,
    /// Memoryless arrivals at `rate_hz` frames/sec.
    Poisson {
        /// Mean per-client arrival rate.
        rate_hz: f64,
    },
    /// Markov-modulated Poisson: calm periods at `calm_hz`, bursts at
    /// `burst_hz`, switching states after each arrival with the given
    /// probabilities (geometric sojourns).
    Bursty {
        /// Arrival rate in the calm state.
        calm_hz: f64,
        /// Arrival rate inside a burst (≫ `calm_hz`).
        burst_hz: f64,
        /// Probability an arrival in the calm state enters a burst.
        p_enter: f64,
        /// Probability an arrival inside a burst returns to calm.
        p_exit: f64,
    },
    /// Heavy-tailed Pareto inter-arrivals with tail index `alpha` (> 1)
    /// and mean gap `1 / rate_hz`.
    Pareto {
        /// Mean per-client arrival rate.
        rate_hz: f64,
        /// Tail index (> 1; smaller = heavier tail, 1.5–2.5 typical).
        alpha: f64,
    },
    /// Sinusoidally modulated Poisson: instantaneous rate
    /// `rate_hz · (1 + swing·sin(2πt/period))`, sweeping between quiet
    /// and peak load across the run.
    Diurnal {
        /// Mean per-client arrival rate.
        rate_hz: f64,
        /// Relative modulation depth in `[0, 1)`.
        swing: f64,
        /// Period of one quiet→peak→quiet sweep.
        period: Duration,
    },
}

impl TrafficMix {
    /// Short name for reports and scenario descriptors.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficMix::Saturation => "saturation",
            TrafficMix::Poisson { .. } => "poisson",
            TrafficMix::Bursty { .. } => "bursty",
            TrafficMix::Pareto { .. } => "pareto",
            TrafficMix::Diurnal { .. } => "diurnal",
        }
    }

    /// One client's arrival offsets (monotone, `frames` entries), drawn
    /// from `rng`. Saturation yields all-zero offsets: every frame is due
    /// immediately, ordered by submission sequence alone.
    pub fn schedule<R: Rng + ?Sized>(&self, frames: usize, rng: &mut R) -> Vec<Duration> {
        let mut out = Vec::with_capacity(frames);
        let mut t = Duration::ZERO;
        // Bursty-state flag lives across arrivals of one schedule.
        let mut in_burst = false;
        for _ in 0..frames {
            let gap = match *self {
                TrafficMix::Saturation => 0.0,
                TrafficMix::Poisson { rate_hz } => exp_gap(rng, rate_hz),
                TrafficMix::Bursty { calm_hz, burst_hz, p_enter, p_exit } => {
                    let flip: f64 = rng.gen();
                    in_burst = if in_burst { flip >= p_exit } else { flip < p_enter };
                    exp_gap(rng, if in_burst { burst_hz } else { calm_hz })
                }
                TrafficMix::Pareto { rate_hz, alpha } => {
                    // Pareto(x_m, α) has mean α·x_m/(α−1); choose x_m so
                    // the mean gap is 1/rate. Inverse-CDF: x_m / u^{1/α}.
                    let scale = (alpha - 1.0) / (alpha * rate_hz.max(1e-9));
                    let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                    scale / u.powf(1.0 / alpha)
                }
                TrafficMix::Diurnal { rate_hz, swing, period } => {
                    let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64()
                        / period.as_secs_f64().max(1e-9);
                    let rate = rate_hz * (1.0 + swing * phase.sin());
                    exp_gap(rng, rate.max(rate_hz * (1.0 - swing).max(1e-3)))
                }
            };
            t += Duration::from_secs_f64(gap);
            out.push(t);
        }
        out
    }
}

/// One exponential inter-arrival gap at `rate_hz`.
fn exp_gap<R: Rng + ?Sized>(rng: &mut R, rate_hz: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate_hz.max(1e-9)
}

/// How [`drive`] feeds a plan to the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Replay the plan's order, ignoring its arrival offsets: admit frames
    /// until the stream refuses one or `in_flight` are outstanding, then
    /// take one completion. `usize::MAX` keeps the pipeline full
    /// (saturation under backpressure); `1` is lockstep, which delivers
    /// every frame before the next is admitted.
    Replay {
        /// Most frames outstanding at once.
        in_flight: usize,
    },
    /// Offer every frame with `try_submit` while nothing consumes, count
    /// the refusals, then drain what was admitted.
    Stalled,
    /// Offer each frame at its planned arrival offset on the wall clock
    /// and drop it when every slot is occupied; completions that are
    /// ready are absorbed while waiting.
    WallClock,
}

/// What [`drive`] saw of one planned frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameRecord {
    /// Whether a completion arrived for the frame.
    pub delivered: bool,
    /// Bit `i` set when client stream `i` decoded CRC-clean.
    pub ok_mask: u64,
    /// Whether every client stream decoded CRC-clean.
    pub all_ok: bool,
    /// Detections the frame ran.
    pub detections: u64,
    /// Partial Euclidean distances the frame computed.
    pub ped_calcs: u64,
    /// Whether the delivery missed the frame's deadline.
    pub missed: bool,
    /// The stream's per-client sequence number of the delivery.
    pub seq: u64,
    /// The tier the frame decoded at.
    pub tier: DetectorTier,
}

/// Everything [`drive`] observed: one record per planned frame, in plan
/// order, plus the admission counts.
#[derive(Clone, Debug)]
pub struct DriveReport {
    /// Per-frame records, indexed like the plan.
    pub records: Vec<FrameRecord>,
    /// Frames the stream admitted.
    pub admitted: u64,
    /// Frames refused: by a full slot pool (stalled and wall-clock
    /// pacing) or by a dead stream.
    pub refused: u64,
    /// Admitted frames whose completion never came because the stream
    /// died.
    pub died: u64,
    /// Wall-clock from the start of the drive to the last completion.
    pub elapsed: Duration,
}

impl DriveReport {
    /// Frames delivered with a completion.
    pub fn delivered(&self) -> u64 {
        self.records.iter().filter(|r| r.delivered).count() as u64
    }

    /// The run's aggregate numbers.
    pub fn traffic(&self) -> TrafficReport {
        let count = |f: fn(&FrameRecord) -> bool| self.records.iter().filter(|r| f(r)).count();
        TrafficReport {
            offered: self.records.len() as u64,
            submitted: self.admitted,
            dropped: self.refused,
            frames_all_ok: count(|r| r.delivered && r.all_ok) as u64,
            deadline_misses: count(|r| r.delivered && r.missed) as u64,
            elapsed: self.elapsed,
            frames_per_sec: self.admitted as f64 / self.elapsed.as_secs_f64().max(1e-9),
        }
    }
}

/// What a traffic run observed, in aggregate ([`DriveReport::traffic`]).
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Frames offered (the plan's length).
    pub offered: u64,
    /// Frames admitted (offered minus ingress drops).
    pub submitted: u64,
    /// Frames offered but refused at admission.
    pub dropped: u64,
    /// Frames delivered with every client stream CRC-verified.
    pub frames_all_ok: u64,
    /// Delivered frames that missed their deadline.
    pub deadline_misses: u64,
    /// Wall-clock from first submission to last completion.
    pub elapsed: Duration,
    /// `submitted / elapsed` — delivered throughput.
    pub frames_per_sec: f64,
}

/// Bit `i` set when client stream `i` decoded CRC-clean.
pub(crate) fn ok_mask(client_ok: &[bool]) -> u64 {
    let mut mask = 0u64;
    for (i, &ok) in client_ok.iter().enumerate() {
        if ok {
            mask |= 1 << (i as u64 & 63);
        }
    }
    mask
}

/// The deadline instant a [`DeadlineKind`] stamps at submission time.
/// `Expired` backdates (completion strictly after submission ⇒ always a
/// miss); `Generous` is an hour out (never a miss in a CI-scale run).
fn stamp_deadline(kind: DeadlineKind) -> Option<Instant> {
    let now = Instant::now();
    match kind {
        DeadlineKind::Free => None,
        DeadlineKind::Generous => Some(now + Duration::from_secs(3600)),
        DeadlineKind::Expired => Some(now.checked_sub(Duration::from_millis(1)).unwrap_or(now)),
        DeadlineKind::Within(d) => Some(now + d),
    }
}

/// The one loop that feeds a [`FrameStream`]: offers `plan` in order
/// under `pacing`, consumes every completion on the calling thread, and
/// records each one against its planned frame (completion `k` of a
/// client is that client's `k`-th admitted frame: per-client FIFO
/// delivery). A dead stream is an outcome, not a panic: its outstanding
/// frames count as `died` and every later offer as `refused`.
pub fn drive(stream: &FrameStream, plan: &[PlannedFrame], pacing: Pacing) -> DriveReport {
    let clients = plan.iter().map(|f| f.client + 1).max().unwrap_or(0);
    let mut pending: Vec<VecDeque<usize>> = vec![VecDeque::new(); clients];
    let mut report = DriveReport {
        records: vec![FrameRecord::default(); plan.len()],
        admitted: 0,
        refused: 0,
        died: 0,
        elapsed: Duration::ZERO,
    };
    fn outstanding(pending: &[VecDeque<usize>]) -> usize {
        pending.iter().map(VecDeque::len).sum()
    }
    // Takes one completion (blocking or not); `false` when none was taken.
    let take = |report: &mut DriveReport, pending: &mut [VecDeque<usize>], block: bool| {
        let done = if block {
            match stream.recv() {
                Ok(done) => done,
                Err(_) => {
                    // The stream died: nothing outstanding can arrive.
                    report.died += outstanding(pending) as u64;
                    pending.iter_mut().for_each(VecDeque::clear);
                    return false;
                }
            }
        } else {
            match stream.try_recv() {
                Some(done) => done,
                None => return false,
            }
        };
        if let Some(idx) = pending.get_mut(done.client()).and_then(VecDeque::pop_front) {
            let out = done.outcome();
            report.records[idx] = FrameRecord {
                delivered: true,
                ok_mask: ok_mask(&out.client_ok),
                all_ok: out.client_ok.iter().all(|&ok| ok),
                detections: out.detections,
                ped_calcs: out.stats.ped_calcs,
                missed: done.missed_deadline(),
                seq: done.seq(),
                tier: done.tier(),
            };
        }
        true
    };
    let start = Instant::now();
    for (idx, pf) in plan.iter().enumerate() {
        match pacing {
            Pacing::Replay { in_flight } => {
                while outstanding(&pending) >= in_flight.max(1) {
                    take(&mut report, &mut pending, true);
                }
            }
            Pacing::Stalled => {}
            Pacing::WallClock => {
                // Idle until the frame is due, absorbing what is ready (no
                // busy spin: the detection workers own the cores).
                let due = start + pf.at;
                while let Some(wait) = due.checked_duration_since(Instant::now()) {
                    if !take(&mut report, &mut pending, false) {
                        std::thread::sleep(wait.min(Duration::from_micros(200)));
                    }
                }
            }
        }
        // The deadline runs from the offer, so time spent waiting for a
        // slot counts against it.
        let mut frame = UplinkFrame::new(pf.client, pf.channel.clone(), pf.snr_db, pf.seed);
        frame.deadline = stamp_deadline(pf.deadline);
        loop {
            match stream.try_submit(frame) {
                Ok(()) => {
                    report.admitted += 1;
                    pending[pf.client].push_back(idx);
                }
                // Replay waits for a slot while one can free up.
                Err(TrySubmitError::Full(back))
                    if matches!(pacing, Pacing::Replay { .. }) && outstanding(&pending) > 0 =>
                {
                    take(&mut report, &mut pending, true);
                    frame = back;
                    continue;
                }
                Err(_) => report.refused += 1,
            }
            break;
        }
    }
    while outstanding(&pending) > 0 {
        take(&mut report, &mut pending, true);
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DeadlineSpec, Scenario, SnrSpec};
    use geosphere_core::geosphere_decoder;
    use gs_modulation::Constellation;
    use gs_phy::PhyConfig;
    use gs_runtime::StreamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FULL: Pacing = Pacing::Replay { in_flight: usize::MAX };

    #[test]
    fn saturation_delivers_every_frame() {
        let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) };
        let mut sc = StreamConfig::new(3);
        sc.workers = 2;
        sc.capacity = 4;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        let plan = Scenario::new(7)
            .phy(cfg)
            .clients(3)
            .frames_per_client(4)
            .traffic(TrafficMix::Saturation)
            .snr(SnrSpec::Fixed(24.0))
            .plan();
        let report = drive(&stream, &plan, FULL).traffic();
        assert_eq!(report.offered, 12);
        assert_eq!(report.submitted, 12, "saturation mode never drops");
        assert_eq!(report.dropped, 0);
        assert!(report.frames_all_ok > 0, "24 dB 16-QAM should deliver frames");
        assert!(report.frames_per_sec > 0.0);
        assert_eq!(stream.stats().completed, 12);
    }

    #[test]
    fn paced_mode_keeps_loss_accounting_consistent() {
        let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qpsk) };
        let mut sc = StreamConfig::new(2);
        sc.workers = 1;
        sc.capacity = 2;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        // A deliberately absurd offered rate over a tiny slot pool: some
        // arrivals must drop, and offered = submitted + dropped must hold.
        let plan = Scenario::new(11)
            .phy(cfg)
            .antennas(2, 2)
            .clients(2)
            .frames_per_client(6)
            .traffic(TrafficMix::Poisson { rate_hz: 1e6 })
            .snr(SnrSpec::Fixed(20.0))
            .deadlines(DeadlineSpec::Within(Duration::from_millis(200)))
            .plan();
        let report = drive(&stream, &plan, Pacing::WallClock).traffic();
        assert_eq!(report.offered, 12);
        assert_eq!(report.submitted + report.dropped, report.offered);
        assert_eq!(stream.stats().completed as u64, report.submitted);
        assert!(report.deadline_misses <= report.submitted);
    }

    #[test]
    fn pacing_never_changes_a_decoded_bit() {
        // One saturation-order plan over a 3-slot pool, a fresh stream per
        // drive: lockstep is the reference, the full window recycles slots
        // mid-plan, and the wall clock refuses what finds the pool full.
        // 4×4 at 14 dB, so PED counts differ from frame to frame.
        let s = Scenario::new(31)
            .clients(2)
            .frames_per_client(4)
            .topology(2, 1, 3)
            .antennas(4, 4)
            .snr(SnrSpec::Fixed(14.0))
            .traffic(TrafficMix::Saturation);
        let plan = s.plan();
        let run = |pacing| {
            let stream = FrameStream::new(s.phy, geosphere_decoder(), s.stream_config());
            drive(&stream, &plan, pacing)
        };
        let lockstep = run(Pacing::Replay { in_flight: 1 });
        assert_eq!(lockstep.delivered(), 8);
        for pacing in [FULL, Pacing::WallClock] {
            let other = run(pacing);
            assert_eq!(other.admitted + other.refused, 8, "{pacing:?}");
            assert!(other.delivered() >= 3, "{pacing:?} fills the pool at least once");
            for (idx, (a, b)) in lockstep.records.iter().zip(&other.records).enumerate() {
                assert!(b.delivered || pacing == Pacing::WallClock, "frame {idx} under {pacing:?}");
                if b.delivered {
                    assert_eq!(
                        (a.ok_mask, a.detections, a.ped_calcs),
                        (b.ok_mask, b.detections, b.ped_calcs),
                        "frame {idx} under {pacing:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn schedules_are_monotone_and_seed_deterministic() {
        let mixes = [
            TrafficMix::Poisson { rate_hz: 500.0 },
            TrafficMix::Bursty { calm_hz: 100.0, burst_hz: 2000.0, p_enter: 0.2, p_exit: 0.3 },
            TrafficMix::Pareto { rate_hz: 500.0, alpha: 1.8 },
            TrafficMix::Diurnal { rate_hz: 500.0, swing: 0.8, period: Duration::from_millis(100) },
        ];
        for mix in &mixes {
            let draw = |seed| mix.schedule(64, &mut StdRng::seed_from_u64(seed));
            let a = draw(5);
            assert_eq!(a, draw(5), "{} schedule must be a pure function of its seed", mix.name());
            assert_ne!(a, draw(6), "{} schedule must vary with the seed", mix.name());
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "{} schedule monotone", mix.name());
        }
        let sat = TrafficMix::Saturation.schedule(8, &mut StdRng::seed_from_u64(1));
        assert!(sat.iter().all(|&t| t == Duration::ZERO));
    }

    #[test]
    fn mix_mean_rates_land_near_nominal() {
        // 4000 arrivals at nominal 1 kHz: the empirical mean gap of every
        // paced mix must land within ~15% of 1 ms (Pareto included — its
        // scale is chosen to match the mean).
        for mix in [
            TrafficMix::Poisson { rate_hz: 1000.0 },
            TrafficMix::Pareto { rate_hz: 1000.0, alpha: 2.2 },
            TrafficMix::Diurnal { rate_hz: 1000.0, swing: 0.5, period: Duration::from_millis(50) },
        ] {
            let sched = mix.schedule(4000, &mut StdRng::seed_from_u64(17));
            let total = sched.last().unwrap().as_secs_f64();
            let mean_gap = total / 4000.0;
            assert!(
                (mean_gap - 1e-3).abs() < 0.25e-3,
                "{}: mean gap {mean_gap:.2e}s, expected ~1e-3s",
                mix.name()
            );
        }
    }

    #[test]
    fn bursty_mix_actually_clusters() {
        // Compare gap dispersion: bursty arrivals must have a much higher
        // coefficient of variation than Poisson at the same mean load.
        let cv = |sched: &[Duration]| {
            let gaps: Vec<f64> = sched
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .chain(std::iter::once(sched[0].as_secs_f64()))
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let poisson =
            TrafficMix::Poisson { rate_hz: 500.0 }.schedule(2000, &mut StdRng::seed_from_u64(23));
        let bursty =
            TrafficMix::Bursty { calm_hz: 50.0, burst_hz: 5000.0, p_enter: 0.1, p_exit: 0.05 }
                .schedule(2000, &mut StdRng::seed_from_u64(23));
        assert!(
            cv(&bursty) > 1.5 * cv(&poisson),
            "bursty CV {:.2} must exceed Poisson CV {:.2}",
            cv(&bursty),
            cv(&poisson)
        );
    }
}

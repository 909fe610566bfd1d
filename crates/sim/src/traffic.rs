//! Multi-client traffic mixes driving the streaming runtime.
//!
//! The paper's evaluation decodes frames one at a time; a base station
//! serves *arrival processes*. This module generates open-loop traffic —
//! each client submits frames from an independent arrival process — and
//! pushes it through a [`FrameStream`], measuring delivered throughput,
//! deadline behaviour, and loss under the runtime's bounded admission.
//!
//! [`TrafficMix`] names the process family; the classic Poisson driver is
//! one member:
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
//! * **Saturation** — no pacing; submission uses blocking
//!   [`FrameStream::submit`], measuring the pipeline's sustained
//!   frames/sec under backpressure.
//!
//! Paced mixes submit with [`FrameStream::try_submit`] — an arrival that
//! finds every slot occupied is *dropped and counted*, the standard loss
//! model for an overloaded ingress. Channels are realized per frame from
//! the caller's [`ChannelModel`] before the clock starts, so the driver's
//! hot loop is pacing + submit. Every schedule is a pure function of the
//! seed, which is what lets the campaign layer ([`crate::campaign`])
//! replay a mix's arrival *order* without its wall-clock pacing.

use gs_channel::ChannelModel;
use gs_runtime::{FrameStream, TrySubmitError, UplinkFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An open-loop per-client arrival process family. See the module docs
/// for the members' shapes; all are parameterized in frames/sec and
/// sampled deterministically from the driving RNG.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficMix {
    /// Unpaced: every frame is offered immediately, blocking submission
    /// (maximum backpressure).
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

    /// Whether arrivals are paced on the wall clock (everything but
    /// saturation).
    pub fn is_paced(&self) -> bool {
        !matches!(self, TrafficMix::Saturation)
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

/// Traffic-shape parameters for [`run_poisson_uplink`].
#[derive(Clone, Debug)]
pub struct PoissonParams {
    /// Concurrent traffic sources. Must match (or not exceed) the
    /// stream's configured client-lane count.
    pub clients: usize,
    /// Frames each client offers.
    pub frames_per_client: usize,
    /// Mean per-client arrival rate in frames/sec; `f64::INFINITY` (or
    /// any non-finite / non-positive value) selects saturation mode.
    pub rate_hz: f64,
    /// Operating SNR for every frame.
    pub snr_db: f64,
    /// Relative completion deadline applied to each frame at submission
    /// (`None` = deadline-free).
    pub deadline: Option<Duration>,
    /// Seed for arrival gaps, channel realizations, and frame seeds.
    pub seed: u64,
}

/// What the traffic run observed.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// Frames offered (`clients × frames_per_client`).
    pub offered: u64,
    /// Frames admitted (offered minus ingress drops).
    pub submitted: u64,
    /// Frames offered but refused at a full ingress (paced mixes only).
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

/// One scheduled arrival.
struct Arrival {
    at: Duration,
    client: usize,
    frame: UplinkFrame,
}

/// Builds the merged multi-client arrival schedule for `params`:
/// per-client offsets from `mix`, channel realizations from `model`,
/// per-frame seeds derived from the run seed — all before any clock
/// starts, and a pure function of `params.seed`.
fn build_arrivals<M: ChannelModel>(
    model: &M,
    params: &PoissonParams,
    mix: &TrafficMix,
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut arrivals: Vec<Arrival> = Vec::with_capacity(params.clients * params.frames_per_client);
    for client in 0..params.clients {
        let offsets = mix.schedule(params.frames_per_client, &mut rng);
        for (k, at) in offsets.into_iter().enumerate() {
            let channel = Arc::new(model.realize(&mut rng));
            let seed = params
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((client * params.frames_per_client + k) as u64);
            let frame = UplinkFrame::new(client, channel, params.snr_db, seed);
            arrivals.push(Arrival { at, client, frame });
        }
    }
    // Stable sort: same-instant arrivals keep client order, and one
    // client's frames keep submission order.
    arrivals.sort_by(|a, b| a.at.cmp(&b.at).then(a.client.cmp(&b.client)));
    arrivals
}

/// Drives `params.clients` sources through `stream` and drains every
/// completion, returning the aggregate [`TrafficReport`]. A finite
/// positive `params.rate_hz` paces each client as a
/// [`TrafficMix::Poisson`] process; anything else is
/// [`TrafficMix::Saturation`].
///
/// The submitting side runs on a scoped thread ("many concurrent sources"
/// collapsed onto one pacing thread — arrival times are already merged);
/// the calling thread consumes completions, so backpressure and delivery
/// ordering are exercised exactly as a deployment would.
///
/// # Panics
/// Panics when the stream dies mid-run (a worker or stage-thread panic is
/// an infrastructure failure here, not a scenario outcome — the
/// fault-injection campaigns use their own lockstep driver).
pub fn run_poisson_uplink<M: ChannelModel>(
    stream: &FrameStream,
    model: &M,
    params: &PoissonParams,
) -> TrafficReport {
    let mix = if params.rate_hz.is_finite() && params.rate_hz > 0.0 {
        TrafficMix::Poisson { rate_hz: params.rate_hz }
    } else {
        TrafficMix::Saturation
    };
    let paced = mix.is_paced();
    let arrivals = build_arrivals(model, params, &mix);

    let offered = arrivals.len() as u64;
    let start = Instant::now();
    let mut dropped = 0u64;
    let mut submitted = 0u64;
    let mut frames_all_ok = 0u64;
    let mut deadline_misses = 0u64;

    // Admissions the consumer may safely block on: every admitted frame
    // eventually completes, so `recv` below never over-waits.
    let admitted = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let mut dropped = 0u64;
            for Arrival { at, frame, .. } in arrivals {
                if paced {
                    let due = start + at;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                let mut frame = frame;
                frame.deadline = params.deadline.map(|d| Instant::now() + d);
                let accepted = if paced {
                    match stream.try_submit(frame) {
                        Ok(()) => true,
                        Err(TrySubmitError::Full(_)) => false,
                        Err(TrySubmitError::Dead(_)) => {
                            panic!("stream died under the traffic driver")
                        }
                    }
                } else {
                    stream.submit(frame).expect("stream died under the traffic driver");
                    true
                };
                if accepted {
                    admitted.fetch_add(1, std::sync::atomic::Ordering::Release);
                } else {
                    dropped += 1;
                }
            }
            dropped
        });

        // Drain on the calling thread: block on `recv` for frames known to
        // be admitted, idle briefly (no busy spin — the detection workers
        // own the cores) while the submitter is still pacing.
        let mut received = 0u64;
        let mut absorb = |done: gs_runtime::Completed<'_>| {
            if done.outcome().client_ok.iter().all(|&ok| ok) {
                frames_all_ok += 1;
            }
            if done.missed_deadline() {
                deadline_misses += 1;
            }
        };
        loop {
            if received < admitted.load(std::sync::atomic::Ordering::Acquire) {
                absorb(stream.recv().expect("stream died mid-drain"));
                received += 1;
            } else if submitter.is_finished() {
                break;
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        dropped = submitter.join().expect("traffic submitter panicked");
        submitted = offered - dropped;
        while received < submitted {
            absorb(stream.recv().expect("stream died mid-drain"));
            received += 1;
        }
    });

    let elapsed = start.elapsed();
    TrafficReport {
        offered,
        submitted,
        dropped,
        frames_all_ok,
        deadline_misses,
        elapsed,
        frames_per_sec: submitted as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosphere_core::geosphere_decoder;
    use gs_channel::RayleighChannel;
    use gs_modulation::Constellation;
    use gs_phy::PhyConfig;
    use gs_runtime::StreamConfig;

    #[test]
    fn saturation_delivers_every_frame() {
        let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) };
        let mut sc = StreamConfig::new(3);
        sc.workers = 2;
        sc.capacity = 4;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        let model = RayleighChannel::new(4, 2);
        let params = PoissonParams {
            clients: 3,
            frames_per_client: 4,
            rate_hz: f64::INFINITY,
            snr_db: 24.0,
            deadline: None,
            seed: 7,
        };
        let report = run_poisson_uplink(&stream, &model, &params);
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
        let model = RayleighChannel::new(2, 2);
        // A deliberately absurd offered rate over a tiny slot pool: some
        // arrivals must drop, and offered = submitted + dropped must hold.
        let params = PoissonParams {
            clients: 2,
            frames_per_client: 6,
            rate_hz: 1e6,
            snr_db: 20.0,
            deadline: Some(Duration::from_millis(200)),
            seed: 11,
        };
        let report = run_poisson_uplink(&stream, &model, &params);
        assert_eq!(report.offered, 12);
        assert_eq!(report.submitted + report.dropped, report.offered);
        assert_eq!(stream.stats().completed as u64, report.submitted);
        assert!(report.deadline_misses <= report.submitted);
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
            assert!(mix.is_paced());
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

//! The three workloads and their seeded input synthesis.
//!
//! Everything the receiver is fed — the channel pool, each frame's
//! channel pick and payload/noise seed, and the paced arrival schedule —
//! is a pure function of the `--seed` argument, realized before the
//! stream is built so that synthesis cost never lands in `setup_s`.

use gs_channel::{ChannelModel, MimoChannel, RayleighChannel, SelectiveRayleighChannel};
use gs_linalg::Matrix;
use gs_modulation::Constellation;
use gs_phy::PhyConfig;
use gs_runtime::{StreamConfig, UplinkFrame};
use gs_sim::TrafficMix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client lanes (ordering domains) of the stream under test.
pub const CLIENTS: usize = 4;
/// Detection workers. Fixed rather than derived from the machine, so runs
/// on differently sized hosts measure the same topology.
const WORKERS: usize = 2;
/// Detection shards.
const SHARDS: usize = 1;
/// Plan-stage threads.
const PLANNERS: usize = 1;
/// Slot-pool bound: frames in flight at once. The closed loops keep
/// exactly this many outstanding.
pub const CAPACITY: usize = 8;
/// Leading frames of the timed window whose `DetectorStats` give the
/// exact search-effort counts: a fixed set, so the counts repeat exactly
/// for a seed however many frames a window delivers.
pub const COUNT_FRAMES: u64 = 512;
/// Paced runs offer at least this many frames, so their p99 latency has at
/// least ten samples beyond it.
const MIN_PACED_FRAMES: usize = 1024;

/// The stream topology every workload runs on: fixed sizes, worker pinning
/// off (the host's vCPUs are shared, so pinning measures the neighbours).
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        clients: CLIENTS,
        workers: WORKERS,
        shards: SHARDS,
        capacity: CAPACITY,
        planners: PLANNERS,
        pin: false,
    }
}

/// How frames arrive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Closed loop from one thread: the next frame is submitted as soon as
    /// a delivery frees a slot, so `CAPACITY` frames are always in flight.
    Closed,
    /// Open loop: Poisson arrivals at an aggregate `rate_hz`, each frame
    /// due at its scheduled instant and carrying the deadline
    /// `due + limit`.
    Poisson {
        /// Aggregate arrival rate over all clients (frames/s).
        rate_hz: f64,
        /// Latency limit: the frame's deadline is `due + limit`.
        limit: Duration,
    },
}

/// Channel family of a workload's pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fading {
    /// Indoor frequency-selective Rayleigh (4 taps), one matrix per
    /// subcarrier.
    Selective,
    /// Flat Rayleigh: one matrix for every subcarrier.
    Flat,
}

/// One named workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// Frame shape.
    pub cfg: PhyConfig,
    /// Operating SNR in dB.
    pub snr_db: f64,
    /// Channel family.
    pub fading: Fading,
    /// Distinct channel realizations frames draw from.
    pub pool_size: usize,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Leading frames the traced run replays serially through the staged
    /// `gs-phy` API to time each layer.
    pub layer_frames: usize,
}

/// Every workload name. `BENCHMARK.json` gates the two saturating ones;
/// `paced_qam64_28db` is run by hand, because on a shared host its latency
/// follows the neighbours' load (see `METRICS.md`).
pub const NAMES: [&str; 3] =
    ["saturate_qam64_28db", "saturate_small_qam16_flat", "paced_qam64_28db"];

/// The paper's operating point and the repository's frame-decode shape:
/// 4×4 64-QAM, rate-½, 64 subcarriers, 2048-bit payloads, 28 dB.
fn qam64_frame() -> PhyConfig {
    PhyConfig { n_subcarriers: 64, payload_bits: 2048, ..PhyConfig::new(Constellation::Qam64) }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    let w = match name {
        "saturate_qam64_28db" => Workload {
            name: "saturate_qam64_28db",
            cfg: qam64_frame(),
            snr_db: 28.0,
            fading: Fading::Selective,
            pool_size: 1024,
            arrivals: Arrivals::Closed,
            layer_frames: 128,
        },
        "saturate_small_qam16_flat" => Workload {
            name: "saturate_small_qam16_flat",
            cfg: PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) },
            snr_db: 30.0,
            fading: Fading::Flat,
            pool_size: 4096,
            arrivals: Arrivals::Closed,
            layer_frames: 1024,
        },
        "paced_qam64_28db" => Workload {
            name: "paced_qam64_28db",
            cfg: qam64_frame(),
            snr_db: 28.0,
            fading: Fading::Selective,
            pool_size: 1024,
            arrivals: Arrivals::Poisson { rate_hz: 100.0, limit: Duration::from_millis(20) },
            layer_frames: 128,
        },
        _ => return None,
    };
    Some(w)
}

/// SplitMix64: decorrelates `(seed, index)` pairs into independent draws.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Frame indices at and above this are warm-up frames, never timed.
const WARMUP_BASE: u64 = 1 << 48;

/// The warm-up channel: the identity on every subcarrier of the frame
/// shape. Warm-up exists to grow every buffer to the frame shape, and a
/// perfectly conditioned channel makes its search effort the same for
/// every seed, so `setup_s` does not inherit the heavy tail of the pool's
/// search effort.
fn warmup_channel(w: &Workload) -> MimoChannel {
    let h = Matrix::identity(CLIENTS);
    match w.fading {
        Fading::Selective => MimoChannel::new(vec![h; w.cfg.n_subcarriers]),
        Fading::Flat => MimoChannel::flat(h),
    }
}

/// What one frame flies through: its lane, channel, and RNG seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameSpec {
    /// Frame index (timed frames count from 0).
    pub index: u64,
    /// Client lane.
    pub client: usize,
    /// Index into the channel pool.
    pub channel: usize,
    /// Payload and noise seed.
    pub seed: u64,
}

/// A workload's synthesized inputs.
pub struct Inputs {
    seed: u64,
    /// The channel pool.
    pub channels: Vec<Arc<MimoChannel>>,
    /// The channel every warm-up frame flies through.
    warmup: Arc<MimoChannel>,
    /// Paced workloads: each frame's due offset from the start of the
    /// window and its client lane, in due order. Empty for closed loops.
    pub arrivals: Vec<(Duration, usize)>,
}

impl Inputs {
    /// Realizes the channel pool and (paced workloads) the arrival
    /// schedule for `seed`. A paced run offers
    /// `max(MIN_PACED_FRAMES, rate · seconds)` frames.
    pub fn generate(w: &Workload, seed: u64, seconds: f64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x6368_616e));
        let channels = (0..w.pool_size)
            .map(|_| {
                Arc::new(match w.fading {
                    Fading::Selective => SelectiveRayleighChannel {
                        n_fft: 64,
                        n_subcarriers: w.cfg.n_subcarriers,
                        ..SelectiveRayleighChannel::indoor(4, CLIENTS)
                    }
                    .realize(&mut rng),
                    Fading::Flat => RayleighChannel::new(4, CLIENTS).realize(&mut rng),
                })
            })
            .collect();
        let arrivals = match w.arrivals {
            Arrivals::Closed => Vec::new(),
            Arrivals::Poisson { rate_hz, .. } => {
                let frames = MIN_PACED_FRAMES.max((rate_hz * seconds).round() as usize);
                poisson_schedule(seed, rate_hz, frames)
            }
        };
        Inputs { seed, channels, warmup: Arc::new(warmup_channel(w)), arrivals }
    }

    /// Timed frame `index`: its lane comes from the schedule (paced) or
    /// round-robin (closed loop).
    pub fn frame(&self, index: u64) -> FrameSpec {
        let client = match self.arrivals.get(index as usize) {
            Some(&(_, c)) => c,
            None => (index % CLIENTS as u64) as usize,
        };
        self.spec(index, client)
    }

    /// Warm-up frame `j` (lane `j % CLIENTS`, the warm-up channel) and
    /// its frame index.
    pub fn warmup_uplink(&self, w: &Workload, j: u64) -> (u64, UplinkFrame) {
        let index = WARMUP_BASE + j;
        let client = (j % CLIENTS as u64) as usize;
        let seed = mix(self.seed, index);
        (index, UplinkFrame::new(client, Arc::clone(&self.warmup), w.snr_db, seed))
    }

    fn spec(&self, index: u64, client: usize) -> FrameSpec {
        let draw = mix(self.seed, index);
        FrameSpec {
            index,
            client,
            channel: (draw % self.channels.len() as u64) as usize,
            seed: mix(draw, 0x7061_796c),
        }
    }

    /// The submission for `spec` under workload `w`.
    pub fn uplink(&self, w: &Workload, spec: &FrameSpec, deadline: Option<Instant>) -> UplinkFrame {
        UplinkFrame {
            deadline,
            ..UplinkFrame::new(
                spec.client,
                Arc::clone(&self.channels[spec.channel]),
                w.snr_db,
                spec.seed,
            )
        }
    }
}

/// The first `frames` arrivals of `CLIENTS` independent Poisson processes
/// (each at `rate_hz / CLIENTS`, drawn by `gs_sim::TrafficMix::schedule`),
/// merged in due order.
fn poisson_schedule(seed: u64, rate_hz: f64, frames: usize) -> Vec<(Duration, usize)> {
    let mix_per_client = TrafficMix::Poisson { rate_hz: rate_hz / CLIENTS as f64 };
    let mut all: Vec<(Duration, usize)> = (0..CLIENTS)
        .flat_map(|c| {
            let mut rng = StdRng::seed_from_u64(mix(seed, 0x7061_6365 + c as u64));
            // Each lane draws enough arrivals to cover the merged prefix.
            mix_per_client.schedule(frames, &mut rng).into_iter().map(move |t| (t, c))
        })
        .collect();
    all.sort();
    all.truncate(frames);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves() {
        for n in NAMES {
            assert_eq!(workload(n).unwrap().name, n);
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs() {
        for n in NAMES {
            let w = workload(n).unwrap();
            let a = Inputs::generate(&w, 7, 10.0);
            let b = Inputs::generate(&w, 7, 10.0);
            assert_eq!(a.arrivals, b.arrivals, "{n}: arrival schedule");
            assert_eq!(a.channels.len(), w.pool_size);
            for (x, y) in a.channels.iter().zip(&b.channels) {
                assert_eq!(x.num_subcarriers(), y.num_subcarriers());
                for (hx, hy) in x.iter().zip(y.iter()) {
                    assert!(hx == hy, "{n}: channel pool");
                }
            }
            for k in 0..64 {
                assert_eq!(a.frame(k), b.frame(k));
                assert_eq!(a.warmup_uplink(&w, k).1.seed, b.warmup_uplink(&w, k).1.seed);
            }
            let c = Inputs::generate(&w, 8, 10.0);
            assert_ne!(a.frame(0).seed, c.frame(0).seed, "{n}: seed must matter");
        }
    }

    #[test]
    fn paced_schedule_is_monotone_and_covers_every_lane() {
        let s = poisson_schedule(3, 100.0, MIN_PACED_FRAMES);
        assert_eq!(s.len(), MIN_PACED_FRAMES);
        assert!(s.windows(2).all(|p| p[0].0 <= p[1].0));
        for c in 0..CLIENTS {
            assert!(s.iter().filter(|a| a.1 == c).count() > MIN_PACED_FRAMES / 8);
        }
        // ~100 frames/s: 1024 arrivals span roughly ten seconds.
        let span = s.last().unwrap().0.as_secs_f64();
        assert!((8.0..12.5).contains(&span), "span {span}");
        assert_ne!(s, poisson_schedule(4, 100.0, MIN_PACED_FRAMES));
    }
}

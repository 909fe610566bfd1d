//! Property suite for the streaming runtime: bit-identity with the serial
//! receive path, and the steady-state zero-allocation contract.
//!
//! **Bit-identity.** For any (client count, worker count, shard count,
//! channel selectivity, deadline assignment, submission interleaving), every frame delivered by
//! [`gs_runtime::FrameStream`] must be bit-identical — CRC verdicts,
//! operation counts, detection counts — to serial
//! [`gs_phy::decode_frame_batched_into`] decoding the same
//! [`gs_runtime::UplinkFrame`] (same seed, same channel), and each
//! client's frames must arrive in submission order. Scenarios are sampled
//! through the proptest [`Strategy`] machinery. The same contract holds
//! per detector tier: an adaptive stream pinned to any single rung of the
//! default ladder matches serial decoding with that rung's detector.
//!
//! **Zero steady-state allocations.** With the pipeline full and every
//! slot warmed, pushing further frames end to end (submit → one worker
//! plans, detects and recovers each frame → recv) performs **zero heap
//! allocations across all threads**, extending the frame chain's
//! zero-allocation discipline to the streaming engine.
//!
//! Like `tests/alloc_regression.rs`, this file holds a **single
//! `#[test]`**: the allocation case counts process-wide (the pool's
//! worker threads must be measured), which is only sound while no sibling
//! test allocates concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Armed around regions where **every** thread's allocations count.
static COUNT_ALL_THREADS: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates directly to `System`; the counter update has no other
// side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_ALL_THREADS.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_ALL_THREADS.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_during_all_threads<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_ALL_THREADS.store(true, Ordering::SeqCst);
    let result = f();
    COUNT_ALL_THREADS.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

use geosphere_core::{geosphere_decoder, DetectorTier, FsdDetector, MmseDetector};
use gs_channel::{
    noise_variance_for_snr_db, ChannelModel, MimoChannel, RayleighChannel, SelectiveRayleighChannel,
};
use gs_modulation::Constellation;
use gs_phy::{decode_frame_batched_into, FrameWorkspace, PhyConfig, UplinkOutcome};
use gs_prof::trace as gtrace;
use gs_runtime::{DetectorLadder, FrameStream, PinnedPolicy, StreamConfig, UplinkFrame};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One randomized streaming scenario.
#[derive(Debug)]
struct Scenario {
    clients: usize,
    frames_per_client: usize,
    workers: usize,
    shards: usize,
    capacity: usize,
    selective: bool,
    /// Drives deadlines, channel draws, interleaving.
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (1usize..4, 1usize..4, 1usize..5, 1usize..4, (0u64..1_000_000, 0usize..2)).prop_map(
        |(clients, frames_per_client, workers, shards, (seed, sel))| Scenario {
            clients,
            frames_per_client,
            workers,
            shards,
            // Small capacities force slot recycling mid-scenario.
            capacity: 2 + (seed % 3) as usize,
            selective: sel == 1,
            seed,
        },
    )
}

fn base_cfg() -> PhyConfig {
    PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) }
}

fn outcome_key(out: &UplinkOutcome) -> (Vec<bool>, geosphere_core::DetectorStats, u64) {
    (out.client_ok.clone(), out.stats, out.detections)
}

/// Checks one scenario: build the interleaved submission schedule, decode
/// it serially as the reference, stream it, compare per client.
fn check_stream_matches_serial(sc: &Scenario) {
    let cfg = base_cfg();
    let mut rng = StdRng::seed_from_u64(sc.seed);

    // Channel realizations (flat or frequency-selective), shared by Arc.
    let channels: Vec<Arc<MimoChannel>> = (0..3)
        .map(|_| {
            Arc::new(if sc.selective {
                SelectiveRayleighChannel {
                    n_fft: 64,
                    n_subcarriers: cfg.n_subcarriers,
                    ..SelectiveRayleighChannel::indoor(4, 2)
                }
                .realize(&mut rng)
            } else {
                RayleighChannel::new(4, 2).realize(&mut rng)
            })
        })
        .collect();

    // Per-client frame lists with sprinkled deadlines (deadlines shuffle
    // shard-queue order; they must not change any output bit).
    let now = Instant::now();
    let per_client: Vec<Vec<UplinkFrame>> = (0..sc.clients)
        .map(|client| {
            (0..sc.frames_per_client)
                .map(|_| {
                    let mut f = UplinkFrame::new(
                        client,
                        Arc::clone(&channels[rng.gen_range(0..channels.len())]),
                        14.0 + rng.gen_range(0.0..14.0),
                        rng.gen::<u64>(),
                    );
                    if rng.gen_bool(0.5) {
                        f.deadline = Some(now + Duration::from_micros(rng.gen_range(1..50_000u64)));
                    }
                    f
                })
                .collect()
        })
        .collect();

    // Serial reference, per client in submission order, through one
    // recycled workspace (itself proven shape-safe by
    // tests/frame_workspace_reuse.rs).
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let reference: Vec<Vec<_>> = per_client
        .iter()
        .map(|frames| {
            frames
                .iter()
                .map(|f| {
                    let mut frng = StdRng::seed_from_u64(f.seed);
                    outcome_key(decode_frame_batched_into(
                        &cfg, &f.channel, &det, f.snr_db, &mut frng, 1, &mut ws,
                    ))
                })
                .collect()
        })
        .collect();

    // Random interleaving of the per-client queues into one submission
    // sequence.
    let mut schedule: Vec<UplinkFrame> = Vec::new();
    let mut heads: Vec<usize> = vec![0; sc.clients];
    let total = sc.clients * sc.frames_per_client;
    while schedule.len() < total {
        let candidates: Vec<usize> =
            (0..sc.clients).filter(|&c| heads[c] < per_client[c].len()).collect();
        let c = candidates[rng.gen_range(0..candidates.len())];
        schedule.push(per_client[c][heads[c]].clone());
        heads[c] += 1;
    }
    drop(per_client);

    let mut stream_sc = StreamConfig::new(sc.clients);
    stream_sc.workers = sc.workers;
    stream_sc.shards = sc.shards;
    stream_sc.capacity = sc.capacity;
    let stream = FrameStream::new(cfg, det, stream_sc);

    let mut got: Vec<Vec<_>> = vec![Vec::new(); sc.clients];
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for f in &schedule {
                stream.submit(f.clone()).expect("stream died mid-submit");
            }
        });
        for _ in 0..total {
            let done = stream.recv().expect("stream died mid-drain");
            let client = done.client();
            assert_eq!(
                done.seq() as usize,
                got[client].len(),
                "{sc:?}: client {client} frames out of order"
            );
            got[client].push(outcome_key(done.outcome()));
        }
    });

    assert_eq!(got, reference, "{sc:?}: streamed outputs diverge from serial decode");
    let stats = stream.stats();
    assert_eq!(stats.completed, total as u64, "{sc:?}");
    assert_eq!(stats.in_flight, 0, "{sc:?}: all slots released");
}

/// Pinned-tier bit-identity: with the control plane pinned to a single
/// rung, an adaptive stream over the default ladder must be bit-identical
/// to serial decoding with that rung's own detector — the determinism
/// guarantee holds per tier, not just for the sphere default. Also checks
/// the tier stamp on the completion and the outcome.
fn check_pinned_tiers_match_serial() {
    let cfg = base_cfg();
    let snr_db = 18.0;
    let sigma2 = noise_variance_for_snr_db(snr_db);
    let mut rng = StdRng::seed_from_u64(0x71E7);
    let channels: Vec<Arc<MimoChannel>> =
        (0..3).map(|_| Arc::new(RayleighChannel::new(4, 2).realize(&mut rng))).collect();
    let frames: Vec<UplinkFrame> = (0..8)
        .map(|k| {
            UplinkFrame::new(0, Arc::clone(&channels[k % channels.len()]), snr_db, 7_000 + k as u64)
        })
        .collect();

    let mut ws = FrameWorkspace::new();
    for tier in DetectorTier::ALL {
        // Serial reference through the rung's own concrete detector.
        let reference: Vec<_> = frames
            .iter()
            .map(|f| {
                let mut frng = StdRng::seed_from_u64(f.seed);
                match tier {
                    DetectorTier::Sphere => outcome_key(decode_frame_batched_into(
                        &cfg,
                        &f.channel,
                        &geosphere_decoder(),
                        f.snr_db,
                        &mut frng,
                        1,
                        &mut ws,
                    )),
                    DetectorTier::Fsd => outcome_key(decode_frame_batched_into(
                        &cfg,
                        &f.channel,
                        &FsdDetector::new(),
                        f.snr_db,
                        &mut frng,
                        1,
                        &mut ws,
                    )),
                    DetectorTier::Mmse => outcome_key(decode_frame_batched_into(
                        &cfg,
                        &f.channel,
                        &MmseDetector::new(sigma2),
                        f.snr_db,
                        &mut frng,
                        1,
                        &mut ws,
                    )),
                }
            })
            .collect();

        let mut stream_sc = StreamConfig::new(1);
        stream_sc.workers = 2;
        stream_sc.shards = 2;
        stream_sc.capacity = 3;
        let stream = FrameStream::adaptive(
            cfg,
            DetectorLadder::geosphere_default(sigma2),
            PinnedPolicy(tier),
            stream_sc,
        );

        let mut got = Vec::with_capacity(frames.len());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for f in &frames {
                    stream.submit(f.clone()).expect("stream died mid-submit");
                }
            });
            for _ in 0..frames.len() {
                let done = stream.recv().expect("stream died mid-drain");
                assert_eq!(done.seq() as usize, got.len(), "{tier:?}: frames out of order");
                assert_eq!(done.tier(), tier, "{tier:?}: completion mis-stamped");
                got.push(outcome_key(done.outcome()));
            }
        });
        assert_eq!(got, reference, "{tier:?}: pinned stream diverges from serial decode");
        let stats = stream.stats();
        assert_eq!(stats.tier_admissions[tier.index()], frames.len() as u64, "{tier:?}");
        assert_eq!(stats.current_tier, tier);
    }
}

/// Steady-state allocation case: with every slot and worker warmed and the
/// pipeline kept full, a frame costs zero allocations end to end, on every
/// thread.
fn assert_stream_steady_state_allocation_free() {
    let cfg = base_cfg();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let channels: Vec<Arc<MimoChannel>> =
        (0..2).map(|_| Arc::new(RayleighChannel::new(4, 2).realize(&mut rng))).collect();

    let mut stream_sc = StreamConfig::new(2);
    stream_sc.workers = 2;
    stream_sc.shards = 2;
    stream_sc.capacity = 3;
    let stream = FrameStream::new(cfg, geosphere_decoder(), stream_sc);

    // Keeps the pipeline full from a single thread: admit until refused,
    // then consume one and continue. Returns how many frames delivered OK.
    let drive = |first_seed: u64, n: usize| -> usize {
        let mut ok = 0;
        let mut submitted = 0usize;
        let mut received = 0usize;
        while received < n {
            if submitted < n {
                let f = UplinkFrame::new(
                    submitted % 2,
                    Arc::clone(&channels[submitted % 2]),
                    24.0,
                    first_seed + submitted as u64,
                );
                if stream.try_submit(f).is_ok() {
                    submitted += 1;
                    continue;
                }
                // Full: fall through to consume one.
            }
            let done = stream.recv().expect("stream died mid-drain");
            if done.outcome().client_ok.iter().all(|&b| b) {
                ok += 1;
            }
            received += 1;
        }
        ok
    };

    // Warmup: cycle every slot through the frame shape several times so
    // each slot's workspace and detections buffer, each worker's search
    // workspace, and every queue reach their high-water marks.
    drive(1_000, 18);

    // Every refused `try_submit` fires `Trigger::AdmissionRefusal`, and a
    // dump capture is a cold path that allocates. The window's contract
    // excludes capture: one manual capture before it starts the rate
    // limiter's clock and an unbounded gap holds capture off, while the
    // refusal events and trigger counting stay inside the window. (Without
    // the recorder compiled in, nothing captures and this is a no-op.)
    gtrace::clear_dumps();
    gtrace::trigger(gtrace::Trigger::Manual, gtrace::NO_FRAME);
    gtrace::set_min_dump_gap_ms(u64::MAX);
    let dumps = gtrace::dump_count();
    let (delta, ok) = allocations_during_all_threads(|| drive(2_000, 9));
    assert_eq!(gtrace::dump_count(), dumps, "a dump was captured inside the measured window");
    gtrace::set_min_dump_gap_ms(200);
    assert_eq!(
        delta, 0,
        "streaming pipeline allocated {delta} times across 9 warmed frames (pipeline full)"
    );
    assert!(ok > 0, "24 dB 16-QAM should deliver at least one frame");
}

#[test]
fn stream_is_deterministic_and_allocation_free() {
    // Part 1: randomized bit-identity scenarios (proptest Strategy
    // sampling; no shrinking in the offline shim, failures print the
    // scenario).
    let strat = scenario_strategy();
    let mut rng = StdRng::seed_from_u64(20140817);
    for case in 0..6 {
        let sc = strat.sample(&mut rng);
        eprintln!("stream_determinism case {case}: {sc:?}");
        check_stream_matches_serial(&sc);
    }

    // Part 2: pinned-tier bit-identity against each rung's own detector.
    check_pinned_tiers_match_serial();

    // Part 3: the steady-state allocation contract.
    assert_stream_steady_state_allocation_free();
}

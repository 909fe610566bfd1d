//! Allocation regression guard for the detection hot path.
//!
//! The sphere-decoding stack promises **zero heap allocations per symbol
//! after warmup** when driven through a reused
//! [`SearchWorkspace`](geosphere_core::SearchWorkspace): enumerators are
//! reset in place per node visit, per-level state lives in slabs, QR
//! factors and rotation scratch are recomputed into reused storage, and
//! the batched path recycles its output buffers. This test enforces that
//! claim with a counting global allocator: warm the workspace up, snapshot
//! the allocation counter, run many detections, and require the counter
//! not to move.
//!
//! The counter is **thread-scoped**: it only counts while the measuring
//! thread has armed it, so allocations from the libtest harness thread (or
//! any other process housemate) cannot fail the assertion spuriously. The
//! thread-local flag is `const`-initialized, so reading it inside the
//! allocator never recurses through lazy TLS initialization.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

thread_local! {
    /// Armed only on the measuring thread, only around the measured region.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Armed around regions where **every** thread's allocations count — used
/// by the frame-chain case so a helper thread could not hide allocator
/// traffic. Only sound while nothing else in the process allocates
/// concurrently, which holds here: this file has a single `#[test]`, so
/// the only other live thread is the libtest runner (parked in `join`).
static COUNT_ALL_THREADS: AtomicBool = AtomicBool::new(false);

/// Counts allocations (and reallocations) made by threads that have armed
/// the counter.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count_if_armed() {
    if COUNT_ALL_THREADS.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    // `try_with`: TLS may be unavailable during thread teardown; those
    // allocations are by definition outside a measured region.
    let _ = COUNTING.try_with(|armed| {
        if armed.get() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: delegates directly to `System`; the counter update has no other
// side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with this thread's allocation counting armed, returning how
/// many allocations `f` made.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|armed| armed.set(true));
    let result = f();
    COUNTING.with(|armed| armed.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// Runs `f` with **all threads'** allocation counting armed, returning how
/// many allocations the whole process made — the measurement mode for the
/// frame chain.
fn allocations_during_all_threads<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNT_ALL_THREADS.store(true, Ordering::SeqCst);
    let result = f();
    COUNT_ALL_THREADS.store(false, Ordering::SeqCst);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

use geosphere_core::{
    apply_channel, ethsd_decoder, geosphere_decoder, DetectionBatch, DetectionJob, DetectorStats,
    MimoDetector,
};
use gs_channel::{sample_cn, ChannelModel, RayleighChannel, SelectiveRayleighChannel};
use gs_linalg::{qr_decompose, Complex, Matrix, Qr};
use gs_modulation::{Constellation, GridPoint};
use gs_phy::{decode_frame_batched_into, uplink_frame_soft_into, FrameWorkspace, PhyConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_instances(
    seed: u64,
    c: Constellation,
    na: usize,
    nc: usize,
    noise: f64,
    n: usize,
) -> Vec<(Matrix, Vec<Complex>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let h = RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(c.scale());
            let pts = c.points();
            let s: Vec<GridPoint> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
            let mut y = apply_channel(&h, &s);
            for v in y.iter_mut() {
                *v += sample_cn(&mut rng, noise);
            }
            (h, y)
        })
        .collect()
}

/// `detect_with_qr` with a warmed workspace must not touch the allocator,
/// across noise levels and both Geosphere and ETH-SD enumerator families.
fn assert_detect_with_qr_allocation_free() {
    let c = Constellation::Qam64;
    let nc = 4;
    let instances = random_instances(9001, c, 4, nc, 0.05, 24);
    let prepared: Vec<(Qr, Vec<Complex>)> = instances
        .iter()
        .map(|(h, y)| {
            let qr = qr_decompose(h);
            let yhat = qr.rotate(y);
            (qr, yhat)
        })
        .collect();

    let geo = geosphere_decoder();
    let hess = ethsd_decoder();
    let mut geo_ws = geo.make_workspace();
    let mut hess_ws = hess.make_workspace();
    let mut stats = DetectorStats::default();

    // Warmup pass: grows every slab/buffer to this workload's high-water
    // mark (searches are deterministic, so a second pass needs no more).
    for (qr, yhat) in &prepared {
        geo.detect_with_qr(&qr.r, &yhat[..nc], c, &mut geo_ws, &mut stats);
        hess.detect_with_qr(&qr.r, &yhat[..nc], c, &mut hess_ws, &mut stats);
    }

    let (delta, ()) = allocations_during(|| {
        for (qr, yhat) in &prepared {
            geo.detect_with_qr(&qr.r, &yhat[..nc], c, &mut geo_ws, &mut stats);
            hess.detect_with_qr(&qr.r, &yhat[..nc], c, &mut hess_ws, &mut stats);
        }
    });
    assert_eq!(
        delta,
        0,
        "detect_with_qr allocated {delta} times across {} warmed detections",
        2 * prepared.len()
    );
    assert!(stats.visited_nodes > 0, "searches must actually have run");
}

/// The batched frame-decode inner loop (`detect_batch_into` with a kept
/// workspace and recycled output) must not touch the allocator — including
/// its per-channel QR refresh, the lockstep walk of a channel-major batch
/// (a frame's order) as well as the per-job walk of a symbol-major one.
fn assert_detect_batch_into_allocation_free() {
    let c = Constellation::Qam16;
    let mut rng = StdRng::seed_from_u64(9002);
    let n_channels = 3;
    let n_jobs = 30;
    let channels: Vec<Matrix> = (0..n_channels)
        .map(|_| RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale()))
        .collect();
    let pts = c.points();
    let jobs: Vec<DetectionJob> = (0..n_jobs)
        .map(|j| {
            let channel = j % n_channels;
            let s: Vec<GridPoint> = (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
            let mut y = apply_channel(&channels[channel], &s);
            for v in y.iter_mut() {
                *v += sample_cn(&mut rng, 0.05);
            }
            DetectionJob { channel, y }
        })
        .collect();
    let mut channel_major = jobs.clone();
    channel_major.sort_by_key(|job| job.channel);
    for jobs in [&channel_major, &jobs] {
        assert_batch_allocation_free(&DetectionBatch { channels: &channels, jobs, c });
    }
}

/// [`assert_detect_batch_into_allocation_free`] on one batch order.
fn assert_batch_allocation_free(batch: &DetectionBatch) {
    let n_jobs = batch.jobs.len();
    let det = geosphere_decoder();
    let reference = det.detect_batch(batch);

    let mut ws = det.make_workspace();
    let mut out = Vec::new();
    // Two warmup rounds: the first grows the search/QR buffers, the
    // second warms the recycling pool (spare buffers only exist after a
    // previous round's outputs are reclaimed).
    for _ in 0..2 {
        det.detect_batch_into(batch, &mut ws, &mut out);
    }

    let (delta, ()) = allocations_during(|| det.detect_batch_into(batch, &mut ws, &mut out));
    assert_eq!(
        delta, 0,
        "batched frame-decode inner loop allocated {delta} times across {n_jobs} warmed jobs"
    );

    // The allocation-free path must still produce the reference output.
    assert_eq!(out.len(), reference.len());
    for (a, b) in out.iter().zip(&reference) {
        assert_eq!(a.symbols, b.symbols);
        assert_eq!(a.stats, b.stats);
    }
}

/// The whole hard-decision frame chain — payload drawing, transmit
/// encoding, channel application + noise, batched sphere detection, and
/// the per-client
/// deinterleave/depuncture/Viterbi/CRC receive chain — must not touch the
/// allocator per frame once a [`FrameWorkspace`] has warmed up.
///
/// Counting is process-wide, not just the calling thread's.
fn assert_hard_frame_chain_allocation_free() {
    let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
    // A frequency-selective channel so the plan carries one matrix per
    // subcarrier: exercises per-channel QR refresh, the channel-major
    // plan's lockstep runs, and multi-entry QR slabs.
    let model = SelectiveRayleighChannel {
        n_fft: 64,
        n_subcarriers: cfg.n_subcarriers,
        ..SelectiveRayleighChannel::indoor(4, 4)
    };
    let ch = model.realize(&mut StdRng::seed_from_u64(9100));
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let mut rng = StdRng::seed_from_u64(9101);

    // Two warmup frames: the first grows every plan/search/receive buffer,
    // the second warms the detection-output recycling pools (spare buffers
    // only exist after a previous frame's outputs are reclaimed). Buffer
    // high-water marks depend only on the frame shape, not on the noise, so
    // a third frame needs nothing new.
    for _ in 0..2 {
        decode_frame_batched_into(&cfg, &ch, &det, 22.0, &mut rng, 1, &mut ws);
    }

    // With the `profile` feature on, the per-thread counter tables are
    // registered during warmup (first scope entry on each thread), so the
    // measured frame below also pins that the instrumentation itself
    // allocates nothing in steady state.
    #[cfg(feature = "profile")]
    let profile_before = gs_prof::snapshot();
    let (delta, detections) = allocations_during_all_threads(|| {
        decode_frame_batched_into(&cfg, &ch, &det, 22.0, &mut rng, 1, &mut ws).detections
    });
    assert_eq!(delta, 0, "hard frame chain allocated {delta} times for one warmed frame");
    #[cfg(feature = "profile")]
    {
        assert!(gs_prof::enabled());
        let moved = gs_prof::snapshot().delta(&profile_before);
        assert!(
            moved.total_cycles() > 0,
            "profiling is compiled in but the measured frame recorded nothing"
        );
    }
    assert!(detections > 0, "the frame must actually have been detected");
    assert!(
        ws.outcome().client_ok.iter().any(|&ok| ok),
        "22 dB 16-QAM should deliver at least one frame"
    );
}

/// The soft frame chain — soft-output Geosphere per resource element, LLR
/// accumulation, and the soft Viterbi receive chain — under the same
/// zero-allocation contract.
fn assert_soft_frame_chain_allocation_free() {
    let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qpsk) };
    let model = RayleighChannel::new(2, 2);
    let ch = model.realize(&mut StdRng::seed_from_u64(9200));
    let mut ws = FrameWorkspace::new();
    let mut rng = StdRng::seed_from_u64(9201);

    for _ in 0..2 {
        uplink_frame_soft_into(&cfg, &ch, 18.0, &mut rng, &mut ws);
    }

    let (delta, ()) = allocations_during(|| {
        uplink_frame_soft_into(&cfg, &ch, 18.0, &mut rng, &mut ws);
    });
    assert_eq!(delta, 0, "soft frame chain allocated {delta} times for one warmed frame");
    assert!(ws.outcome().stats.visited_nodes > 0, "soft searches must actually have run");
}

/// Telemetry recording — the [`gs_prof::hist::LogHistogram`] surface the
/// streaming runtime records submit→delivery latency, shard queue wait,
/// and deadline slack into on every frame — must not touch the allocator
/// after construction (the bucket array is the type's one allocation).
/// Snapshots may allocate; they are scrape-time calls and stay outside
/// the armed region.
fn assert_histogram_recording_allocation_free() {
    use gs_prof::hist::LogHistogram;
    let hist = LogHistogram::new();
    let (delta, ()) = allocations_during(|| {
        // Values spanning the whole bucket range, including both linear
        // small-value buckets and high octaves.
        for v in 0..10_000u64 {
            hist.record(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        hist.record_duration(std::time::Duration::from_micros(123));
        hist.record_duration(std::time::Duration::from_secs(3600));
    });
    assert_eq!(delta, 0, "histogram recording allocated {delta} times across 10002 records");
    assert_eq!(hist.count(), 10_002);
}

/// Flight-recorder emission — the per-thread event ring behind the
/// runtime's submit/admit/enqueue/pop/deliver instants and the stage
/// spans — must not touch the allocator once the thread's ring is
/// registered (registration is the one warmup allocation). Anomaly dump
/// capture allocates, but that is a rate-limited cold path and stays
/// outside the armed region. The loop wraps the ring several times, so
/// steady-state wraparound is measured, not just the first lap. Without
/// `--features trace` the same calls erase to stubs and trivially pass.
fn assert_trace_recording_allocation_free() {
    use gs_prof::trace as gtrace;
    use gs_prof::Stage;

    // Warmup: registers this thread's ring and touches the context slot.
    gtrace::set_context(gtrace::FrameCtx { frame: 1, client: 0, shard: 0, tier: 2 });
    gtrace::emit(gtrace::TracePoint::Submit);
    drop(gs_prof::scope(Stage::Detect));
    gtrace::clear_context();

    let rounds = (gtrace::RING_CAP * 3) as u64;
    let (delta, ()) = allocations_during(|| {
        for k in 0..rounds {
            gtrace::set_context(gtrace::FrameCtx {
                frame: k,
                client: (k % 4) as u32,
                shard: (k % 8) as u16,
                tier: 0,
            });
            gtrace::emit(gtrace::TracePoint::Submit);
            gtrace::emit_for(
                gtrace::TracePoint::Deliver,
                gtrace::EventKind::Instant,
                gtrace::context(),
            );
            drop(gs_prof::scope(Stage::Plan));
            gtrace::clear_context();
        }
    });
    assert_eq!(
        delta, 0,
        "flight-recorder emission allocated {delta} times across {rounds} warmed frames"
    );
    #[cfg(feature = "trace")]
    {
        assert!(gtrace::recording_enabled());
        assert!(
            !gtrace::snapshot_events().is_empty(),
            "recording is compiled in but the measured loop recorded nothing"
        );
    }
}

#[test]
fn detection_hot_path_is_allocation_free_after_warmup() {
    assert_detect_with_qr_allocation_free();
    assert_detect_batch_into_allocation_free();
    // Frame chain (tentpole of the FrameWorkspace refactor): hard path,
    // soft path.
    assert_hard_frame_chain_allocation_free();
    assert_soft_frame_chain_allocation_free();
    // Telemetry tier: histogram recording shares the hot path's contract.
    assert_histogram_recording_allocation_free();
    // Flight recorder: event emission shares it too.
    assert_trace_recording_allocation_free();
}

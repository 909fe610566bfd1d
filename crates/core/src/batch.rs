//! Batched MIMO detection — the workspace's scaling layer.
//!
//! An OFDM frame is an embarrassingly parallel batch of per-subcarrier
//! sphere searches (paper §4: one independent detection per OFDM symbol ×
//! subcarrier), and those searches share a tiny set of distinct channel
//! matrices — one per subcarrier, reused across every OFDM symbol of the
//! frame. This module exploits both properties:
//!
//! * [`DetectionBatch`] describes a batch as a shared channel table plus
//!   jobs that reference channels by index, so per-channel preprocessing
//!   (QR factorization) is computed once per *channel*, not once per
//!   *detection* — [`SphereDecoder`](crate::SphereDecoder) overrides
//!   [`MimoDetector::detect_batch_with`] to do exactly that.
//! * [`ChannelOrder`] is the channel-grouped dispatch order every
//!   multi-worker path splits a batch by, so each worker's contiguous
//!   range spans whole channel groups and re-factorizes each channel at
//!   most once.
//! * [`DetectionPool`] runs one batch at a time across a persistent
//!   [`ShardedDetectionPool`]. Results are bit-identical to detecting each
//!   job serially, for any worker count: detection consumes no shared
//!   mutable state, QR factorization is deterministic, and results are
//!   scattered back by job index.
//!
//! Workspace ownership: each pool worker owns one
//! [`DetectorWorkspace`] for its whole life, so per-node enumerators,
//! per-level search state, and per-channel QR factors are reused across
//! every job and frame the worker processes — zero heap allocations per
//! symbol after warmup.

use crate::detector::{Detection, DetectorWorkspace, MimoDetector};
use crate::shard::{ShardedDetectionPool, ShardedJob, NO_DEADLINE};
use gs_linalg::{Complex, Matrix};
use gs_modulation::Constellation;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// One detection problem inside a batch: an index into the batch's shared
/// channel table plus the received vector.
#[derive(Clone, Debug)]
pub struct DetectionJob {
    /// Index into [`DetectionBatch::channels`].
    pub channel: usize,
    /// Received vector (one entry per AP antenna).
    pub y: Vec<Complex>,
}

/// A batch of detection problems sharing a table of grid-domain channels.
///
/// The channel table is the unit of preprocessing reuse: every job whose
/// `channel` index matches shares one QR factorization in detectors that
/// support it.
#[derive(Clone, Copy, Debug)]
pub struct DetectionBatch<'a> {
    /// Distinct grid-domain channel matrices (constellation scale folded
    /// in), typically one per OFDM subcarrier.
    pub channels: &'a [Matrix],
    /// The detection problems, each referencing a channel by index.
    pub jobs: &'a [DetectionJob],
    /// The constellation every stream uses.
    pub c: Constellation,
}

impl DetectionBatch<'_> {
    /// Detects every job serially through plain [`MimoDetector::detect`],
    /// with no preprocessing reuse — the reference the batched paths are
    /// checked against.
    pub fn detect_serial<D: MimoDetector + ?Sized>(&self, detector: &D) -> Vec<Detection> {
        self.jobs
            .iter()
            .map(|job| detector.detect(&self.channels[job.channel], &job.y, self.c))
            .collect()
    }
}

/// The channel-grouped dispatch order of a batch: job indices sorted by
/// channel, submission order kept within each channel — the permutation a
/// stable sort by `(channel, index)` gives. An OFDM frame's jobs arrive
/// symbol-major (the channel cycles every subcarrier), so splitting the
/// raw job order across workers would make every worker touch, and
/// re-factorize, every channel.
///
/// Computed by a counting sort, O(jobs + channels), into buffers kept
/// across calls: allocation-free once warm.
#[derive(Clone, Debug, Default)]
pub struct ChannelOrder {
    order: Vec<usize>,
    /// Counting-sort scratch: per-channel group starts, advanced to the
    /// group ends by the scatter.
    ends: Vec<usize>,
}

impl ChannelOrder {
    /// Recomputes the order over `jobs` and returns it.
    pub fn group(&mut self, jobs: &[DetectionJob]) -> &[usize] {
        let n_channels = jobs.iter().map(|job| job.channel + 1).max().unwrap_or(0);
        // Counts land at `channel + 1`; the prefix sum turns them into
        // group starts.
        self.ends.clear();
        self.ends.resize(n_channels + 1, 0);
        for job in jobs {
            self.ends[job.channel + 1] += 1;
        }
        for ch in 0..n_channels {
            self.ends[ch + 1] += self.ends[ch];
        }
        self.order.clear();
        self.order.resize(jobs.len(), 0);
        for (i, job) in jobs.iter().enumerate() {
            let at = &mut self.ends[job.channel];
            self.order[*at] = i;
            *at += 1;
        }
        &self.order
    }

    /// The order computed by the last [`ChannelOrder::group`].
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }
}

/// A frame-synchronous detection pool: threads are spawned once and reused
/// across frames.
///
/// This is the multi-worker engine of the allocation-free frame pipeline
/// (`gs-phy`'s `FrameWorkspace`): per frame, the caller *lends* its channel
/// table and job buffers to the pool ([`DetectionPool::run`] swaps them in
/// and back out — no copies), workers detect their ranges of the
/// [`ChannelOrder`] through [`MimoDetector::detect_batch_indexed_with`]
/// into per-range output slots whose buffers they recycle frame over
/// frame, and the caller reads the results in place via
/// [`DetectionPool::for_each_result`]. After one warmup frame of a given
/// shape, a frame costs **zero heap allocations** on every thread involved
/// (enforced by `tests/alloc_regression.rs`).
///
/// The threads are a [`ShardedDetectionPool`] with one shard per worker:
/// range `r` always goes to shard `r`, whose only worker is always the
/// same thread. That fixed mapping is what keeps every worker's search
/// workspace and output slot warm — with one shared queue, a worker that
/// happened to pop nothing during warmup would allocate on a later frame.
///
/// The detector is installed per frame as an `Arc` clone (a refcount bump,
/// not an allocation), so one pool can serve different detectors over its
/// lifetime.
pub struct DetectionPool {
    pool: ShardedDetectionPool,
    frame: Arc<PoolFrame>,
}

/// What the coordinator shares with the workers, reused frame over frame.
struct PoolFrame {
    data: RwLock<FrameData>,
    /// Per-range result slots: range `r`'s worker writes only slot `r`;
    /// the coordinator reads them between frames.
    slots: Vec<Mutex<Vec<Detection>>>,
    latch: Mutex<Latch>,
    done: Condvar,
}

/// Countdown of the frame's unfinished ranges.
#[derive(Default)]
struct Latch {
    remaining: usize,
    /// Set when a worker unwound mid-frame and never cleared: the worker
    /// is gone, so [`DetectionPool::run`] panics now and refuses every
    /// later frame instead of hanging on it.
    panicked: bool,
}

struct FrameData {
    detector: Option<Arc<dyn MimoDetector>>,
    channels: Vec<Matrix>,
    jobs: Vec<DetectionJob>,
    n_jobs: usize,
    c: Constellation,
    order: ChannelOrder,
    /// Per-range `[lo, hi)` index ranges into `order`.
    ranges: Vec<(usize, usize)>,
}

/// Poison-tolerant mutex lock: a panicked worker must not cascade — the
/// latch's `panicked` flag carries the failure instead.
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Counts a range down even if its detection panicked, so
/// [`DetectionPool::run`] can never hang waiting on a dead worker.
struct RangeDone<'a>(&'a PoolFrame);

impl Drop for RangeDone<'_> {
    fn drop(&mut self) {
        let mut latch = lock_ignoring_poison(&self.0.latch);
        latch.panicked |= std::thread::panicking();
        latch.remaining -= 1;
        if latch.remaining == 0 {
            self.0.done.notify_all();
        }
    }
}

impl ShardedJob for PoolFrame {
    fn run_shard(&self, shard: usize, _token: usize, ws: &mut DetectorWorkspace) {
        // Declared first so it drops last, after the data read lock.
        let _done = RangeDone(self);
        let data = self.data.read().unwrap_or_else(PoisonError::into_inner);
        let (lo, hi) = data.ranges[shard];
        if lo < hi {
            let detector = data.detector.as_deref().expect("detector installed for the frame");
            let batch = DetectionBatch {
                channels: &data.channels,
                jobs: &data.jobs[..data.n_jobs],
                c: data.c,
            };
            let mut out = lock_ignoring_poison(&self.slots[shard]);
            detector.detect_batch_indexed_with(
                &batch,
                &data.order.as_slice()[lo..hi],
                ws,
                &mut out,
            );
        }
    }
}

impl DetectionPool {
    /// Spawns a pool of `workers` threads (`0` = the machine's available
    /// parallelism, resolved here, once), pinned unless `GS_NO_PIN` is
    /// set (see [`crate::affinity`] — the workers are long-lived, so
    /// stable placement keeps each worker's search workspace in one
    /// core's cache).
    ///
    /// The count is **not** clamped to the machine's parallelism: a
    /// long-lived receiver sizes its pool once, and correctness (and the
    /// zero-allocation contract) hold at any count — oversubscription
    /// only costs wall-clock.
    pub fn new(workers: usize) -> Self {
        Self::new_with_pinning(workers, !crate::affinity::pinning_disabled_by_env())
    }

    /// [`DetectionPool::new`] with explicit control over worker pinning
    /// (the env-independent form, used by tests and by embedders that
    /// manage placement themselves). Placement follows
    /// [`ShardedDetectionPool::new_with_pinning`], best-effort.
    pub fn new_with_pinning(workers: usize, pin: bool) -> Self {
        let n_workers = if workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            workers
        };
        // Capacity 1: a shard's queue holds at most the current frame's
        // range, which its worker pops before `run` returns.
        let pool = ShardedDetectionPool::new_with_pinning(n_workers, n_workers, 1, pin);
        let frame = Arc::new(PoolFrame {
            data: RwLock::new(FrameData {
                detector: None,
                channels: Vec::new(),
                jobs: Vec::new(),
                n_jobs: 0,
                c: Constellation::Qpsk,
                order: ChannelOrder::default(),
                ranges: Vec::new(),
            }),
            slots: (0..n_workers).map(|_| Mutex::new(Vec::new())).collect(),
            latch: Mutex::new(Latch::default()),
            done: Condvar::new(),
        });
        DetectionPool { pool, frame }
    }

    /// The pool's thread count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Detects `jobs[..n_jobs]` against `channels` across the pool,
    /// blocking until every worker finishes.
    ///
    /// `channels` and `jobs` are lent to the pool for the duration of the
    /// call (swapped in and back out; their contents are untouched). Read
    /// the detections with [`DetectionPool::for_each_result`] — they stay
    /// in the per-range slots so the buffers can be recycled next frame.
    ///
    /// # Panics
    /// Panics when a worker panics during detection, and on every call
    /// after that: the pool is dead.
    pub fn run(
        &mut self,
        detector: &Arc<dyn MimoDetector>,
        channels: &mut Vec<Matrix>,
        jobs: &mut Vec<DetectionJob>,
        n_jobs: usize,
        c: Constellation,
    ) {
        assert!(n_jobs <= jobs.len(), "n_jobs exceeds the job buffer");
        let n_workers = self.workers();
        {
            let mut latch = lock_ignoring_poison(&self.frame.latch);
            assert!(!latch.panicked, "DetectionPool is dead: a worker panicked earlier");
            latch.remaining = n_workers;
        }
        {
            let mut guard = self.frame.data.write().unwrap_or_else(PoisonError::into_inner);
            let data = &mut *guard;
            data.detector = Some(Arc::clone(detector));
            std::mem::swap(&mut data.channels, channels);
            std::mem::swap(&mut data.jobs, jobs);
            data.n_jobs = n_jobs;
            data.c = c;
            data.order.group(&data.jobs[..n_jobs]);
            let chunk = n_jobs.div_ceil(n_workers).max(1);
            data.ranges.clear();
            data.ranges.extend(
                (0..n_workers).map(|w| ((w * chunk).min(n_jobs), ((w + 1) * chunk).min(n_jobs))),
            );
        }
        let job: Arc<dyn ShardedJob> = self.frame.clone();
        for r in 0..n_workers {
            if self.pool.submit(r, NO_DEADLINE, 0, &job).is_err() {
                // An earlier range of this frame already killed its worker;
                // the unsubmitted ranges will never run.
                let mut latch = lock_ignoring_poison(&self.frame.latch);
                latch.remaining -= n_workers - r;
                latch.panicked = true;
                break;
            }
        }
        let panicked = {
            let mut latch = lock_ignoring_poison(&self.frame.latch);
            while latch.remaining > 0 {
                latch = self.frame.done.wait(latch).unwrap_or_else(PoisonError::into_inner);
            }
            latch.panicked
        };
        {
            let mut guard = self.frame.data.write().unwrap_or_else(PoisonError::into_inner);
            let data = &mut *guard;
            std::mem::swap(&mut data.channels, channels);
            std::mem::swap(&mut data.jobs, jobs);
            // Release the per-frame detector clone (refcount drop only).
            data.detector = None;
        }
        // Propagate a worker's panic instead of returning a frame with
        // silently missing detections.
        assert!(!panicked, "DetectionPool worker panicked during detection");
    }

    /// Visits every detection of the last [`DetectionPool::run`] as
    /// `(job_index, &Detection)`, in per-range dispatch order. Job indices
    /// cover `0..n_jobs` exactly once; callers scatter by index.
    pub fn for_each_result(&self, mut f: impl FnMut(usize, &Detection)) {
        let data = self.frame.data.read().unwrap_or_else(PoisonError::into_inner);
        for (r, slot) in self.frame.slots.iter().enumerate() {
            let out = lock_ignoring_poison(slot);
            let (lo, hi) = data.ranges[r];
            debug_assert!(out.len() >= hi - lo, "range {r} under-filled its slot");
            for (&job_idx, det) in data.order.as_slice()[lo..hi].iter().zip(out.iter()) {
                f(job_idx, det);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::apply_channel;
    use crate::{
        ethsd_decoder, geosphere_decoder, geosphere_zigzag_only_decoder, MmseDetector,
        MmseSicDetector, ZfDetector,
    };
    use gs_channel::{sample_cn, RayleighChannel};
    use gs_modulation::GridPoint;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_batch(
        seed: u64,
        c: Constellation,
        na: usize,
        nc: usize,
        n_channels: usize,
        n_jobs: usize,
        noise: f64,
    ) -> (Vec<Matrix>, Vec<DetectionJob>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let channels: Vec<Matrix> = (0..n_channels)
            .map(|_| RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(c.scale()))
            .collect();
        let pts = c.points();
        let jobs: Vec<DetectionJob> = (0..n_jobs)
            .map(|j| {
                let channel = j % n_channels;
                let s: Vec<GridPoint> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
                let mut y = apply_channel(&channels[channel], &s);
                for v in y.iter_mut() {
                    *v += sample_cn(&mut rng, noise);
                }
                DetectionJob { channel, y }
            })
            .collect();
        (channels, jobs)
    }

    /// Runs `jobs[..n_jobs]` through `pool` and returns the detections in
    /// job order, checking that every job index is visited exactly once.
    fn pool_detect(
        pool: &mut DetectionPool,
        det: &Arc<dyn MimoDetector>,
        channels: &mut Vec<Matrix>,
        jobs: &mut Vec<DetectionJob>,
        n_jobs: usize,
        c: Constellation,
    ) -> Vec<Detection> {
        pool.run(det, channels, jobs, n_jobs, c);
        let mut out: Vec<Option<Detection>> = vec![None; n_jobs];
        pool.for_each_result(|idx, d| {
            assert!(out[idx].is_none(), "job {idx} visited twice");
            out[idx] = Some(d.clone());
        });
        out.into_iter().map(|d| d.expect("every job covered")).collect()
    }

    #[test]
    fn batched_matches_serial_reference_all_detectors() {
        let c = Constellation::Qam16;
        let (mut channels, mut jobs) = random_batch(301, c, 4, 4, 6, 48, 0.05);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let detectors: Vec<Arc<dyn MimoDetector>> = vec![
            Arc::new(geosphere_decoder()),
            Arc::new(ethsd_decoder()),
            Arc::new(geosphere_decoder().with_sorted_qr()),
            Arc::new(ZfDetector),
            Arc::new(MmseSicDetector::new(0.05)),
            // The rest of what the experiments build (`DetectorKind::build`).
            Arc::new(MmseDetector::new(0.05)),
            Arc::new(geosphere_zigzag_only_decoder().with_node_budget(50_000)),
            Arc::new(geosphere_decoder().with_node_budget(50_000)),
            Arc::new(ethsd_decoder().with_node_budget(50_000)),
        ];
        let references: Vec<Vec<Detection>> =
            detectors.iter().map(|det| batch.detect_serial(det.as_ref())).collect();
        for (det, reference) in detectors.iter().zip(&references) {
            let amortized =
                det.detect_batch(&DetectionBatch { channels: &channels, jobs: &jobs, c });
            for (k, (a, r)) in amortized.iter().zip(reference).enumerate() {
                assert_eq!(a.symbols, r.symbols, "{} amortized job {k}", det.name());
                assert_eq!(a.stats, r.stats, "{} amortized job {k}", det.name());
            }
            for workers in [1, 2, 4, 7] {
                let mut pool = DetectionPool::new_with_pinning(workers, false);
                let n = jobs.len();
                let parallel = pool_detect(&mut pool, det, &mut channels, &mut jobs, n, c);
                assert_eq!(parallel.len(), reference.len());
                for (k, (p, r)) in parallel.iter().zip(reference).enumerate() {
                    assert_eq!(p.symbols, r.symbols, "{} job {k} workers {workers}", det.name());
                    assert_eq!(p.stats, r.stats, "{} job {k} workers {workers}", det.name());
                }
            }
        }
    }

    #[test]
    fn channel_order_is_the_stable_grouping() {
        let c = Constellation::Qpsk;
        // Symbol-major jobs over 5 channels, plus a grouped and an empty
        // batch: the counting sort must equal a stable sort by channel.
        let (_, jobs) = random_batch(307, c, 2, 2, 5, 23, 0.01);
        let (_, grouped) = random_batch(308, c, 2, 2, 1, 7, 0.01);
        let mut order = ChannelOrder::default();
        for jobs in [&jobs[..], &grouped[..], &[], &jobs[3..11]] {
            let mut expect: Vec<usize> = (0..jobs.len()).collect();
            expect.sort_by_key(|&i| jobs[i].channel);
            assert_eq!(order.group(jobs), &expect[..]);
            assert_eq!(order.as_slice(), &expect[..]);
        }
    }

    #[test]
    fn zero_workers_selects_parallelism() {
        let pool = DetectionPool::new_with_pinning(0, false);
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(pool.workers(), hw);
    }

    #[test]
    fn empty_batch_is_empty() {
        let arc: Arc<dyn MimoDetector> = Arc::new(geosphere_decoder());
        let mut pool = DetectionPool::new_with_pinning(4, false);
        let out =
            pool_detect(&mut pool, &arc, &mut Vec::new(), &mut Vec::new(), 0, Constellation::Qpsk);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        let c = Constellation::Qpsk;
        let (mut channels, mut jobs) = random_batch(302, c, 2, 2, 1, 3, 0.01);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let det = geosphere_decoder();
        let reference = batch.detect_serial(&det);
        let arc: Arc<dyn MimoDetector> = Arc::new(det);
        let mut pool = DetectionPool::new_with_pinning(16, false);
        let out = pool_detect(&mut pool, &arc, &mut channels, &mut jobs, 3, c);
        assert_eq!(out.len(), 3);
        for (p, r) in out.iter().zip(&reference) {
            assert_eq!(p.symbols, r.symbols);
        }
    }

    #[test]
    fn pool_matches_serial_reference_across_frames() {
        let c = Constellation::Qam16;
        let (channels, jobs) = random_batch(303, c, 4, 4, 6, 48, 0.05);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let det = geosphere_decoder();
        let reference = batch.detect_serial(&det);
        let arc: Arc<dyn MimoDetector> = Arc::new(det);
        for workers in [1usize, 3, 5] {
            let mut pool = DetectionPool::new(workers);
            assert_eq!(pool.workers(), workers);
            let mut ch = channels.clone();
            let mut jb = jobs.clone();
            // Reuse the same pool for several frames, including a short one
            // (n_jobs < jobs.len()) to exercise shrinking dispatch.
            for n in [jb.len(), jb.len() / 2, jb.len()] {
                pool.run(&arc, &mut ch, &mut jb, n, c);
                assert_eq!(ch.len(), channels.len(), "buffers returned");
                assert_eq!(jb.len(), jobs.len(), "buffers returned");
                let mut seen = vec![false; n];
                pool.for_each_result(|idx, det| {
                    assert!(!seen[idx], "job {idx} visited twice");
                    seen[idx] = true;
                    assert_eq!(det.symbols, reference[idx].symbols, "workers {workers} job {idx}");
                    assert_eq!(det.stats, reference[idx].stats, "workers {workers} job {idx}");
                });
                assert!(seen.iter().all(|&s| s), "workers {workers}: every job covered");
            }
        }
    }

    #[test]
    fn pool_propagates_worker_panic_instead_of_hanging() {
        /// A detector whose batch path always panics.
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct PanickyDetector;
        impl MimoDetector for PanickyDetector {
            fn detect(&self, _: &Matrix, _: &[Complex], _: Constellation) -> Detection {
                panic!("intentional test panic");
            }
            fn name(&self) -> &'static str {
                "panicky"
            }
        }

        let c = Constellation::Qpsk;
        let (channels, jobs) = random_batch(305, c, 2, 2, 1, 6, 0.01);
        let mut pool = DetectionPool::new(2);
        let arc: Arc<dyn MimoDetector> = Arc::new(PanickyDetector);
        let mut ch = channels;
        let mut jb = jobs;
        let n = jb.len();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&arc, &mut ch, &mut jb, n, c);
        }));
        assert!(run.is_err(), "a worker panic must surface as a coordinator panic, not a hang");
        // The pool is dead; further use must fail fast, and dropping it
        // (joining the surviving workers) must not hang either.
        let reuse = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&arc, &mut ch, &mut jb, n, c);
        }));
        assert!(reuse.is_err(), "a dead pool must refuse further frames");
        drop(pool);
    }

    #[test]
    fn pool_detects_identically_pinned_and_unpinned() {
        // Affinity is a placement hint; detection results must not depend
        // on it (and pinning must not wedge the pool on any machine size).
        let c = Constellation::Qam16;
        let (channels, jobs) = random_batch(306, c, 4, 4, 4, 24, 0.05);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let det = geosphere_decoder();
        let reference = batch.detect_serial(&det);
        let arc: Arc<dyn MimoDetector> = Arc::new(det);
        for pin in [true, false] {
            let mut pool = DetectionPool::new_with_pinning(3, pin);
            let mut ch = channels.clone();
            let mut jb = jobs.clone();
            let n = jb.len();
            pool.run(&arc, &mut ch, &mut jb, n, c);
            pool.for_each_result(|idx, d| {
                assert_eq!(d.symbols, reference[idx].symbols, "pin {pin} job {idx}");
                assert_eq!(d.stats, reference[idx].stats, "pin {pin} job {idx}");
            });
        }
    }

    #[test]
    fn pool_serves_changing_detectors() {
        let c = Constellation::Qpsk;
        let (channels, jobs) = random_batch(304, c, 2, 2, 2, 12, 0.02);
        let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
        let mut pool = DetectionPool::new(2);
        let mut ch = channels.clone();
        let mut jb = jobs.clone();
        let detectors: Vec<Arc<dyn MimoDetector>> =
            vec![Arc::new(geosphere_decoder()), Arc::new(ZfDetector), Arc::new(ethsd_decoder())];
        for arc in &detectors {
            let reference = batch.detect_serial(arc.as_ref());
            let n = jb.len();
            pool.run(arc, &mut ch, &mut jb, n, c);
            pool.for_each_result(|idx, det| {
                assert_eq!(det.symbols, reference[idx].symbols, "{}", arc.name());
            });
        }
    }

    #[test]
    fn detectors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::GeosphereDecoder>();
        assert_send_sync::<crate::EthSdDecoder>();
        assert_send_sync::<ZfDetector>();
        assert_send_sync::<MmseSicDetector>();
        assert_send_sync::<Box<dyn MimoDetector>>();
    }
}

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
//! * [`ChannelOrder`] is the channel-grouped dispatch order a
//!   multi-worker frame is split by, so each worker's contiguous range
//!   spans whole channel groups and re-factorizes each channel at most
//!   once.
//! * [`FramePortions`] is the one frame-dispatch core: it cuts a frame's
//!   order into per-shard ranges (the one splitter), detects each range
//!   against its shard's channel replica, counts the portions down, and
//!   owns the one panic rule (a portion that unwinds marks its frame,
//!   which then never completes). [`DetectionPool`] and `gs-runtime`'s
//!   `FrameStream` both dispatch through it.
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
use crate::shard::{lock_ignoring_poison, ShardedDetectionPool, ShardedJob, NO_DEADLINE};
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
}

/// One frame's channel-grouped job order cut into per-shard portions: the
/// frame-dispatch core of [`DetectionPool`] and `gs-runtime`'s
/// `FrameStream`. [`FramePortions::split`] cuts the frame and arms the
/// countdown, [`FramePortions::submit`] hands the portions to the pool,
/// each shard's worker runs [`FramePortions::detect`], and the frame's
/// completer reads the results with [`FramePortions::for_each_result`].
/// All buffers are recycled frame over frame.
///
/// **One panic rule.** A portion that unwinds, or that the pool refused,
/// still counts down and marks the frame as panicked. A panicked frame
/// never completes: no `detect` call reports it, and
/// [`FramePortions::wait`] returns `false`. The mark is sticky
/// ([`FramePortions::panicked`]): the pool marks itself poisoned only
/// after the panicking job has unwound, so its own flag can still read
/// clean when the next frame starts.
pub struct FramePortions {
    order: ChannelOrder,
    /// Per-shard `[lo, hi)` ranges into `order`.
    ranges: Vec<(usize, usize)>,
    shards: Vec<Mutex<ShardPortion>>,
    countdown: Mutex<Countdown>,
    /// Signalled whenever the countdown reaches zero.
    settled: Condvar,
}

/// One shard's recycled buffers.
#[derive(Default)]
struct ShardPortion {
    /// Detections of the shard's range, in range order.
    out: Vec<Detection>,
    /// The shard's channel-table replica, refreshed by the shard's own
    /// worker so first-touch places it in the shard's memory domain.
    replica: Vec<Matrix>,
}

#[derive(Default)]
struct Countdown {
    /// Portions of the current frame not yet counted down.
    remaining: usize,
    /// The sticky panic mark.
    panicked: bool,
}

/// Counts a portion down as panicked when its detection unwinds.
struct UnwindGuard<'a>(&'a FramePortions);

impl Drop for UnwindGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.count_down(true);
        }
    }
}

impl FramePortions {
    /// A core for a pool of `shards` shards (≥ 1).
    pub fn new(shards: usize) -> Self {
        FramePortions {
            order: ChannelOrder::default(),
            ranges: vec![(0, 0); shards],
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            countdown: Mutex::default(),
            settled: Condvar::new(),
        }
    }

    /// Starts a frame over `jobs`: groups them by channel, cuts the order
    /// into per-shard ranges of `⌈jobs / shards⌉` (the last ones shorter
    /// or empty) and arms the countdown. A range is a contiguous slice of
    /// the channel-grouped order, so its shard re-factorizes each of its
    /// channels at most once per frame.
    pub fn split(&mut self, jobs: &[DetectionJob]) {
        let n = self.order.group(jobs).len();
        let chunk = n.div_ceil(self.shards.len()).max(1);
        for (s, range) in self.ranges.iter_mut().enumerate() {
            *range = ((s * chunk).min(n), ((s + 1) * chunk).min(n));
        }
        self.countdown.get_mut().unwrap_or_else(PoisonError::into_inner).remaining =
            self.shards.len();
    }

    /// Submits every shard's portion but `home`'s (the caller detects
    /// that one inline) to `pool` as `job`, with EDF key `key` and `token`.
    /// A portion the poisoned pool refuses will never run, so it counts
    /// down as panicked.
    pub fn submit(
        &self,
        pool: &ShardedDetectionPool,
        home: Option<usize>,
        key: u64,
        token: usize,
        job: &Arc<dyn ShardedJob>,
    ) {
        for s in (0..self.shards.len()).filter(|&s| Some(s) != home) {
            if pool.submit(s, key, token, job).is_err() {
                self.count_down(true);
            }
        }
    }

    /// Detects shard `shard`'s range through `detect` (called with the
    /// batch, the range's job indices and the shard's output buffer), then
    /// counts the portion down. Returns `true` to exactly one caller per
    /// frame: the last portion of a frame in which no portion panicked.
    ///
    /// With several shards the batch reads the shard's channel replica,
    /// refreshed here on the shard's own worker: only the range's channels
    /// `c_lo..=c_hi` are copied (the rest stay stale, never indexed). With
    /// one shard a replica cannot improve locality.
    pub fn detect(
        &self,
        shard: usize,
        channels: &[Matrix],
        jobs: &[DetectionJob],
        c: Constellation,
        detect: impl FnOnce(&DetectionBatch, &[usize], &mut Vec<Detection>),
    ) -> bool {
        let _unwind = UnwindGuard(self);
        let (lo, hi) = self.ranges[shard];
        if lo < hi {
            let indices = &self.order.order[lo..hi];
            let mut portion = lock_ignoring_poison(&self.shards[shard]);
            let ShardPortion { out, replica } = &mut *portion;
            let channels = if self.shards.len() == 1 {
                channels
            } else {
                let c_lo = jobs[indices[0]].channel;
                let c_hi = jobs[indices[indices.len() - 1]].channel;
                if replica.len() < channels.len() {
                    replica.resize_with(channels.len(), Matrix::default);
                }
                for (dst, src) in replica[c_lo..=c_hi].iter_mut().zip(&channels[c_lo..=c_hi]) {
                    dst.copy_from(src);
                }
                &replica[..channels.len()]
            };
            detect(&DetectionBatch { channels, jobs, c }, indices, out);
        }
        self.count_down(false)
    }

    /// Blocks until every portion of the frame has counted down; `false`
    /// when the frame panicked.
    pub fn wait(&self) -> bool {
        let mut countdown = lock_ignoring_poison(&self.countdown);
        while countdown.remaining > 0 {
            countdown = self.settled.wait(countdown).unwrap_or_else(PoisonError::into_inner);
        }
        !countdown.panicked
    }

    /// Whether a portion of any frame so far panicked or was refused.
    pub fn panicked(&self) -> bool {
        lock_ignoring_poison(&self.countdown).panicked
    }

    /// Visits every detection of the completed frame as
    /// `(job_index, &Detection)`, in per-shard dispatch order. Job indices
    /// cover the split's jobs exactly once; callers scatter by index.
    pub fn for_each_result(&self, mut f: impl FnMut(usize, &Detection)) {
        for (&(lo, hi), portion) in self.ranges.iter().zip(&self.shards) {
            let portion = lock_ignoring_poison(portion);
            debug_assert!(portion.out.len() >= hi - lo, "a range under-filled its output");
            for (&job_idx, det) in self.order.order[lo..hi].iter().zip(&portion.out) {
                f(job_idx, det);
            }
        }
    }

    /// Counts one portion down, `panicked` marking the frame; `true` when
    /// it was the last portion of a frame that did not panic.
    fn count_down(&self, panicked: bool) -> bool {
        let mut countdown = lock_ignoring_poison(&self.countdown);
        countdown.panicked |= panicked;
        countdown.remaining -= 1;
        if countdown.remaining > 0 {
            return false;
        }
        self.settled.notify_all();
        !countdown.panicked
    }
}

/// A frame-synchronous detection pool: threads are spawned once and reused
/// across frames.
///
/// This is the multi-worker engine of the allocation-free frame pipeline
/// (`gs-phy`'s `FrameWorkspace`): per frame, the caller *lends* its channel
/// table and job buffers to the pool ([`DetectionPool::run`] swaps them in
/// and back out — no copies), [`FramePortions`] cuts the frame into one
/// portion per worker, and the caller reads the results in place via
/// [`DetectionPool::for_each_result`]. After one warmup frame of a given
/// shape, a frame costs **zero heap allocations** on every thread involved
/// (enforced by `tests/alloc_regression.rs`).
///
/// The threads are a [`ShardedDetectionPool`] with one shard per worker:
/// portion `r` always goes to shard `r`, whose only worker is always the
/// same thread. That fixed mapping keeps every worker's search workspace,
/// output buffer and channel replica warm — with one shared queue, a
/// worker that popped nothing during warmup would allocate later.
///
/// The detector is installed per frame as an `Arc` clone (a refcount bump,
/// not an allocation), so one pool can serve different detectors over its
/// lifetime.
pub struct DetectionPool {
    pool: ShardedDetectionPool,
    frame: Arc<RwLock<PoolFrame>>,
}

/// The frame the caller lends the workers, reused frame over frame. Its
/// lock is the pool's one job: shard `r` detects portion `r`.
struct PoolFrame {
    detector: Option<Arc<dyn MimoDetector>>,
    channels: Vec<Matrix>,
    jobs: Vec<DetectionJob>,
    n_jobs: usize,
    c: Constellation,
    portions: FramePortions,
}

impl ShardedJob for RwLock<PoolFrame> {
    fn run_shard(&self, shard: usize, _token: usize, ws: &mut DetectorWorkspace) {
        let frame = self.read().unwrap_or_else(PoisonError::into_inner);
        let jobs = &frame.jobs[..frame.n_jobs];
        // Completion needs no action here: the core wakes `run`'s wait.
        frame.portions.detect(shard, &frame.channels, jobs, frame.c, |batch, indices, out| {
            let detector = frame.detector.as_deref().expect("detector installed for the frame");
            detector.detect_batch_indexed_with(batch, indices, ws, out);
        });
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
        let frame = Arc::new(RwLock::new(PoolFrame {
            detector: None,
            channels: Vec::new(),
            jobs: Vec::new(),
            n_jobs: 0,
            c: Constellation::Qpsk,
            portions: FramePortions::new(n_workers),
        }));
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
    /// in the per-worker buffers so those can be recycled next frame.
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
        {
            let mut guard = self.frame.write().unwrap_or_else(PoisonError::into_inner);
            let frame = &mut *guard;
            assert!(!frame.portions.panicked(), "DetectionPool is dead: a worker panicked earlier");
            frame.detector = Some(Arc::clone(detector));
            std::mem::swap(&mut frame.channels, channels);
            std::mem::swap(&mut frame.jobs, jobs);
            frame.n_jobs = n_jobs;
            frame.c = c;
            frame.portions.split(&frame.jobs[..n_jobs]);
        }
        let job: Arc<dyn ShardedJob> = self.frame.clone();
        let clean = {
            let frame = self.frame.read().unwrap_or_else(PoisonError::into_inner);
            frame.portions.submit(&self.pool, None, NO_DEADLINE, 0, &job);
            frame.portions.wait()
        };
        {
            let mut guard = self.frame.write().unwrap_or_else(PoisonError::into_inner);
            let frame = &mut *guard;
            std::mem::swap(&mut frame.channels, channels);
            std::mem::swap(&mut frame.jobs, jobs);
            // Release the per-frame detector clone (refcount drop only).
            frame.detector = None;
        }
        // Propagate a worker's panic instead of returning a frame with
        // silently missing detections.
        assert!(clean, "DetectionPool worker panicked during detection");
    }

    /// Visits every detection of the last [`DetectionPool::run`] as
    /// `(job_index, &Detection)` ([`FramePortions::for_each_result`]).
    /// Job indices cover `0..n_jobs` exactly once; callers scatter by
    /// index.
    pub fn for_each_result(&self, f: impl FnMut(usize, &Detection)) {
        self.frame.read().unwrap_or_else(PoisonError::into_inner).portions.for_each_result(f);
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
            assert_eq!(order.order, expect);
        }
    }

    #[test]
    fn split_partitions_the_order_into_channel_runs() {
        for n_jobs in 0..=40usize {
            for shards in 1..=8usize {
                // Symbol-major jobs over 5 channels, as an OFDM frame
                // arrives; `y` plays no part in the split.
                let jobs: Vec<DetectionJob> =
                    (0..n_jobs).map(|j| DetectionJob { channel: j % 5, y: Vec::new() }).collect();
                let mut portions = FramePortions::new(shards);
                portions.split(&jobs);
                assert_eq!(portions.countdown.get_mut().unwrap().remaining, shards);
                let order = &portions.order.order;
                let mut next = 0;
                for &(lo, hi) in &portions.ranges {
                    assert_eq!(lo, next, "n {n_jobs} shards {shards}: contiguous ranges");
                    assert!(hi - lo <= n_jobs.div_ceil(shards), "n {n_jobs} shards {shards}");
                    // The replica copy assumes `c_lo..=c_hi` covers the
                    // range: its channels never decrease.
                    let channels: Vec<usize> =
                        order[lo..hi].iter().map(|&i| jobs[i].channel).collect();
                    assert!(channels.windows(2).all(|w| w[0] <= w[1]), "{channels:?}");
                    next = hi;
                }
                assert_eq!(next, n_jobs, "n {n_jobs} shards {shards}: ranges cover the order");
                let mut seen = order.to_vec();
                seen.sort_unstable();
                assert!(seen.iter().copied().eq(0..n_jobs), "every job exactly once");
            }
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

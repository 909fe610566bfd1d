//! One frame's jobs cut into contiguous per-shard portions: the stream's
//! frame-dispatch core.

use crate::shard::ShardedDetectionPool;
use crate::stream::lock;
use geosphere_core::{Detection, DetectionBatch, DetectionJob};
use gs_linalg::Matrix;
use gs_modulation::Constellation;
use std::sync::Mutex;

/// One frame's jobs cut into contiguous per-shard portions.
/// [`FramePortions::split`] cuts the frame and arms the countdown,
/// [`FramePortions::submit`] hands the other shards' portions to the pool,
/// each shard's worker runs [`FramePortions::detect`], and the frame's
/// completer reads the results with [`FramePortions::for_each_result`].
/// All buffers are recycled frame over frame.
///
/// **One panic rule.** A portion that unwinds, or that the pool refused,
/// still counts down and marks the frame as panicked. A panicked frame
/// never completes: no `detect` call reports it.
pub(crate) struct FramePortions {
    /// Per-shard `[lo, hi)` job ranges.
    ranges: Vec<(usize, usize)>,
    shards: Vec<Mutex<ShardPortion>>,
    countdown: Mutex<Countdown>,
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
    pub(crate) fn new(shards: usize) -> Self {
        FramePortions {
            ranges: vec![(0, 0); shards],
            shards: (0..shards).map(|_| Mutex::default()).collect(),
            countdown: Mutex::default(),
        }
    }

    /// Starts a frame of `n` jobs: cuts `[0, n)` into per-shard ranges of
    /// `⌈n / shards⌉` (the last ones shorter or empty) and arms the
    /// countdown. Over a channel-major frame a range spans whole channel
    /// runs, so its shard factorizes each of its channels once per frame.
    pub(crate) fn split(&mut self, n: usize) {
        let chunk = n.div_ceil(self.shards.len()).max(1);
        for (s, range) in self.ranges.iter_mut().enumerate() {
            *range = ((s * chunk).min(n), ((s + 1) * chunk).min(n));
        }
        self.countdown.get_mut().unwrap_or_else(std::sync::PoisonError::into_inner).remaining =
            self.shards.len();
    }

    /// Submits every shard's portion but `home`'s (the caller detects
    /// that one inline) to `pool` as `slot`, with EDF key `key`. A portion
    /// the dead pool refuses will never run, so it counts down as
    /// panicked.
    pub(crate) fn submit(&self, pool: &ShardedDetectionPool, home: usize, key: u64, slot: usize) {
        for s in (0..self.shards.len()).filter(|&s| s != home) {
            if pool.submit(s, key, slot).is_err() {
                self.count_down(true);
            }
        }
    }

    /// Detects shard `shard`'s range through `detect` (called with the
    /// range's jobs as a batch and the shard's output buffer), then counts
    /// the portion down. Returns `true` to exactly one caller per frame:
    /// the last portion of a frame in which no portion panicked.
    ///
    /// With several shards the batch reads the shard's channel replica,
    /// refreshed here on the shard's own worker: only the channels from
    /// the range's lowest to its highest are copied (the rest stay stale,
    /// never indexed). With one shard a replica cannot improve locality.
    pub(crate) fn detect(
        &self,
        shard: usize,
        channels: &[Matrix],
        jobs: &[DetectionJob],
        c: Constellation,
        detect: impl FnOnce(&DetectionBatch, &mut Vec<Detection>),
    ) -> bool {
        let _unwind = UnwindGuard(self);
        let (lo, hi) = self.ranges[shard];
        if lo < hi {
            let jobs = &jobs[lo..hi];
            let mut portion = lock(&self.shards[shard]);
            let ShardPortion { out, replica } = &mut *portion;
            let channels = if self.shards.len() == 1 {
                channels
            } else {
                let (c_lo, c_hi) = jobs.iter().fold((usize::MAX, 0), |(lo, hi), job| {
                    (lo.min(job.channel), hi.max(job.channel))
                });
                if replica.len() < channels.len() {
                    replica.resize_with(channels.len(), Matrix::default);
                }
                for (dst, src) in replica[c_lo..=c_hi].iter_mut().zip(&channels[c_lo..=c_hi]) {
                    dst.copy_from(src);
                }
                &replica[..channels.len()]
            };
            detect(&DetectionBatch { channels, jobs, c }, out);
        }
        self.count_down(false)
    }

    /// Visits every detection of the completed frame as
    /// `(job_index, &Detection)`, in job order. Job indices cover the
    /// split's jobs exactly once; callers scatter by index.
    pub(crate) fn for_each_result(&self, mut f: impl FnMut(usize, &Detection)) {
        for (&(lo, hi), portion) in self.ranges.iter().zip(&self.shards) {
            let portion = lock(portion);
            debug_assert!(portion.out.len() >= hi - lo, "a range under-filled its output");
            for (i, det) in portion.out[..hi - lo].iter().enumerate() {
                f(lo + i, det);
            }
        }
    }

    /// Counts one portion down, `panicked` marking the frame; `true` when
    /// it was the last portion of a frame that did not panic.
    fn count_down(&self, panicked: bool) -> bool {
        let mut countdown = lock(&self.countdown);
        countdown.panicked |= panicked;
        countdown.remaining -= 1;
        countdown.remaining == 0 && !countdown.panicked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_partitions_the_order_into_channel_runs() {
        for n_jobs in 0..=40usize {
            for shards in 1..=8usize {
                let mut portions = FramePortions::new(shards);
                portions.split(n_jobs);
                assert_eq!(portions.countdown.get_mut().unwrap().remaining, shards);
                let mut next = 0;
                for &(lo, hi) in &portions.ranges {
                    assert_eq!(lo, next, "n {n_jobs} shards {shards}: contiguous ranges");
                    assert!(hi >= lo, "n {n_jobs} shards {shards}: {lo}..{hi}");
                    assert!(hi - lo <= n_jobs.div_ceil(shards), "n {n_jobs} shards {shards}");
                    next = hi;
                }
                assert_eq!(next, n_jobs, "n {n_jobs} shards {shards}: ranges cover 0..n");
            }
        }
    }
}

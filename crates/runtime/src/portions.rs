//! One frame's jobs cut into contiguous per-shard portions: the stream's
//! frame-dispatch core.

use crate::shard::ShardedDetectionPool;
use crate::stream::lock;
use geosphere_core::{Detection, DetectionBatch, DetectionJob};
use gs_linalg::Matrix;
use gs_modulation::Constellation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One frame's jobs cut into contiguous per-shard portions.
/// [`FramePortions::split`] cuts the frame and arms the countdown,
/// [`FramePortions::submit`] hands the other shards' portions to the pool,
/// each shard's worker runs [`FramePortions::detect`], and the frame's
/// completer reads the results with [`FramePortions::for_each_result`].
/// All buffers are recycled frame over frame.
///
/// **One panic rule.** A portion that unwinds, or that the dead pool
/// refused, never counts down, so its frame never completes: no `detect`
/// call reports it. The pool's dead flag is the one record of the fault.
pub(crate) struct FramePortions {
    /// Per-shard `[lo, hi)` job ranges.
    ranges: Vec<(usize, usize)>,
    /// Per-shard detections of the shard's range, in range order.
    out: Vec<Mutex<Vec<Detection>>>,
    /// Portions of the current frame not yet counted down.
    remaining: AtomicUsize,
}

impl FramePortions {
    /// A core for a pool of `shards` shards (≥ 1).
    pub(crate) fn new(shards: usize) -> Self {
        FramePortions {
            ranges: vec![(0, 0); shards],
            out: (0..shards).map(|_| Mutex::default()).collect(),
            remaining: AtomicUsize::new(0),
        }
    }

    /// Starts a frame of `n` jobs: cuts `[0, n)` into per-shard ranges of
    /// `⌈n / shards⌉` (the last ones shorter or empty) and arms the
    /// countdown. Over a channel-major frame a range spans whole channel
    /// runs, so its shard factorizes each of its channels once per frame.
    pub(crate) fn split(&mut self, n: usize) {
        let chunk = n.div_ceil(self.out.len()).max(1);
        for (s, range) in self.ranges.iter_mut().enumerate() {
            *range = ((s * chunk).min(n), ((s + 1) * chunk).min(n));
        }
        *self.remaining.get_mut() = self.out.len();
    }

    /// Submits every shard's portion but `home`'s (the caller detects
    /// that one inline) to `pool` as `slot`, with EDF key `key`. A portion
    /// the dead pool refuses never runs, so it never counts down.
    pub(crate) fn submit(&self, pool: &ShardedDetectionPool, home: usize, key: u64, slot: usize) {
        for s in (0..self.out.len()).filter(|&s| s != home) {
            let _ = pool.submit(s, key, slot);
        }
    }

    /// Detects shard `shard`'s range through `detect` (called with the
    /// range's jobs as a batch and the shard's output buffer), then counts
    /// the portion down. Returns `true` to exactly one caller per frame:
    /// the one that counts the last portion down.
    pub(crate) fn detect(
        &self,
        shard: usize,
        channels: &[Matrix],
        jobs: &[DetectionJob],
        c: Constellation,
        detect: impl FnOnce(&DetectionBatch, &mut Vec<Detection>),
    ) -> bool {
        let (lo, hi) = self.ranges[shard];
        if lo < hi {
            let batch = DetectionBatch { channels, jobs: &jobs[lo..hi], c };
            detect(&batch, &mut lock(&self.out[shard]));
        }
        // Release publishes this portion's output; the completer's Acquire
        // then sees every portion's.
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Visits every detection of the completed frame as
    /// `(job_index, &Detection)`, in job order. Job indices cover the
    /// split's jobs exactly once; callers scatter by index.
    pub(crate) fn for_each_result(&self, mut f: impl FnMut(usize, &Detection)) {
        for (&(lo, hi), out) in self.ranges.iter().zip(&self.out) {
            let out = lock(out);
            debug_assert!(out.len() >= hi - lo, "a range under-filled its output");
            for (i, det) in out[..hi - lo].iter().enumerate() {
                f(lo + i, det);
            }
        }
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
                assert_eq!(*portions.remaining.get_mut(), shards);
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

//! The common MIMO detection interface.
//!
//! A detector receives the **grid-domain** channel (the physical channel
//! with the constellation's power normalization folded in) and the received
//! vector, and returns hard symbol decisions on the odd-integer grid plus
//! operation counts. All decoders in this crate — linear, SIC, sphere,
//! K-best — implement this one trait, which is what lets the evaluation
//! harness sweep them uniformly.

use crate::stats::DetectorStats;
use gs_linalg::{Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};
use std::any::Any;

/// The result of detecting one received vector.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Hard symbol decisions, one per transmit stream, grid domain.
    pub symbols: Vec<GridPoint>,
    /// Operation counts for this detection.
    pub stats: DetectorStats,
}

/// Opaque per-worker scratch for the allocation-free batched detection
/// entry points ([`MimoDetector::detect_batch_with`]).
///
/// Each detector family stores its own concrete state inside — the sphere
/// decoders a [`SearchWorkspace`](crate::SearchWorkspace), the linear/SIC
/// detectors a [`FilterCache`](crate::FilterCache) — and retrieves it with
/// [`DetectorWorkspace::get_or_insert`]. A workspace created by one
/// detector type and later handed to another is simply re-seeded (one
/// warmup allocation), so long-lived receivers can hold a single
/// `DetectorWorkspace` regardless of which detector runs.
/// (The contents are `Send + Sync`: workspaces sit inside shared frame
/// slots that concurrent shard workers read around — see `gs-runtime` —
/// and every detector's scratch is plain owned data anyway.)
#[derive(Default)]
pub struct DetectorWorkspace {
    inner: Option<Box<dyn Any + Send + Sync>>,
}

impl DetectorWorkspace {
    /// Creates an empty workspace; the owning detector seeds it on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows the contained `T`, replacing whatever is inside (nothing, or
    /// another detector's state) with `make()` when it is not already a `T`.
    pub fn get_or_insert<T: Send + Sync + 'static>(&mut self, make: impl FnOnce() -> T) -> &mut T {
        let needs_seed = !matches!(&self.inner, Some(b) if b.is::<T>());
        if needs_seed {
            self.inner = Some(Box::new(make()));
        }
        self.inner
            .as_mut()
            .expect("workspace just seeded")
            .downcast_mut::<T>()
            .expect("workspace holds the requested type")
    }
}

/// A hard-output MIMO detector.
///
/// `Send + Sync` is part of the contract: detection is a pure function of
/// `(h, y, c)` with no interior mutability, which is what lets the worker
/// pools ([`DetectionPool`](crate::DetectionPool), the streaming runtime's
/// [`ShardedDetectionPool`](crate::ShardedDetectionPool) jobs) share one
/// detector across threads behind an `Arc`.
pub trait MimoDetector: Send + Sync {
    /// Detects the transmitted symbol vector.
    ///
    /// * `h` — grid-domain channel (`na × nc`): `y = h·s + w` with `s`
    ///   entries on the odd-integer constellation grid.
    /// * `y` — received vector (`na` entries).
    /// * `c` — the constellation every stream uses.
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection;

    /// Detects every job of a batch, in job order.
    ///
    /// The default routes through a fresh workspace and
    /// [`MimoDetector::detect_batch_with`], whose own default loops
    /// [`MimoDetector::detect`] — so detectors that override the `_with`
    /// pair (per-channel preprocessing: QR in the sphere decoders, filter
    /// caching in the linear/SIC detectors) get whole-batch amortization
    /// here for free, with bit-identical per-job results.
    fn detect_batch(&self, batch: &crate::batch::DetectionBatch) -> Vec<Detection> {
        let mut ws = self.make_batch_workspace();
        let mut out = Vec::with_capacity(batch.jobs.len());
        self.detect_batch_with(batch, &mut ws, &mut out);
        out
    }

    /// Creates a reusable opaque workspace for the `_with` batch entry
    /// points. The default is empty (the default `_with` implementations
    /// need no state); detectors with per-channel preprocessing return a
    /// workspace that their overrides recognize and reuse.
    fn make_batch_workspace(&self) -> DetectorWorkspace {
        DetectorWorkspace::new()
    }

    /// Detects every job of a batch into a recycled output vector, reusing
    /// `ws` across calls — the allocation-free counterpart of
    /// [`MimoDetector::detect_batch`], bit-identical to it.
    ///
    /// `out` is cleared and refilled in job order. The default loops
    /// [`MimoDetector::detect`]; detectors with per-channel preprocessing
    /// override this (and [`MimoDetector::detect_batch_indexed_with`]) so
    /// that a warmed workspace makes the whole call allocation-free.
    fn detect_batch_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        let _ = ws;
        out.clear();
        out.extend(
            batch.jobs.iter().map(|job| self.detect(&batch.channels[job.channel], &job.y, batch.c)),
        );
    }

    /// Detects the jobs selected by `indices` into a recycled output vector
    /// (results in `indices` order), reusing `ws` across calls — the
    /// scattered-dispatch form worker pools use to hand each worker a
    /// channel-grouped job subset without materializing a reordered job
    /// list. Bit-identical, job for job, to
    /// [`MimoDetector::detect_batch_with`].
    fn detect_batch_indexed_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        indices: &[usize],
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        let _ = ws;
        out.clear();
        out.extend(indices.iter().map(|&ix| {
            let job = &batch.jobs[ix];
            self.detect(&batch.channels[job.channel], &job.y, batch.c)
        }));
    }

    /// A short display name ("ZF", "Geosphere", "ETH-SD", …).
    fn name(&self) -> &'static str;
}

/// A shared detector is a detector: every call forwards to the pointee, so
/// the pointee's batch overrides (and their amortization) are kept. This is
/// what lets callers that only hold a type-erased detector — experiment
/// sweeps choosing one at run time — use the same multi-worker decode path
/// as callers with a concrete type.
impl MimoDetector for std::sync::Arc<dyn MimoDetector> {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        (**self).detect(h, y, c)
    }

    fn detect_batch(&self, batch: &crate::batch::DetectionBatch) -> Vec<Detection> {
        (**self).detect_batch(batch)
    }

    fn make_batch_workspace(&self) -> DetectorWorkspace {
        (**self).make_batch_workspace()
    }

    fn detect_batch_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        (**self).detect_batch_with(batch, ws, out)
    }

    fn detect_batch_indexed_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        indices: &[usize],
        ws: &mut DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        (**self).detect_batch_indexed_with(batch, indices, ws, out)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Type-erased detectors compare by identity (the same object), which is
/// exactly what a cache keyed on "is this still the installed detector?"
/// needs: a shared `Arc<dyn MimoDetector>` equals its own clones.
impl PartialEq for dyn MimoDetector {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::addr_eq(self, other)
    }
}

/// Computes `y = h·s + noise`-free transmit hypothesis `h·s` for a grid
/// symbol vector — shared by the exhaustive detector and the tests.
pub fn apply_channel(h: &Matrix, s: &[GridPoint]) -> Vec<Complex> {
    let mut out = Vec::with_capacity(h.rows());
    apply_channel_into(h, s, &mut out);
    out
}

/// [`apply_channel`] into a reused output buffer (cleared first) —
/// bit-identical, without the per-call symbol-vector and output
/// allocations. The frame planner's per-(symbol, subcarrier) inner loop
/// runs on this.
pub fn apply_channel_into(h: &Matrix, s: &[GridPoint], out: &mut Vec<Complex>) {
    assert_eq!(s.len(), h.cols(), "symbol count must match channel columns");
    out.clear();
    for r in 0..h.rows() {
        let mut acc = Complex::ZERO;
        for (c, p) in s.iter().enumerate() {
            acc += h[(r, c)] * p.to_complex();
        }
        out.push(acc);
    }
}

/// Squared residual `‖y − h·s‖²` of a hypothesis.
pub fn residual_norm_sqr(h: &Matrix, y: &[Complex], s: &[GridPoint]) -> f64 {
    gs_linalg::vec_dist_sqr(y, &apply_channel(h, s))
}

/// Slices each entry of a filtered estimate to the nearest grid point —
/// the decision step of every linear detector.
pub fn slice_vector(
    estimate: &[Complex],
    c: Constellation,
    stats: &mut DetectorStats,
) -> Vec<GridPoint> {
    stats.slices += estimate.len() as u64;
    estimate.iter().map(|&z| c.slice(z)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_channel_identity() {
        let h = Matrix::identity(2);
        let s = vec![GridPoint { i: 1, q: -3 }, GridPoint { i: -1, q: 1 }];
        let y = apply_channel(&h, &s);
        assert!((y[0] - Complex::new(1.0, -3.0)).abs() < 1e-12);
        assert!((y[1] - Complex::new(-1.0, 1.0)).abs() < 1e-12);
        assert!(residual_norm_sqr(&h, &y, &s) < 1e-12);
    }

    #[test]
    fn slice_vector_counts() {
        let mut stats = DetectorStats::default();
        let est = vec![Complex::new(0.8, -2.6), Complex::new(-4.0, 4.0)];
        let out = slice_vector(&est, Constellation::Qam16, &mut stats);
        assert_eq!(out, vec![GridPoint { i: 1, q: -3 }, GridPoint { i: -3, q: 3 }]);
        assert_eq!(stats.slices, 2);
    }
}

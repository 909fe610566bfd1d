//! Reusable per-worker scratch state for the sphere-decoding hot path.
//!
//! Every tree-node visit needs an enumerator, every search needs per-level
//! state and candidate buffers, and every detection needs a Q*-rotated
//! receive vector plus (in the batched path) per-channel QR factors. Before
//! this module those were heap-allocated per use — allocator traffic in the
//! innermost loop of the system. [`SearchWorkspace`] owns all of it as
//! reusable slabs instead.
//!
//! ## Ownership model
//!
//! **One workspace per worker, reset per symbol.** A workspace is *not*
//! shared: the batch engine's worker threads each own one for the duration
//! of their job chunk, serial callers create one per call (still cheaper
//! than the old per-node allocations), and long-lived receivers hold one
//! across frames. Nothing inside is ever deallocated between searches —
//! buffers are cleared and refilled in place, so after the first search of
//! a given shape ("warmup") the detection path performs **zero heap
//! allocations per symbol**. `tests/alloc_regression.rs` enforces this with
//! a counting global allocator.
//!
//! The enumerator slab holds one enumerator per tree level, created as a
//! `Default` placeholder when the slab grows and
//! [`reset`](crate::sphere::EnumeratorFactory::reset) in place per node
//! visit rather than constructed fresh (see the protocol notes in
//! [`crate::sphere::enumerator`]).

use crate::detector::Detection;
use crate::stats::DetectorStats;
use gs_linalg::{Complex, Qr, QrWorkspace, SortedQr};
use gs_modulation::{BitTable, Constellation, GridPoint};

/// Per-channel preprocessing shared across a batch (plain or sorted QR).
///
/// Slots live in the workspace so their matrix storage is reused when the
/// batch path re-factorizes a channel on a later call.
#[derive(Clone, Debug)]
pub(crate) enum Prep {
    /// Unsorted Householder QR.
    Plain(Qr),
    /// Column-norm-sorted QR with its stream permutation.
    Sorted(SortedQr),
}

/// Reusable scratch for [`SphereDecoder`](crate::SphereDecoder) searches:
/// the per-level enumerator slab, candidate/best symbol buffers, rotation
/// scratch, and the batched path's QR slots. See the module docs for the
/// ownership model.
///
/// `E` is the enumerator type of the decoder's factory; the alias
/// [`WorkspaceFor`] names it from a factory type directly.
pub struct SearchWorkspace<E> {
    /// Enumerator slab, one slot per tree level. Entries start as
    /// `Default` placeholders and are reset in place per node visit.
    pub(crate) enumerators: Vec<E>,
    /// `d(s^(i+1))`: accumulated distance of the partial vector above each
    /// open level.
    pub(crate) dist_above: Vec<f64>,
    /// The current partial symbol vector (entry `i` = choice at level `i`).
    pub(crate) chosen: Vec<GridPoint>,
    /// Split re/im (SoA) mirror of `chosen` in the grid domain, kept in
    /// lockstep with it so the interference accumulation's SIMD lanes load
    /// contiguously (`gs_linalg::simd::cdot_soa`).
    pub(crate) chosen_re: Vec<f64>,
    /// Imaginary half of the `chosen` mirror.
    pub(crate) chosen_im: Vec<f64>,
    /// Split re/im (SoA) copy of the search's upper-triangular factor `R`
    /// (row-major `nc × nc`), reloaded per search by
    /// [`SearchWorkspace::load_r_soa`].
    pub(crate) r_re: Vec<f64>,
    /// Imaginary half of the `R` mirror.
    pub(crate) r_im: Vec<f64>,
    /// The best full solution found by the last search.
    pub(crate) best: Vec<GridPoint>,
    /// Number of valid entries in `best` after the last search.
    pub(crate) solution_len: usize,
    /// Q*-rotation scratch for the detect entry points.
    pub(crate) yhat: Vec<Complex>,
    /// Gray-bit lookup for constrained (soft counter-hypothesis) searches,
    /// cached per constellation.
    pub(crate) bit_table: Option<(Constellation, BitTable)>,
    /// Scratch for in-place QR factorization.
    pub(crate) qr_ws: QrWorkspace,
    /// Per-channel QR slots for the batched path (storage reused across
    /// calls; contents are recomputed per batch — see `prep_fresh`).
    pub(crate) preps: Vec<Option<Prep>>,
    /// Whether `preps[k]` has been (re)computed during the current batch
    /// call. Cleared at the start of every batch: channel contents may
    /// change between batches even when the table shape doesn't.
    pub(crate) prep_fresh: Vec<bool>,
    /// Recycled per-detection symbol buffers (see
    /// [`SearchWorkspace::recycle`]).
    pub(crate) spare: Vec<Vec<GridPoint>>,
    // --- Multi-symbol lockstep slabs (sibling jobs sharing one channel's
    // QR walk their first descents level-by-level together; see
    // `SphereDecoder::detect_jobs_multi`). Job-major slabs index
    // `[s·nc + i]` for job `s`, level `i`; the `il_*` pair mirrors the
    // chosen points level-major (`[i·k + s]`) so one level's entries
    // across all jobs are a contiguous `cdot_soa_multi` input. ---
    /// Per-job per-level enumerator slab for the lockstep descent.
    pub(crate) m_enum: Vec<E>,
    /// Per-job `dist_above` slab.
    pub(crate) m_dist: Vec<f64>,
    /// Per-job partial symbol vectors.
    pub(crate) m_chosen: Vec<GridPoint>,
    /// Job-major split-re mirror of `m_chosen` (the per-job resume path's
    /// `cdot_soa` input).
    pub(crate) m_chosen_re: Vec<f64>,
    /// Imaginary half of the job-major mirror.
    pub(crate) m_chosen_im: Vec<f64>,
    /// Per-job best solutions.
    pub(crate) m_best: Vec<GridPoint>,
    /// Per-job Q*-rotated receive vectors (truncated to `nc`).
    pub(crate) m_yhat: Vec<Complex>,
    /// Level-major interleaved split-re mirror of the chosen points.
    pub(crate) il_re: Vec<f64>,
    /// Imaginary half of the level-major mirror.
    pub(crate) il_im: Vec<f64>,
    /// Kernel output scratch, one entry per lockstep job.
    pub(crate) ix_re: Vec<f64>,
    /// Imaginary half of the kernel output scratch.
    pub(crate) ix_im: Vec<f64>,
    /// Per-job path distance during the descent, then the leaf distance
    /// (the resume radius). `NaN` marks a job whose descent hit an empty
    /// enumerator and must re-run through the plain serial search.
    pub(crate) m_radius: Vec<f64>,
    /// Per-job operation counters.
    pub(crate) m_stats: Vec<DetectorStats>,
    /// Channel-grouping scratch for the batched path: output slots
    /// counting-sorted by channel (ascending slots within a channel).
    pub(crate) order: Vec<u32>,
    /// Per-channel group ends into `order` after the counting sort.
    pub(crate) channel_end: Vec<usize>,
}

/// The workspace type for a given enumerator factory, e.g.
/// `WorkspaceFor<GeosphereFactory>`.
pub type WorkspaceFor<F> = SearchWorkspace<<F as crate::sphere::EnumeratorFactory>::Enumerator>;

impl<E: Default> Default for SearchWorkspace<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Default> SearchWorkspace<E> {
    /// Creates an empty workspace; every buffer grows on first use and is
    /// reused forever after.
    pub fn new() -> Self {
        SearchWorkspace {
            enumerators: Vec::new(),
            dist_above: Vec::new(),
            chosen: Vec::new(),
            chosen_re: Vec::new(),
            chosen_im: Vec::new(),
            r_re: Vec::new(),
            r_im: Vec::new(),
            best: Vec::new(),
            solution_len: 0,
            yhat: Vec::new(),
            bit_table: None,
            qr_ws: QrWorkspace::new(),
            preps: Vec::new(),
            prep_fresh: Vec::new(),
            spare: Vec::new(),
            m_enum: Vec::new(),
            m_dist: Vec::new(),
            m_chosen: Vec::new(),
            m_chosen_re: Vec::new(),
            m_chosen_im: Vec::new(),
            m_best: Vec::new(),
            m_yhat: Vec::new(),
            il_re: Vec::new(),
            il_im: Vec::new(),
            ix_re: Vec::new(),
            ix_im: Vec::new(),
            m_radius: Vec::new(),
            m_stats: Vec::new(),
            order: Vec::new(),
            channel_end: Vec::new(),
        }
    }

    /// Sizes the lockstep slabs for `k` jobs of `nc` streams each. Grows
    /// only, like every other slab — allocation-free once warmed up.
    pub(crate) fn prepare_multi(&mut self, k: usize, nc: usize) {
        let slab = k * nc;
        if self.m_enum.len() < slab {
            self.m_enum.resize_with(slab, E::default);
        }
        if self.m_dist.len() < slab {
            self.m_dist.resize(slab, 0.0);
        }
        if self.m_chosen.len() < slab {
            self.m_chosen.resize(slab, GridPoint::default());
        }
        if self.m_chosen_re.len() < slab {
            self.m_chosen_re.resize(slab, 0.0);
        }
        if self.m_chosen_im.len() < slab {
            self.m_chosen_im.resize(slab, 0.0);
        }
        if self.m_best.len() < slab {
            self.m_best.resize(slab, GridPoint::default());
        }
        if self.m_yhat.len() < slab {
            self.m_yhat.resize(slab, Complex::ZERO);
        }
        if self.il_re.len() < slab {
            self.il_re.resize(slab, 0.0);
        }
        if self.il_im.len() < slab {
            self.il_im.resize(slab, 0.0);
        }
        if self.ix_re.len() < k {
            self.ix_re.resize(k, 0.0);
        }
        if self.ix_im.len() < k {
            self.ix_im.resize(k, 0.0);
        }
        if self.m_radius.len() < k {
            self.m_radius.resize(k, 0.0);
        }
        if self.m_stats.len() < k {
            self.m_stats.resize(k, DetectorStats::default());
        }
    }

    /// The best symbol vector found by the last search (stream order as
    /// searched; empty before any search succeeds).
    pub fn best(&self) -> &[GridPoint] {
        &self.best[..self.solution_len]
    }

    /// Returns detections' symbol buffers to the spare pool so the next
    /// [`detect_batch_into`](crate::SphereDecoder::detect_batch_into) call
    /// reuses them instead of allocating. Clears `detections`.
    pub fn recycle(&mut self, detections: &mut Vec<Detection>) {
        self.spare.extend(detections.drain(..).map(|d| d.symbols));
    }

    /// Sizes the per-level slabs for an `nc`-stream search. Grows only —
    /// a smaller search reuses the prefix of a larger search's slabs.
    pub(crate) fn prepare_levels(&mut self, nc: usize) {
        if self.enumerators.len() < nc {
            self.enumerators.resize_with(nc, E::default);
        }
        if self.dist_above.len() < nc {
            self.dist_above.resize(nc, 0.0);
        }
        if self.chosen.len() < nc {
            self.chosen.resize(nc, GridPoint::default());
        }
        if self.chosen_re.len() < nc {
            self.chosen_re.resize(nc, 0.0);
        }
        if self.chosen_im.len() < nc {
            self.chosen_im.resize(nc, 0.0);
        }
        if self.best.len() < nc {
            self.best.resize(nc, GridPoint::default());
        }
    }

    /// Loads the top `nc × nc` block of `r` into the workspace's split
    /// re/im slabs (row-major), so the per-level interference accumulation
    /// reads `R`'s rows as contiguous SIMD lanes. Reuses slab storage —
    /// allocation-free once capacity has warmed up.
    pub(crate) fn load_r_soa(&mut self, r: &gs_linalg::Matrix) {
        let nc = r.cols();
        self.r_re.clear();
        self.r_im.clear();
        for i in 0..nc {
            for &z in &r.row(i)[..nc] {
                self.r_re.push(z.re);
                self.r_im.push(z.im);
            }
        }
    }

    /// The Gray-bit table for `c`, built on first use per constellation.
    pub(crate) fn ensure_bit_table(&mut self, c: Constellation) {
        match &self.bit_table {
            Some((cached, _)) if *cached == c => {}
            _ => self.bit_table = Some((c, BitTable::new(c))),
        }
    }

    /// Pops a recycled symbol buffer (or a fresh one on cold start),
    /// cleared and ready to fill.
    pub(crate) fn take_spare(&mut self) -> Vec<GridPoint> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Sizes the per-channel prep slab for a batch and marks every slot
    /// stale (channel contents may differ from the previous batch even
    /// when the table shape matches).
    pub(crate) fn begin_batch(&mut self, n_channels: usize) {
        if self.preps.len() < n_channels {
            self.preps.resize_with(n_channels, || None);
        }
        self.prep_fresh.clear();
        self.prep_fresh.resize(n_channels, false);
    }
}

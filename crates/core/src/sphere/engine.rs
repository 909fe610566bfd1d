//! The depth-first Schnorr–Euchner sphere-decoding engine (paper §2).
//!
//! The engine is shared verbatim by every depth-first decoder in this crate
//! — Geosphere (with or without geometric pruning), ETH-SD, and the
//! full-sort reference — parameterized only by the [`EnumeratorFactory`]
//! that orders each node's children. Identical traversal given identical
//! child orderings is what delivers the paper's "same number of visited
//! nodes" property (§5.3).
//!
//! Walkthrough (paper Fig. 3): descend greedily along cheapest children to
//! a first leaf `a`, shrink the sphere radius to `d(a)`, backtrack and
//! expand any sibling whose partial distance still fits, terminating when
//! the root's remaining children all violate the sphere constraint.
//!
//! All per-search state lives in a caller-provided [`SearchWorkspace`]
//! (one per worker, reset per symbol — see [`crate::sphere::workspace`]):
//! enumerators are reset in place per node visit instead of allocated, so
//! the search itself performs zero heap allocations after warmup.

use crate::batch::DetectionJob;
use crate::detector::{Detection, MimoDetector};
use crate::sphere::enumerator::{EnumeratorFactory, NodeEnumerator};
use crate::sphere::workspace::{Prep, SearchWorkspace};
use crate::stats::DetectorStats;
use gs_linalg::{qr_decompose_into, sorted_qr_decompose_into, Complex, Matrix, Qr, SortedQr};
use gs_modulation::{Constellation, GridPoint};

/// A depth-first sphere decoder built from an enumerator family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SphereDecoder<F> {
    factory: F,
    /// Use column-norm sorted QR preprocessing (V-BLAST-style ordering).
    pub sorted_qr: bool,
    /// Optional initial squared radius (`∞` in the paper's §2.1 default).
    pub initial_radius_sqr: f64,
    /// Runtime guard: abandon the search after visiting this many tree
    /// nodes and return the best solution found so far. `u64::MAX` (the
    /// default) preserves exact ML; real-time receivers set a budget, and
    /// a triggered budget almost always coincides with operating points
    /// whose frames would fail anyway (hopeless SNR/constellation pairs).
    pub max_visited_nodes: u64,
    /// Batched paths: walk sibling jobs sharing one channel's QR through
    /// their first descents in lockstep, one [`gs_linalg::simd::cdot_soa_multi`]
    /// interference kernel per tree level across all of them (default
    /// `true`). Bit-identical to the per-job search — symbols and stats —
    /// so this is a diagnostic/bench knob, not a quality trade-off. Only
    /// engaged when the search is unconstrained (infinite initial radius,
    /// no node budget); otherwise the per-job path runs regardless.
    pub multi_symbol: bool,
}

impl<F: EnumeratorFactory> SphereDecoder<F> {
    /// Creates a decoder with unsorted QR and infinite initial radius.
    pub fn new(factory: F) -> Self {
        SphereDecoder {
            factory,
            sorted_qr: false,
            initial_radius_sqr: f64::INFINITY,
            max_visited_nodes: u64::MAX,
            multi_symbol: true,
        }
    }

    /// Enables sorted-QR preprocessing.
    pub fn with_sorted_qr(mut self) -> Self {
        self.sorted_qr = true;
        self
    }

    /// Disables multi-symbol lockstep batching (the per-job reference
    /// path) — used by benches and identity tests.
    pub fn with_single_symbol(mut self) -> Self {
        self.multi_symbol = false;
        self
    }

    /// Sets a visited-node budget (real-time runtime guard).
    pub fn with_node_budget(mut self, budget: u64) -> Self {
        self.max_visited_nodes = budget;
        self
    }

    /// Creates a search workspace for this decoder's enumerator family.
    ///
    /// Hold one per worker/receiver and pass it to every call: all search
    /// state is reused in place, so detection allocates nothing after the
    /// first symbol of a given shape.
    pub fn make_workspace(&self) -> SearchWorkspace<F::Enumerator> {
        SearchWorkspace::new()
    }

    /// Decodes given a precomputed QR (lets the OFDM receiver reuse one QR
    /// across a frame's worth of symbols on the same subcarrier). The
    /// returned slice borrows the workspace's solution buffer; copy it out
    /// (e.g. `extend_from_slice`) before the next search.
    pub fn detect_with_qr<'w>(
        &self,
        r: &Matrix,
        yhat: &[Complex],
        c: Constellation,
        ws: &'w mut SearchWorkspace<F::Enumerator>,
        stats: &mut DetectorStats,
    ) -> &'w [GridPoint] {
        let nc = r.cols();
        if self.search_with_qr(r, yhat, c, None, self.initial_radius_sqr, ws, stats).is_none() {
            // Infinite initial radius always yields a solution; a finite one
            // may not — fall back to per-level slicing so callers always get
            // valid symbols.
            for i in (0..nc).rev() {
                let mut acc = yhat[i];
                for j in (i + 1)..nc {
                    acc -= r[(i, j)] * ws.best[j].to_complex();
                }
                let rll = r[(i, i)].re;
                let center = if rll > f64::EPSILON { acc / rll } else { Complex::ZERO };
                ws.best[i] = c.slice(center);
                stats.slices += 1;
            }
            ws.solution_len = nc;
        }
        ws.best()
    }

    /// The generalized depth-first search: optional per-bit constraint
    /// (used by the soft-output detector to find counter-hypotheses) and an
    /// explicit initial squared radius. Returns the best squared distance —
    /// with the symbol vector in [`SearchWorkspace::best`] — or `None` when
    /// nothing lies within the radius.
    ///
    /// `constraint = (level, bit_index, required_value)` restricts the
    /// search to symbol vectors whose Gray bit `bit_index` (MSB-first) of
    /// stream `level` equals `required_value`.
    // The argument list is the search problem itself (factorization, ŷ,
    // constellation, constraint, radius) plus the two mutable sinks; a
    // params struct would only rename the same eight things.
    #[allow(clippy::too_many_arguments)]
    pub fn search_with_qr(
        &self,
        r: &Matrix,
        yhat: &[Complex],
        c: Constellation,
        constraint: Option<(usize, usize, bool)>,
        initial_radius_sqr: f64,
        ws: &mut SearchWorkspace<F::Enumerator>,
        stats: &mut DetectorStats,
    ) -> Option<f64> {
        let nc = r.cols();
        debug_assert_eq!(yhat.len(), nc, "ŷ must already be Q*-rotated and truncated");
        let _prof = gs_prof::scope(gs_prof::Stage::Enumerate);
        ws.prepare_levels(nc);
        ws.load_r_soa(r);
        if constraint.is_some() {
            ws.ensure_bit_table(c);
        }
        // Split the workspace into disjoint slabs so the per-level state,
        // the candidate vector, and the best-solution buffer can be borrowed
        // simultaneously.
        let SearchWorkspace {
            enumerators,
            dist_above,
            chosen,
            chosen_re,
            chosen_im,
            r_re,
            r_im,
            best,
            solution_len,
            bit_table,
            ..
        } = ws;
        let bit_table = bit_table.as_ref().map(|(_, t)| t);
        *solution_len = 0;
        let ctx = SearchCtx { factory: &self.factory, r, yhat, c, nc, r_re, r_im };
        open_level(&ctx, nc - 1, 0.0, chosen_re, chosen_im, enumerators, dist_above, stats);
        let res = run_search_loop(
            &ctx,
            constraint,
            bit_table,
            self.max_visited_nodes,
            0,
            SearchState { i: nc - 1, radius: initial_radius_sqr, found: false, best_dist: 0.0 },
            &mut enumerators[..nc],
            &mut dist_above[..nc],
            &mut chosen[..nc],
            &mut chosen_re[..nc],
            &mut chosen_im[..nc],
            &mut best[..nc],
            stats,
        );
        if res.is_some() {
            *solution_len = nc;
        }
        res
    }
}

/// The immutable search problem: factorization, rotated receive vector,
/// constellation, and the workspace's split-`R` mirror. Bundled so the
/// depth-first loop can be entered both from scratch
/// ([`SphereDecoder::search_with_qr`]) and from a lockstep first descent's
/// post-leaf state ([`SphereDecoder::detect_jobs_multi`]'s resume).
struct SearchCtx<'a, F> {
    factory: &'a F,
    r: &'a Matrix,
    yhat: &'a [Complex],
    c: Constellation,
    nc: usize,
    r_re: &'a [f64],
    r_im: &'a [f64],
}

/// Resumable position inside the depth-first loop.
struct SearchState {
    /// Current level (`nc - 1` = tree root).
    i: usize,
    /// Current squared sphere radius.
    radius: f64,
    /// Whether a full solution has been recorded in `best`.
    found: bool,
    /// Squared distance of that solution.
    best_dist: f64,
}

/// Opens level `i`: compute ỹ_i from ŷ and the symbols chosen above
/// (Eq. 8) — the interference dot runs on the workspace's split re/im
/// slabs through the lane-ordered SIMD kernel — then reset the level's
/// slab enumerator for the node.
// The arguments are the search context plus the disjoint workspace slab
// borrows the caller already split; a struct would just rename them.
#[allow(clippy::too_many_arguments)]
fn open_level<F: EnumeratorFactory>(
    ctx: &SearchCtx<'_, F>,
    i: usize,
    da: f64,
    chosen_re: &[f64],
    chosen_im: &[f64],
    enumerators: &mut [F::Enumerator],
    dist_above: &mut [f64],
    stats: &mut DetectorStats,
) {
    let nc = ctx.nc;
    let row = i * nc;
    let interference = gs_linalg::simd::cdot_soa(
        &ctx.r_re[row + i + 1..row + nc],
        &ctx.r_im[row + i + 1..row + nc],
        &chosen_re[i + 1..nc],
        &chosen_im[i + 1..nc],
    );
    let acc = ctx.yhat[i] - interference;
    stats.complex_mults += (nc - 1 - i) as u64;
    let rll = ctx.r[(i, i)].re; // real ≥ 0 by QR normalization
    let center = if rll > f64::EPSILON { acc / rll } else { Complex::ZERO };
    let gain = rll * rll;
    ctx.factory.reset(&mut enumerators[i], ctx.c, center, gain, stats);
    dist_above[i] = da;
}

/// The depth-first Schnorr–Euchner loop, entered at an arbitrary
/// [`SearchState`]. All slices are exactly `nc` long; `local_nodes` seeds
/// the visited-node budget counter (non-zero when a lockstep descent
/// already consumed part of it). Returns the best squared distance, with
/// the solution in `best`, or `None` when nothing lay within the radius.
#[allow(clippy::too_many_arguments)]
fn run_search_loop<F: EnumeratorFactory>(
    ctx: &SearchCtx<'_, F>,
    constraint: Option<(usize, usize, bool)>,
    bit_table: Option<&gs_modulation::BitTable>,
    max_visited_nodes: u64,
    mut local_nodes: u64,
    st: SearchState,
    enumerators: &mut [F::Enumerator],
    dist_above: &mut [f64],
    chosen: &mut [GridPoint],
    chosen_re: &mut [f64],
    chosen_im: &mut [f64],
    best: &mut [GridPoint],
    stats: &mut DetectorStats,
) -> Option<f64> {
    let nc = ctx.nc;
    let SearchState { mut i, mut radius, mut found, mut best_dist } = st;
    loop {
        if local_nodes >= max_visited_nodes {
            break; // runtime budget exhausted: return best-so-far
        }
        let budget = radius - dist_above[i];
        match enumerators[i].next_child(budget, stats) {
            Some(child) if dist_above[i] + child.cost < radius => {
                local_nodes += 1;
                // Constrained search: skip children whose required bit
                // disagrees (the enumeration stays sorted, so skipping
                // is just a filter — no soundness impact).
                if let Some((cl, ck, cv)) = constraint {
                    if cl == i && bit_table.expect("table built").bit(child.point, ck) != cv {
                        continue;
                    }
                }
                stats.visited_nodes += 1;
                let dist = dist_above[i] + child.cost;
                chosen[i] = child.point;
                chosen_re[i] = child.point.i as f64;
                chosen_im[i] = child.point.q as f64;
                if i == 0 {
                    // Leaf: new best solution, shrink the sphere.
                    radius = dist;
                    best_dist = dist;
                    best[..nc].copy_from_slice(&chosen[..nc]);
                    found = true;
                    // Stay at this level; Schnorr–Euchner continues with
                    // the next sibling under the new radius.
                } else {
                    i -= 1;
                    open_level(ctx, i, dist, chosen_re, chosen_im, enumerators, dist_above, stats);
                }
            }
            // Sorted enumeration: a child at or beyond the radius, or an
            // exhausted node, closes this level (sibling pruning). The
            // slab enumerator stays allocated for reuse.
            _ => {
                if i == nc - 1 {
                    break;
                }
                i += 1;
            }
        }
    }
    if found {
        Some(best_dist)
    } else {
        None
    }
}

impl<F: EnumeratorFactory> SphereDecoder<F> {
    /// (Re)computes the QR slot for one channel, reusing the slot's matrix
    /// storage and the workspace's factorization scratch.
    fn refresh_prep(
        slot: &mut Option<Prep>,
        sorted: bool,
        h: &Matrix,
        qr_ws: &mut gs_linalg::QrWorkspace,
    ) {
        match (sorted, &mut *slot) {
            (false, Some(Prep::Plain(qr))) => qr_decompose_into(h, qr_ws, qr),
            (true, Some(Prep::Sorted(sqr))) => sorted_qr_decompose_into(h, qr_ws, sqr),
            (false, s) => {
                let mut qr = Qr::default();
                qr_decompose_into(h, qr_ws, &mut qr);
                *s = Some(Prep::Plain(qr));
            }
            (true, s) => {
                let mut sqr = SortedQr::default();
                sorted_qr_decompose_into(h, qr_ws, &mut sqr);
                *s = Some(Prep::Sorted(sqr));
            }
        }
    }

    /// Detects one job against prepared QR factors, recycling the
    /// workspace's rotation scratch and a spare output buffer.
    fn detect_prepared(
        &self,
        prep: &Prep,
        nc: usize,
        y: &[Complex],
        c: Constellation,
        ws: &mut SearchWorkspace<F::Enumerator>,
    ) -> Detection {
        let mut stats = DetectorStats::default();
        let mut symbols = ws.take_spare();
        // Detach the rotation scratch so the workspace can be re-borrowed
        // mutably by the search; reattached below (a pointer move, not an
        // allocation).
        let mut yhat = std::mem::take(&mut ws.yhat);
        match prep {
            Prep::Plain(qr) => {
                qr.rotate_into(y, &mut yhat);
                let best = self.detect_with_qr(&qr.r, &yhat[..nc], c, ws, &mut stats);
                symbols.extend_from_slice(best);
            }
            Prep::Sorted(sqr) => {
                sqr.qr.rotate_into(y, &mut yhat);
                let best = self.detect_with_qr(&sqr.qr.r, &yhat[..nc], c, ws, &mut stats);
                sqr.unpermute_into(best, &mut symbols);
            }
        }
        ws.yhat = yhat;
        Detection { symbols, stats }
    }

    /// Detects a sequence of jobs into `out`, amortizing per-channel QR and
    /// reusing every buffer in `ws` — the batched frame-decode inner loop.
    ///
    /// Per-channel factors are recomputed once per call (channel contents
    /// may change between batches) into storage that persists in the
    /// workspace. Calling [`SearchWorkspace::recycle`] happens internally:
    /// `out` is drained and its symbol buffers reused, so a caller that
    /// keeps `ws` and `out` alive across frames performs **zero heap
    /// allocations per symbol** in steady state.
    pub fn detect_batch_into(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut SearchWorkspace<F::Enumerator>,
        out: &mut Vec<Detection>,
    ) {
        self.detect_jobs_into(batch.channels, batch.jobs, None, batch.c, ws, out);
    }

    /// Whether the lockstep multi-symbol path may run: it models the
    /// unconstrained search's first descent as a straight line (with an
    /// infinite radius and no node budget the cheapest child is always
    /// accepted), which a finite radius or budget would falsify.
    fn multi_symbol_eligible(&self, n_jobs: usize) -> bool {
        self.multi_symbol
            && n_jobs >= 2
            && self.initial_radius_sqr == f64::INFINITY
            && self.max_visited_nodes == u64::MAX
    }

    fn detect_jobs_into(
        &self,
        channels: &[Matrix],
        jobs: &[DetectionJob],
        indices: Option<&[usize]>,
        c: Constellation,
        ws: &mut SearchWorkspace<F::Enumerator>,
        out: &mut Vec<Detection>,
    ) {
        ws.recycle(out);
        ws.begin_batch(channels.len());
        let n = indices.map_or(jobs.len(), <[usize]>::len);
        if self.multi_symbol_eligible(n) {
            return self.detect_jobs_multi(channels, jobs, indices, c, ws, out);
        }
        for t in 0..n {
            let job = &jobs[indices.map_or(t, |ix| ix[t])];
            let h = &channels[job.channel];
            // Take the prep out of its slot so the workspace stays
            // borrowable during the search; put it back afterwards.
            let mut prep = ws.preps[job.channel].take();
            if !ws.prep_fresh[job.channel] {
                Self::refresh_prep(&mut prep, self.sorted_qr, h, &mut ws.qr_ws);
                ws.prep_fresh[job.channel] = true;
            }
            let prep = prep.expect("prep just refreshed");
            out.push(self.detect_prepared(&prep, h.cols(), &job.y, c, ws));
            ws.preps[job.channel] = Some(prep);
        }
    }

    /// The lockstep multi-symbol batch path: jobs are grouped by channel,
    /// and each group's first descents run level-by-level together — one
    /// [`gs_linalg::simd::cdot_soa_multi`] interference kernel per tree
    /// level across the whole group — before each job resumes the standard
    /// Schnorr–Euchner loop from its post-leaf state.
    ///
    /// Bit-identical to the per-job path, symbols and stats: with an
    /// infinite radius and no budget (checked by
    /// [`SphereDecoder::multi_symbol_eligible`]) the per-job first descent
    /// never backtracks, every floating-point expression is evaluated in
    /// the same order per job ([`gs_linalg::simd::cdot_soa_multi`] output
    /// `s` equals `cdot_soa` on job `s`'s column bitwise), and stats are
    /// per-job, so the interleaving is invisible.
    fn detect_jobs_multi(
        &self,
        channels: &[Matrix],
        jobs: &[DetectionJob],
        indices: Option<&[usize]>,
        c: Constellation,
        ws: &mut SearchWorkspace<F::Enumerator>,
        out: &mut Vec<Detection>,
    ) {
        let n = indices.map_or(jobs.len(), <[usize]>::len);
        let job_at = |slot: usize| -> &DetectionJob { &jobs[indices.map_or(slot, |ix| ix[slot])] };
        // Group output slots by channel with a counting sort, O(n +
        // channels): channels in ascending order, slots ascending within
        // each — the grouping a sort of `(channel, slot)` pairs would give.
        // Counts land at `channel + 1`, the prefix sum turns them into
        // group starts, and the scatter advances each start to its group's
        // end.
        let n_channels = channels.len();
        ws.channel_end.clear();
        ws.channel_end.resize(n_channels + 1, 0);
        for t in 0..n {
            ws.channel_end[job_at(t).channel + 1] += 1;
        }
        for ch in 0..n_channels {
            ws.channel_end[ch + 1] += ws.channel_end[ch];
        }
        ws.order.clear();
        ws.order.resize(n, 0);
        for t in 0..n {
            let at = &mut ws.channel_end[job_at(t).channel];
            ws.order[*at] = t as u32;
            *at += 1;
        }
        // Results land out of submission order; pre-fill `out` with
        // recycled placeholders so each detection writes into its slot.
        for _ in 0..n {
            let symbols = ws.take_spare();
            out.push(Detection { symbols, stats: DetectorStats::default() });
        }
        let mut g = 0;
        for ch in 0..n_channels {
            let e = ws.channel_end[ch];
            if e == g {
                continue; // no jobs on this channel
            }
            let h = &channels[ch];
            let nc = h.cols();
            let mut prep = ws.preps[ch].take();
            if !ws.prep_fresh[ch] {
                Self::refresh_prep(&mut prep, self.sorted_qr, h, &mut ws.qr_ws);
                ws.prep_fresh[ch] = true;
            }
            let prep = prep.expect("prep just refreshed");
            let mut s0 = g;
            while s0 < e {
                let k = (e - s0).min(MAX_LOCKSTEP);
                if k >= 2 {
                    let mut slots = [0u32; MAX_LOCKSTEP];
                    slots[..k].copy_from_slice(&ws.order[s0..s0 + k]);
                    self.lockstep_chunk(&prep, nc, c, &slots[..k], jobs, indices, ws, out);
                } else {
                    let slot = ws.order[s0] as usize;
                    let det = self.detect_prepared(&prep, nc, &job_at(slot).y, c, ws);
                    let old = std::mem::replace(&mut out[slot], det);
                    ws.spare.push(old.symbols);
                }
                s0 += k;
            }
            ws.preps[ch] = Some(prep);
            g = e;
        }
    }

    /// Runs one lockstep chunk: the shared first descent, then each job's
    /// resumed search, writing detections into their `out` slots.
    #[allow(clippy::too_many_arguments)]
    fn lockstep_chunk(
        &self,
        prep: &Prep,
        nc: usize,
        c: Constellation,
        slots: &[u32],
        jobs: &[DetectionJob],
        indices: Option<&[usize]>,
        ws: &mut SearchWorkspace<F::Enumerator>,
        out: &mut [Detection],
    ) {
        let k = slots.len();
        let _prof = gs_prof::scope(gs_prof::Stage::Enumerate);
        ws.prepare_levels(nc);
        ws.prepare_multi(k, nc);
        let (qr, sorted) = match prep {
            Prep::Plain(qr) => (qr, None),
            Prep::Sorted(sqr) => (&sqr.qr, Some(sqr)),
        };
        ws.load_r_soa(&qr.r);
        let r = &qr.r;
        // Rotate each job's receive vector into its ŷ slab entry — one
        // Rotate scope for the whole chunk (per-vector scopes would cost
        // more than the 4×4 rotations they bracket).
        {
            let _rot = gs_prof::scope(gs_prof::Stage::Rotate);
            for (s, &slot) in slots.iter().enumerate() {
                let job = &jobs[indices.map_or(slot as usize, |ix| ix[slot as usize])];
                qr.rotate_into_unscoped(&job.y, &mut ws.yhat);
                ws.m_yhat[s * nc..s * nc + nc].copy_from_slice(&ws.yhat[..nc]);
            }
        }
        let mut diverged = false;
        {
            let SearchWorkspace {
                m_enum,
                m_dist,
                m_chosen,
                m_chosen_re,
                m_chosen_im,
                m_best,
                m_yhat,
                il_re,
                il_im,
                ix_re,
                ix_im,
                m_radius,
                m_stats,
                r_re,
                r_im,
                ..
            } = ws;
            m_stats[..k].fill(DetectorStats::default());
            m_radius[..k].fill(0.0);
            // Lockstep first descent: per level, one batched interference
            // kernel, then each job opens the level and takes its cheapest
            // child (always accepted — the radius is infinite).
            for i in (0..nc).rev() {
                let m = nc - 1 - i;
                if m > 0 {
                    let row = i * nc;
                    gs_linalg::simd::cdot_soa_multi(
                        &r_re[row + i + 1..row + nc],
                        &r_im[row + i + 1..row + nc],
                        &il_re[(i + 1) * k..nc * k],
                        &il_im[(i + 1) * k..nc * k],
                        k,
                        &mut ix_re[..k],
                        &mut ix_im[..k],
                    );
                } else {
                    ix_re[..k].fill(0.0);
                    ix_im[..k].fill(0.0);
                }
                let rll = r[(i, i)].re; // real ≥ 0 by QR normalization
                let gain = rll * rll;
                for s in 0..k {
                    if m_radius[s].is_nan() {
                        continue; // diverged: re-run serially below
                    }
                    let stats = &mut m_stats[s];
                    let acc = m_yhat[s * nc + i] - Complex::new(ix_re[s], ix_im[s]);
                    stats.complex_mults += m as u64;
                    let center = if rll > f64::EPSILON { acc / rll } else { Complex::ZERO };
                    let e = &mut m_enum[s * nc + i];
                    self.factory.reset(e, c, center, gain, stats);
                    m_dist[s * nc + i] = m_radius[s];
                    match e.next_child(f64::INFINITY, stats) {
                        Some(child) => {
                            stats.visited_nodes += 1;
                            let re = child.point.i as f64;
                            let im = child.point.q as f64;
                            m_chosen[s * nc + i] = child.point;
                            m_chosen_re[s * nc + i] = re;
                            m_chosen_im[s * nc + i] = im;
                            il_re[i * k + s] = re;
                            il_im[i * k + s] = im;
                            m_radius[s] = m_dist[s * nc + i] + child.cost;
                        }
                        None => {
                            // An exhausted fresh node under an infinite
                            // budget — pathological, but the per-job path
                            // handles it, so fall back to it exactly.
                            m_radius[s] = f64::NAN;
                            diverged = true;
                        }
                    }
                }
            }
            // Resume each job's standard loop from its post-leaf state:
            // level 0, radius shrunk to the leaf distance, solution found.
            for s in 0..k {
                if m_radius[s].is_nan() {
                    continue;
                }
                let leaf = m_radius[s];
                m_best[s * nc..s * nc + nc].copy_from_slice(&m_chosen[s * nc..s * nc + nc]);
                let ctx = SearchCtx {
                    factory: &self.factory,
                    r,
                    yhat: &m_yhat[s * nc..s * nc + nc],
                    c,
                    nc,
                    r_re,
                    r_im,
                };
                let res = run_search_loop(
                    &ctx,
                    None,
                    None,
                    u64::MAX,
                    nc as u64,
                    SearchState { i: 0, radius: leaf, found: true, best_dist: leaf },
                    &mut m_enum[s * nc..s * nc + nc],
                    &mut m_dist[s * nc..s * nc + nc],
                    &mut m_chosen[s * nc..s * nc + nc],
                    &mut m_chosen_re[s * nc..s * nc + nc],
                    &mut m_chosen_im[s * nc..s * nc + nc],
                    &mut m_best[s * nc..s * nc + nc],
                    &mut m_stats[s],
                );
                debug_assert!(res.is_some(), "resume starts from a found solution");
                let det = &mut out[slots[s] as usize];
                det.symbols.clear();
                match sorted {
                    None => det.symbols.extend_from_slice(&m_best[s * nc..s * nc + nc]),
                    Some(sqr) => sqr.unpermute_into(&m_best[s * nc..s * nc + nc], &mut det.symbols),
                }
                det.stats = m_stats[s];
            }
        }
        if diverged {
            for (s, &slot) in slots.iter().enumerate() {
                if !ws.m_radius[s].is_nan() {
                    continue;
                }
                let job = &jobs[indices.map_or(slot as usize, |ix| ix[slot as usize])];
                let det = self.detect_prepared(prep, nc, &job.y, c, ws);
                let old = std::mem::replace(&mut out[slot as usize], det);
                ws.spare.push(old.symbols);
            }
        }
    }
}

/// Upper bound on jobs walked per lockstep chunk — bounds the enumerator
/// slab (`MAX_LOCKSTEP × nc` slots) while comfortably covering a frame's
/// OFDM symbols per subcarrier.
const MAX_LOCKSTEP: usize = 16;

impl<F: EnumeratorFactory> MimoDetector for SphereDecoder<F> {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        let mut ws = self.make_workspace();
        let mut prep = None;
        Self::refresh_prep(&mut prep, self.sorted_qr, h, &mut ws.qr_ws);
        self.detect_prepared(&prep.expect("prep just refreshed"), h.cols(), y, c, &mut ws)
    }

    /// Seeds the opaque workspace with this decoder's
    /// [`SearchWorkspace`], so the `_with` entry points below (and the
    /// `detect_batch` trait default that routes through them) run the
    /// allocation-free [`SphereDecoder::detect_batch_into`] path.
    fn make_batch_workspace(&self) -> crate::detector::DetectorWorkspace {
        let mut ws = crate::detector::DetectorWorkspace::new();
        ws.get_or_insert(SearchWorkspace::<F::Enumerator>::new);
        ws
    }

    /// [`SphereDecoder::detect_batch_into`] behind the type-erased
    /// workspace: per-channel QR amortization (one factorization per entry
    /// of the batch's channel table — an OFDM frame reuses each
    /// subcarrier's channel across all its OFDM symbols), with zero heap
    /// allocations per symbol once `ws` and `out` have warmed up. Output is
    /// bit-identical to per-job [`MimoDetector::detect`]: QR is
    /// deterministic and uncounted by [`DetectorStats`].
    fn detect_batch_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        ws: &mut crate::detector::DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        let sws = ws.get_or_insert(SearchWorkspace::<F::Enumerator>::new);
        self.detect_batch_into(batch, sws, out);
    }

    /// Indexed variant of [`MimoDetector::detect_batch_with`], used by the
    /// persistent worker pool: same amortization, same zero-allocation
    /// steady state.
    fn detect_batch_indexed_with(
        &self,
        batch: &crate::batch::DetectionBatch,
        indices: &[usize],
        ws: &mut crate::detector::DetectorWorkspace,
        out: &mut Vec<Detection>,
    ) {
        let sws = ws.get_or_insert(SearchWorkspace::<F::Enumerator>::new);
        self.detect_jobs_into(batch.channels, batch.jobs, Some(indices), batch.c, sws, out);
    }

    fn name(&self) -> &'static str {
        self.factory.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::apply_channel;
    use crate::ml::MlDetector;
    use crate::sphere::enumerator::ExhaustiveSortFactory;
    use crate::sphere::geosphere_enum::GeosphereFactory;
    use crate::sphere::hess_enum::HessFactory;
    use gs_channel::{sample_cn, RayleighChannel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(
        rng: &mut StdRng,
        c: Constellation,
        na: usize,
        nc: usize,
        noise_var: f64,
    ) -> (Matrix, Vec<Complex>, Vec<GridPoint>) {
        let h = RayleighChannel::new(na, nc).sample_matrix(rng).scale(c.scale());
        let pts = c.points();
        let s: Vec<GridPoint> = (0..nc).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
        let mut y = apply_channel(&h, &s);
        for v in y.iter_mut() {
            *v += sample_cn(rng, noise_var);
        }
        (h, y, s)
    }

    #[test]
    fn noiseless_roundtrip_all_decoders() {
        let mut rng = StdRng::seed_from_u64(141);
        let c = Constellation::Qam16;
        let geo = SphereDecoder::new(GeosphereFactory::full());
        let hess = SphereDecoder::new(HessFactory);
        let fullsort = SphereDecoder::new(ExhaustiveSortFactory);
        for _ in 0..30 {
            let (h, y, s) = random_instance(&mut rng, c, 4, 4, 0.0);
            assert_eq!(geo.detect(&h, &y, c).symbols, s);
            assert_eq!(hess.detect(&h, &y, c).symbols, s);
            assert_eq!(fullsort.detect(&h, &y, c).symbols, s);
        }
    }

    #[test]
    fn matches_exhaustive_ml_under_noise() {
        // The core soundness claim: the sphere decoder returns the exact
        // maximum-likelihood solution.
        let mut rng = StdRng::seed_from_u64(142);
        type DetectFn = Box<dyn Fn(&Matrix, &[Complex], Constellation) -> Detection>;
        let decoders: Vec<(&str, DetectFn)> = vec![
            (
                "geo-full",
                Box::new(|h, y, c| SphereDecoder::new(GeosphereFactory::full()).detect(h, y, c)),
            ),
            (
                "geo-zz",
                Box::new(|h, y, c| {
                    SphereDecoder::new(GeosphereFactory::zigzag_only()).detect(h, y, c)
                }),
            ),
            ("hess", Box::new(|h, y, c| SphereDecoder::new(HessFactory).detect(h, y, c))),
            (
                "geo-sortedqr",
                Box::new(|h, y, c| {
                    SphereDecoder::new(GeosphereFactory::full()).with_sorted_qr().detect(h, y, c)
                }),
            ),
        ];
        for trial in 0..60 {
            let c = if trial % 2 == 0 { Constellation::Qpsk } else { Constellation::Qam16 };
            let nc = 2 + trial % 2; // 2 or 3 streams keeps exhaustive ML fast

            // Heavy noise so ML ≠ transmitted often; exercises real search.
            let (h, y, _) = random_instance(&mut rng, c, nc + 1, nc, 0.5);
            let ml =
                crate::detector::residual_norm_sqr(&h, &y, &MlDetector.detect(&h, &y, c).symbols);
            for (name, det) in &decoders {
                let got = crate::detector::residual_norm_sqr(&h, &y, &det(&h, &y, c).symbols);
                assert!((got - ml).abs() < 1e-9, "{name} trial {trial}: residual {got} vs ML {ml}");
            }
        }
    }

    #[test]
    fn same_visited_nodes_across_enumerators() {
        // Paper Fig. 15 note: "each of the above sphere decoders visit the
        // same number of nodes."
        let mut rng = StdRng::seed_from_u64(143);
        for trial in 0..40 {
            let c = [Constellation::Qam16, Constellation::Qam64][trial % 2];
            let (h, y, _) = random_instance(&mut rng, c, 4, 4, 0.05);
            let geo = SphereDecoder::new(GeosphereFactory::full()).detect(&h, &y, c);
            let zz = SphereDecoder::new(GeosphereFactory::zigzag_only()).detect(&h, &y, c);
            let hess = SphereDecoder::new(HessFactory).detect(&h, &y, c);
            assert_eq!(geo.stats.visited_nodes, hess.stats.visited_nodes, "trial {trial}");
            assert_eq!(zz.stats.visited_nodes, hess.stats.visited_nodes, "trial {trial}");
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_workspace() {
        // The zero-alloc refactor's guard: detection through one long-lived
        // workspace must be bit-identical (symbols and stats) to detection
        // with a fresh workspace per call.
        let mut rng = StdRng::seed_from_u64(148);
        let c = Constellation::Qam64;
        let geo = SphereDecoder::new(GeosphereFactory::full());
        let mut shared = geo.make_workspace();
        for trial in 0..25 {
            let (h, y, _) = random_instance(&mut rng, c, 4, 4, 0.1);
            let reference = geo.detect(&h, &y, c);
            let qr = gs_linalg::qr_decompose(&h);
            let yhat = qr.rotate(&y);
            let mut stats = DetectorStats::default();
            let symbols = geo.detect_with_qr(&qr.r, &yhat[..4], c, &mut shared, &mut stats);
            assert_eq!(symbols, &reference.symbols[..], "trial {trial}");
            assert_eq!(stats, reference.stats, "trial {trial}");
        }
    }

    #[test]
    fn multi_symbol_lockstep_matches_single_symbol_bitwise() {
        // The lockstep first descent must be invisible: same symbols, same
        // stats, for plain and sorted QR, across group sizes that exercise
        // singleton groups (k = 1), chunk splits (> MAX_LOCKSTEP), and the
        // AVX2 kernel's symbol remainder (k mod 4 ≠ 0).
        use crate::batch::{DetectionBatch, DetectionJob};
        let mut rng = StdRng::seed_from_u64(149);
        for (trial, &(n_channels, n_jobs)) in
            [(1usize, 2usize), (3, 7), (2, 40), (5, 11)].iter().enumerate()
        {
            let c = [Constellation::Qam16, Constellation::Qam64][trial % 2];
            let channels: Vec<Matrix> = (0..n_channels)
                .map(|_| RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale()))
                .collect();
            let pts = c.points();
            let jobs: Vec<DetectionJob> = (0..n_jobs)
                .map(|j| {
                    let s: Vec<GridPoint> =
                        (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
                    let mut y = apply_channel(&channels[j % n_channels], &s);
                    for v in y.iter_mut() {
                        *v += sample_cn(&mut rng, 0.1);
                    }
                    DetectionJob { channel: j % n_channels, y }
                })
                .collect();
            let batch = DetectionBatch { channels: &channels, jobs: &jobs, c };
            for sorted in [false, true] {
                let mut multi = SphereDecoder::new(GeosphereFactory::full());
                multi.sorted_qr = sorted;
                let single = multi.with_single_symbol();
                assert!(multi.multi_symbol && !single.multi_symbol);
                let mut ws_m = multi.make_workspace();
                let mut ws_s = single.make_workspace();
                let (mut out_m, mut out_s) = (Vec::new(), Vec::new());
                multi.detect_batch_into(&batch, &mut ws_m, &mut out_m);
                single.detect_batch_into(&batch, &mut ws_s, &mut out_s);
                assert_eq!(out_m.len(), out_s.len());
                for (j, (m, s)) in out_m.iter().zip(&out_s).enumerate() {
                    assert_eq!(m.symbols, s.symbols, "trial {trial} sorted {sorted} job {j}");
                    assert_eq!(m.stats, s.stats, "trial {trial} sorted {sorted} job {j}");
                }
            }
        }
    }

    #[test]
    fn geosphere_uses_fewer_peds_than_hess_on_dense_constellations() {
        let mut rng = StdRng::seed_from_u64(144);
        let c = Constellation::Qam256;
        let mut geo_total = 0u64;
        let mut hess_total = 0u64;
        for _ in 0..30 {
            let (h, y, _) = random_instance(&mut rng, c, 4, 4, 0.001);
            geo_total +=
                SphereDecoder::new(GeosphereFactory::full()).detect(&h, &y, c).stats.ped_calcs;
            hess_total += SphereDecoder::new(HessFactory).detect(&h, &y, c).stats.ped_calcs;
        }
        assert!(
            (geo_total as f64) < 0.5 * hess_total as f64,
            "Geosphere {geo_total} vs ETH-SD {hess_total} PEDs"
        );
    }

    #[test]
    fn geometric_pruning_reduces_peds() {
        let mut rng = StdRng::seed_from_u64(145);
        let c = Constellation::Qam64;
        let mut full_total = 0u64;
        let mut zz_total = 0u64;
        for _ in 0..40 {
            let (h, y, _) = random_instance(&mut rng, c, 4, 4, 0.003);
            full_total +=
                SphereDecoder::new(GeosphereFactory::full()).detect(&h, &y, c).stats.ped_calcs;
            zz_total += SphereDecoder::new(GeosphereFactory::zigzag_only())
                .detect(&h, &y, c)
                .stats
                .ped_calcs;
        }
        assert!(full_total <= zz_total, "pruning must not add PEDs: {full_total} vs {zz_total}");
        assert!(full_total < zz_total, "pruning should save PEDs: {full_total} vs {zz_total}");
    }

    #[test]
    fn works_with_more_rx_than_tx() {
        let mut rng = StdRng::seed_from_u64(146);
        let c = Constellation::Qam16;
        let geo = SphereDecoder::new(GeosphereFactory::full());
        for _ in 0..20 {
            let (h, y, s) = random_instance(&mut rng, c, 4, 2, 0.0);
            assert_eq!(geo.detect(&h, &y, c).symbols, s);
        }
    }

    #[test]
    fn single_stream_detection() {
        let mut rng = StdRng::seed_from_u64(147);
        let c = Constellation::Qam64;
        let geo = SphereDecoder::new(GeosphereFactory::full());
        let (h, y, s) = random_instance(&mut rng, c, 2, 1, 0.0);
        assert_eq!(geo.detect(&h, &y, c).symbols, s);
    }
}

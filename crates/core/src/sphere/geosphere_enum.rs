//! Geosphere's two-dimensional zigzag enumeration (paper §3.1.1) with
//! optional geometrical pruning (paper §3.2).
//!
//! The enumerator approximates an expanding-ring search around the received
//! symbol `ỹ` (Figure 6): the constellation is viewed as √|O| *vertical*
//! PAM subconstellations (columns, fixed in-phase coordinate). Exploring a
//! point (a) zigzags **vertically** within that point's column and (b)
//! zigzags **horizontally** to activate one new column — but only ever
//! keeps **one live candidate per column** in the priority queue, which is
//! what caps the queue at √|O| entries and makes each exploration cost at
//! most two new distance computations (versus √|O| upfront for the
//! row-parallel ETH-SD/Hess scheme).
//!
//! With geometrical pruning enabled, every would-be distance computation is
//! preceded by the Eq. 9 table-lookup lower bound; a bound at or above the
//! remaining sphere budget kills the whole zigzag direction (the bound is
//! monotone along each direction) without computing a single exact PED.

use crate::geoprune::distance_lower_bound;
use crate::sphere::enumerator::{Child, EnumeratorFactory, NodeEnumerator};
use crate::stats::DetectorStats;
use gs_linalg::Complex;
use gs_modulation::{AxisZigzag, Constellation, GridPoint};

/// Factory for Geosphere enumerators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeosphereFactory {
    /// Enables the §3.2 geometric pruning bound (the paper's "Full"
    /// variant). Disabled = the "2D zigzag only" ablation of §5.3.2.
    pub geometric_pruning: bool,
}

impl GeosphereFactory {
    /// The full Geosphere design: zigzag enumeration + geometric pruning.
    pub fn full() -> Self {
        GeosphereFactory { geometric_pruning: true }
    }

    /// The enumeration-only ablation (no geometric pruning).
    pub fn zigzag_only() -> Self {
        GeosphereFactory { geometric_pruning: false }
    }
}

/// Levels per axis of the densest constellation (256-QAM), which is also
/// the paper's √|O| cap on the live queue.
const MAX_SIDE: usize = Constellation::Qam256.side();

/// A queued candidate: exact branch cost and the point's level indices.
#[derive(Clone, Copy, Debug, Default)]
struct Candidate {
    cost: f64,
    /// In-phase level index: the column that owns the candidate.
    column: u8,
    /// Quadrature level index.
    row: u8,
}

impl Candidate {
    /// The pop order: lower cost first; between exactly equal costs, the
    /// lower column index first. Costs are `gain · |p − ỹ|² ≥ 0` and each
    /// column holds at most one live candidate, so for finite inputs this
    /// is a strict total order on the queue and the pop sequence is fully
    /// determined. (A NaN cost precedes nothing; the engine rejects a NaN
    /// child anyway.)
    #[inline]
    fn precedes(&self, other: &Candidate) -> bool {
        (self.cost < other.cost) | ((self.cost == other.cost) & (self.column < other.column))
    }
}

/// Geosphere's per-node enumerator: fixed-capacity inline state, so a
/// reset touches a few words and no enumerator ever allocates.
pub struct GeosphereEnumerator {
    c: Constellation,
    center: Complex,
    gain: f64,
    geoprune: bool,
    /// Sliced point of `center` as level indices — the origin for Eq. 9
    /// offsets (grid-step offsets are level-index differences).
    slice_column: u8,
    slice_row: u8,
    /// Live candidates, at most one per column, in no particular order:
    /// `queue[..len]`. Popped by a linear scan for the minimum under
    /// [`Candidate::precedes`].
    queue: [Candidate; MAX_SIDE],
    len: u8,
    /// Vertical zigzag cursor per column (indexed by the column's level
    /// index). Every column zigzags toward the same target, `center.im`.
    /// Only activated columns are ever read; a spent or bound-killed
    /// column holds the exhausted cursor.
    columns: [AxisZigzag; MAX_SIDE],
    /// A vertical cursor that has just yielded the slice row: where every
    /// newly activated column resumes.
    column_start: AxisZigzag,
    /// Horizontal zigzag over columns toward `center.re`; exhausted once
    /// every column is activated or the bound killed the rest.
    horizontal: AxisZigzag,
    /// Column owning the most recently returned child; its successors are
    /// generated lazily on the next call (deferring PEDs as late as
    /// possible).
    pending_explore: Option<u8>,
}

impl Default for GeosphereEnumerator {
    /// An exhausted enumerator (no live candidates, every cursor spent);
    /// a slab placeholder until [`EnumeratorFactory::reset`] opens a node.
    fn default() -> Self {
        GeosphereEnumerator {
            c: Constellation::Qpsk,
            center: Complex::ZERO,
            gain: 0.0,
            geoprune: false,
            slice_column: 0,
            slice_row: 0,
            queue: [Candidate::default(); MAX_SIDE],
            len: 0,
            columns: [AxisZigzag::default(); MAX_SIDE],
            column_start: AxisZigzag::default(),
            horizontal: AxisZigzag::default(),
            pending_explore: None,
        }
    }
}

impl GeosphereEnumerator {
    /// Opens a node: stores its per-node constants (constellation, center,
    /// gain, pruning switch) and both axis cursors, and empties the queue.
    /// Returns the slice column.
    #[inline(always)]
    fn open(
        &mut self,
        c: Constellation,
        center: Complex,
        gain: f64,
        geoprune: bool,
        stats: &mut DetectorStats,
    ) -> usize {
        self.c = c;
        self.center = center;
        self.gain = gain;
        self.geoprune = geoprune;
        self.len = 0;
        self.pending_explore = None;
        // Each axis zigzag starts at that axis's slice: together the two
        // starts are the node's one slicing operation.
        stats.slices += 1;
        let (first_column, horizontal) = AxisZigzag::start(c, center.re);
        let (first_row, column_start) = AxisZigzag::start(c, center.im);
        self.slice_column = first_column as u8;
        self.slice_row = first_row as u8;
        self.horizontal = horizontal;
        self.column_start = column_start;
        first_column
    }

    /// Re-initializes for a new node (the reuse protocol's `reset`):
    /// behaviorally identical to a fresh enumerator, and O(1) — the queue
    /// and the column cursors are overwritten lazily, never cleared.
    #[inline(always)]
    fn reset_for(
        &mut self,
        c: Constellation,
        center: Complex,
        gain: f64,
        geoprune: bool,
        stats: &mut DetectorStats,
    ) {
        let column = self.open(c, center, gain, geoprune, stats);
        // Activate the slice's own column (the horizontal zigzag's first
        // level); under an infinite budget its head always survives.
        self.activate_column(column, f64::INFINITY, stats);
    }

    /// [`GeosphereEnumerator::reset_for`] then `next_child(∞)` in one step.
    /// After the reset the slice column's head is the only queued
    /// candidate, so it is the first child: it is returned without the
    /// push and the pop, and the enumerator is left exactly as the pop
    /// leaves it — queue empty, the slice column armed, its successors
    /// pending — with the same counts.
    #[inline(always)]
    fn open_at_slice(
        &mut self,
        c: Constellation,
        center: Complex,
        gain: f64,
        geoprune: bool,
        stats: &mut DetectorStats,
    ) -> Child {
        let column = self.open(c, center, gain, geoprune, stats);
        let row = self.slice_row as usize;
        if geoprune {
            // The head's Eq. 9 bound is `gain · (T[0] + T[0])`, zero (or
            // NaN), which is never ≥ the infinite activation budget: the
            // check is counted and never prunes.
            stats.bound_checks += 1;
        }
        let cost = self.ped(column, row);
        stats.ped_calcs += 1;
        self.columns[column] = self.column_start;
        self.pending_explore = Some(column as u8);
        Child { point: self.point(column, row), cost }
    }

    /// The exact branch cost of the point at the given level indices,
    /// through the shared per-point unit — the same expression `ped_soa`
    /// evaluates per lane, so Geosphere's lazy one-at-a-time enumeration
    /// and ETH-SD's row-head batches agree bit for bit on every cost.
    #[inline]
    fn ped(&self, column: usize, row: usize) -> f64 {
        gs_linalg::simd::ped_point(
            self.c.coord_of_index(column) as f64,
            self.c.coord_of_index(row) as f64,
            self.center,
            self.gain,
        )
    }

    /// The constellation point at the given level indices.
    #[inline]
    fn point(&self, column: usize, row: usize) -> GridPoint {
        GridPoint { i: self.c.coord_of_index(column), q: self.c.coord_of_index(row) }
    }

    /// Lower-bounds the branch cost of a point at the given level indices
    /// (Eq. 9 offsets from the slice).
    #[inline]
    fn bound(&self, column: usize, row: usize) -> f64 {
        self.bound_at(
            column.abs_diff(self.slice_column as usize),
            row.abs_diff(self.slice_row as usize),
        )
    }

    /// The Eq. 9 bound `gain · (T[dI] + T[dQ])` at grid-step offsets
    /// `(dI, dQ)` from the slice. Monotone in each offset.
    #[inline]
    fn bound_at(&self, d_i: usize, d_q: usize) -> f64 {
        self.gain * distance_lower_bound(d_i, d_q)
    }

    /// Pushes a candidate after the (optional) bound test and the exact
    /// PED computation. Returns `false` when the bound killed it.
    #[inline(always)]
    fn try_push(
        &mut self,
        column: usize,
        row: usize,
        budget: f64,
        stats: &mut DetectorStats,
    ) -> bool {
        if self.geoprune {
            stats.bound_checks += 1;
            if self.bound(column, row) >= budget {
                stats.bound_prunes += 1;
                return false;
            }
        }
        let cost = self.ped(column, row);
        stats.ped_calcs += 1;
        // At most one candidate per column, so `len < side ≤ MAX_SIDE`.
        debug_assert!((self.len as usize) < self.c.side(), "queue grew past √|O|");
        self.queue[self.len as usize] = Candidate { cost, column: column as u8, row: row as u8 };
        self.len += 1;
        true
    }

    /// Vertical zigzag: advance `column`'s cursor and enqueue the next
    /// point of that column. A bound kill exhausts the column (the bound is
    /// monotone along the vertical zigzag).
    #[inline(always)]
    fn advance_column(&mut self, column: usize, budget: f64, stats: &mut DetectorStats) {
        if self.columns[column].is_done() {
            return;
        }
        // Every row after a column's head is at least one grid step from
        // the slice row. A bound that prunes at dQ = 1 therefore prunes
        // whichever row the zigzag yields next, so the column dies without
        // taking the step (the head's successor is exactly at dQ = 1).
        if self.geoprune && self.bound_at(column.abs_diff(self.slice_column as usize), 1) >= budget
        {
            stats.bound_checks += 1;
            stats.bound_prunes += 1;
            self.columns[column] = AxisZigzag::default();
            return;
        }
        let Some(row) = self.columns[column].next_index(self.c, self.center.im) else { return };
        if !self.try_push(column, row, budget, stats) {
            self.columns[column] = AxisZigzag::default(); // rest of column dead
        }
    }

    /// Horizontal zigzag: activate the next column in I-zigzag order. A
    /// bound kill exhausts the horizontal direction entirely.
    #[inline(always)]
    fn advance_horizontal(&mut self, budget: f64, stats: &mut DetectorStats) {
        if self.horizontal.is_done() {
            return;
        }
        // Every column after the slice's is at least one grid step from it:
        // a bound that prunes at dI = 1 prunes the next column on either
        // side, so the direction dies without taking the zigzag step.
        if self.geoprune && self.bound_at(1, 0) >= budget {
            stats.bound_checks += 1;
            stats.bound_prunes += 1;
            self.horizontal = AxisZigzag::default();
            return;
        }
        let Some(column) = self.horizontal.next_index(self.c, self.center.re) else { return };
        // The paper's Step 3(b) guard — "if no other constellation point in
        // zh's PAM subconstellation is in Q" — holds by construction here:
        // the global horizontal cursor activates each column exactly once.
        if self.geoprune {
            stats.bound_checks += 1;
            // Cheapest conceivable point of the new column: same row as the
            // slice (dQ = 0).
            if self.bound(column, self.slice_row as usize) >= budget {
                stats.bound_prunes += 1;
                // Monotone in dI ⇒ all further columns dead.
                self.horizontal = AxisZigzag::default();
                return;
            }
        }
        self.activate_column(column, budget, stats);
    }

    /// Enqueues `column`'s head (the slice row) and arms its vertical
    /// cursor — only if the head survived: a bound kill on the column head
    /// (its dQ term is 0, so only the dI term can fire) dooms the column.
    #[inline(always)]
    fn activate_column(&mut self, column: usize, budget: f64, stats: &mut DetectorStats) {
        let pushed = self.try_push(column, self.slice_row as usize, budget, stats);
        self.columns[column] = if pushed { self.column_start } else { AxisZigzag::default() };
    }

    /// Removes and returns the first live candidate in pop order.
    #[inline(always)]
    fn pop(&mut self) -> Option<Candidate> {
        let live = &self.queue[..self.len as usize];
        let first = *live.first()?;
        // The scan selects rather than branches: which candidate wins is
        // data-dependent, and a mispredicted branch per comparison would
        // cost more than the comparison.
        let (mut at, mut best) = (0, first);
        for (k, cand) in live.iter().enumerate().skip(1) {
            let wins = cand.precedes(&best);
            at = if wins { k } else { at };
            best.cost = if wins { cand.cost } else { best.cost };
            best.column = if wins { cand.column } else { best.column };
        }
        let best = live[at];
        self.len -= 1;
        self.queue[at] = self.queue[self.len as usize];
        Some(best)
    }

    /// Number of live candidates in the queue — at most one per column, so
    /// never more than √|O| (the paper's bound).
    pub fn queue_len(&self) -> usize {
        self.len as usize
    }
}

impl NodeEnumerator for GeosphereEnumerator {
    #[inline(always)]
    fn next_child(&mut self, budget: f64, stats: &mut DetectorStats) -> Option<Child> {
        // Deferred successor generation for the previously explored point
        // (paper Step 3a/3b) — runs only when the decoder actually needs
        // another sibling, by which time the budget may already exclude it.
        if let Some(column) = self.pending_explore.take() {
            self.advance_column(column as usize, budget, stats);
            self.advance_horizontal(budget, stats);
        }
        // If the queue ran dry but unactivated columns remain (possible
        // when bound kills emptied it), keep trying to activate.
        while self.len == 0 && !self.horizontal.is_done() {
            self.advance_horizontal(budget, stats);
        }
        let cand = self.pop()?;
        self.pending_explore = Some(cand.column);
        Some(Child { point: self.point(cand.column as usize, cand.row as usize), cost: cand.cost })
    }
}

impl EnumeratorFactory for GeosphereFactory {
    type Enumerator = GeosphereEnumerator;

    fn make(
        &self,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    ) -> GeosphereEnumerator {
        let mut e = GeosphereEnumerator::default();
        e.reset_for(c, center, gain, self.geometric_pruning, stats);
        e
    }

    #[inline]
    fn reset(
        &self,
        e: &mut GeosphereEnumerator,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    ) {
        e.reset_for(c, center, gain, self.geometric_pruning, stats);
    }

    #[inline]
    fn reset_to_first(
        &self,
        e: &mut GeosphereEnumerator,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    ) -> Option<Child> {
        Some(e.open_at_slice(c, center, gain, self.geometric_pruning, stats))
    }

    fn name(&self) -> &'static str {
        if self.geometric_pruning {
            "Geosphere"
        } else {
            "Geosphere (2D zigzag only)"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(c: Constellation, center: Complex, geoprune: bool) -> (Vec<Child>, DetectorStats) {
        let mut stats = DetectorStats::default();
        let factory =
            if geoprune { GeosphereFactory::full() } else { GeosphereFactory::zigzag_only() };
        let mut e = factory.make(c, center, 1.0, &mut stats);
        let mut out = Vec::new();
        while let Some(ch) = e.next_child(f64::INFINITY, &mut stats) {
            out.push(ch);
        }
        (out, stats)
    }

    #[test]
    fn enumerates_all_points_in_nondecreasing_order() {
        for c in Constellation::ALL {
            for &(re, im) in
                &[(0.0, 0.0), (0.9, -0.4), (-3.7, 2.2), (16.0, -16.0), (1.0, 1.0), (-0.49, 5.51)]
            {
                let (children, _) = drain(c, Complex::new(re, im), false);
                assert_eq!(children.len(), c.size(), "{c:?} must enumerate everything");
                for w in children.windows(2) {
                    assert!(
                        w[0].cost <= w[1].cost + 1e-12,
                        "{c:?} at ({re},{im}): {} then {}",
                        w[0].cost,
                        w[1].cost
                    );
                }
                let mut seen: Vec<_> = children.iter().map(|ch| (ch.point.i, ch.point.q)).collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), c.size(), "{c:?}: duplicate points");
            }
        }
    }

    #[test]
    fn first_child_is_the_slice() {
        for c in Constellation::ALL {
            let center = Complex::new(1.3, -2.2);
            let (children, _) = drain(c, center, false);
            assert_eq!(children[0].point, c.slice(center));
        }
    }

    #[test]
    fn queue_stays_within_sqrt_o() {
        // The paper's bound: priority queue length at most √|O|.
        let c = Constellation::Qam256;
        let mut stats = DetectorStats::default();
        let mut e =
            GeosphereFactory::zigzag_only().make(c, Complex::new(0.2, 0.7), 1.0, &mut stats);
        for _ in 0..c.size() {
            assert!(e.queue_len() <= c.side(), "queue grew past √|O|: {}", e.queue_len());
            if e.next_child(f64::INFINITY, &mut stats).is_none() {
                break;
            }
        }
    }

    #[test]
    fn lazy_ped_accounting() {
        // Getting the first child of a 256-QAM node must cost exactly one
        // PED (the slice) — not √|O| = 16 like the row-parallel scheme.
        let mut stats = DetectorStats::default();
        let mut e = GeosphereFactory::zigzag_only().make(
            Constellation::Qam256,
            Complex::new(0.2, 0.7),
            1.0,
            &mut stats,
        );
        let first = e.next_child(f64::INFINITY, &mut stats).unwrap();
        assert_eq!(stats.ped_calcs, 1, "first child must cost a single PED");
        assert!(first.cost >= 0.0);
        // The second child costs at most two more PEDs (one vertical, one
        // horizontal successor).
        e.next_child(f64::INFINITY, &mut stats).unwrap();
        assert!(stats.ped_calcs <= 3, "got {}", stats.ped_calcs);
    }

    #[test]
    fn geometric_pruning_skips_peds_under_tight_budget() {
        let c = Constellation::Qam256;
        let center = Complex::new(0.1, -0.3);
        let mut stats_full = DetectorStats::default();
        let mut e = GeosphereFactory::full().make(c, center, 1.0, &mut stats_full);
        // Tight budget: only the slice itself can fit.
        let budget = 0.5;
        let first = e.next_child(budget, &mut stats_full).unwrap();
        assert_eq!(first.point, c.slice(center));
        // Everything else is bound-pruned without exact PEDs.
        let _ = e.next_child(budget, &mut stats_full);
        assert!(
            stats_full.ped_calcs <= 2,
            "bound should avoid exact PEDs, got {}",
            stats_full.ped_calcs
        );
        assert!(stats_full.bound_prunes > 0);
    }

    #[test]
    fn pruned_and_unpruned_agree_on_surviving_order() {
        // With a finite budget, the full variant must yield exactly the
        // prefix of the unpruned ordering that fits the budget.
        let c = Constellation::Qam64;
        let center = Complex::new(2.4, -1.7);
        let budget = 30.0;
        let (all, _) = drain(c, center, false);
        let expected: Vec<_> = all.iter().take_while(|ch| ch.cost < budget).collect();

        let mut stats = DetectorStats::default();
        let mut e = GeosphereFactory::full().make(c, center, 1.0, &mut stats);
        let mut got = Vec::new();
        while let Some(ch) = e.next_child(budget, &mut stats) {
            if ch.cost >= budget {
                break;
            }
            got.push(ch);
        }
        assert_eq!(got.len(), expected.len());
        for (g, e_) in got.iter().zip(&expected) {
            assert!((g.cost - e_.cost).abs() < 1e-12);
        }
    }

    #[test]
    fn reset_replays_identically() {
        // Protocol contract: a reset enumerator matches a fresh one in
        // children, order, and operation counts — including under a finite
        // budget where geometric pruning fires.
        for geoprune in [false, true] {
            let factory =
                if geoprune { GeosphereFactory::full() } else { GeosphereFactory::zigzag_only() };
            let c = Constellation::Qam64;
            let mut dirty_stats = DetectorStats::default();
            let mut reused = factory.make(c, Complex::new(-7.0, 7.0), 5.0, &mut dirty_stats);
            for _ in 0..5 {
                reused.next_child(f64::INFINITY, &mut dirty_stats);
            }

            let center = Complex::new(1.3, -0.6);
            let budget = 40.0;
            let mut stats_fresh = DetectorStats::default();
            let mut stats_reused = DetectorStats::default();
            let mut fresh = factory.make(c, center, 2.0, &mut stats_fresh);
            factory.reset(&mut reused, c, center, 2.0, &mut stats_reused);
            assert_eq!(stats_fresh, stats_reused, "geoprune {geoprune}");
            loop {
                let a = fresh.next_child(budget, &mut stats_fresh);
                let b = reused.next_child(budget, &mut stats_reused);
                assert_eq!(stats_fresh, stats_reused, "geoprune {geoprune}");
                match (a, b) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!(x.point, y.point);
                        assert_eq!(x.cost.to_bits(), y.cost.to_bits());
                    }
                    _ => panic!("fresh and reset enumerations diverged"),
                }
            }
        }
    }

    #[test]
    fn reset_to_first_matches_reset_then_next_child() {
        // The fused first step must be invisible: the same first child, the
        // same counts, and an enumerator that then continues exactly like
        // one that was reset and popped — under finite budgets too, where
        // the deferred successors are bound-pruned.
        for geoprune in [false, true] {
            let factory =
                if geoprune { GeosphereFactory::full() } else { GeosphereFactory::zigzag_only() };
            for c in Constellation::ALL {
                for &(re, im, gain, budget) in &[
                    (0.3, -0.8, 1.0, f64::INFINITY),
                    (2.9, 1.1, 0.7, 3.0),
                    (-20.0, 20.0, 2.5, 50.0),
                    (0.0, 0.0, 4.0, 0.5),
                    (-1.0, 1.0, 0.0, 1.0),
                ] {
                    let center = Complex::new(re, im);
                    let mut stats_ref = DetectorStats::default();
                    let mut stats_fused = DetectorStats::default();
                    let mut reference = GeosphereEnumerator::default();
                    let mut fused = factory.make(c, Complex::new(5.0, -5.0), 3.0, &mut stats_fused);
                    fused.next_child(f64::INFINITY, &mut stats_fused);
                    stats_fused = DetectorStats::default();
                    factory.reset(&mut reference, c, center, gain, &mut stats_ref);
                    let a = reference.next_child(f64::INFINITY, &mut stats_ref).unwrap();
                    let b = factory
                        .reset_to_first(&mut fused, c, center, gain, &mut stats_fused)
                        .unwrap();
                    assert_eq!(a.point, b.point);
                    assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                    assert_eq!(stats_ref, stats_fused, "{c:?} geoprune {geoprune}");
                    loop {
                        let a = reference.next_child(budget, &mut stats_ref);
                        let b = fused.next_child(budget, &mut stats_fused);
                        assert_eq!(stats_ref, stats_fused, "{c:?} geoprune {geoprune}");
                        match (a, b) {
                            (None, None) => break,
                            (Some(x), Some(y)) => {
                                assert_eq!(x.point, y.point);
                                assert_eq!(x.cost.to_bits(), y.cost.to_bits());
                            }
                            _ => panic!("fused and reset enumerations diverged"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn figure6_walkthrough() {
        // Figure 6: 16-QAM, received symbol in the cell of point a with the
        // vertical neighbour b slightly closer than the horizontal c.
        // Center chosen so ordering is a, b, c, d(above a), e...
        let c = Constellation::Qam16;
        // Slice = (1,1); vertical neighbour (1,-1) at distance ~1.6;
        // horizontal (−1,1) at ~1.9; then (1,3) / (3,1)...
        let center = Complex::new(0.95, 0.2);
        let (children, _) = drain(c, center, false);
        assert_eq!(children[0].point, GridPoint { i: 1, q: 1 }); // a
        assert_eq!(children[1].point, GridPoint { i: 1, q: -1 }); // b (vertical)
        assert_eq!(children[2].point, GridPoint { i: -1, q: 1 }); // c (horizontal)
    }
}

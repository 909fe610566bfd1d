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
    /// Re-initializes for a new node (the reuse protocol's `reset`):
    /// behaviorally identical to a fresh enumerator, and O(1) — the queue
    /// and the column cursors are overwritten lazily, never cleared.
    fn reset_for(
        &mut self,
        c: Constellation,
        center: Complex,
        gain: f64,
        geoprune: bool,
        stats: &mut DetectorStats,
    ) {
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
        // Activate the slice's own column (the horizontal zigzag's first
        // level); under an infinite budget its head always survives.
        self.activate_column(first_column, f64::INFINITY, stats);
    }

    /// Lower-bounds the branch cost of a point at the given level indices
    /// (Eq. 9 offsets from the slice).
    #[inline]
    fn bound(&self, column: usize, row: usize) -> f64 {
        self.gain
            * distance_lower_bound(
                column.abs_diff(self.slice_column as usize),
                row.abs_diff(self.slice_row as usize),
            )
    }

    /// Pushes a candidate after the (optional) bound test and the exact
    /// PED computation. Returns `false` when the bound killed it.
    #[inline]
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
        // One exact PED through the shared per-point unit — the same
        // expression `ped_soa` evaluates per lane, so Geosphere's lazy
        // one-at-a-time enumeration and ETH-SD's row-head batches agree
        // bit for bit on every cost.
        let cost = gs_linalg::simd::ped_point(
            self.c.coord_of_index(column) as f64,
            self.c.coord_of_index(row) as f64,
            self.center,
            self.gain,
        );
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
    fn advance_column(&mut self, column: usize, budget: f64, stats: &mut DetectorStats) {
        let Some(row) = self.columns[column].next_index(self.c, self.center.im) else { return };
        if !self.try_push(column, row, budget, stats) {
            self.columns[column] = AxisZigzag::default(); // rest of column dead
        }
    }

    /// Horizontal zigzag: activate the next column in I-zigzag order. A
    /// bound kill exhausts the horizontal direction entirely.
    fn advance_horizontal(&mut self, budget: f64, stats: &mut DetectorStats) {
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
    fn activate_column(&mut self, column: usize, budget: f64, stats: &mut DetectorStats) {
        let pushed = self.try_push(column, self.slice_row as usize, budget, stats);
        self.columns[column] = if pushed { self.column_start } else { AxisZigzag::default() };
    }

    /// Removes and returns the first live candidate in pop order.
    #[inline]
    fn pop(&mut self) -> Option<Candidate> {
        let live = &self.queue[..self.len as usize];
        let first = *live.first()?;
        let (mut at, mut best) = (0, first);
        for (k, cand) in live.iter().enumerate().skip(1) {
            if cand.precedes(&best) {
                (at, best) = (k, *cand);
            }
        }
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
        let point = GridPoint {
            i: self.c.coord_of_index(cand.column as usize),
            q: self.c.coord_of_index(cand.row as usize),
        };
        Some(Child { point, cost: cand.cost })
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

//! The node-enumeration interface shared by all depth-first sphere
//! decoders.
//!
//! A sphere decoder's efficiency "is to a large part determined by the
//! tree-traversal strategy" (paper §2.3), and the traversal strategy is
//! exactly the choice of *enumerator*: the object that, at one tree node,
//! yields that node's children in nondecreasing partial-Euclidean-distance
//! order. The engine in [`crate::sphere::engine`] is identical for
//! Geosphere and ETH-SD; only the enumerator differs — which is also why
//! both visit the same tree nodes (§5.3).
//!
//! ## The reset-and-reuse protocol
//!
//! Tree searches visit one node per enumerator, and a frame's worth of
//! searches visits millions of nodes, so enumerators follow a **reuse
//! protocol** instead of being constructed per visit: a factory can either
//! [`make`](EnumeratorFactory::make) a fresh enumerator (cold path, buffer
//! warmup) or [`reset`](EnumeratorFactory::reset) an existing one in place
//! for a new node, reusing its internal buffers.
//! The engine's [`SearchWorkspace`](crate::sphere::SearchWorkspace) slabs
//! hold enumerators directly, starting from `Default` placeholders, and
//! `reset` each slot per node visit; [`make_in`](EnumeratorFactory::make_in)
//! does the same for an `Option` slot that starts empty. After warmup no
//! enumerator touches the heap again.
//!
//! To add a new enumerator family under the protocol, implement `reset` as
//! "clear every collection, then reinitialize exactly as `make` would":
//! the engine requires a reset enumerator to behave bit-identically to a
//! freshly made one (same children, same order, same operation counts).

use crate::stats::DetectorStats;
use gs_linalg::Complex;
use gs_modulation::{Constellation, GridPoint};

/// One enumerated child: the constellation point and its exact branch cost
/// `c(s) = |r_ll|²·|ỹ − s|²` (Eq. 8).
#[derive(Clone, Copy, Debug)]
pub struct Child {
    /// The constellation point chosen at this level.
    pub point: GridPoint,
    /// Exact branch cost (partial Euclidean distance increment).
    pub cost: f64,
}

/// Enumerates the children of one tree node in nondecreasing branch cost.
pub trait NodeEnumerator {
    /// Yields the next-cheapest unexplored child whose cost may still fit
    /// within `budget` (= `r² − d(parent)`, the remaining sphere budget).
    ///
    /// Returns `None` when the node is exhausted **or** when the enumerator
    /// can prove every remaining child costs at least `budget` (sorted
    /// enumeration makes this sound — Schnorr–Euchner sibling pruning).
    /// Implementations may also return a child costing ≥ `budget`; the
    /// engine re-checks. The budget only ever shrinks between calls.
    fn next_child(&mut self, budget: f64, stats: &mut DetectorStats) -> Option<Child>;
}

/// Creates and re-initializes enumerators (see the module docs for the
/// reset-and-reuse protocol).
///
/// `Send + Sync` is required so sphere decoders built from a factory
/// satisfy the [`crate::MimoDetector`] thread-safety contract; factories
/// are stateless configuration, so this costs nothing.
pub trait EnumeratorFactory: Send + Sync {
    /// The enumerator type produced. `'static` lets a
    /// [`SearchWorkspace`](crate::SearchWorkspace) of this enumerator live
    /// inside a type-erased [`DetectorWorkspace`](crate::DetectorWorkspace);
    /// `Default` is the slab placeholder that `reset` later opens a node
    /// in (it need not be a usable enumerator before that).
    type Enumerator: NodeEnumerator + Default + Send + Sync + 'static;

    /// Creates an enumerator for a node with received symbol `center`
    /// (`ỹ_l`, constellation space) and level gain `gain = |r_ll|²`.
    ///
    /// This is the cold path; steady-state callers reset a warm enumerator
    /// in place ([`EnumeratorFactory::reset`], or
    /// [`EnumeratorFactory::make_in`] for an `Option` slot).
    fn make(
        &self,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    ) -> Self::Enumerator;

    /// Re-initializes `e` in place for a new node, reusing its buffers.
    ///
    /// Must leave `e` — a used enumerator or a `Default` placeholder —
    /// bit-identical in behavior to `self.make(c, center, gain, stats)`:
    /// same child sequence and the same operation counts, while performing
    /// no heap allocation once `e`'s buffers have warmed up to this
    /// constellation's size.
    fn reset(
        &self,
        e: &mut Self::Enumerator,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    );

    /// Resets the enumerator in `slot` for a new node, making one on first
    /// use: the reuse protocol's entry point for callers that hold an
    /// `Option` slot.
    fn make_in(
        &self,
        slot: &mut Option<Self::Enumerator>,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    ) {
        match slot {
            Some(e) => self.reset(e, c, center, gain, stats),
            None => *slot = Some(self.make(c, center, gain, stats)),
        }
    }

    /// Display name of the decoder this enumerator family implements.
    fn name(&self) -> &'static str;
}

/// A reference enumerator that materializes and sorts every child upfront.
///
/// This is the naive strategy the paper's §2.3 criticizes ("fully
/// enumerated and sorted all possibilities … a highly inefficient
/// process"); it exists as a test oracle for the efficient enumerators and
/// to quantify their savings. Because it is an oracle, it keeps the stable
/// (allocating) sort — it is exempt from the zero-allocation invariant the
/// production enumerators uphold, though `reset` still reuses its child
/// buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExhaustiveSortFactory;

/// Enumerator produced by [`ExhaustiveSortFactory`].
#[derive(Default)]
pub struct ExhaustiveSortEnumerator {
    children: Vec<Child>,
    cursor: usize,
}

impl ExhaustiveSortEnumerator {
    fn fill(&mut self, c: Constellation, center: Complex, gain: f64, stats: &mut DetectorStats) {
        self.children.clear();
        self.children.extend(
            c.points().into_iter().map(|p| Child { point: p, cost: gain * p.dist_sqr(center) }),
        );
        stats.ped_calcs += self.children.len() as u64;
        self.children.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        self.cursor = 0;
    }
}

impl EnumeratorFactory for ExhaustiveSortFactory {
    type Enumerator = ExhaustiveSortEnumerator;

    fn make(
        &self,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    ) -> ExhaustiveSortEnumerator {
        let mut e = ExhaustiveSortEnumerator { children: Vec::new(), cursor: 0 };
        e.fill(c, center, gain, stats);
        e
    }

    fn reset(
        &self,
        e: &mut ExhaustiveSortEnumerator,
        c: Constellation,
        center: Complex,
        gain: f64,
        stats: &mut DetectorStats,
    ) {
        e.fill(c, center, gain, stats);
    }

    fn name(&self) -> &'static str {
        "Full-sort SD"
    }
}

impl NodeEnumerator for ExhaustiveSortEnumerator {
    fn next_child(&mut self, _budget: f64, _stats: &mut DetectorStats) -> Option<Child> {
        let child = self.children.get(self.cursor).copied();
        if child.is_some() {
            self.cursor += 1;
        }
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_sort_yields_all_children_in_order() {
        let mut stats = DetectorStats::default();
        let c = Constellation::Qam16;
        let center = Complex::new(0.3, -1.2);
        let mut e = ExhaustiveSortFactory.make(c, center, 2.0, &mut stats);
        assert_eq!(stats.ped_calcs, 16);
        let mut costs = Vec::new();
        while let Some(ch) = e.next_child(f64::INFINITY, &mut stats) {
            costs.push(ch.cost);
        }
        assert_eq!(costs.len(), 16);
        for w in costs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // First child is the slice, cost = gain * |y - slice|².
        let slice = c.slice(center);
        assert!((costs[0] - 2.0 * slice.dist_sqr(center)).abs() < 1e-12);
    }

    #[test]
    fn reset_replays_identically() {
        // The protocol contract: a reset enumerator is indistinguishable
        // from a fresh one — children, order, and operation counts.
        let c = Constellation::Qam64;
        let mut stats_fresh = DetectorStats::default();
        let mut stats_reused = DetectorStats::default();
        let mut reused =
            ExhaustiveSortFactory.make(c, Complex::new(9.9, -9.9), 3.0, &mut stats_reused);
        // Drain it part-way so the reset starts from a dirty state.
        for _ in 0..7 {
            reused.next_child(f64::INFINITY, &mut stats_reused);
        }
        stats_reused = DetectorStats::default();

        let center = Complex::new(0.4, 1.1);
        let fresh = ExhaustiveSortFactory.make(c, center, 2.0, &mut stats_fresh);
        ExhaustiveSortFactory.reset(&mut reused, c, center, 2.0, &mut stats_reused);
        assert_eq!(stats_fresh, stats_reused);
        let mut fresh = fresh;
        loop {
            let a = fresh.next_child(f64::INFINITY, &mut stats_fresh);
            let b = reused.next_child(f64::INFINITY, &mut stats_reused);
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

    #[test]
    fn make_in_allocates_once_then_reuses() {
        let c = Constellation::Qam16;
        let mut stats = DetectorStats::default();
        let mut slot: Option<ExhaustiveSortEnumerator> = None;
        ExhaustiveSortFactory.make_in(&mut slot, c, Complex::new(0.1, 0.2), 1.0, &mut stats);
        assert!(slot.is_some());
        let cap = slot.as_ref().unwrap().children.capacity();
        ExhaustiveSortFactory.make_in(&mut slot, c, Complex::new(-1.1, 2.2), 1.5, &mut stats);
        assert_eq!(slot.as_ref().unwrap().children.capacity(), cap, "reset must reuse the buffer");
    }
}

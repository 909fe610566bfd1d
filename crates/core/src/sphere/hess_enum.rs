//! The ETH-SD enumerator: Hess et al. row-subconstellation zigzag.
//!
//! The comparison decoder of the paper's §5.3: "we base our implementation
//! of ETH-SD on the VLSI implementation of Burg et al., but … we use the
//! superior method of Hess et al.: Hess' method splits the QAM
//! constellation into horizontal subconstellations, performs an
//! one-dimensional zigzag, and then compares Euclidean distances across
//! all subconstellations."
//!
//! Enumeration is exact (same child order as Geosphere), but the cost
//! profile differs: the first child of a node requires computing the head
//! PED of **every** row — √|O| distance calculations — whereas Geosphere
//! pays one. This is precisely the gap Figures 14 and 15 measure.

use crate::sphere::enumerator::{Child, EnumeratorFactory, NodeEnumerator};
use crate::stats::DetectorStats;
use gs_linalg::Complex;
use gs_modulation::{AxisZigzag, Constellation, GridPoint};

/// Factory for ETH-SD (Hess) enumerators.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HessFactory;

/// Per-row state: the row's current head candidate and its 1-D zigzag.
struct Row {
    /// Fixed Q coordinate of this horizontal subconstellation.
    q: i32,
    /// Remaining I levels in zigzag order (toward `center.re`).
    iter: AxisZigzag,
    /// Current head candidate cost; `None` when the row is exhausted.
    head: Option<(GridPoint, f64)>,
}

/// The ETH-SD per-node enumerator.
pub struct HessEnumerator {
    rows: Vec<Row>,
    /// Rows are initialized lazily on the first `next_child` so that a node
    /// that is never queried costs nothing.
    initialized: bool,
    c: Constellation,
    center: Complex,
    gain: f64,
    /// SoA scratch for the row-head PED batch (reused across resets):
    /// every head shares the sliced I coordinate, the Q coordinate walks
    /// the rows.
    head_re: Vec<f64>,
    head_im: Vec<f64>,
    head_cost: Vec<f64>,
}

impl Default for HessEnumerator {
    /// An enumerator with no node yet: a slab placeholder until
    /// [`EnumeratorFactory::reset`] opens one.
    fn default() -> Self {
        HessEnumerator {
            rows: Vec::new(),
            initialized: false,
            c: Constellation::Qpsk,
            center: Complex::ZERO,
            gain: 0.0,
            head_re: Vec::new(),
            head_im: Vec::new(),
            head_cost: Vec::new(),
        }
    }
}

impl HessEnumerator {
    fn init(&mut self, stats: &mut DetectorStats) {
        // One slice for the in-phase axis; each row head shares the sliced
        // I coordinate but needs its own distance computation — the √|O|
        // upfront PEDs the paper charges this scheme for, evaluated as one
        // `ped_soa` batch over the rows' (constant-I, per-row-Q) points.
        // Levels are walked by index (not via `axis_levels()`, which
        // materializes a Vec) so a node visit stays allocation-free.
        stats.slices += 1;
        let side = self.c.side();
        // Every row zigzags over the same I levels toward the same target,
        // so one cursor, advanced past the shared head, seeds them all.
        let (head, row_iter) = AxisZigzag::start(self.c, self.center.re);
        let head_i = self.c.coord_of_index(head);
        self.head_re.clear();
        self.head_re.resize(side, head_i as f64);
        self.head_im.clear();
        self.head_im.extend((0..side).map(|qi| self.c.coord_of_index(qi) as f64));
        self.head_cost.clear();
        self.head_cost.resize(side, 0.0);
        gs_linalg::simd::ped_soa(
            &self.head_re,
            &self.head_im,
            self.center,
            self.gain,
            &mut self.head_cost,
        );
        stats.ped_calcs += side as u64;
        for qi in 0..side {
            let q = self.c.coord_of_index(qi);
            let point = GridPoint { i: head_i, q };
            self.rows.push(Row { q, iter: row_iter, head: Some((point, self.head_cost[qi])) });
        }
        self.initialized = true;
    }
}

impl NodeEnumerator for HessEnumerator {
    fn next_child(&mut self, _budget: f64, stats: &mut DetectorStats) -> Option<Child> {
        if !self.initialized {
            self.init(stats);
        }
        // Compare the head of every row; take the global minimum.
        let best_row = self
            .rows
            .iter()
            .enumerate()
            .filter_map(|(k, r)| r.head.map(|(_, cost)| (k, cost)))
            .min_by(|a, b| a.1.total_cmp(&b.1))?
            .0;
        let (point, cost) = self.rows[best_row].head.take().expect("head just observed");
        // Replenish the winning row from its zigzag.
        if let Some(i) = self.rows[best_row].iter.next_coord(self.c, self.center.re) {
            let p = GridPoint { i, q: self.rows[best_row].q };
            let c = self.gain * p.dist_sqr(self.center);
            stats.ped_calcs += 1;
            self.rows[best_row].head = Some((p, c));
        }
        Some(Child { point, cost })
    }
}

impl EnumeratorFactory for HessFactory {
    type Enumerator = HessEnumerator;

    fn make(
        &self,
        c: Constellation,
        center: Complex,
        gain: f64,
        _stats: &mut DetectorStats,
    ) -> HessEnumerator {
        HessEnumerator { c, center, gain, ..HessEnumerator::default() }
    }

    fn reset(
        &self,
        e: &mut HessEnumerator,
        c: Constellation,
        center: Complex,
        gain: f64,
        _stats: &mut DetectorStats,
    ) {
        // Row state is rebuilt lazily on the first `next_child`, exactly as
        // after `make`; clearing keeps the row buffer's allocation.
        e.rows.clear();
        e.initialized = false;
        e.c = c;
        e.center = center;
        e.gain = gain;
    }

    fn name(&self) -> &'static str {
        "ETH-SD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sphere::geosphere_enum::GeosphereFactory;

    fn drain<F: EnumeratorFactory>(
        f: &F,
        c: Constellation,
        center: Complex,
    ) -> (Vec<Child>, DetectorStats) {
        let mut stats = DetectorStats::default();
        let mut e = f.make(c, center, 1.0, &mut stats);
        let mut out = Vec::new();
        while let Some(ch) = e.next_child(f64::INFINITY, &mut stats) {
            out.push(ch);
        }
        (out, stats)
    }

    #[test]
    fn enumerates_all_points_sorted() {
        for c in Constellation::ALL {
            for &(re, im) in &[(0.0, 0.0), (1.4, -0.8), (-9.0, 9.0), (0.2, 3.3)] {
                let (children, _) = drain(&HessFactory, c, Complex::new(re, im));
                assert_eq!(children.len(), c.size());
                for w in children.windows(2) {
                    assert!(w[0].cost <= w[1].cost + 1e-12, "{c:?}");
                }
            }
        }
    }

    #[test]
    fn first_child_costs_sqrt_o_peds() {
        // The structural difference vs Geosphere: ETH-SD pays √|O| PEDs for
        // the first child of a node.
        let c = Constellation::Qam256;
        let mut stats = DetectorStats::default();
        let mut e = HessFactory.make(c, Complex::new(0.2, 0.7), 1.0, &mut stats);
        e.next_child(f64::INFINITY, &mut stats).unwrap();
        assert_eq!(stats.ped_calcs, 16 + 1, "16 row heads + 1 replenish");
    }

    #[test]
    fn reset_replays_identically() {
        let c = Constellation::Qam16;
        let mut dirty = DetectorStats::default();
        let mut reused = HessFactory.make(c, Complex::new(5.0, -5.0), 4.0, &mut dirty);
        for _ in 0..3 {
            reused.next_child(f64::INFINITY, &mut dirty);
        }

        let center = Complex::new(-0.7, 1.9);
        let mut stats_fresh = DetectorStats::default();
        let mut stats_reused = DetectorStats::default();
        let mut fresh = HessFactory.make(c, center, 1.5, &mut stats_fresh);
        HessFactory.reset(&mut reused, c, center, 1.5, &mut stats_reused);
        loop {
            let a = fresh.next_child(f64::INFINITY, &mut stats_fresh);
            let b = reused.next_child(f64::INFINITY, &mut stats_reused);
            assert_eq!(stats_fresh, stats_reused);
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
    fn agrees_with_geosphere_ordering() {
        // Identical exact enumeration order (cost sequence) — the property
        // behind "each of the above sphere decoders visit the same number
        // of nodes" (Fig. 15 note).
        for c in Constellation::ALL {
            for &(re, im) in &[(0.3, -0.2), (2.6, 1.1), (-1.9, -3.4)] {
                let center = Complex::new(re, im);
                let (hess, _) = drain(&HessFactory, c, center);
                let (geo, _) = drain(&GeosphereFactory::zigzag_only(), c, center);
                assert_eq!(hess.len(), geo.len());
                for (h, g) in hess.iter().zip(&geo) {
                    assert!(
                        (h.cost - g.cost).abs() < 1e-12,
                        "{c:?} at {center:?}: {} vs {}",
                        h.cost,
                        g.cost
                    );
                }
            }
        }
    }
}

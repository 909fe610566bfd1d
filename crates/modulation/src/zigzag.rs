//! One-dimensional (PAM) zigzag enumeration.
//!
//! The zigzag rule of the paper's Figure 4 (left): starting from the sliced
//! level, visit the remaining levels of a PAM (sub)constellation in
//! nondecreasing distance from a continuous target, alternating sides. This
//! cursor is the one zigzag implementation in the workspace, shared by
//! Geosphere's 2-D zigzag (vertical *and* horizontal legs) and the
//! ETH-SD/Hess row enumeration.

use crate::constellation::Constellation;

/// A zigzag over the axis levels of a constellation, in nondecreasing
/// distance from a continuous target coordinate.
///
/// [`AxisZigzag::start`] returns the slice (the first level of every
/// zigzag) and a two-byte cursor over the rest: the levels below the slice
/// and the levels above it, each side a count of levels not yet yielded.
/// The constellation and the target are not stored; every step takes them
/// as arguments, so a caller running many zigzags toward one target
/// (Geosphere's columns all zigzag toward `ỹ.im`) stores only the cursors.
/// Passing a different constellation or target than `start` got is a
/// logic error.
///
/// Ties (a target exactly between two levels) go to the upper level. The
/// default cursor is exhausted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AxisZigzag {
    /// Levels below the slice not yet yielded; the next one down is level
    /// index `below − 1`.
    below: u8,
    /// Levels above the slice not yet yielded; the next one up is level
    /// index `side − above`.
    above: u8,
}

impl AxisZigzag {
    /// Starts a zigzag toward `target` on the axis levels of `c`. The first
    /// level of every zigzag is the slice, `c.slice_index(target)`; it is
    /// returned directly, with a cursor over the remaining levels.
    #[inline]
    pub fn start(c: Constellation, target: f64) -> (usize, Self) {
        let first = c.slice_index(target);
        (first, AxisZigzag { below: first as u8, above: (c.side() - first - 1) as u8 })
    }

    /// Yields the next level index (`0..c.side()`), or `None` once every
    /// level has been yielded.
    #[inline]
    pub fn next_index(&mut self, c: Constellation, target: f64) -> Option<usize> {
        let dist = |idx: usize| (c.coord_of_index(idx) as f64 - target).abs();
        let pick_below = match (self.below, self.above) {
            (0, 0) => return None,
            (_, 0) => true,
            (0, _) => false,
            (b, a) => dist(b as usize - 1) < dist(c.side() - a as usize),
        };
        if pick_below {
            self.below -= 1;
            Some(self.below as usize)
        } else {
            let idx = c.side() - self.above as usize;
            self.above -= 1;
            Some(idx)
        }
    }

    /// Yields the next axis coordinate, or `None` once exhausted.
    #[inline]
    pub fn next_coord(&mut self, c: Constellation, target: f64) -> Option<i32> {
        self.next_index(c, target).map(|idx| c.coord_of_index(idx))
    }

    /// Number of levels not yet yielded.
    #[inline]
    pub fn remaining(self) -> usize {
        self.below as usize + self.above as usize
    }

    /// Whether every level has been yielded.
    #[inline]
    pub fn is_done(self) -> bool {
        self.remaining() == 0
    }

    /// The whole zigzag toward `target` as coordinates, in order.
    pub fn order(c: Constellation, target: f64) -> impl Iterator<Item = i32> {
        let (first, mut rest) = AxisZigzag::start(c, target);
        std::iter::once(c.coord_of_index(first))
            .chain(std::iter::from_fn(move || rest.next_coord(c, target)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_order(c: Constellation, target: f64) {
        let order: Vec<i32> = AxisZigzag::order(c, target).collect();
        assert_eq!(order.len(), c.side(), "must enumerate all levels");
        // Distances must be nondecreasing.
        for w in order.windows(2) {
            let d0 = (w[0] as f64 - target).abs();
            let d1 = (w[1] as f64 - target).abs();
            assert!(d0 <= d1 + 1e-12, "{c:?} target {target}: {order:?}");
        }
        // All levels present exactly once.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, c.axis_levels());
    }

    #[test]
    fn enumerates_in_nondecreasing_distance() {
        for c in Constellation::ALL {
            for &t in &[-100.0, -2.3, -1.0, -0.2, 0.0, 0.4, 1.0, 1.7, 2.0, 3.6, 100.0] {
                check_order(c, t);
            }
        }
    }

    #[test]
    fn first_is_slice() {
        for c in Constellation::ALL {
            for &t in &[-5.2, -0.3, 0.9, 4.4] {
                let first = AxisZigzag::order(c, t).next().unwrap();
                assert_eq!(first, c.slice_axis(t));
            }
        }
    }

    #[test]
    fn figure4_example_order() {
        // Figure 4 (left): 4-PAM levels, target between the two middle
        // levels, slightly right of centre: slice = 1, then -1, then 3, -3.
        let order: Vec<i32> = AxisZigzag::order(Constellation::Qam16, 0.4).collect();
        assert_eq!(order, vec![1, -1, 3, -3]);
    }

    #[test]
    fn edge_target_walks_inward() {
        let order: Vec<i32> = AxisZigzag::order(Constellation::Qam16, 9.0).collect();
        assert_eq!(order, vec![3, 1, -1, -3]);
    }

    #[test]
    fn ties_go_to_the_upper_level() {
        // Target 0 is equidistant from ±1, ±3, …: every pair breaks upward.
        let order: Vec<i32> = AxisZigzag::order(Constellation::Qam64, 0.0).collect();
        assert_eq!(order, vec![1, -1, 3, -3, 5, -5, 7, -7]);
    }

    #[test]
    fn remaining_counts_down() {
        let c = Constellation::Qam64;
        let (_, mut z) = AxisZigzag::start(c, 0.3);
        for left in (0..7).rev() {
            assert_eq!(z.remaining(), left + 1);
            assert!(!z.is_done());
            z.next_index(c, 0.3);
        }
        assert!(z.is_done());
        assert_eq!(z.next_index(c, 0.3), None);
        assert!(AxisZigzag::default().is_done());
    }
}

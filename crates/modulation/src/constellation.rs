//! Square QAM constellations on the odd-integer grid.
//!
//! Constellation points live at `{±1, ±3, …, ±(m−1)}²` where `m = √|O|` is
//! the number of PAM levels per axis — the grid of the paper's Figure 7
//! ("constellation points are spaced two units apart"). Transmit-power
//! normalization is exposed as a scale factor ([`Constellation::scale`])
//! that callers fold into the *channel*, so the sphere decoder always works
//! on the integer grid and the geometric-pruning lookup table (Eq. 9) is
//! exact.

use gs_linalg::Complex;

/// The four square QAM constellations used in the paper (§4: 4-, 16-,
/// 64-QAM on the testbed; §5.3: 256-QAM in simulation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Constellation {
    /// 4-QAM (QPSK): 2 bits/symbol.
    Qpsk,
    /// 16-QAM: 4 bits/symbol.
    Qam16,
    /// 64-QAM: 6 bits/symbol.
    Qam64,
    /// 256-QAM: 8 bits/symbol.
    Qam256,
}

impl Constellation {
    /// All supported constellations, sparsest first.
    pub const ALL: [Constellation; 4] =
        [Constellation::Qpsk, Constellation::Qam16, Constellation::Qam64, Constellation::Qam256];

    /// Constellation size `|O|`.
    #[inline]
    pub const fn size(self) -> usize {
        match self {
            Constellation::Qpsk => 4,
            Constellation::Qam16 => 16,
            Constellation::Qam64 => 64,
            Constellation::Qam256 => 256,
        }
    }

    /// Bits per symbol `Q = log2 |O|`.
    #[inline]
    pub const fn bits_per_symbol(self) -> usize {
        match self {
            Constellation::Qpsk => 2,
            Constellation::Qam16 => 4,
            Constellation::Qam64 => 6,
            Constellation::Qam256 => 8,
        }
    }

    /// PAM levels per axis, `m = √|O|`: 2, 4, 8 and 16 in declaration
    /// order. Computed from the variant's position instead of matched on,
    /// so the zigzag steps of the sphere enumerators, which call it per
    /// step, never branch on the constellation.
    #[inline]
    pub const fn side(self) -> usize {
        2 << self as usize
    }

    /// Bits per axis, `Q/2`.
    #[inline]
    pub const fn bits_per_axis(self) -> usize {
        self.bits_per_symbol() / 2
    }

    /// Average symbol energy on the unnormalized grid:
    /// `E_s = 2(m² − 1)/3` for square QAM with spacing 2.
    #[inline]
    pub fn energy(self) -> f64 {
        let m = self.side() as f64;
        2.0 * (m * m - 1.0) / 3.0
    }

    /// Amplitude normalization `1/√E_s`: multiplying grid-domain symbols by
    /// this yields unit average symbol energy.
    #[inline]
    pub fn scale(self) -> f64 {
        1.0 / self.energy().sqrt()
    }

    /// Largest axis coordinate, `m − 1`.
    #[inline]
    pub const fn max_coord(self) -> i32 {
        self.side() as i32 - 1
    }

    /// All axis levels `{−(m−1), …, −1, 1, …, m−1}` in ascending order.
    pub fn axis_levels(self) -> Vec<i32> {
        let m = self.side() as i32;
        (0..m).map(|i| 2 * i - (m - 1)).collect()
    }

    /// All `|O|` constellation points (grid domain), in row-major
    /// (Q-major, then I) order.
    pub fn points(self) -> Vec<GridPoint> {
        let levels = self.axis_levels();
        let mut pts = Vec::with_capacity(self.size());
        for &q in &levels {
            for &i in &levels {
                pts.push(GridPoint { i, q });
            }
        }
        pts
    }

    /// True when `c` is a valid axis coordinate: odd and `|c| ≤ m−1`.
    #[inline]
    pub fn is_valid_coord(self, c: i32) -> bool {
        c.rem_euclid(2) == 1 && c.abs() <= self.max_coord()
    }

    /// Nearest axis level to a continuous coordinate (slicing on the
    /// decision boundaries, clamped to the grid edge).
    #[inline]
    pub fn slice_axis(self, x: f64) -> i32 {
        self.coord_of_index(self.slice_index(x))
    }

    /// Level index (`0..side`) of [`Constellation::slice_axis`]`(x)`.
    #[inline]
    pub fn slice_index(self, x: f64) -> usize {
        let m = self.side() as i64;
        // Shift by (m-1) to a 0..2(m-1) even grid and halve: the nearest
        // level index is `v` rounded half away from zero, then clamped.
        // The rounding is done exactly in integer arithmetic (`v − trunc(v)`
        // is exact), which gives `v.round()` bit for bit without a libm
        // call; negative and NaN `v` clamp to 0 either way.
        let v = (x + (m - 1) as f64) / 2.0;
        let t = v as i64;
        let idx = t.saturating_add((v - t as f64 >= 0.5) as i64);
        idx.clamp(0, m - 1) as usize
    }

    /// Nearest constellation point to an arbitrary received symbol.
    #[inline]
    pub fn slice(self, y: Complex) -> GridPoint {
        GridPoint { i: self.slice_axis(y.re), q: self.slice_axis(y.im) }
    }

    /// Axis level for a 0-based level index.
    #[inline]
    pub fn coord_of_index(self, idx: usize) -> i32 {
        debug_assert!(idx < self.side());
        2 * idx as i32 - self.max_coord()
    }

    /// 0-based level index of an axis coordinate.
    #[inline]
    pub fn index_of_coord(self, coord: i32) -> usize {
        debug_assert!(self.is_valid_coord(coord), "invalid coord {coord}");
        ((coord + self.max_coord()) / 2) as usize
    }
}

/// A constellation point on the odd-integer grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct GridPoint {
    /// In-phase coordinate (odd integer).
    pub i: i32,
    /// Quadrature coordinate (odd integer).
    pub q: i32,
}

impl GridPoint {
    /// Converts to a complex sample in the grid domain.
    #[inline]
    pub fn to_complex(self) -> Complex {
        Complex::new(self.i as f64, self.q as f64)
    }

    /// Squared Euclidean distance to a received symbol.
    #[inline]
    pub fn dist_sqr(self, y: Complex) -> f64 {
        let di = self.i as f64 - y.re;
        let dq = self.q as f64 - y.im;
        di * di + dq * dq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_bits() {
        assert_eq!(Constellation::Qpsk.size(), 4);
        assert_eq!(Constellation::Qam256.bits_per_symbol(), 8);
        for c in Constellation::ALL {
            assert_eq!(c.size(), 1 << c.bits_per_symbol());
            assert_eq!(c.side() * c.side(), c.size());
        }
    }

    #[test]
    fn axis_levels_are_odd_and_symmetric() {
        for c in Constellation::ALL {
            let levels = c.axis_levels();
            assert_eq!(levels.len(), c.side());
            for &l in &levels {
                assert!(c.is_valid_coord(l), "{l} invalid for {c:?}");
            }
            let sum: i32 = levels.iter().sum();
            assert_eq!(sum, 0, "levels not symmetric for {c:?}");
        }
    }

    #[test]
    fn energy_matches_bruteforce() {
        for c in Constellation::ALL {
            let avg: f64 =
                c.points().iter().map(|p| p.to_complex().norm_sqr()).sum::<f64>() / c.size() as f64;
            assert!((avg - c.energy()).abs() < 1e-12, "{c:?}");
            // Normalized constellation has unit average energy.
            let avg_norm: f64 =
                c.points().iter().map(|p| (p.to_complex() * c.scale()).norm_sqr()).sum::<f64>()
                    / c.size() as f64;
            assert!((avg_norm - 1.0).abs() < 1e-12, "{c:?}");
        }
    }

    #[test]
    fn slice_returns_nearest_point() {
        for c in Constellation::ALL {
            let pts = c.points();
            for &(re, im) in &[(0.3, -0.7), (5.9, 5.9), (-100.0, 100.0), (1.0, 1.0), (-0.99, 2.01)]
            {
                let y = Complex::new(re, im);
                let sliced = c.slice(y);
                let best = pts
                    .iter()
                    .min_by(|a, b| a.dist_sqr(y).partial_cmp(&b.dist_sqr(y)).unwrap())
                    .unwrap();
                assert!(
                    (sliced.dist_sqr(y) - best.dist_sqr(y)).abs() < 1e-12,
                    "{c:?} slice({y:?}) = {sliced:?}, best {best:?}"
                );
            }
        }
    }

    #[test]
    fn slice_axis_ties_and_clamping() {
        let c = Constellation::Qam16; // levels -3,-1,1,3
        assert_eq!(c.slice_axis(-10.0), -3);
        assert_eq!(c.slice_axis(10.0), 3);
        assert_eq!(c.slice_axis(0.1), 1);
        assert_eq!(c.slice_axis(-0.1), -1);
        assert_eq!(c.slice_axis(2.2), 3);
        assert_eq!(c.slice_axis(1.9), 1);
    }

    #[test]
    fn slice_index_matches_libm_rounding() {
        // The reference is the `f64::round` formula the integer rounding
        // replaces; they must agree bit for bit, edge cases included.
        fn reference(c: Constellation, x: f64) -> i32 {
            let m = c.side() as i32;
            let idx = ((x + (m - 1) as f64) / 2.0).round() as i64;
            2 * idx.clamp(0, (m - 1) as i64) as i32 - (m - 1)
        }
        let just_below_half = 0.5f64.next_down();
        let mut xs = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
            9.3e18,
            -9.3e18,
            f64::MIN_POSITIVE,
        ];
        for k in -20..=20 {
            let k = k as f64;
            // Odd levels, the decision boundaries between them (even
            // integers), and their floating-point neighbours.
            for x in [k, k + just_below_half, k + 0.5, k - just_below_half] {
                xs.extend([x, x.next_up(), x.next_down()]);
            }
        }
        let mut u = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            u = u.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            xs.push(((u >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 40.0);
        }
        for c in Constellation::ALL {
            for &x in &xs {
                assert_eq!(c.slice_axis(x), reference(c, x), "{c:?} x = {x:e}");
                assert_eq!(c.coord_of_index(c.slice_index(x)), c.slice_axis(x));
            }
        }
    }

    #[test]
    fn coord_index_roundtrip() {
        for c in Constellation::ALL {
            for idx in 0..c.side() {
                let coord = c.coord_of_index(idx);
                assert!(c.is_valid_coord(coord));
                assert_eq!(c.index_of_coord(coord), idx);
            }
        }
    }

    #[test]
    fn points_count_and_uniqueness() {
        for c in Constellation::ALL {
            let pts = c.points();
            assert_eq!(pts.len(), c.size());
            let mut seen = std::collections::HashSet::new();
            for p in pts {
                assert!(seen.insert((p.i, p.q)), "duplicate point {p:?}");
            }
        }
    }
}

//! Point↔bit-pattern lookup tables: the one Gray mapping of the crate.
//!
//! The soft sphere decoder tests "what is bit `k` of this constellation
//! point" millions of times, and the PHY maps and demaps every coded bit
//! of a frame. Both go through [`BitTable`], which packs each point's Gray
//! bits into a `u16` (MSB-first within the symbol) and holds the inverse
//! (bits → point). The tables are built at compile time from the per-axis
//! reflected Gray code ([`crate::gray`]), so looking one up costs nothing
//! and allocates nothing.

use crate::constellation::{Constellation, GridPoint};
use crate::gray::gray_encode;

/// Points of the largest supported constellation (256-QAM).
const MAX_POINTS: usize = 256;

/// `(packed bits, points)` tables of one constellation: the I level's Gray code in the high `Q/2` bits,
/// the Q level's in the low `Q/2` bits.
const fn build(c: Constellation) -> ([u16; MAX_POINTS], [GridPoint; MAX_POINTS]) {
    let side = c.side();
    let half = c.bits_per_axis();
    let max = c.max_coord();
    let mut packed = [0u16; MAX_POINTS];
    let mut points = [GridPoint { i: 0, q: 0 }; MAX_POINTS];
    let mut ii = 0;
    while ii < side {
        let mut qi = 0;
        while qi < side {
            let bits = (gray_encode(ii) << half) | gray_encode(qi);
            packed[ii * side + qi] = bits as u16;
            points[bits] = GridPoint { i: 2 * ii as i32 - max, q: 2 * qi as i32 - max };
            qi += 1;
        }
        ii += 1;
    }
    (packed, points)
}

static TABLES: [([u16; MAX_POINTS], [GridPoint; MAX_POINTS]); 4] = [
    build(Constellation::ALL[0]),
    build(Constellation::ALL[1]),
    build(Constellation::ALL[2]),
    build(Constellation::ALL[3]),
];

/// The point→bits and bits→point tables of one constellation. A handle to
/// static data: building one is free, and it is `Copy`.
#[derive(Clone, Copy, Debug)]
pub struct BitTable {
    c: Constellation,
    /// Indexed by `(level index of I) * side + (level index of Q)`.
    packed: &'static [u16],
    /// Indexed by the packed bits.
    points: &'static [GridPoint],
}

impl BitTable {
    /// The table for a constellation (|O| entries each way).
    pub fn new(c: Constellation) -> Self {
        let slot = Constellation::ALL.iter().position(|&x| x == c).expect("every constellation");
        let (packed, points) = &TABLES[slot];
        BitTable { c, packed: &packed[..c.size()], points: &points[..c.size()] }
    }

    /// The packed bits of a point.
    #[inline]
    pub fn packed(&self, p: GridPoint) -> u16 {
        let side = self.c.side();
        self.packed[self.c.index_of_coord(p.i) * side + self.c.index_of_coord(p.q)]
    }

    /// The point carrying packed bits `bits` (MSB-first, `Q` bits).
    #[inline]
    pub fn point(&self, bits: u16) -> GridPoint {
        self.points[bits as usize]
    }

    /// Bit `k` (MSB-first) of a point.
    #[inline]
    pub fn bit(&self, p: GridPoint, k: usize) -> bool {
        debug_assert!(k < self.c.bits_per_symbol());
        (self.packed(p) >> (self.c.bits_per_symbol() - 1 - k)) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gray::{gray_decode, gray_encode};

    #[test]
    fn pack_matches_unmap() {
        // Each axis's level index Gray-codes into its half of the bits:
        // I in the high Q/2 bits, Q in the low ones, MSB first.
        for c in Constellation::ALL {
            let table = BitTable::new(c);
            let half = c.bits_per_axis();
            for p in c.points() {
                let sym =
                    gray_encode(c.index_of_coord(p.i)) << half | gray_encode(c.index_of_coord(p.q));
                let bits: Vec<bool> =
                    (0..c.bits_per_symbol()).rev().map(|k| sym >> k & 1 == 1).collect();
                let packed = table.packed(p);
                for (k, &b) in bits.iter().enumerate() {
                    assert_eq!(
                        (packed >> (c.bits_per_symbol() - 1 - k)) & 1 == 1,
                        b,
                        "{c:?} {p:?} bit {k}"
                    );
                    assert_eq!(table.bit(p, k), b);
                }
            }
        }
    }

    #[test]
    fn points_invert_packed() {
        for c in Constellation::ALL {
            let table = BitTable::new(c);
            for p in c.points() {
                assert_eq!(table.point(table.packed(p)), p, "{c:?} {p:?}");
            }
            // Closed form: the high Q/2 bits Gray-decode to the I level,
            // the low Q/2 bits to the Q level.
            let half = c.bits_per_axis();
            for sym in 0..c.size() {
                let i = c.coord_of_index(gray_decode(sym >> half));
                let q = c.coord_of_index(gray_decode(sym & ((1 << half) - 1)));
                assert_eq!(table.point(sym as u16), GridPoint { i, q }, "{c:?} {sym}");
            }
        }
    }

    #[test]
    fn packed_values_unique() {
        for c in Constellation::ALL {
            let table = BitTable::new(c);
            let mut seen = std::collections::HashSet::new();
            for p in c.points() {
                assert!(seen.insert(table.packed(p)), "{c:?}: duplicate bit pattern");
            }
            assert_eq!(seen.len(), c.size());
        }
    }
}

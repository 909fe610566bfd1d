//! The Gray code behind the bit mapping.
//!
//! Square QAM is Gray-coded independently per axis (as in 802.11): the first
//! `Q/2` bits of a symbol select the in-phase level, the rest the quadrature
//! level, each through a reflected binary Gray code so that adjacent levels
//! differ in exactly one bit. This makes symbol errors between neighbouring
//! points cost a single bit — the property the convolutional code relies on.
//! [`crate::BitTable`] holds the resulting point↔bits tables.

/// Binary-reflected Gray code of `n`.
#[inline]
pub const fn gray_encode(n: usize) -> usize {
    n ^ (n >> 1)
}

/// Inverse of [`gray_encode`]: the reference the bit tables' closed form
/// is checked against.
#[cfg(test)]
pub(crate) fn gray_decode(g: usize) -> usize {
    let mut n = g;
    let mut shift = 1;
    while (g >> shift) > 0 {
        n ^= g >> shift;
        shift += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitTable;
    use crate::constellation::{Constellation, GridPoint};

    /// The bits of one point, MSB-first.
    fn bits_of(c: Constellation, p: GridPoint) -> Vec<bool> {
        let packed = BitTable::new(c).packed(p);
        (0..c.bits_per_symbol()).rev().map(|k| (packed >> k) & 1 == 1).collect()
    }

    /// Every symbol's `Q` bits (MSB-first), symbol by symbol: the whole
    /// constellation as one bitstream.
    fn all_symbol_bits(c: Constellation) -> Vec<bool> {
        let q = c.bits_per_symbol();
        (0..c.size()).flat_map(|sym| (0..q).rev().map(move |k| (sym >> k) & 1 == 1)).collect()
    }

    /// Maps a bitstream `Q` bits (MSB-first) per point.
    fn map_bits(c: Constellation, bits: &[bool]) -> Vec<GridPoint> {
        let table = BitTable::new(c);
        bits.chunks_exact(c.bits_per_symbol())
            .map(|g| table.point(g.iter().fold(0u16, |acc, &b| acc << 1 | b as u16)))
            .collect()
    }

    #[test]
    fn gray_code_small_values() {
        let expect = [0, 1, 3, 2, 6, 7, 5, 4];
        for (n, &g) in expect.iter().enumerate() {
            assert_eq!(gray_encode(n), g);
            assert_eq!(gray_decode(g), n);
        }
    }

    #[test]
    fn gray_roundtrip_wide() {
        for n in 0..1024 {
            assert_eq!(gray_decode(gray_encode(n)), n);
        }
    }

    #[test]
    fn map_unmap_roundtrip_all_points() {
        for c in Constellation::ALL {
            let bits = all_symbol_bits(c);
            let points = map_bits(c, &bits);
            for (sym, (&p, sym_bits)) in
                points.iter().zip(bits.chunks(c.bits_per_symbol())).enumerate()
            {
                assert_eq!(bits_of(c, p), sym_bits, "{c:?} symbol {sym}");
            }
        }
    }

    #[test]
    fn mapping_is_bijective() {
        for c in Constellation::ALL {
            let points = map_bits(c, &all_symbol_bits(c));
            let mut seen = std::collections::HashSet::new();
            for p in &points {
                assert!(seen.insert((p.i, p.q)), "{c:?}: point {p:?} mapped twice");
            }
            assert_eq!(seen.len(), c.size());
        }
    }

    #[test]
    fn axis_neighbours_differ_in_one_bit() {
        // The Gray property: horizontally or vertically adjacent points
        // differ in exactly one bit.
        for c in Constellation::ALL {
            let levels = c.axis_levels();
            for w in levels.windows(2) {
                let a = bits_of(c, GridPoint { i: w[0], q: levels[0] });
                let b = bits_of(c, GridPoint { i: w[1], q: levels[0] });
                let diff: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                assert_eq!(diff, 1, "{c:?} I-neighbours {} and {}", w[0], w[1]);

                let a = bits_of(c, GridPoint { i: levels[0], q: w[0] });
                let b = bits_of(c, GridPoint { i: levels[0], q: w[1] });
                let diff: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                assert_eq!(diff, 1, "{c:?} Q-neighbours {} and {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn bitstream_roundtrip() {
        let c = Constellation::Qam64;
        let bits: Vec<bool> = (0..120).map(|k| (k * 7 + 3) % 5 < 2).collect();
        let pts = map_bits(c, &bits);
        assert_eq!(pts.len(), 20);
        let back: Vec<bool> = pts.iter().flat_map(|&p| bits_of(c, p)).collect();
        assert_eq!(back, bits);
    }
}

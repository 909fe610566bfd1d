//! Gray bit mapping between bit groups and constellation points.
//!
//! Square QAM is Gray-coded independently per axis (as in 802.11): the first
//! `Q/2` bits of a symbol select the in-phase level, the rest the quadrature
//! level, each through a reflected binary Gray code so that adjacent levels
//! differ in exactly one bit. This makes symbol errors between neighbouring
//! points cost a single bit — the property the convolutional code relies on.

use crate::bits::BitTable;
use crate::constellation::{Constellation, GridPoint};

/// Binary-reflected Gray code of `n`.
#[inline]
pub const fn gray_encode(n: usize) -> usize {
    n ^ (n >> 1)
}

/// Inverse of [`gray_encode`].
#[inline]
pub fn gray_decode(g: usize) -> usize {
    let mut n = g;
    let mut shift = 1;
    while (g >> shift) > 0 {
        n ^= g >> shift;
        shift += 1;
    }
    n
}

/// Maps a group of `Q` bits (MSB-first) to a constellation point.
///
/// # Panics
/// Panics when `bits.len() != c.bits_per_symbol()`.
pub fn map_bits(c: Constellation, bits: &[bool]) -> GridPoint {
    assert_eq!(bits.len(), c.bits_per_symbol(), "wrong number of bits for {c:?}");
    BitTable::new(c).point(pack_msb_first(bits))
}

/// Recovers the `Q` bits (MSB-first) of an exact constellation point.
pub fn unmap_point(c: Constellation, p: GridPoint) -> Vec<bool> {
    let mut bits = Vec::with_capacity(c.bits_per_symbol());
    unmap_point_into(c, p, &mut bits);
    bits
}

/// Appends the `Q` bits (MSB-first) of an exact constellation point to a
/// caller-owned buffer — the allocation-free form of [`unmap_point`].
pub fn unmap_point_into(c: Constellation, p: GridPoint, out: &mut Vec<bool>) {
    push_point_bits(c, &[p], out);
}

/// Packs a bit group MSB-first (the [`BitTable`] index).
fn pack_msb_first(bits: &[bool]) -> u16 {
    bits.iter().fold(0u16, |acc, &b| (acc << 1) | b as u16)
}

/// Appends the `Q` bits (MSB-first) of every point.
fn push_point_bits(c: Constellation, points: &[GridPoint], out: &mut Vec<bool>) {
    let table = BitTable::new(c);
    let q = c.bits_per_symbol();
    for &p in points {
        let packed = table.packed(p);
        out.extend((0..q).rev().map(|k| (packed >> k) & 1 == 1));
    }
}

/// Maps a bitstream to a sequence of constellation points, `Q` bits per
/// symbol.
///
/// # Panics
/// Panics unless `bits.len()` is a multiple of `Q`.
pub fn map_bitstream(c: Constellation, bits: &[bool]) -> Vec<GridPoint> {
    let mut out = Vec::with_capacity(bits.len() / c.bits_per_symbol().max(1));
    map_bitstream_into(c, bits, &mut out);
    out
}

/// [`map_bitstream`] into a reused output buffer (cleared first).
///
/// # Panics
/// Panics unless `bits.len()` is a multiple of `Q`.
pub fn map_bitstream_into(c: Constellation, bits: &[bool], out: &mut Vec<GridPoint>) {
    let q = c.bits_per_symbol();
    assert_eq!(bits.len() % q, 0, "bitstream not a multiple of {q} bits");
    let table = BitTable::new(c);
    out.clear();
    out.extend(bits.chunks_exact(q).map(|chunk| table.point(pack_msb_first(chunk))));
}

/// Recovers the bitstream from a sequence of constellation points.
pub fn unmap_points(c: Constellation, points: &[GridPoint]) -> Vec<bool> {
    let mut out = Vec::with_capacity(points.len() * c.bits_per_symbol());
    unmap_points_into(c, points, &mut out);
    out
}

/// [`unmap_points`] into a reused output buffer (cleared first).
pub fn unmap_points_into(c: Constellation, points: &[GridPoint], out: &mut Vec<bool>) {
    out.clear();
    push_point_bits(c, points, out);
}

#[cfg(test)]
mod tests {
    use super::*;

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
            for sym in 0..c.size() {
                let bits: Vec<bool> =
                    (0..c.bits_per_symbol()).rev().map(|k| (sym >> k) & 1 == 1).collect();
                let p = map_bits(c, &bits);
                assert_eq!(unmap_point(c, p), bits, "{c:?} symbol {sym}");
            }
        }
    }

    #[test]
    fn mapping_is_bijective() {
        for c in Constellation::ALL {
            let mut seen = std::collections::HashSet::new();
            for sym in 0..c.size() {
                let bits: Vec<bool> =
                    (0..c.bits_per_symbol()).rev().map(|k| (sym >> k) & 1 == 1).collect();
                let p = map_bits(c, &bits);
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
                let a = unmap_point(c, GridPoint { i: w[0], q: levels[0] });
                let b = unmap_point(c, GridPoint { i: w[1], q: levels[0] });
                let diff: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                assert_eq!(diff, 1, "{c:?} I-neighbours {} and {}", w[0], w[1]);

                let a = unmap_point(c, GridPoint { i: levels[0], q: w[0] });
                let b = unmap_point(c, GridPoint { i: levels[0], q: w[1] });
                let diff: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                assert_eq!(diff, 1, "{c:?} Q-neighbours {} and {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn bitstream_roundtrip() {
        let c = Constellation::Qam64;
        let bits: Vec<bool> = (0..120).map(|k| (k * 7 + 3) % 5 < 2).collect();
        let pts = map_bitstream(c, &bits);
        assert_eq!(pts.len(), 20);
        assert_eq!(unmap_points(c, &pts), bits);
    }

    #[test]
    #[should_panic(expected = "wrong number of bits")]
    fn wrong_bit_count_panics() {
        map_bits(Constellation::Qam16, &[true, false, true]);
    }
}

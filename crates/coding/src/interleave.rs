//! 802.11-style per-OFDM-symbol block interleaver.
//!
//! The two-permutation interleaver of 802.11a/g/n clause 17: the first
//! permutation spreads adjacent coded bits across nonadjacent subcarriers;
//! the second rotates bits across constellation bit positions so long runs
//! of low-reliability (LSB-like) positions are broken up.
//!
//! The closed-form index map ([`Interleaver::map_index`]) has runtime
//! divisions in it, so an [`Interleaver`] evaluates it once per position
//! when it is built and keeps the permutation and its inverse as tables:
//! every stream method is then a plain table gather. Receivers hold one
//! per frame shape ([`Interleaver::reshape`] rebuilds in place).
//! [`SymbolLayout`] composes the permutation with puncturing for the hard
//! chains, which move packed bits straight between the mother stream and
//! the constellation points.

use crate::puncture::CodeRate;
use crate::viterbi::CodedBit;

/// Interleaver for one OFDM symbol of `n_cbps` coded bits with `n_bpsc`
/// coded bits per subcarrier.
#[derive(Clone, Debug)]
pub struct Interleaver {
    n_cbps: usize,
    n_bpsc: usize,
    /// `to_logical[j]` = logical position carried at transmitted position
    /// `j` (the interleave gather: `tx[j] = logical[to_logical[j]]`).
    to_logical: Vec<u32>,
    /// `to_tx[k]` = [`Interleaver::map_index`]`(k)` (the deinterleave
    /// gather: `logical[k] = tx[to_tx[k]]`).
    to_tx: Vec<u32>,
}

impl Interleaver {
    /// Builds an interleaver and its permutation tables.
    ///
    /// # Panics
    /// Panics unless `n_cbps` is a positive multiple of both 16 and
    /// `n_bpsc` (the 802.11 interleaver is defined in 16 columns), and the
    /// column height `n_cbps / 16` is a multiple of the rotation group
    /// `max(n_bpsc / 2, 1)` — otherwise [`Interleaver::map_index`] sends
    /// two positions to one slot and the interleaver would lose bits.
    pub fn new(n_cbps: usize, n_bpsc: usize) -> Self {
        let mut il =
            Interleaver { n_cbps: 0, n_bpsc: 0, to_logical: Vec::new(), to_tx: Vec::new() };
        il.reshape(n_cbps, n_bpsc);
        il
    }

    /// Re-targets this interleaver at another symbol shape, rebuilding the
    /// tables in place (no allocation unless the symbol grows past every
    /// shape seen before). A no-op when the shape is unchanged.
    ///
    /// # Panics
    /// Under the same conditions as [`Interleaver::new`].
    pub fn reshape(&mut self, n_cbps: usize, n_bpsc: usize) {
        assert!(
            n_cbps > 0 && n_cbps.is_multiple_of(16),
            "n_cbps must be a positive multiple of 16"
        );
        assert!(n_bpsc > 0 && n_cbps.is_multiple_of(n_bpsc), "n_cbps must be a multiple of n_bpsc");
        assert!(
            (n_cbps / 16).is_multiple_of((n_bpsc / 2).max(1)),
            "n_cbps / 16 must be a multiple of max(n_bpsc / 2, 1) for map_index to be a permutation"
        );
        if (n_cbps, n_bpsc) == (self.n_cbps, self.n_bpsc) {
            return;
        }
        let n = u32::try_from(n_cbps).expect("n_cbps must fit the u32 permutation tables");
        self.n_cbps = n_cbps;
        self.n_bpsc = n_bpsc;
        let mut to_tx = std::mem::take(&mut self.to_tx);
        to_tx.clear();
        to_tx.extend((0..n_cbps).map(|k| self.map_index(k) as u32));
        self.to_tx = to_tx;
        self.to_logical.clear();
        self.to_logical.resize(n_cbps, n);
        for (k, &j) in self.to_tx.iter().enumerate() {
            self.to_logical[j as usize] = k as u32;
        }
        debug_assert!(self.to_logical.iter().all(|&k| k < n), "map_index must be a permutation");
    }

    /// The closed-form 802.11 index map the tables are built from:
    /// position `k` in the input stream goes to position `j` in the
    /// transmitted stream.
    pub fn map_index(&self, k: usize) -> usize {
        let n = self.n_cbps;
        let s = (self.n_bpsc / 2).max(1);
        // First permutation (writes row-wise, reads column-wise, 16 cols).
        let i = (n / 16) * (k % 16) + k / 16;
        // Second permutation (rotation within groups of s).
        s * (i / s) + (i + n - (16 * i / n)) % s
    }

    /// Interleaves a stream of whole OFDM symbols, one symbol at a time,
    /// into `out` (cleared first): a table gather per symbol, over hard
    /// bits or any per-position values. Allocation-free once `out` is warm.
    ///
    /// # Panics
    /// Panics unless the length is a multiple of `n_cbps`.
    pub fn interleave_stream_into<T: Copy>(&self, bits: &[T], out: &mut Vec<T>) {
        gather_symbols(&self.to_logical, bits, out);
    }

    /// Inverse of [`Interleaver::interleave_stream_into`], over hard bits
    /// or any per-position values (e.g. LLRs), into `out` (cleared first).
    ///
    /// # Panics
    /// Panics unless the length is a multiple of `n_cbps`.
    pub fn deinterleave_stream_into<T: Copy>(&self, bits: &[T], out: &mut Vec<T>) {
        gather_symbols(&self.to_tx, bits, out);
    }
}

/// `out[t·n + k] = input[t·n + table[k]]` for every symbol `t`, with
/// `n = table.len()`.
fn gather_symbols<T: Copy>(table: &[u32], input: &[T], out: &mut Vec<T>) {
    assert_eq!(input.len() % table.len(), 0, "stream is not a whole number of OFDM symbols");
    out.clear();
    for chunk in input.chunks_exact(table.len()) {
        out.extend(table.iter().map(|&i| chunk[i as usize]));
    }
}

/// Where every transmitted coded bit of an OFDM symbol sits in the
/// rate-1/2 mother stream: the interleaver composed with puncturing. The
/// hard transmit and receive chains move bits between the packed mother
/// stream and the constellation points through this one table, so
/// neither the punctured nor the interleaved stream is ever stored.
#[derive(Clone, Debug)]
pub struct SymbolLayout {
    il: Interleaver,
    rate: CodeRate,
    /// Mother-stream bits per OFDM symbol.
    mother_bits: usize,
    /// `to_mother[j]` = offset, within its OFDM symbol's block of the
    /// mother stream, of the coded bit transmitted at position `j`.
    to_mother: Vec<u32>,
}

impl SymbolLayout {
    /// Builds the layout of an `n_cbps`-bit OFDM symbol of `n_bpsc` bits
    /// per subcarrier at code rate `rate`.
    ///
    /// # Panics
    /// Under the conditions of [`Interleaver::new`], and unless `n_cbps`
    /// spans whole puncturing periods.
    pub fn new(n_cbps: usize, n_bpsc: usize, rate: CodeRate) -> Self {
        let mut layout = SymbolLayout {
            il: Interleaver::new(n_cbps, n_bpsc),
            rate,
            mother_bits: 0,
            to_mother: Vec::new(),
        };
        layout.build();
        layout
    }

    /// Re-targets the layout at another shape, rebuilding the tables in
    /// place (a no-op when the shape is unchanged).
    ///
    /// # Panics
    /// Under the same conditions as [`SymbolLayout::new`].
    pub fn reshape(&mut self, n_cbps: usize, n_bpsc: usize, rate: CodeRate) {
        if (n_cbps, n_bpsc, rate) == (self.il.n_cbps, self.il.n_bpsc, self.rate) {
            return;
        }
        self.il.reshape(n_cbps, n_bpsc);
        self.rate = rate;
        self.build();
    }

    fn build(&mut self) {
        let pat = self.rate.pattern();
        let mut kept = [0u32; 6];
        let mut n_kept = 0;
        for (pos, _) in pat.iter().enumerate().filter(|&(_, &keep)| keep) {
            kept[n_kept] = pos as u32;
            n_kept += 1;
        }
        let n_cbps = self.il.n_cbps;
        assert!(n_cbps.is_multiple_of(n_kept), "an OFDM symbol must span whole puncturing periods");
        self.mother_bits = n_cbps / n_kept * pat.len();
        self.to_mother.clear();
        self.to_mother.extend(self.il.to_logical.iter().map(|&i| {
            let i = i as usize;
            (i / n_kept * pat.len()) as u32 + kept[i % n_kept]
        }));
    }

    /// The interleaver, for streams of per-bit values (LLRs).
    pub fn interleaver(&self) -> &Interleaver {
        &self.il
    }

    /// Mother-stream bits per OFDM symbol.
    pub fn mother_bits(&self) -> usize {
        self.mother_bits
    }

    /// Collects every transmitted group of `n_bpsc` bits of an
    /// `n_symbols`-symbol frame whose packed mother stream is `mother`
    /// (bit `i` is bit `i % 64` of word `i / 64`), first transmitted bit
    /// as the group's MSB, into `out` (cleared first) through `point`: one
    /// gather per constellation point, OFDM symbol by symbol.
    ///
    /// # Panics
    /// Panics when `mother` holds fewer than the frame's mother bits.
    pub fn gather_into<P>(
        &self,
        mother: &[u64],
        n_symbols: usize,
        point: impl Fn(u16) -> P,
        out: &mut Vec<P>,
    ) {
        let q = self.il.n_bpsc;
        let mother = &mother[..(n_symbols * self.mother_bits).div_ceil(64)];
        out.clear();
        for t in 0..n_symbols {
            let base = t * self.mother_bits;
            for group in self.to_mother.chunks_exact(q) {
                let bits = group.iter().fold(0u16, |acc, &off| {
                    let i = base + off as usize;
                    acc << 1 | (mother[i / 64] >> (i % 64) & 1) as u16
                });
                out.push(point(bits));
            }
        }
    }

    /// The inverse of [`SymbolLayout::gather_into`] into a hard-decision
    /// mother stream: each received group of `n_bpsc` bits (MSB = first
    /// transmitted) lands at its mother positions in `out`, and the
    /// punctured positions are erased. `out` holds the frame's whole
    /// mother stream, so `groups` must carry exactly its OFDM symbols.
    ///
    /// # Panics
    /// Panics when `out` is not a whole number of OFDM symbols' mother
    /// bits or `groups` does not carry that many symbols.
    pub fn scatter(&self, mut groups: impl ExactSizeIterator<Item = u16>, out: &mut [CodedBit]) {
        let q = self.il.n_bpsc;
        let per_symbol = self.to_mother.len() / q;
        assert_eq!(out.len() % self.mother_bits, 0, "stream is not a whole number of OFDM symbols");
        assert_eq!(
            groups.len(),
            out.len() / self.mother_bits * per_symbol,
            "group count does not fit the stream"
        );
        if self.rate != CodeRate::Half {
            out.fill(CodedBit::Erased);
        }
        for block in out.chunks_exact_mut(self.mother_bits) {
            for (offs, bits) in self.to_mother.chunks_exact(q).zip(groups.by_ref()) {
                for (k, &off) in offs.iter().enumerate() {
                    block[off as usize] = CodedBit::from_bool(bits >> (q - 1 - k) & 1 == 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(super) fn interleaved<T: Copy>(il: &Interleaver, values: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        il.interleave_stream_into(values, &mut out);
        out
    }

    pub(super) fn deinterleaved<T: Copy>(il: &Interleaver, values: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        il.deinterleave_stream_into(values, &mut out);
        out
    }

    fn configs() -> Vec<Interleaver> {
        // 48 data subcarriers x Q bits for Q = 2,4,6,8.
        vec![
            Interleaver::new(96, 2),
            Interleaver::new(192, 4),
            Interleaver::new(288, 6),
            Interleaver::new(384, 8),
        ]
    }

    #[test]
    fn mapping_is_a_permutation() {
        for il in configs() {
            let mut seen = vec![false; il.n_cbps];
            for k in 0..il.n_cbps {
                let j = il.map_index(k);
                assert!(j < il.n_cbps);
                assert!(!seen[j], "collision at {j} ({:?})", il);
                seen[j] = true;
            }
        }
    }

    #[test]
    fn roundtrip() {
        let mut rng = StdRng::seed_from_u64(61);
        for il in configs() {
            let bits: Vec<bool> = (0..il.n_cbps).map(|_| rng.gen_bool(0.5)).collect();
            assert_eq!(deinterleaved(&il, &interleaved(&il, &bits)), bits);
        }
    }

    #[test]
    fn stream_roundtrip() {
        let mut rng = StdRng::seed_from_u64(62);
        let il = Interleaver::new(192, 4);
        let bits: Vec<bool> = (0..192 * 5).map(|_| rng.gen_bool(0.5)).collect();
        assert_eq!(deinterleaved(&il, &interleaved(&il, &bits)), bits);
    }

    #[test]
    fn reshape_matches_fresh() {
        let mut il = Interleaver::new(384, 8);
        for (n_cbps, n_bpsc) in [(96, 2), (288, 6), (192, 4), (384, 8)] {
            il.reshape(n_cbps, n_bpsc);
            let fresh = Interleaver::new(n_cbps, n_bpsc);
            let tags: Vec<u32> = (0..n_cbps as u32).collect();
            assert_eq!(interleaved(&il, &tags), interleaved(&fresh, &tags));
            assert_eq!(deinterleaved(&il, &tags), deinterleaved(&fresh, &tags));
        }
    }

    #[test]
    fn adjacent_bits_separated() {
        // The defining property: adjacent coded bits end up far apart
        // (at least n/16 positions for the first permutation).
        let il = Interleaver::new(192, 4);
        for k in 0..il.n_cbps - 1 {
            let a = il.map_index(k) as isize;
            let b = il.map_index(k + 1) as isize;
            assert!((a - b).abs() >= (192 / 16) as isize - 2, "bits {k},{} map to {a},{b}", k + 1);
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn bad_size_panics() {
        Interleaver::new(100, 4);
    }

    #[test]
    fn rejects_exactly_the_non_permutation_shapes() {
        // The closed form collides when the column height is not a whole
        // number of rotation groups (e.g. 4 subcarriers of 16-QAM); every
        // shape it accepts is a permutation.
        for n_bpsc in [1usize, 2, 4, 6, 8] {
            for n_cbps in (16..=1024).step_by(16).filter(|n| n % n_bpsc == 0) {
                let closed_form = Interleaver { n_cbps, n_bpsc, to_logical: vec![], to_tx: vec![] };
                let mut seen = vec![false; n_cbps];
                let permutes = (0..n_cbps)
                    .all(|k| !std::mem::replace(&mut seen[closed_form.map_index(k)], true));
                let built = std::panic::catch_unwind(|| Interleaver::new(n_cbps, n_bpsc)).is_ok();
                assert_eq!(built, permutes, "n_cbps {n_cbps}, n_bpsc {n_bpsc}");
            }
        }
    }
}

#[cfg(test)]
mod layout_tests {
    use super::tests::interleaved;
    use super::*;
    use crate::puncture::puncture_into;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn layout_is_puncture_then_interleave() {
        // Gathering straight from the packed mother stream equals
        // puncturing, interleaving per symbol and grouping `n_bpsc` bits
        // MSB-first; scattering the groups back restores every kept bit
        // and erases exactly the punctured ones.
        let mut rng = StdRng::seed_from_u64(63);
        let mut layout = SymbolLayout::new(96, 2, CodeRate::Half);
        for (n_cbps, q) in [(96, 2), (192, 4), (288, 6), (384, 8)] {
            for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
                layout.reshape(n_cbps, q, rate);
                assert_eq!(
                    layout.mother_bits() * rate.denominator(),
                    2 * n_cbps * rate.numerator()
                );
                let n_sym = 3;
                let n = n_sym * layout.mother_bits();
                let mother: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
                let mut words = vec![!0u64; n.div_ceil(64)];
                for (i, &b) in mother.iter().enumerate() {
                    words[i / 64] &= !((!b as u64) << (i % 64));
                }
                let mut coded = Vec::new();
                puncture_into(&mother, rate, &mut coded);
                let want: Vec<u16> = interleaved(layout.interleaver(), &coded)
                    .chunks(q)
                    .map(|g| g.iter().fold(0u16, |acc, &b| acc << 1 | b as u16))
                    .collect();
                let mut groups = Vec::new();
                layout.gather_into(&words, n_sym, |g| g, &mut groups);
                assert_eq!(groups, want, "{n_cbps}/{q} {rate:?}");

                let mut back = vec![CodedBit::One; n];
                layout.scatter(groups.iter().copied(), &mut back);
                let pat = rate.pattern();
                for (i, (&cb, &b)) in back.iter().zip(&mother).enumerate() {
                    let want =
                        if pat[i % pat.len()] { CodedBit::from_bool(b) } else { CodedBit::Erased };
                    assert_eq!(cb, want, "{n_cbps}/{q} {rate:?} position {i}");
                }
            }
        }
    }
}

#[cfg(test)]
mod value_tests {
    use super::tests::{deinterleaved, interleaved};
    use super::*;

    #[test]
    fn value_deinterleave_matches_bool_path() {
        let il = Interleaver::new(192, 4);
        let bits: Vec<bool> = (0..192).map(|k| (k * 29) % 3 == 0).collect();
        let tx = interleaved(&il, &bits);
        let vals: Vec<u32> = tx.iter().map(|&b| b as u32).collect();
        let back_bits = deinterleaved(&il, &tx);
        let back_vals = deinterleaved(&il, &vals);
        for (b, v) in back_bits.iter().zip(&back_vals) {
            assert_eq!(*b as u32, *v);
        }
    }

    #[test]
    fn float_values_roundtrip_positionally() {
        let il = Interleaver::new(96, 2);
        // Tag every position with its own value, interleave positions by
        // scattering as the transmitter would, then recover.
        let tagged: Vec<f64> = (0..96).map(|k| k as f64).collect();
        let mut tx = vec![0.0f64; 96];
        // Build the transmitted order using the bool API on unit bits.
        for (k, &v) in tagged.iter().enumerate() {
            let mut probe = vec![false; 96];
            probe[k] = true;
            let mapped = interleaved(&il, &probe);
            let pos = mapped.iter().position(|&b| b).unwrap();
            tx[pos] = v;
        }
        assert_eq!(deinterleaved(&il, &tx), tagged);
    }
}

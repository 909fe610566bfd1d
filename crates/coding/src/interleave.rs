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

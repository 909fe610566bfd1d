//! Puncturing for higher code rates.
//!
//! The 802.11 puncturing patterns derive rate-2/3 and rate-3/4 codes from
//! the mother rate-1/2 code by deleting coded bits in a fixed periodic
//! pattern; the receiver reinserts erasures before Viterbi decoding. The
//! paper's experiments use rate 1/2 throughout, but rate adaptation
//! (emulated in `gs-sim`) benefits from the standard rate set.

/// Code rate of the (punctured) convolutional code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Mother code, no puncturing.
    Half,
    /// Rate 2/3 (pattern period 4: keep 1 of every 4th bit pair's second bit).
    TwoThirds,
    /// Rate 3/4 (pattern period 6).
    ThreeQuarters,
}

impl CodeRate {
    /// Numerator of the rate fraction.
    pub const fn numerator(self) -> usize {
        match self {
            CodeRate::Half => 1,
            CodeRate::TwoThirds => 2,
            CodeRate::ThreeQuarters => 3,
        }
    }

    /// Denominator of the rate fraction.
    pub const fn denominator(self) -> usize {
        match self {
            CodeRate::Half => 2,
            CodeRate::TwoThirds => 3,
            CodeRate::ThreeQuarters => 4,
        }
    }

    /// 802.11 puncture pattern over the rate-1/2 output stream: `true` =
    /// transmit, `false` = puncture. The pattern repeats.
    pub fn pattern(self) -> &'static [bool] {
        match self {
            CodeRate::Half => &[true],
            // A: 1 1, B: 1 0  (interleaved as A0 B0 A1 B1): keep, keep, keep, drop
            CodeRate::TwoThirds => &[true, true, true, false],
            // A: 1 1 0, B: 1 0 1: keep keep | keep drop | drop keep
            CodeRate::ThreeQuarters => &[true, true, true, false, false, true],
        }
    }
}

/// Removes punctured positions from a rate-1/2 coded stream into `out`
/// (cleared first), over hard bits or any per-position values (e.g.
/// extrinsic LLRs). Rate 1/2 is a straight copy; the punctured rates walk
/// the pattern one period at a time.
pub fn puncture_into<T: Copy>(coded: &[T], rate: CodeRate, out: &mut Vec<T>) {
    out.clear();
    if rate == CodeRate::Half {
        out.extend_from_slice(coded);
        return;
    }
    let pat = rate.pattern();
    for period in coded.chunks(pat.len()) {
        out.extend(period.iter().zip(pat).filter(|&(_, &keep)| keep).map(|(&v, _)| v));
    }
}

/// Reinserts zero LLRs (erasures) at the punctured positions of a soft
/// (log-likelihood-ratio) stream into `out` (cleared first), restoring
/// the rate-1/2 stream of `mother_len` values.
///
/// # Panics
/// Panics when `received` is shorter or longer than the pattern implies
/// for `mother_len`.
pub fn depuncture_soft_into(
    received: &[f64],
    rate: CodeRate,
    mother_len: usize,
    out: &mut Vec<f64>,
) {
    out.clear();
    if rate == CodeRate::Half {
        assert!(received.len() >= mother_len, "received stream shorter than pattern implies");
        assert!(received.len() <= mother_len, "received stream longer than pattern implies");
        out.extend_from_slice(received);
        return;
    }
    let pat = rate.pattern();
    let mut it = received.iter();
    for start in (0..mother_len).step_by(pat.len()) {
        for &keep in &pat[..pat.len().min(mother_len - start)] {
            out.push(if keep {
                *it.next().expect("received stream shorter than pattern implies")
            } else {
                0.0
            });
        }
    }
    assert!(it.next().is_none(), "received stream longer than pattern implies");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode_into;
    use crate::viterbi::{decode_with_erasures_into, CodedBit, ViterbiWorkspace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn punctured(coded: &[bool], rate: CodeRate) -> Vec<bool> {
        let mut out = Vec::new();
        puncture_into(coded, rate, &mut out);
        out
    }

    /// The mother stream's bits of `bits`, and the bits packed.
    fn mother_of(bits: &[bool]) -> (Vec<bool>, Vec<u64>) {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        let mut mother = Vec::new();
        encode_into(&words, bits.len(), &mut mother);
        let n = 2 * (bits.len() + 6);
        ((0..n).map(|i| mother[i / 64] >> (i % 64) & 1 == 1).collect(), words)
    }

    /// Hard depuncturing through the soft walker: a kept bit is a unit
    /// LLR, a reinserted zero an erasure.
    fn depunctured(received: &[bool], rate: CodeRate, mother_len: usize) -> Vec<CodedBit> {
        let llrs: Vec<f64> = received.iter().map(|&b| if b { -1.0 } else { 1.0 }).collect();
        let mut soft = Vec::new();
        depuncture_soft_into(&llrs, rate, mother_len, &mut soft);
        soft.iter()
            .map(|&l| if l == 0.0 { CodedBit::Erased } else { CodedBit::from_bool(l < 0.0) })
            .collect()
    }

    #[test]
    fn puncture_lengths_match_rate() {
        // 24 information bits -> 60 mother bits (24+6 tail, x2) ... use a
        // pattern-aligned length for exact ratios: 48 mother bits.
        let coded = vec![true; 48];
        assert_eq!(punctured(&coded, CodeRate::Half).len(), 48);
        assert_eq!(punctured(&coded, CodeRate::TwoThirds).len(), 36); // 48 * 3/4
        assert_eq!(punctured(&coded, CodeRate::ThreeQuarters).len(), 32); // 48 * 2/3
    }

    #[test]
    fn punctured_roundtrip_noiseless() {
        let mut rng = StdRng::seed_from_u64(51);
        let (mut ws, mut out) = (ViterbiWorkspace::new(), Vec::new());
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let bits: Vec<bool> = (0..120).map(|_| rng.gen_bool(0.5)).collect();
            let (mother, words) = mother_of(&bits);
            let rx = depunctured(&punctured(&mother, rate), rate, mother.len());
            decode_with_erasures_into(&rx, &mut ws, &mut out);
            assert_eq!(out, words, "{rate:?}");
        }
    }

    #[test]
    fn depuncture_restores_positions() {
        let coded: Vec<bool> = (0..24).map(|k| k % 3 == 0).collect();
        let tx = punctured(&coded, CodeRate::ThreeQuarters);
        let rx = depunctured(&tx, CodeRate::ThreeQuarters, coded.len());
        assert_eq!(rx.len(), coded.len());
        for (k, cb) in rx.iter().enumerate() {
            match cb {
                CodedBit::Erased => assert!(!CodeRate::ThreeQuarters.pattern()[k % 6]),
                _ => assert_eq!(*cb, CodedBit::from_bool(coded[k]), "position {k}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "longer than pattern")]
    fn depuncture_length_mismatch_panics() {
        depuncture_soft_into(&[1.0; 10], CodeRate::Half, 8, &mut Vec::new());
    }
}

#[cfg(test)]
mod soft_tests {
    use super::*;
    use crate::conv::encode_into;
    use crate::viterbi::{decode_soft_into, ViterbiWorkspace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn soft_punctured_roundtrip() {
        let mut rng = StdRng::seed_from_u64(405);
        let (mut mother, mut tx, mut rx) = (Vec::new(), Vec::new(), Vec::new());
        let (mut ws, mut out) = (ViterbiWorkspace::new(), Vec::new());
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let words = [rng.gen::<u64>(), rng.gen::<u64>() & 0xff_ffff_ffff_ffff];
            encode_into(&words, 120, &mut mother);
            let mother_bits: Vec<bool> =
                (0..2 * 126).map(|i| mother[i / 64] >> (i % 64) & 1 == 1).collect();
            puncture_into(&mother_bits, rate, &mut tx);
            let llrs: Vec<f64> = tx.iter().map(|&b| if b { -3.0 } else { 3.0 }).collect();
            depuncture_soft_into(&llrs, rate, mother_bits.len(), &mut rx);
            decode_soft_into(&rx, &mut ws, &mut out);
            assert_eq!(out, words, "{rate:?}");
        }
    }
}

//! Puncturing for higher code rates.
//!
//! The 802.11 puncturing patterns derive rate-2/3 and rate-3/4 codes from
//! the mother rate-1/2 code by deleting coded bits in a fixed periodic
//! pattern; the receiver reinserts erasures before Viterbi decoding. The
//! paper's experiments use rate 1/2 throughout, but rate adaptation
//! (emulated in `gs-sim`) benefits from the standard rate set.

use crate::viterbi::CodedBit;

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

/// Reinserts erasures at the punctured positions of a hard-bit stream
/// into `out` (cleared first), restoring the rate-1/2 stream of
/// `mother_len` (the pre-puncturing length) coded bits.
///
/// # Panics
/// Panics when `received` is shorter or longer than the pattern implies
/// for `mother_len`.
pub fn depuncture_into(
    received: &[bool],
    rate: CodeRate,
    mother_len: usize,
    out: &mut Vec<CodedBit>,
) {
    depuncture_map(received, rate, mother_len, CodedBit::Erased, CodedBit::from_bool, out);
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
    depuncture_map(received, rate, mother_len, 0.0, |l| l, out);
}

/// The one depuncturing walk behind the hard and soft fronts: received
/// values go through `kept` at transmitted positions, `erased` fills the
/// punctured ones. Rate 1/2 is a straight (mapped) copy.
///
/// # Panics
/// Panics when `received` is shorter or longer than the pattern implies
/// for `mother_len`.
fn depuncture_map<T: Copy, U: Copy>(
    received: &[T],
    rate: CodeRate,
    mother_len: usize,
    erased: U,
    kept: impl Fn(T) -> U,
    out: &mut Vec<U>,
) {
    out.clear();
    if rate == CodeRate::Half {
        assert!(received.len() >= mother_len, "received stream shorter than pattern implies");
        assert!(received.len() <= mother_len, "received stream longer than pattern implies");
        out.extend(received.iter().map(|&v| kept(v)));
        return;
    }
    let pat = rate.pattern();
    let mut it = received.iter();
    for start in (0..mother_len).step_by(pat.len()) {
        for &keep in &pat[..pat.len().min(mother_len - start)] {
            out.push(if keep {
                kept(*it.next().expect("received stream shorter than pattern implies"))
            } else {
                erased
            });
        }
    }
    assert!(it.next().is_none(), "received stream longer than pattern implies");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode_into;
    use crate::viterbi::{decode_with_erasures_into, ViterbiWorkspace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn punctured(coded: &[bool], rate: CodeRate) -> Vec<bool> {
        let mut out = Vec::new();
        puncture_into(coded, rate, &mut out);
        out
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
        let (mut mother, mut rx, mut ws, mut out) =
            (Vec::new(), Vec::new(), ViterbiWorkspace::new(), Vec::new());
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let bits: Vec<bool> = (0..120).map(|_| rng.gen_bool(0.5)).collect();
            encode_into(&bits, &mut mother);
            let tx = punctured(&mother, rate);
            depuncture_into(&tx, rate, mother.len(), &mut rx);
            decode_with_erasures_into(&rx, &mut ws, &mut out);
            assert_eq!(out, bits, "{rate:?}");
        }
    }

    #[test]
    fn depuncture_restores_positions() {
        let coded: Vec<bool> = (0..24).map(|k| k % 3 == 0).collect();
        let tx = punctured(&coded, CodeRate::ThreeQuarters);
        let mut rx = Vec::new();
        depuncture_into(&tx, CodeRate::ThreeQuarters, coded.len(), &mut rx);
        assert_eq!(rx.len(), coded.len());
        for (k, cb) in rx.iter().enumerate() {
            match cb {
                CodedBit::Erased => {}
                _ => assert_eq!(*cb, CodedBit::from_bool(coded[k]), "position {k}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "longer than pattern")]
    fn depuncture_length_mismatch_panics() {
        depuncture_into(&[true; 10], CodeRate::Half, 8, &mut Vec::new());
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
            let bits: Vec<bool> = (0..120).map(|_| rng.gen_bool(0.5)).collect();
            encode_into(&bits, &mut mother);
            puncture_into(&mother, rate, &mut tx);
            let llrs: Vec<f64> = tx.iter().map(|&b| if b { -3.0 } else { 3.0 }).collect();
            depuncture_soft_into(&llrs, rate, mother.len(), &mut rx);
            decode_soft_into(&rx, &mut ws, &mut out);
            assert_eq!(out, bits, "{rate:?}");
        }
    }
}

//! Max-log BCJR soft-input / soft-output decoding of the K=7 code.
//!
//! The Viterbi decoder returns hard information bits; iterative ("turbo")
//! receivers additionally need *extrinsic* reliabilities on the **coded**
//! bits to feed back to the detector (paper §7: "iterative soft receiver
//! processing is required to reach MIMO capacity"). This is the standard
//! max-log approximation of the BCJR forward–backward algorithm over the
//! terminated 64-state trellis.
//!
//! LLR convention throughout: **positive = bit 0 more likely**.

use crate::conv::{branch_output, next_state, CONSTRAINT, NUM_STATES};

/// Output of one SISO decoding pass.
#[derive(Clone, Debug)]
pub struct SisoOutput {
    /// Hard decisions on the information bits (tail stripped), packed:
    /// bit `t` is bit `t % 64` of word `t / 64`.
    pub info_bits: Vec<u64>,
    /// A-posteriori LLRs of the information bits.
    pub info_llrs: Vec<f64>,
    /// **Extrinsic** LLRs of the coded bits (a-posteriori minus input):
    /// what an iterative detector should use as its prior.
    pub coded_extrinsic: Vec<f64>,
}

const NEG_INF: f64 = -1.0e300;

/// Runs max-log BCJR over a terminated rate-1/2 stream of coded-bit LLRs.
///
/// # Panics
/// Panics when the stream length is odd or shorter than the tail.
pub fn siso_decode(coded_llrs: &[f64]) -> SisoOutput {
    assert_eq!(coded_llrs.len() % 2, 0, "rate-1/2 stream must have even length");
    let steps = coded_llrs.len() / 2;
    assert!(steps >= CONSTRAINT - 1, "stream shorter than the termination tail");

    // Branch metric: correlation form, gamma = Σ_bits (b ? −L/2 : +L/2).
    #[inline]
    fn gamma(l0: f64, l1: f64, o0: bool, o1: bool) -> f64 {
        let g0 = if o0 { -l0 / 2.0 } else { l0 / 2.0 };
        let g1 = if o1 { -l1 / 2.0 } else { l1 / 2.0 };
        g0 + g1
    }

    // Forward recursion.
    let mut alpha = vec![vec![NEG_INF; NUM_STATES]; steps + 1];
    alpha[0][0] = 0.0;
    for t in 0..steps {
        let (l0, l1) = (coded_llrs[2 * t], coded_llrs[2 * t + 1]);
        for s in 0..NUM_STATES {
            let a = alpha[t][s];
            if a <= NEG_INF {
                continue;
            }
            for input in [false, true] {
                let (o0, o1) = branch_output(s, input);
                let ns = next_state(s, input);
                let m = a + gamma(l0, l1, o0, o1);
                if m > alpha[t + 1][ns] {
                    alpha[t + 1][ns] = m;
                }
            }
        }
    }

    // Backward recursion (terminated trellis: end in state 0).
    let mut beta = vec![vec![NEG_INF; NUM_STATES]; steps + 1];
    beta[steps][0] = 0.0;
    for t in (0..steps).rev() {
        let (l0, l1) = (coded_llrs[2 * t], coded_llrs[2 * t + 1]);
        for s in 0..NUM_STATES {
            let mut best = NEG_INF;
            for input in [false, true] {
                let (o0, o1) = branch_output(s, input);
                let ns = next_state(s, input);
                let b = beta[t + 1][ns];
                if b <= NEG_INF {
                    continue;
                }
                let m = b + gamma(l0, l1, o0, o1);
                if m > best {
                    best = m;
                }
            }
            beta[t][s] = best;
        }
    }

    // Per-trellis-step a-posteriori maxima, split by hypothesized bits.
    let mut info_llrs = Vec::with_capacity(steps);
    let mut coded_post = Vec::with_capacity(2 * steps);
    for t in 0..steps {
        let (l0, l1) = (coded_llrs[2 * t], coded_llrs[2 * t + 1]);
        // [input=0/1], [coded0=0/1], [coded1=0/1] maxima.
        let mut best_in = [NEG_INF; 2];
        let mut best_c0 = [NEG_INF; 2];
        let mut best_c1 = [NEG_INF; 2];
        for s in 0..NUM_STATES {
            let a = alpha[t][s];
            if a <= NEG_INF {
                continue;
            }
            for input in [false, true] {
                let (o0, o1) = branch_output(s, input);
                let ns = next_state(s, input);
                let b = beta[t + 1][ns];
                if b <= NEG_INF {
                    continue;
                }
                let m = a + gamma(l0, l1, o0, o1) + b;
                let iu = input as usize;
                if m > best_in[iu] {
                    best_in[iu] = m;
                }
                if m > best_c0[o0 as usize] {
                    best_c0[o0 as usize] = m;
                }
                if m > best_c1[o1 as usize] {
                    best_c1[o1 as usize] = m;
                }
            }
        }
        info_llrs.push(best_in[0] - best_in[1]);
        coded_post.push(best_c0[0] - best_c0[1]);
        coded_post.push(best_c1[0] - best_c1[1]);
    }

    info_llrs.truncate(steps - (CONSTRAINT - 1));
    let mut info_bits = vec![0u64; info_llrs.len().div_ceil(64)];
    for (t, &l) in info_llrs.iter().enumerate() {
        info_bits[t / 64] |= ((l < 0.0) as u64) << (t % 64);
    }
    let coded_extrinsic: Vec<f64> =
        coded_post.iter().zip(coded_llrs).map(|(&post, &input)| post - input).collect();

    SisoOutput { info_bits, info_llrs, coded_extrinsic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode_into;
    use crate::viterbi::{decode_soft_into, decode_with_erasures_into, CodedBit, ViterbiWorkspace};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pack(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        words
    }

    /// The mother stream's bits of `bits`.
    fn encode(bits: &[bool]) -> Vec<bool> {
        let mut mother = Vec::new();
        encode_into(&pack(bits), bits.len(), &mut mother);
        (0..2 * (bits.len() + 6)).map(|i| mother[i / 64] >> (i % 64) & 1 == 1).collect()
    }

    /// Bits that differ between two packed streams.
    fn errors(a: &[u64], b: &[u64]) -> usize {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones() as usize).sum()
    }

    fn to_llrs(coded: &[bool], confidence: f64) -> Vec<f64> {
        coded.iter().map(|&b| if b { -confidence } else { confidence }).collect()
    }

    #[test]
    fn matches_viterbi_on_clean_input() {
        let mut rng = StdRng::seed_from_u64(961);
        let bits: Vec<bool> = (0..150).map(|_| rng.gen_bool(0.5)).collect();
        let coded = encode(&bits);
        let out = siso_decode(&to_llrs(&coded, 4.0));
        assert_eq!(out.info_bits, pack(&bits));
        let hard: Vec<CodedBit> = coded.iter().map(|&b| CodedBit::from_bool(b)).collect();
        let mut viterbi = Vec::new();
        decode_with_erasures_into(&hard, &mut ViterbiWorkspace::new(), &mut viterbi);
        assert_eq!(out.info_bits, viterbi);
    }

    #[test]
    fn info_llr_signs_match_bits() {
        let mut rng = StdRng::seed_from_u64(962);
        let bits: Vec<bool> = (0..100).map(|_| rng.gen_bool(0.5)).collect();
        let coded = encode(&bits);
        let out = siso_decode(&to_llrs(&coded, 3.0));
        for (l, &b) in out.info_llrs.iter().zip(&bits) {
            assert_eq!(*l < 0.0, b);
            assert!(l.abs() > 0.5, "confident input ⇒ confident output");
        }
    }

    #[test]
    fn extrinsic_rescues_erased_coded_bits() {
        // Erase (zero-LLR) some coded bits: the code structure must give
        // them nonzero extrinsic information with the correct sign.
        let mut rng = StdRng::seed_from_u64(963);
        let bits: Vec<bool> = (0..80).map(|_| rng.gen_bool(0.5)).collect();
        let coded = encode(&bits);
        let mut llrs = to_llrs(&coded, 4.0);
        let erased: Vec<usize> = (5..llrs.len()).step_by(17).collect();
        for &k in &erased {
            llrs[k] = 0.0;
        }
        let out = siso_decode(&llrs);
        assert_eq!(out.info_bits, pack(&bits), "erasures must be recovered");
        for &k in &erased {
            let ext = out.coded_extrinsic[k];
            assert!(
                (ext < 0.0) == coded[k],
                "extrinsic sign at erased position {k}: {ext} vs bit {}",
                coded[k]
            );
            assert!(ext.abs() > 0.5, "extrinsic at {k} should be informative: {ext}");
        }
    }

    #[test]
    fn extrinsic_excludes_input() {
        // For a systematic-ish check: extrinsic of a position must not just
        // echo its own input — set ONE coded bit's input wrong but weak and
        // everything else strong; extrinsic must correct it.
        let mut rng = StdRng::seed_from_u64(964);
        let bits: Vec<bool> = (0..60).map(|_| rng.gen_bool(0.5)).collect();
        let coded = encode(&bits);
        let mut llrs = to_llrs(&coded, 5.0);
        llrs[20] = if coded[20] { 0.4 } else { -0.4 }; // weakly wrong
        let out = siso_decode(&llrs);
        let ext = out.coded_extrinsic[20];
        assert!((ext < 0.0) == coded[20], "extrinsic must overrule the weak wrong input: {ext}");
    }

    #[test]
    fn noisy_channel_bcjr_at_least_viterbi() {
        // On an AWGN-ish LLR channel, max-log BCJR hard decisions equal
        // soft Viterbi (both max-log sequence/symbol detectors are close);
        // check bit error counts are comparable.
        let mut rng = StdRng::seed_from_u64(965);
        let mut bcjr_errs = 0usize;
        let mut vit_errs = 0usize;
        let sigma = 0.95;
        let (mut ws, mut decoded) = (ViterbiWorkspace::new(), Vec::new());
        for _ in 0..40 {
            let bits: Vec<bool> = (0..100).map(|_| rng.gen_bool(0.5)).collect();
            let coded = encode(&bits);
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    let tx = if b { -1.0 } else { 1.0 };
                    let r = tx + sigma * gs_channel::sample_gaussian(&mut rng);
                    2.0 * r / (sigma * sigma)
                })
                .collect();
            bcjr_errs += errors(&siso_decode(&llrs).info_bits, &pack(&bits));
            decode_soft_into(&llrs, &mut ws, &mut decoded);
            vit_errs += errors(&decoded, &pack(&bits));
        }
        let tol = 1 + vit_errs / 5;
        assert!(
            bcjr_errs <= vit_errs + tol,
            "BCJR ({bcjr_errs}) should track soft Viterbi ({vit_errs})"
        );
    }
}

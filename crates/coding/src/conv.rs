//! Rate-1/2 convolutional encoder, constraint length 7.
//!
//! The industry-standard K=7 code with generator polynomials 133/171
//! (octal) used by 802.11 — the paper's §4: "All clients send data using
//! 1/2-rate convolutional coding (similar to recent 802.11 standards)".
//! Higher rates (2/3, 3/4) are derived by puncturing (the `puncture` module).

/// Constraint length of the code.
pub const CONSTRAINT: usize = 7;
/// Number of trellis states, `2^(K−1)`.
pub const NUM_STATES: usize = 1 << (CONSTRAINT - 1);
/// First generator polynomial (octal 133).
pub const G0: u32 = 0o133;
/// Second generator polynomial (octal 171).
pub const G1: u32 = 0o171;

/// Parity (mod-2 sum of bits) of `x`.
#[inline]
const fn parity(x: u32) -> bool {
    x.count_ones() % 2 == 1
}

/// Output pair for one input bit given the 6-bit shift-register `state`.
///
/// The register convention: `state` holds the previous 6 input bits, most
/// recent in the MSB (bit 5). The generator taps see `[input, state]` as a
/// 7-bit window with the input in bit 6.
#[inline]
pub const fn branch_output(state: usize, input: bool) -> (bool, bool) {
    let window = ((input as u32) << 6) | state as u32;
    (parity(window & G0), parity(window & G1))
}

/// Branch outputs for every `(state, input)`, packed as `o0 | o1 << 1` and
/// indexed by `(state << 1) | input` — the encoder's and the Viterbi
/// decoders' shared transition table, built at compile time.
pub const OUTPUT_TABLE: [u8; 2 * NUM_STATES] = {
    let mut table = [0u8; 2 * NUM_STATES];
    let mut state = 0;
    while state < NUM_STATES {
        let (z0, z1) = branch_output(state, false);
        table[state << 1] = z0 as u8 | ((z1 as u8) << 1);
        let (o0, o1) = branch_output(state, true);
        table[(state << 1) | 1] = o0 as u8 | ((o1 as u8) << 1);
        state += 1;
    }
    table
};

/// Next shift-register state after feeding `input`.
#[inline]
pub fn next_state(state: usize, input: bool) -> usize {
    ((state >> 1) | ((input as usize) << 5)) & (NUM_STATES - 1)
}

/// Encodes `bits` into `out` (cleared first), appending `K−1 = 6` zero tail
/// bits so the trellis ends in the all-zero state. Output length is
/// `2·(bits.len() + 6)`; no heap traffic once `out` has warmed up to the
/// frame's coded length.
pub fn encode_into(bits: &[bool], out: &mut Vec<bool>) {
    out.clear();
    let mut state = 0usize;
    for &b in bits.iter().chain(std::iter::repeat_n(&false, CONSTRAINT - 1)) {
        let packed = OUTPUT_TABLE[(state << 1) | b as usize];
        out.push(packed & 1 == 1);
        out.push(packed & 2 == 2);
        state = next_state(state, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        encode_into(bits, &mut out);
        out
    }

    #[test]
    fn all_zero_input_gives_all_zero_output() {
        let out = encode(&[false; 10]);
        assert_eq!(out.len(), 32);
        assert!(out.iter().all(|&b| !b));
    }

    #[test]
    fn impulse_response_is_generators() {
        // A single 1 followed by zeros: the two output streams spell out the
        // generator polynomials' taps, MSB (current input) first.
        let out = encode(&[true]);
        // 7 trellis steps (1 data + 6 tail), 2 bits each.
        assert_eq!(out.len(), 14);
        let g0_bits: Vec<bool> = (0..7).map(|k| out[2 * k]).collect();
        let g1_bits: Vec<bool> = (0..7).map(|k| out[2 * k + 1]).collect();
        let g0_val =
            g0_bits.iter().enumerate().fold(0u32, |acc, (k, &b)| acc | ((b as u32) << (6 - k)));
        let g1_val =
            g1_bits.iter().enumerate().fold(0u32, |acc, (k, &b)| acc | ((b as u32) << (6 - k)));
        assert_eq!(g0_val, G0);
        assert_eq!(g1_val, G1);
    }

    #[test]
    fn encoder_is_linear() {
        // Conv codes are linear: enc(a XOR b) = enc(a) XOR enc(b).
        let a = [true, false, true, true, false, false, true, false];
        let b = [false, true, true, false, true, false, false, true];
        let x: Vec<bool> = a.iter().zip(&b).map(|(&u, &v)| u ^ v).collect();
        let ea = encode(&a);
        let eb = encode(&b);
        let ex = encode(&x);
        for i in 0..ex.len() {
            assert_eq!(ex[i], ea[i] ^ eb[i]);
        }
    }

    #[test]
    fn termination_returns_to_zero_state() {
        let bits = [true, true, false, true, false, true, true, false, false, true];
        let mut state = 0;
        for &b in bits.iter().chain(std::iter::repeat_n(&false, 6)) {
            state = next_state(state, b);
        }
        assert_eq!(state, 0);
    }
}

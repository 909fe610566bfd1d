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

/// Spreads the 32 bits of `x` to the even bit positions of a word.
const fn spread(x: u32) -> u64 {
    let mut x = x as u64;
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// Encodes the first `n_bits` bits of `info` (bit `i` is bit `i % 64` of
/// word `i / 64`; later bits are ignored) into `out` (cleared first),
/// appending `K−1 = 6` zero tail bits so the trellis ends in the all-zero
/// state. The mother stream has `2·(n_bits + 6)` bits packed the same
/// way, bits `2i` and `2i + 1` the two generators' outputs for input bit
/// `i`; bits past its end are zero. No heap traffic once `out` has warmed
/// up to the frame's coded length.
///
/// Word-parallel: with `x` the input stream, a generator's output is the
/// XOR of `x[i − d]` over its taps `d`, one shifted word per tap, 64 steps
/// at a time.
///
/// # Panics
/// Panics when `info` holds fewer than `n_bits` bits.
pub fn encode_into(info: &[u64], n_bits: usize, out: &mut Vec<u64>) {
    let steps = n_bits + CONSTRAINT - 1;
    let info = &info[..n_bits.div_ceil(64)];
    out.clear();
    let mut prev = 0u64;
    for w in 0..steps.div_ceil(64) {
        let left = n_bits.saturating_sub(64 * w);
        let x = match left {
            0 => 0,
            1..=63 => info[w] & ((1 << left) - 1),
            _ => info[w],
        };
        let (mut o0, mut o1) = (0u64, 0u64);
        for d in 0..CONSTRAINT {
            // `x[i − d]` at bit `i`: the delay's bits come from `prev`.
            let xd = if d == 0 { x } else { x << d | prev >> (64 - d) };
            let tap = 1 << (CONSTRAINT - 1 - d);
            if G0 & tap != 0 {
                o0 ^= xd;
            }
            if G1 & tap != 0 {
                o1 ^= xd;
            }
        }
        out.push(spread(o0 as u32) | spread(o1 as u32) << 1);
        out.push(spread((o0 >> 32) as u32) | spread((o1 >> 32) as u32) << 1);
        prev = x;
    }
    out.truncate((2 * steps).div_ceil(64));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pack(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        words
    }

    /// The mother stream's bits.
    fn encode(bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        encode_into(&pack(bits), bits.len(), &mut out);
        let n = 2 * (bits.len() + CONSTRAINT - 1);
        assert_eq!(out.len(), n.div_ceil(64));
        if !n.is_multiple_of(64) {
            assert_eq!(out[n / 64] >> (n % 64), 0, "bits past the stream");
        }
        (0..n).map(|i| out[i / 64] >> (i % 64) & 1 == 1).collect()
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

    #[test]
    fn word_encoder_matches_the_trellis() {
        // Every length across several word boundaries, set bits past the
        // length included: the word-parallel taps equal stepping the
        // register through `OUTPUT_TABLE` one bit at a time.
        let mut rng = StdRng::seed_from_u64(40);
        for n in 0..200usize {
            let bits: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let mut words = pack(&bits);
            if !n.is_multiple_of(64) {
                words[n / 64] |= !0 << (n % 64);
            }
            words.push(!0);
            let mut out = Vec::new();
            encode_into(&words, n, &mut out);
            let mut state = 0usize;
            let mut want = Vec::new();
            for &b in bits.iter().chain(std::iter::repeat_n(&false, CONSTRAINT - 1)) {
                let packed = OUTPUT_TABLE[(state << 1) | b as usize];
                want.extend([packed & 1 == 1, packed & 2 == 2]);
                state = next_state(state, b);
            }
            let got: Vec<bool> =
                (0..want.len()).map(|i| out[i / 64] >> (i % 64) & 1 == 1).collect();
            assert_eq!(got, want, "{n} bits");
        }
    }
}

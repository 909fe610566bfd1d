//! 802.11 frame scrambler.
//!
//! The self-synchronizing 7-bit LFSR (polynomial `x⁷ + x⁴ + 1`) that
//! whitens payload bits before coding, preventing long constant runs from
//! producing spectral lines or degenerate interleaver patterns. Scrambling
//! is an involution given the same seed: applying it twice restores the
//! input.

/// Period of the maximal-length 7-bit LFSR, `2⁷ − 1`.
const PERIOD: usize = 127;

/// One LFSR step from register `state`: the next register and the
/// keystream bit — the scrambler's definition, from which the tables
/// below are built at compile time.
const fn lfsr_step(state: u8) -> (u8, bool) {
    let bit = ((state >> 6) ^ (state >> 3)) & 1;
    (((state << 1) | bit) & 0x7f, bit == 1)
}

/// The keystream from register 1, stored twice so that any 127-bit window
/// starting inside the first period is contiguous. Every nonzero register
/// lies on this one cycle, so every seed's keystream is a window of it.
const KEYSTREAM: [bool; 2 * PERIOD] = {
    let mut ks = [false; 2 * PERIOD];
    let mut state = 1u8;
    let mut k = 0;
    while k < PERIOD {
        let (next, bit) = lfsr_step(state);
        ks[k] = bit;
        ks[k + PERIOD] = bit;
        state = next;
        k += 1;
    }
    ks
};

/// `PHASE_OF[r]` = the keystream position register `r` emits next.
const PHASE_OF: [u8; 128] = {
    let mut phase = [0u8; 128];
    let mut state = 1u8;
    let mut k = 0;
    while k < PERIOD {
        phase[state as usize] = k as u8;
        state = lfsr_step(state).0;
        k += 1;
    }
    phase
};

/// `KEYSTREAM_WORDS[p]` = the 64 keystream bits from position `p`, bit `i`
/// of the word being position `p + i`: one XOR scrambles 64 bits.
const KEYSTREAM_WORDS: [u64; PERIOD] = {
    let mut words = [0u64; PERIOD];
    let mut p = 0;
    while p < PERIOD {
        let mut i = 0;
        while i < 64 {
            words[p] |= (KEYSTREAM[p + i] as u64) << i;
            i += 1;
        }
        p += 1;
    }
    words
};

/// The 802.11 scrambler (7-bit LFSR, `x⁷ + x⁴ + 1`), applied by XOR with
/// the precomputed keystream.
#[derive(Clone, Debug)]
pub struct Scrambler {
    /// The LFSR register, as its position in [`KEYSTREAM`].
    phase: u8,
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit seed (must be nonzero, or
    /// the LFSR degenerates to the identity).
    ///
    /// # Panics
    /// Panics when `seed == 0` or `seed > 0x7f`.
    pub fn new(seed: u8) -> Self {
        assert!(seed != 0 && seed <= 0x7f, "seed must be a nonzero 7-bit value");
        Scrambler { phase: PHASE_OF[seed as usize] }
    }

    /// The 802.11 reference seed used throughout the workspace.
    pub fn default_seed() -> Self {
        Scrambler::new(0b1011101)
    }

    /// Scrambles (or descrambles) the first `n_bits` bits of `words` in
    /// place (bit `i` is bit `i % 64` of word `i / 64`), leaving later
    /// bits alone and the register where a bit-at-a-time LFSR would.
    ///
    /// # Panics
    /// Panics when `words` holds fewer than `n_bits` bits.
    pub fn apply_in_place(&mut self, words: &mut [u64], n_bits: usize) {
        let mut phase = self.phase as usize;
        let mut left = n_bits;
        for w in words[..n_bits.div_ceil(64)].iter_mut() {
            let mask = if left >= 64 { !0 } else { (1u64 << left) - 1 };
            *w ^= KEYSTREAM_WORDS[phase] & mask;
            phase = (phase + 64) % PERIOD;
            left = left.saturating_sub(64);
        }
        self.phase = ((self.phase as usize + n_bits) % PERIOD) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        words
    }

    fn unpack(words: &[u64], n: usize) -> Vec<bool> {
        (0..n).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect()
    }

    fn scrambled(mut s: Scrambler, bits: &[bool]) -> Vec<bool> {
        let mut words = pack(bits);
        s.apply_in_place(&mut words, bits.len());
        unpack(&words, bits.len())
    }

    #[test]
    fn scramble_is_involution() {
        let bits: Vec<bool> = (0..500).map(|k| k % 7 == 0).collect();
        let scrambled_bits = scrambled(Scrambler::default_seed(), &bits);
        assert_eq!(scrambled(Scrambler::default_seed(), &scrambled_bits), bits);
        assert_ne!(scrambled_bits, bits, "scrambler must actually change the data");
    }

    #[test]
    fn keystream_has_period_127() {
        // A maximal-length 7-bit LFSR has period 2^7 - 1 = 127.
        let stream = scrambled(Scrambler::new(1), &[false; 254]);
        assert_eq!(&stream[..127], &stream[127..]);
        // and no shorter period dividing 127 (127 is prime, so just check
        // the stream isn't constant).
        assert!(stream[..127].iter().any(|&b| b));
        assert!(stream[..127].iter().any(|&b| !b));
    }

    #[test]
    fn whitens_constant_input() {
        let out = scrambled(Scrambler::default_seed(), &[false; 127]);
        let ones = out.iter().filter(|&&b| b).count();
        // A maximal LFSR outputs 64 ones per 127-bit period.
        assert_eq!(ones, 64);
    }

    #[test]
    fn keystream_matches_bitwise_lfsr() {
        // Every seed, split across calls of odd lengths: the word XOR and
        // the carried register equal stepping the LFSR one bit at a time,
        // and the bits past each call's length stay untouched.
        for seed in 1..=0x7fu8 {
            let mut state = seed;
            let reference: Vec<bool> = (0..300)
                .map(|_| {
                    let (next, bit) = lfsr_step(state);
                    state = next;
                    bit
                })
                .collect();
            let mut s = Scrambler::new(seed);
            let mut got = Vec::new();
            for len in [5usize, 131, 64, 100] {
                let mut words = vec![0u64; len.div_ceil(64) + 1];
                s.apply_in_place(&mut words, len);
                got.extend(unpack(&words, len));
                assert!(words[len / 64] >> (len % 64) == 0, "seed {seed:#x}: bits past {len}");
            }
            assert_eq!(got, reference, "seed {seed:#x}");
            assert_eq!(s.phase, PHASE_OF[state as usize], "seed {seed:#x}");
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_seed_panics() {
        Scrambler::new(0);
    }
}

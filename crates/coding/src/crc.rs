//! CRC-32 (IEEE 802.3) frame check sequence.
//!
//! Frames carry a 32-bit CRC so the receiver can decide frame success —
//! the quantity behind every FER and throughput measurement in the
//! evaluation (a frame counts toward throughput only if its CRC verifies,
//! exactly like an 802.11 FCS).

const POLY: u32 = 0xEDB8_8320; // reflected 0x04C11DB7

/// `CRC_TABLE[b]` = the reflected CRC-32 register after shifting byte `b`
/// through the polynomial eight times — the bitwise definition, evaluated
/// once at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            k += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// Folds one byte into a running CRC-32 — the single implementation of
/// the polynomial math.
#[inline]
fn crc_fold_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xff) as usize]
}

/// Computes the CRC-32 of the first `n_bits` bits of `words` (bit `i` is
/// bit `i % 64` of word `i / 64`): the words' little-endian bytes, a
/// trailing partial byte zero-padded. Bits past `n_bits` are ignored.
///
/// # Panics
/// Panics when `words` holds fewer than `n_bits` bits.
pub fn crc32_words(words: &[u64], n_bits: usize) -> u32 {
    let mut bytes = words[..n_bits.div_ceil(64)].iter().flat_map(|w| w.to_le_bytes());
    let mut crc = 0xFFFF_FFFFu32;
    for byte in bytes.by_ref().take(n_bits / 8) {
        crc = crc_fold_byte(crc, byte);
    }
    if !n_bits.is_multiple_of(8) {
        let last = bytes.next().expect("the partial byte lies in the sliced words");
        crc = crc_fold_byte(crc, last & (0xff >> (8 - n_bits % 8)));
    }
    !crc
}

/// The 32 bits of `words` starting at bit `at`.
fn read_u32(words: &[u64], at: usize) -> u32 {
    let (w, b) = (at / 64, at % 64);
    let lo = words[w] >> b;
    let hi = if b > 32 { words[w + 1] << (64 - b) } else { 0 };
    (lo | hi) as u32
}

/// Verifies a frame of `n_bits` bits whose last 32 are the CRC
/// ([`crc32_words`], LSB-first) of the bits before them, as the transmit
/// chain appends it. Frames shorter than the CRC fail.
///
/// # Panics
/// Panics when `words` holds fewer than `n_bits` bits.
pub fn check_crc_ok(words: &[u64], n_bits: usize) -> bool {
    if n_bits < 32 {
        return false;
    }
    let _prof = gs_prof::scope(gs_prof::Stage::Crc);
    _prof.add_bytes(n_bits as u64 / 8);
    let payload_bits = n_bits - 32;
    read_u32(words, payload_bits) == crc32_words(words, payload_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The IEEE CRC-32 of a byte slice: the known-answer reference that
    /// [`crc32_words`] is checked against.
    fn crc32(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFFu32, |crc, &byte| crc_fold_byte(crc, byte))
    }

    /// Packs bits LSB-first into words.
    fn pack(bits: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            words[i / 64] |= (b as u64) << (i % 64);
        }
        words
    }

    /// `bits` followed by their CRC, LSB-first, packed — the transmit
    /// chain's framing — and the framed length.
    fn framed(bits: &[bool]) -> (Vec<u64>, usize) {
        let crc = crc32_words(&pack(bits), bits.len());
        let all: Vec<bool> =
            bits.iter().copied().chain((0..32).map(|k| crc >> k & 1 == 1)).collect();
        (pack(&all), all.len())
    }

    fn flip(words: &mut [u64], i: usize) {
        words[i / 64] ^= 1 << (i % 64);
    }

    #[test]
    fn known_vector() {
        // The canonical check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let bits: Vec<bool> =
            b"123456789".iter().flat_map(|&byte| (0..8).map(move |k| byte >> k & 1 == 1)).collect();
        assert_eq!(crc32_words(&pack(&bits), bits.len()), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32_words(&[], 0), 0);
    }

    #[test]
    fn bit_crc_matches_byte_crc() {
        // Bits pack LSB-first, a trailing partial byte zero-padded: every
        // length 0..=150 against the byte reference over the packed bytes,
        // with the bits past the length set to show they are ignored.
        let bits: Vec<bool> = (0..150).map(|k| k % 3 == 1).collect();
        for n in 0..=bits.len() {
            let mut bytes = vec![0u8; n.div_ceil(8)];
            for (k, &b) in bits[..n].iter().enumerate() {
                bytes[k / 8] |= (b as u8) << (k % 8);
            }
            let mut words = pack(&bits[..n]);
            if !n.is_multiple_of(64) {
                *words.last_mut().unwrap() |= !0 << (n % 64);
            }
            assert_eq!(crc32_words(&words, n), crc32(&bytes), "{n} bits");
        }
    }

    #[test]
    fn append_check_roundtrip() {
        for len in [0usize, 1, 31, 32, 33, 100, 128, 2048] {
            let bits: Vec<bool> = (0..len).map(|k| (k * k) % 5 == 0).collect();
            let (framed, n) = framed(&bits);
            assert_eq!(n, len + 32);
            assert!(check_crc_ok(&framed, n), "{len} bits");
        }
    }

    #[test]
    fn detects_single_bit_error() {
        let bits: Vec<bool> = (0..100).map(|k| k % 2 == 0).collect();
        for pos in [0usize, 31, 50, 99, 100, 131] {
            let (mut framed, n) = framed(&bits);
            flip(&mut framed, pos);
            assert!(!check_crc_ok(&framed, n), "error at {pos} undetected");
        }
    }

    #[test]
    fn detects_burst_errors() {
        let bits: Vec<bool> = (0..200).map(|k| k % 7 < 3).collect();
        let (mut framed, n) = framed(&bits);
        for i in 40..72 {
            flip(&mut framed, i);
        }
        assert!(!check_crc_ok(&framed, n));
    }

    #[test]
    fn short_input_rejected() {
        assert!(!check_crc_ok(&[!0], 10));
    }
}

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
/// the polynomial math, shared by the byte-slice and bit-slice fronts.
#[inline]
fn crc_fold_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC_TABLE[((crc ^ byte as u32) & 0xff) as usize]
}

/// Computes the IEEE CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFFu32, |crc, &byte| crc_fold_byte(crc, byte))
}

/// Computes the CRC-32 of a bit slice (bits packed LSB-first into bytes,
/// trailing partial byte zero-padded).
///
/// Packs on the fly — no heap allocation — but is bit-identical to
/// `crc32(&pack_bits(bits))`, zero padding included.
pub fn crc32_bits(bits: &[bool]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for chunk in bits.chunks(8) {
        let mut byte = 0u8;
        for (k, &b) in chunk.iter().enumerate() {
            if b {
                byte |= 1 << k;
            }
        }
        crc = crc_fold_byte(crc, byte);
    }
    !crc
}

/// Packs bits LSB-first into bytes (zero-padding the final byte).
pub fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (k, &b) in bits.iter().enumerate() {
        if b {
            out[k / 8] |= 1 << (k % 8);
        }
    }
    out
}

/// Unpacks bytes into `n` bits, LSB-first.
pub fn unpack_bits(bytes: &[u8], n: usize) -> Vec<bool> {
    assert!(n <= bytes.len() * 8);
    (0..n).map(|k| bytes[k / 8] >> (k % 8) & 1 == 1).collect()
}

/// Appends a 32-bit CRC (LSB-first) to a bit payload.
pub fn append_crc(bits: &[bool]) -> Vec<bool> {
    let crc = crc32_bits(bits);
    let mut out = bits.to_vec();
    out.extend((0..32).map(|k| crc >> k & 1 == 1));
    out
}

/// Verifies and strips a trailing CRC appended by [`append_crc`]. Returns
/// the payload when the CRC matches, `None` otherwise.
pub fn check_crc(bits: &[bool]) -> Option<Vec<bool>> {
    if check_crc_ok(bits) {
        Some(bits[..bits.len() - 32].to_vec())
    } else {
        None
    }
}

/// Verifies a trailing CRC appended by [`append_crc`] without allocating
/// or copying the payload — `check_crc(bits).is_some()` in a form fit for
/// the allocation-free receive chain.
pub fn check_crc_ok(bits: &[bool]) -> bool {
    if bits.len() < 32 {
        return false;
    }
    let _prof = gs_prof::scope(gs_prof::Stage::Crc);
    _prof.add_bytes(bits.len() as u64 / 8);
    let (payload, tail) = bits.split_at(bits.len() - 32);
    let got = tail.iter().enumerate().fold(0u32, |acc, (k, &b)| acc | ((b as u32) << k));
    got == crc32_bits(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // The canonical check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(&[]), 0);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bits: Vec<bool> = (0..45).map(|k| k % 3 == 1).collect();
        assert_eq!(unpack_bits(&pack_bits(&bits), 45), bits);
    }

    #[test]
    fn append_check_roundtrip() {
        let bits: Vec<bool> = (0..100).map(|k| (k * k) % 5 == 0).collect();
        let framed = append_crc(&bits);
        assert_eq!(framed.len(), 132);
        assert_eq!(check_crc(&framed), Some(bits));
    }

    #[test]
    fn detects_single_bit_error() {
        let bits: Vec<bool> = (0..100).map(|k| k % 2 == 0).collect();
        for pos in [0usize, 31, 50, 99, 100, 131] {
            let mut framed = append_crc(&bits);
            framed[pos] = !framed[pos];
            assert_eq!(check_crc(&framed), None, "error at {pos} undetected");
        }
    }

    #[test]
    fn detects_burst_errors() {
        let bits: Vec<bool> = (0..200).map(|k| k % 7 < 3).collect();
        let mut framed = append_crc(&bits);
        for b in framed[40..72].iter_mut() {
            *b = !*b;
        }
        assert_eq!(check_crc(&framed), None);
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(check_crc(&[true; 10]), None);
    }
}

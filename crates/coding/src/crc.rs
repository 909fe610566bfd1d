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

/// Computes the CRC-32 of a bit slice, bits packed LSB-first into bytes
/// and a trailing partial byte zero-padded, packing on the fly: no heap
/// allocation.
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

/// Verifies a 32-bit CRC (LSB-first) trailing the payload, as the
/// transmit chain appends it from [`crc32_bits`], without allocating or
/// copying the payload. Inputs shorter than the CRC fail.
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

    /// The IEEE CRC-32 of a byte slice: the known-answer reference that
    /// [`crc32_bits`] is checked against.
    fn crc32(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFFu32, |crc, &byte| crc_fold_byte(crc, byte))
    }

    /// `bits` followed by their CRC, LSB-first — the transmit chain's
    /// framing.
    fn framed(bits: &[bool]) -> Vec<bool> {
        let crc = crc32_bits(bits);
        bits.iter().copied().chain((0..32).map(|k| crc >> k & 1 == 1)).collect()
    }

    #[test]
    fn known_vector() {
        // The canonical check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let bits: Vec<bool> =
            b"123456789".iter().flat_map(|&byte| (0..8).map(move |k| byte >> k & 1 == 1)).collect();
        assert_eq!(crc32_bits(&bits), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(&[]), 0);
        assert_eq!(crc32_bits(&[]), 0);
    }

    #[test]
    fn bit_crc_matches_byte_crc() {
        // Bits pack LSB-first, a trailing partial byte zero-padded: every
        // length 0..=45 against the byte reference over the packed bytes.
        let bits: Vec<bool> = (0..45).map(|k| k % 3 == 1).collect();
        for n in 0..=bits.len() {
            let mut bytes = vec![0u8; n.div_ceil(8)];
            for (k, &b) in bits[..n].iter().enumerate() {
                bytes[k / 8] |= (b as u8) << (k % 8);
            }
            assert_eq!(crc32_bits(&bits[..n]), crc32(&bytes), "{n} bits");
        }
    }

    #[test]
    fn append_check_roundtrip() {
        let bits: Vec<bool> = (0..100).map(|k| (k * k) % 5 == 0).collect();
        let framed = framed(&bits);
        assert_eq!(framed.len(), 132);
        assert_eq!(&framed[..100], &bits[..]);
        assert!(check_crc_ok(&framed));
    }

    #[test]
    fn detects_single_bit_error() {
        let bits: Vec<bool> = (0..100).map(|k| k % 2 == 0).collect();
        for pos in [0usize, 31, 50, 99, 100, 131] {
            let mut framed = framed(&bits);
            framed[pos] = !framed[pos];
            assert!(!check_crc_ok(&framed), "error at {pos} undetected");
        }
    }

    #[test]
    fn detects_burst_errors() {
        let bits: Vec<bool> = (0..200).map(|k| k % 7 < 3).collect();
        let mut framed = framed(&bits);
        for b in framed[40..72].iter_mut() {
            *b = !*b;
        }
        assert!(!check_crc_ok(&framed));
    }

    #[test]
    fn short_input_rejected() {
        assert!(!check_crc_ok(&[true; 10]));
    }
}

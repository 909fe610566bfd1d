//! # gs-coding
//!
//! Link-layer coding substrate for the Geosphere workspace, mirroring the
//! 802.11 transmit pipeline the paper's implementation uses (§4): a K=7
//! rate-1/2 convolutional code (with standard puncturing to 2/3 and 3/4),
//! hard-decision Viterbi decoding with erasure support, the two-permutation
//! block interleaver, the 7-bit LFSR scrambler, and a CRC-32 frame check.
//!
//! ```
//! use gs_coding::{conv, viterbi};
//!
//! let info = vec![true, false, true, true, false];
//! let coded = conv::encode(&info);
//! assert_eq!(viterbi::decode(&coded), info);
//! ```

// `deny` rather than `forbid`: the multi-stream Viterbi butterfly has an
// AVX2 backend that locally re-allows `unsafe` for intrinsics, exactly as
// the `gs-linalg` SIMD backends do.
#![deny(unsafe_code)]
// Trellis/detector inner loops index several arrays by the same state or
// stream variable; iterator rewrites obscure the recurrences.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod bcjr;
pub mod conv;
pub mod crc;
pub mod interleave;
pub mod puncture;
pub mod scramble;
pub mod viterbi;

pub use bcjr::{siso_decode, SisoOutput};
pub use crc::{append_crc, check_crc, check_crc_ok, crc32, pack_bits, unpack_bits};
pub use interleave::Interleaver;
pub use puncture::{
    depuncture, depuncture_into, depuncture_soft, depuncture_soft_into, puncture, puncture_into,
    CodeRate,
};
pub use scramble::Scrambler;
pub use viterbi::{decode_multi_with_erasures_into, CodedBit, ViterbiWorkspace};

//! # gs-coding
//!
//! Link-layer coding substrate for the Geosphere workspace, mirroring the
//! 802.11 transmit pipeline the paper's implementation uses (§4): a K=7
//! rate-1/2 convolutional code (with standard puncturing to 2/3 and 3/4),
//! hard-decision Viterbi decoding with erasure support, the two-permutation
//! block interleaver, the 7-bit LFSR scrambler, and a CRC-32 frame check.
//!
//! Every stage writes into a caller-owned buffer (cleared first), so a
//! long-lived receiver allocates nothing per frame:
//!
//! ```
//! use gs_coding::viterbi::{decode_with_erasures_into, ViterbiWorkspace};
//! use gs_coding::{conv, depuncture_into, puncture_into, CodeRate};
//!
//! let info = vec![true, false, true, true, false, false, true, false, true];
//! let (mut mother, mut sent, mut received) = (Vec::new(), Vec::new(), Vec::new());
//! conv::encode_into(&info, &mut mother); // appends the 6-bit tail
//! puncture_into(&mother, CodeRate::ThreeQuarters, &mut sent);
//! depuncture_into(&sent, CodeRate::ThreeQuarters, mother.len(), &mut received);
//!
//! let (mut ws, mut decoded) = (ViterbiWorkspace::new(), Vec::new());
//! decode_with_erasures_into(&received, &mut ws, &mut decoded);
//! assert_eq!(decoded, info);
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
pub use crc::check_crc_ok;
pub use interleave::Interleaver;
pub use puncture::{depuncture_into, depuncture_soft_into, puncture_into, CodeRate};
pub use scramble::Scrambler;
pub use viterbi::{decode_multi_with_erasures_into, CodedBit, ViterbiWorkspace};

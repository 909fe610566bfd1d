//! # gs-coding
//!
//! Link-layer coding substrate for the Geosphere workspace, mirroring the
//! 802.11 transmit pipeline the paper's implementation uses (§4): a K=7
//! rate-1/2 convolutional code (with standard puncturing to 2/3 and 3/4),
//! hard-decision Viterbi decoding with erasure support, the two-permutation
//! block interleaver, the 7-bit LFSR scrambler, and a CRC-32 frame check.
//!
//! Bits travel packed: bit `i` of a stream is bit `i % 64` of word
//! `i / 64`, and every stage writes into a caller-owned buffer (cleared
//! first), so a long-lived receiver allocates nothing per frame. The hard
//! chains place coded bits through a [`SymbolLayout`] (the interleaver
//! composed with puncturing), straight between the mother stream and the
//! constellation points:
//!
//! ```
//! use gs_coding::viterbi::{decode_with_erasures_into, ViterbiWorkspace};
//! use gs_coding::{conv, CodeRate, CodedBit, SymbolLayout};
//!
//! // 58 information bits, packed: with the 6-bit tail they fill one
//! // OFDM symbol of 96 coded bits at rate 2/3.
//! let info = [0x1b2_c3d4_e5f6_0789u64];
//! let mut mother = Vec::new();
//! conv::encode_into(&info, 58, &mut mother); // appends the 6-bit tail
//! let layout = SymbolLayout::new(96, 2, CodeRate::TwoThirds);
//! let mut groups = Vec::new(); // one 2-bit group per QPSK point
//! layout.gather_into(&mother, 1, |g| g, &mut groups);
//! assert_eq!(groups.len(), 48);
//!
//! let mut received = vec![CodedBit::Zero; layout.mother_bits()];
//! layout.scatter(groups.iter().copied(), &mut received);
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
pub use interleave::{Interleaver, SymbolLayout};
pub use puncture::{depuncture_soft_into, puncture_into, CodeRate};
pub use scramble::Scrambler;
pub use viterbi::{decode_multi_with_erasures_into, CodedBit, ViterbiWorkspace};

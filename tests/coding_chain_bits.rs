//! Golden bits of every stage of the coding and mapping chain.
//!
//! The end-to-end suites check that frames decode, and the campaign pins
//! delivered payloads, but a change that stores bits differently (packed
//! words instead of one `bool` per bit) could reorder bits inside a stage
//! and still round-trip. This file pins each stage's output on its own: an
//! FNV-1a hash per stage, over seeded payloads for every constellation ×
//! code rate at two payload lengths.
//!
//! * Transmit: CRC, scramble, encode, puncture, interleave, map.
//! * Receive, with seeded symbol errors and erasures: unmap, deinterleave,
//!   depuncture (hard and soft), the single-stream, four-stream and soft
//!   Viterbi decoders, descramble, and the CRC verdict.
//!
//! The four-stream decoder runs the 8-bit AVX2 kernel on the AVX2 tier
//! and the `u32` loop under `GS_SIMD=off`; both must hit the same hash.
//!
//! The chain carries packed words, and the frame paths puncture,
//! interleave and map in one gather (`SymbolLayout`) and demap,
//! deinterleave and depuncture in one scatter. The hashes stay over one
//! byte per bit: the test unpacks each stage's words, takes the
//! punctured, interleaved and unmapped streams from the per-value stage
//! functions and `BitTable`, and pins the gather under `map` and the
//! scatter under `depuncture`.
//!
//! The constants were captured by running this file on the commit before
//! the allocating twins of the chain's stages were deleted, under
//! `GS_SIMD=off` and on the native tier, when every stage moved one `bool`
//! per bit. They are not tuned to the current code: if one moves, that
//! stage emits different bits.

use geosphere::coding::viterbi::{
    decode_multi_with_erasures_into, decode_soft_into, decode_with_erasures_into, CodedBit,
    ViterbiWorkspace,
};
use geosphere::coding::{
    check_crc_ok, conv, crc::crc32_words, depuncture_soft_into, puncture_into, CodeRate, Scrambler,
    SymbolLayout,
};
use geosphere::modulation::{BitTable, Constellation, GridPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over bytes.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Length first, so a stage that drops or adds bits moves the hash
    /// even when the bits it keeps agree.
    fn bools(&mut self, bits: &[bool]) {
        self.word(bits.len() as u64);
        for &b in bits {
            self.byte(b as u8);
        }
    }

    fn coded(&mut self, bits: &[CodedBit]) {
        self.word(bits.len() as u64);
        for &b in bits {
            self.byte(match b {
                CodedBit::Zero => 0,
                CodedBit::One => 1,
                CodedBit::Erased => 2,
            });
        }
    }

    fn floats(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn points(&mut self, ps: &[GridPoint]) {
        self.word(ps.len() as u64);
        for p in ps {
            self.word(p.i as u64);
            self.word(p.q as u64);
        }
    }
}

/// Data subcarriers per OFDM symbol (802.11a/g).
const SUBCARRIERS: usize = 48;
/// Payloads per case; the four-stream decoder takes one stream from each.
const FRAMES: usize = 4;
/// Payload lengths in bits: one a few OFDM symbols long, one longer than
/// the scrambler's period many times over.
const PAYLOADS: [usize; 2] = [96, 1500];
/// Probability that a received grid point is replaced by a random one.
const SYMBOL_ERROR: f64 = 0.02;
/// Probability that a depunctured coded bit (or its LLR) is erased.
const ERASURE: f64 = 0.03;

/// The stages, in chain order; `Hashes` keeps one hash per entry.
const STAGES: [&str; 15] = [
    "crc",
    "scramble",
    "encode",
    "puncture",
    "interleave",
    "map",
    "unmap",
    "deinterleave",
    "depuncture",
    "depuncture_soft",
    "viterbi",
    "viterbi_x4",
    "viterbi_soft",
    "descramble",
    "check_crc_ok",
];

struct Hashes([Fnv; STAGES.len()]);

impl Hashes {
    fn at(&mut self, stage: &str) -> &mut Fnv {
        &mut self.0[STAGES.iter().position(|&s| s == stage).expect("known stage")]
    }
}

/// Bits packed LSB-first into words, as the chain carries them.
fn pack(bits: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        words[i / 64] |= (b as u64) << (i % 64);
    }
    words
}

/// The first `n` bits of packed words.
fn unpack(words: &[u64], n: usize) -> Vec<bool> {
    (0..n).map(|i| words[i / 64] >> (i % 64) & 1 == 1).collect()
}

/// One frame's buffers, reused across every case.
#[derive(Default)]
struct Chain {
    info: Vec<bool>,
    words: Vec<u64>,
    mother: Vec<u64>,
    mother_bits: Vec<bool>,
    coded: Vec<bool>,
    interleaved: Vec<bool>,
    points: Vec<GridPoint>,
    bits: Vec<bool>,
    deint: Vec<bool>,
    llrs: Vec<f64>,
    soft: Vec<f64>,
    decoded: Vec<u64>,
}

/// Runs one constellation × rate × payload-length case through the chain,
/// folding every stage's output into `h`.
fn run_case(
    c: Constellation,
    rate: CodeRate,
    payload_bits: usize,
    seed: u64,
    h: &mut Hashes,
    ws: &mut ViterbiWorkspace,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_cbps = SUBCARRIERS * c.bits_per_symbol();
    let n_dbps = n_cbps * rate.numerator() / rate.denominator();
    let tail = conv::CONSTRAINT - 1;
    let total_info = (payload_bits + 32 + tail).div_ceil(n_dbps) * n_dbps;
    let pad = total_info - payload_bits - 32 - tail;
    let q = c.bits_per_symbol();
    let layout = SymbolLayout::new(n_cbps, q, rate);
    let il = layout.interleaver();
    let n_sym = total_info / n_dbps;
    let data = total_info - tail;
    let table = BitTable::new(c);

    let mut ch = Chain::default();
    let mut streams: Vec<CodedBit> = Vec::new();
    let mut mother_cb: Vec<CodedBit> = Vec::new();
    for _ in 0..FRAMES {
        let payload: Vec<bool> = (0..payload_bits).map(|_| rng.gen_bool(0.5)).collect();

        // Transmit: payload + CRC + pad, scrambled, encoded with its tail,
        // punctured, interleaved per OFDM symbol, mapped.
        ch.info.clear();
        ch.info.extend_from_slice(&payload);
        let crc = crc32_words(&pack(&payload), payload_bits);
        ch.info.extend((0..32).map(|k| crc >> k & 1 == 1));
        h.at("crc").bools(&ch.info);
        ch.info.extend(std::iter::repeat_n(false, pad));
        ch.words = pack(&ch.info);
        Scrambler::default_seed().apply_in_place(&mut ch.words, data);
        h.at("scramble").bools(&unpack(&ch.words, data));
        conv::encode_into(&ch.words, data, &mut ch.mother);
        ch.mother_bits = unpack(&ch.mother, 2 * total_info);
        h.at("encode").bools(&ch.mother_bits);
        puncture_into(&ch.mother_bits, rate, &mut ch.coded);
        h.at("puncture").bools(&ch.coded);
        il.interleave_stream_into(&ch.coded, &mut ch.interleaved);
        h.at("interleave").bools(&ch.interleaved);
        layout.gather_into(&ch.mother, n_sym, |bits| table.point(bits), &mut ch.points);
        h.at("map").points(&ch.points);

        // Receive: symbol errors, then the inverse chain.
        for p in ch.points.iter_mut() {
            if rng.gen_bool(SYMBOL_ERROR) {
                *p = table.point(rng.gen_range(0..c.size()) as u16);
            }
        }
        ch.bits.clear();
        for &p in &ch.points {
            ch.bits.extend((0..q).rev().map(|k| table.packed(p) >> k & 1 == 1));
        }
        h.at("unmap").bools(&ch.bits);
        il.deinterleave_stream_into(&ch.bits, &mut ch.deint);
        h.at("deinterleave").bools(&ch.deint);

        mother_cb.clear();
        mother_cb.resize(2 * total_info, CodedBit::Erased);
        layout.scatter(ch.points.iter().map(|&p| table.packed(p)), &mut mother_cb);
        h.at("depuncture").coded(&mother_cb);
        for cb in mother_cb.iter_mut() {
            if rng.gen_bool(ERASURE) {
                *cb = CodedBit::Erased;
            }
        }

        // LLRs: the hard decision's sign, a seeded confidence, and
        // seeded erasures (LLR 0).
        ch.llrs.clear();
        for &b in &ch.deint {
            let llr = if rng.gen_bool(ERASURE) { 0.0 } else { 0.25 + 4.0 * rng.gen::<f64>() };
            ch.llrs.push(if b { -llr } else { llr });
        }
        depuncture_soft_into(&ch.llrs, rate, 2 * total_info, &mut ch.soft);
        h.at("depuncture_soft").floats(&ch.soft);

        decode_with_erasures_into(&mother_cb, ws, &mut ch.decoded);
        h.at("viterbi").bools(&unpack(&ch.decoded, data));
        streams.extend_from_slice(&mother_cb);

        Scrambler::default_seed().apply_in_place(&mut ch.decoded, payload_bits + 32);
        h.at("descramble").bools(&unpack(&ch.decoded, payload_bits + 32));
        h.at("check_crc_ok").byte(check_crc_ok(&ch.decoded, payload_bits + 32) as u8);

        decode_soft_into(&ch.soft, ws, &mut ch.decoded);
        h.at("viterbi_soft").bools(&unpack(&ch.decoded, data));
        Scrambler::default_seed().apply_in_place(&mut ch.decoded, payload_bits + 32);
        h.at("check_crc_ok").byte(check_crc_ok(&ch.decoded, payload_bits + 32) as u8);
    }
    decode_multi_with_erasures_into(&streams, FRAMES, ws, &mut ch.decoded);
    let words = ch.decoded.len() / FRAMES;
    let flat: Vec<bool> = ch.decoded.chunks(words).flat_map(|w| unpack(w, data)).collect();
    h.at("viterbi_x4").bools(&flat);
}

#[test]
fn every_chain_stage_is_bit_pinned() {
    let golden: [u64; STAGES.len()] = [
        0x5678_30f1_1ef9_02d7, // crc
        0x015a_3992_0452_721f, // scramble
        0x7724_56a8_b161_d335, // encode
        0xcd27_3daf_7a6f_92b1, // puncture
        0x58ea_2712_9282_5a0b, // interleave
        0xb004_e635_731c_a309, // map
        0xb805_b88e_35fa_18b8, // unmap
        0xc26a_3188_b00f_fd2c, // deinterleave
        0xb3d3_a186_a311_3bbe, // depuncture
        0xfead_1188_d226_d5cb, // depuncture_soft
        0x8722_3075_a4d4_9616, // viterbi
        0x4edf_42b5_bb89_4866, // viterbi_x4
        0x36f6_eb0d_e41c_6b48, // viterbi_soft
        0x9053_257d_4f7a_026c, // descramble
        0x591f_1f39_42fd_147d, // check_crc_ok
    ];
    let mut h = Hashes([Fnv::new(); STAGES.len()]);
    let mut ws = ViterbiWorkspace::new();
    let rates = [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];
    for (ci, &c) in Constellation::ALL.iter().enumerate() {
        for (ri, &rate) in rates.iter().enumerate() {
            for &len in &PAYLOADS {
                let seed = 3600 + 100 * ci as u64 + 10 * ri as u64 + len as u64;
                run_case(c, rate, len, seed, &mut h, &mut ws);
            }
        }
    }
    let wrong: Vec<String> = STAGES
        .iter()
        .zip(&h.0)
        .zip(&golden)
        .filter(|((_, got), want)| got.0 != **want)
        .map(|((stage, got), want)| format!("{stage}: got {:#018x}, want {want:#018x}", got.0))
        .collect();
    assert!(wrong.is_empty(), "chain stage bits moved:\n{}", wrong.join("\n"));
}

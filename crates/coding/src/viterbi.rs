//! Viterbi decoding for the K=7 rate-1/2 code.
//!
//! Hard-decision decoding over Hamming metrics plus an erasure-aware variant
//! used after depuncturing. The trellis is the 64-state one defined in
//! [`crate::conv`]; decoding assumes the encoder appended the 6 zero tail
//! bits (terminated trellis).
//!
//! ## Survivors
//!
//! Every decoder keeps one *decision bit* per (step, state, stream), packed
//! into `n` 64-bit words per trellis step for `n` lockstep streams: bit
//! `state·n + s` of step `t`'s words is set when stream `s`'s survivor into
//! `state` came from the upper predecessor. Destination `state` has the
//! predecessors `2k` and `2k + 1` (`k = state mod 32`) and was entered by
//! input bit `state ≥ 32`, so the traceback rebuilds the predecessor as
//! `2k + bit` and reads the decoded bit off the state itself: 8 bytes of
//! survivor memory per step and stream.
//!
//! ## Renormalisation in the 16-bit AVX2 kernel
//!
//! The four-stream lockstep decoder's AVX2 kernel keeps path metrics in
//! 16-bit lanes — one 256-bit op advances 4 butterflies × 4 streams — and
//! every [`RENORM_INTERVAL`] steps subtracts each stream's minimum metric
//! from all of that stream's states. Its output is bit-identical to the
//! `u32` scalar loop (the `GS_SIMD=off` reference) because:
//!
//! * **Selections see only differences.** Every decision compares two
//!   candidates `c0 = m(2k) + b0` and `c1 = m(2k+1) + b1` of one stream.
//!   Subtracting the same amount from all of a stream's metrics leaves
//!   `c1 < c0` — and so every tie-break — unchanged.
//! * **Nothing wraps.** Branch costs are at most 2 per step. Once the
//!   trellis has run `K − 1 = 6` steps every state is reachable from every
//!   state in 6 steps, so a stream's metrics spread over at most `2·6`; a
//!   renormalised stream therefore starts at most 12 and stays below
//!   `12 + 2·RENORM_INTERVAL` until the next renormalisation.
//! * **Unreachable states still lose.** The scalar loop starts the 63
//!   states other than 0 at `u32::MAX / 2`, the kernel at `INF = 0x2000`.
//!   Both exceed any reachable metric of the first 6 steps (≤ 12), and a
//!   metric derived from an unreachable start is that start plus the same
//!   path cost in both, so comparisons among such metrics agree too. After
//!   6 steps every survivor is reachable and no start value remains.

use crate::conv::{CONSTRAINT, NUM_STATES, OUTPUT_TABLE};

/// A received coded bit: a hard decision or an erasure (from depuncturing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodedBit {
    /// Received as 0.
    Zero,
    /// Received as 1.
    One,
    /// Punctured away at the transmitter; contributes no metric.
    Erased,
}

impl CodedBit {
    /// Converts a plain bool.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            CodedBit::One
        } else {
            CodedBit::Zero
        }
    }

    /// Hamming cost of hypothesizing transmitted bit `tx`.
    #[inline]
    const fn cost(self, tx: bool) -> u32 {
        match self {
            CodedBit::Erased => 0,
            CodedBit::Zero => tx as u32,
            CodedBit::One => !tx as u32,
        }
    }
}

/// Half the butterfly count: destinations `k` and `k + HALF` share the
/// predecessor pair `{2k, 2k+1}`.
const HALF: usize = NUM_STATES / 2;

/// Steps between two renormalisations of the 16-bit AVX2 kernel's path
/// metrics (see the module docs).
pub const RENORM_INTERVAL: usize = 512;

/// Per-butterfly branch-output bits, hoisted from [`OUTPUT_TABLE`] at
/// compile time so the add-compare-select loop is pure contiguous
/// arithmetic — no per-transition table gathers, which is what lets the
/// compiler vectorize it.
///
/// `BFLY[input][src]` with `input ∈ {0, 1}` (the destination's new bit)
/// and `src ∈ {0, 1}` (lower/upper predecessor `2k`/`2k+1`) holds, per
/// butterfly index `k`, the two output bits as 0/1 words: `.0[k]` = first
/// generator bit, `.1[k]` = second.
struct ButterflyBits {
    o0: [u32; HALF],
    o1: [u32; HALF],
}

const fn butterfly_bits(src_odd: usize, input: usize) -> ButterflyBits {
    let mut b = ButterflyBits { o0: [0; HALF], o1: [0; HALF] };
    let mut k = 0;
    while k < HALF {
        let state = 2 * k + src_odd;
        let packed = OUTPUT_TABLE[(state << 1) | input];
        b.o0[k] = (packed & 1) as u32;
        b.o1[k] = ((packed >> 1) & 1) as u32;
        k += 1;
    }
    b
}

/// Transition bits for (lower predecessor, input 0) … (upper, input 1).
const B_LO_IN0: ButterflyBits = butterfly_bits(0, 0);
const B_HI_IN0: ButterflyBits = butterfly_bits(1, 0);
const B_LO_IN1: ButterflyBits = butterfly_bits(0, 1);
const B_HI_IN1: ButterflyBits = butterfly_bits(1, 1);

/// A transition's output pair packed as a branch-cost index `o0·2 + o1`
/// into the four-entry per-stream cost row `{base, base+d1, base+d0,
/// base+d0+d1}` the multi-stream decoder builds each step.
const fn pattern_indices(b: &ButterflyBits) -> [u8; HALF] {
    let mut out = [0u8; HALF];
    let mut k = 0;
    while k < HALF {
        out[k] = (b.o0[k] * 2 + b.o1[k]) as u8;
        k += 1;
    }
    out
}

/// Branch-cost indices per butterfly for the four transition kinds.
const IDX_LO0: [u8; HALF] = pattern_indices(&B_LO_IN0);
const IDX_HI0: [u8; HALF] = pattern_indices(&B_HI_IN0);
const IDX_LO1: [u8; HALF] = pattern_indices(&B_LO_IN1);
const IDX_HI1: [u8; HALF] = pattern_indices(&B_HI_IN1);

/// Reusable trellis scratch for the Viterbi decoders: hard/soft path
/// metrics plus the bit-packed survivor decisions. Hold one per receiver
/// and pass it to [`decode_with_erasures_into`]/[`decode_soft_into`] —
/// after the first frame of a given length, decoding performs zero heap
/// allocations.
#[derive(Clone, Debug, Default)]
pub struct ViterbiWorkspace {
    metric_u: Vec<u32>,
    next_u: Vec<u32>,
    metric_f: Vec<f64>,
    next_f: Vec<f64>,
    /// Survivor decisions, `n` words per trellis step (module docs).
    decisions: Vec<u64>,
    /// Per-step branch-cost table for the multi-stream decoder:
    /// `cost[idx · n + s]` for pattern `idx ∈ 0..4` and stream `s`.
    cost: Vec<u32>,
}

impl ViterbiWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-stream traceback from state 0 (terminated trellis) over the
/// decisions of `n` lockstep streams, filling `out` stream-major with the
/// `steps − (K−1)` information bits of each stream. Up to eight streams
/// walk back together so their dependency chains overlap.
fn traceback(decisions: &[u64], n: usize, steps: usize, out: &mut Vec<bool>) {
    let info_len = steps - (CONSTRAINT - 1);
    out.clear();
    out.resize(n * info_len, false);
    for first in (0..n).step_by(8) {
        let group = (n - first).min(8);
        let mut states = [0usize; 8];
        for t in (0..steps).rev() {
            let row = &decisions[t * n..(t + 1) * n];
            for (g, state) in states[..group].iter_mut().enumerate() {
                let s = first + g;
                if t < info_len {
                    out[s * info_len + t] = *state >= HALF;
                }
                let bit = *state * n + s;
                let take_hi = (row[bit / 64] >> (bit % 64)) & 1;
                *state = 2 * (*state % HALF) + take_hi as usize;
            }
        }
    }
}

/// Decodes a terminated, rate-1/2 coded stream that may contain erasures
/// into `out` (cleared first): the `coded.len()/2 − 6` information bits.
/// The trellis state lives in `ws`, so decoding performs zero heap
/// allocations once the workspace has warmed up to the stream length.
///
/// # Panics
/// Panics when the stream length is odd or shorter than the tail.
pub fn decode_with_erasures_into(
    coded: &[CodedBit],
    ws: &mut ViterbiWorkspace,
    out: &mut Vec<bool>,
) {
    assert_eq!(coded.len() % 2, 0, "rate-1/2 stream must have even length");
    let steps = coded.len() / 2;
    assert!(steps >= CONSTRAINT - 1, "stream shorter than the termination tail");
    let _prof = gs_prof::scope(gs_prof::Stage::Viterbi);
    _prof.add_bytes(steps as u64 / 8);

    const INF: u32 = u32::MAX / 2;
    ws.metric_u.clear();
    ws.metric_u.resize(NUM_STATES, INF);
    ws.metric_u[0] = 0;
    ws.decisions.resize(steps, 0); // every step's word is overwritten

    ws.next_u.clear();
    ws.next_u.resize(NUM_STATES, 0);
    for t in 0..steps {
        let rx0 = coded[2 * t];
        let rx1 = coded[2 * t + 1];
        // Branch metric components: a transition emitting bits (o0, o1)
        // costs `c0f + o0·d0 + c1f + o1·d1` — pure 0/1-mask arithmetic,
        // identical to the four-entry table the scalar loop used.
        let c0f = rx0.cost(false);
        let c1f = rx1.cost(false);
        let d0 = rx0.cost(true).wrapping_sub(c0f);
        let d1 = rx1.cost(true).wrapping_sub(c1f);
        let base = c0f + c1f;
        let (next_in0, next_in1) = ws.next_u.split_at_mut(HALF);
        let mut take_hi_bits = 0u64;
        // Destination-major butterflies: dest k (new bit 0) and k + HALF
        // (new bit 1) both choose between predecessors 2k and 2k+1 —
        // branchless, every destination written exactly once. Unreachable
        // predecessors carry metrics ≥ INF and lose every comparison that
        // matters (real path metrics are bounded by 2·steps), so outputs
        // match the old skip-INF source-major loop bit for bit, including
        // its tie-breaking (the lower predecessor was enumerated first and
        // only a strictly better cost replaced it).
        for k in 0..HALF {
            let m0 = ws.metric_u[2 * k];
            let m1 = ws.metric_u[2 * k + 1];
            let bc_lo0 = base
                .wrapping_add(B_LO_IN0.o0[k].wrapping_mul(d0))
                .wrapping_add(B_LO_IN0.o1[k].wrapping_mul(d1));
            let bc_hi0 = base
                .wrapping_add(B_HI_IN0.o0[k].wrapping_mul(d0))
                .wrapping_add(B_HI_IN0.o1[k].wrapping_mul(d1));
            let c0 = m0 + bc_lo0;
            let c1 = m1 + bc_hi0;
            next_in0[k] = if c1 < c0 { c1 } else { c0 };
            take_hi_bits |= ((c1 < c0) as u64) << k;

            let bc_lo1 = base
                .wrapping_add(B_LO_IN1.o0[k].wrapping_mul(d0))
                .wrapping_add(B_LO_IN1.o1[k].wrapping_mul(d1));
            let bc_hi1 = base
                .wrapping_add(B_HI_IN1.o0[k].wrapping_mul(d0))
                .wrapping_add(B_HI_IN1.o1[k].wrapping_mul(d1));
            let c0 = m0 + bc_lo1;
            let c1 = m1 + bc_hi1;
            next_in1[k] = if c1 < c0 { c1 } else { c0 };
            take_hi_bits |= ((c1 < c0) as u64) << (k + HALF);
        }
        ws.decisions[t] = take_hi_bits;
        std::mem::swap(&mut ws.metric_u, &mut ws.next_u);
    }
    traceback(&ws.decisions, 1, steps, out);
}

/// Decodes `n_streams` equal-length terminated rate-1/2 streams in one
/// lockstep trellis pass — the multi-symbol SoA form of
/// [`decode_with_erasures_into`].
///
/// `streams` is stream-major flat: stream `s` occupies
/// `s·len..(s+1)·len` where `len = streams.len() / n_streams`. `out` is
/// filled stream-major with `steps − (K−1)` information bits per stream
/// (`steps = len / 2`), so stream `s`'s bits are
/// `out[s·info_len..(s+1)·info_len]`.
///
/// Path metrics live in stream-interleaved SoA rows (`metric[state·n + s]`)
/// so the 32-butterfly add-compare-select inner loop walks contiguous
/// slabs — one pass advances every stream's trellis. Four streams on the
/// AVX2 tier of [`gs_linalg::simd::active_tier`] run the 16-bit kernel
/// instead (module docs). Every stream's metrics, tie-breaks, and
/// traceback are the *same arithmetic* as the single-stream decoder (exact
/// integer ops, identical `c1 < c0` selection), so output is bit-identical
/// per stream.
///
/// # Panics
/// Panics when `n_streams` is zero, `streams.len()` is not divisible by
/// `n_streams`, or the per-stream length is odd or shorter than the tail.
pub fn decode_multi_with_erasures_into(
    streams: &[CodedBit],
    n_streams: usize,
    ws: &mut ViterbiWorkspace,
    out: &mut Vec<bool>,
) {
    let n = n_streams;
    assert!(n > 0, "need at least one stream");
    assert_eq!(streams.len() % n, 0, "streams must share one length");
    let len = streams.len() / n;
    assert_eq!(len % 2, 0, "rate-1/2 stream must have even length");
    let steps = len / 2;
    assert!(steps >= CONSTRAINT - 1, "stream shorter than the termination tail");
    let _prof = gs_prof::scope(gs_prof::Stage::Viterbi);
    _prof.add_bytes((n * steps) as u64 / 8);
    ws.decisions.resize(steps * n, 0); // every step's words are overwritten

    #[cfg(target_arch = "x86_64")]
    if n == 4 && gs_linalg::simd::active_tier() == gs_linalg::simd::Tier::Avx2 {
        // SAFETY: `active_tier()` reports AVX2 only after runtime
        // detection (or `force_tier`) confirmed the CPU supports it.
        #[allow(unsafe_code)]
        unsafe {
            avx2::forward_n4(streams, &mut ws.decisions)
        };
        traceback(&ws.decisions, n, steps, out);
        return;
    }

    const INF: u32 = u32::MAX / 2;
    ws.metric_u.clear();
    ws.metric_u.resize(NUM_STATES * n, INF);
    ws.metric_u[..n].fill(0); // state 0, every stream
    ws.next_u.clear();
    ws.next_u.resize(NUM_STATES * n, 0);
    ws.cost.clear();
    ws.cost.resize(4 * n, 0);

    for t in 0..steps {
        // Per-stream branch-cost row: a transition emitting (o0, o1) costs
        // cost[(o0·2 + o1)·n + s] — the same wrapping `base + o·d` sums the
        // single-stream loop forms, precomputed once per step.
        for s in 0..n {
            let rx0 = streams[s * len + 2 * t];
            let rx1 = streams[s * len + 2 * t + 1];
            let c0f = rx0.cost(false);
            let c1f = rx1.cost(false);
            let d0 = rx0.cost(true).wrapping_sub(c0f);
            let d1 = rx1.cost(true).wrapping_sub(c1f);
            let base = c0f + c1f;
            ws.cost[s] = base;
            ws.cost[n + s] = base.wrapping_add(d1);
            ws.cost[2 * n + s] = base.wrapping_add(d0);
            ws.cost[3 * n + s] = base.wrapping_add(d0).wrapping_add(d1);
        }
        let dec = &mut ws.decisions[t * n..(t + 1) * n];
        dec.fill(0);
        let (next_in0, next_in1) = ws.next_u.split_at_mut(HALF * n);
        // The single-stream destination-major butterfly with streams as the
        // innermost (contiguous) axis; identical metric arithmetic and
        // tie-breaking per stream.
        for k in 0..HALF {
            let row0 = &ws.metric_u[2 * k * n..(2 * k + 1) * n];
            let row1 = &ws.metric_u[(2 * k + 1) * n..(2 * k + 2) * n];
            let lo0 = &ws.cost[IDX_LO0[k] as usize * n..][..n];
            let hi0 = &ws.cost[IDX_HI0[k] as usize * n..][..n];
            let lo1 = &ws.cost[IDX_LO1[k] as usize * n..][..n];
            let hi1 = &ws.cost[IDX_HI1[k] as usize * n..][..n];
            for s in 0..n {
                let m0 = row0[s];
                let m1 = row1[s];
                let c0 = m0 + lo0[s];
                let c1 = m1 + hi0[s];
                let take_hi = c1 < c0;
                next_in0[k * n + s] = if take_hi { c1 } else { c0 };
                let bit = k * n + s;
                dec[bit / 64] |= (take_hi as u64) << (bit % 64);

                let c0 = m0 + lo1[s];
                let c1 = m1 + hi1[s];
                let take_hi = c1 < c0;
                next_in1[k * n + s] = if take_hi { c1 } else { c0 };
                let bit = (k + HALF) * n + s;
                dec[bit / 64] |= (take_hi as u64) << (bit % 64);
            }
        }
        std::mem::swap(&mut ws.metric_u, &mut ws.next_u);
    }
    traceback(&ws.decisions, n, steps, out);
}

/// Decodes a terminated rate-1/2 stream from per-bit log-likelihood
/// ratios (positive = bit 0 more likely, e.g. from a soft MIMO detector)
/// into `out` (cleared first). Punctured positions should carry LLR `0.0`
/// (no information).
///
/// The branch metric for hypothesizing transmitted bit `b` against LLR `L`
/// is `|L|` when the hypothesis contradicts the LLR's hard decision and
/// `0` otherwise — the max-log-optimal soft Viterbi metric. The trellis
/// state lives in `ws`, so decoding performs zero heap allocations once
/// the workspace has warmed up to the stream length.
///
/// # Panics
/// Panics when the stream length is odd or shorter than the tail.
pub fn decode_soft_into(llrs: &[f64], ws: &mut ViterbiWorkspace, out: &mut Vec<bool>) {
    assert_eq!(llrs.len() % 2, 0, "rate-1/2 stream must have even length");
    let steps = llrs.len() / 2;
    assert!(steps >= CONSTRAINT - 1, "stream shorter than the termination tail");
    let _prof = gs_prof::scope(gs_prof::Stage::Viterbi);
    _prof.add_bytes(steps as u64 / 8);

    #[inline]
    fn cost(llr: f64, tx: bool) -> f64 {
        // Positive LLR favours bit 0: penalize a `1` hypothesis by +L, a
        // `0` hypothesis by −L when L is negative.
        if tx {
            llr.max(0.0)
        } else {
            (-llr).max(0.0)
        }
    }

    const INF: f64 = f64::INFINITY;
    ws.metric_f.clear();
    ws.metric_f.resize(NUM_STATES, INF);
    ws.metric_f[0] = 0.0;
    ws.decisions.resize(steps, 0); // every step's word is overwritten
    ws.next_f.clear();
    ws.next_f.resize(NUM_STATES, 0.0);

    for t in 0..steps {
        let l0 = llrs[2 * t];
        let l1 = llrs[2 * t + 1];
        let c0f = cost(l0, false);
        let c0t = cost(l0, true);
        let c1f = cost(l1, false);
        let c1t = cost(l1, true);
        let (next_in0, next_in1) = ws.next_f.split_at_mut(HALF);
        let mut take_hi_bits = 0u64;
        // The same destination-major butterfly as the hard path, with
        // branchless selects instead of mask arithmetic (f64 selection must
        // stay exact). A transition emitting (o0, o1) costs
        // `sel(o0) + sel(o1)` — the one addition the old four-entry table
        // performed, so metrics are bit-identical. Unreachable predecessors
        // carry `+∞` and lose every comparison that matters; the old loop's
        // tie-breaking (lower predecessor first, strict improvement only)
        // is preserved by `take_hi = c1 < c0`.
        for k in 0..HALF {
            let m0 = ws.metric_f[2 * k];
            let m1 = ws.metric_f[2 * k + 1];
            let bc_lo0 = (if B_LO_IN0.o0[k] == 1 { c0t } else { c0f })
                + (if B_LO_IN0.o1[k] == 1 { c1t } else { c1f });
            let bc_hi0 = (if B_HI_IN0.o0[k] == 1 { c0t } else { c0f })
                + (if B_HI_IN0.o1[k] == 1 { c1t } else { c1f });
            let c0 = m0 + bc_lo0;
            let c1 = m1 + bc_hi0;
            let take_hi = c1 < c0;
            next_in0[k] = if take_hi { c1 } else { c0 };
            take_hi_bits |= (take_hi as u64) << k;

            let bc_lo1 = (if B_LO_IN1.o0[k] == 1 { c0t } else { c0f })
                + (if B_LO_IN1.o1[k] == 1 { c1t } else { c1f });
            let bc_hi1 = (if B_HI_IN1.o0[k] == 1 { c0t } else { c0f })
                + (if B_HI_IN1.o1[k] == 1 { c1t } else { c1f });
            let c0 = m0 + bc_lo1;
            let c1 = m1 + bc_hi1;
            let take_hi = c1 < c0;
            next_in1[k] = if take_hi { c1 } else { c0 };
            take_hi_bits |= (take_hi as u64) << (k + HALF);
        }
        ws.decisions[t] = take_hi_bits;
        std::mem::swap(&mut ws.metric_f, &mut ws.next_f);
    }
    traceback(&ws.decisions, 1, steps, out);
}

/// The 16-bit-lane AVX2 forward pass of the four-stream decoder. Same
/// safety contract as the `gs-linalg` SIMD backends: `unsafe fn` +
/// `#[target_feature]`, reached only after runtime detection.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{CodedBit, CONSTRAINT, HALF, IDX_HI0, IDX_HI1, IDX_LO0, IDX_LO1, RENORM_INTERVAL};
    use std::arch::x86_64::*;

    /// Start metric of the 63 states other than 0 (module docs).
    const INF: u16 = 0x2000;

    /// Largest branch cost of one step (two unerased mismatches).
    const MAX_BRANCH: usize = 2;

    // The module docs' headroom argument, checked: unreachable starts lose
    // to every reachable metric of the first K − 1 steps, and no metric
    // (nor a candidate one branch further) leaves the u16 range.
    const _: () = {
        let spread = MAX_BRANCH * (CONSTRAINT - 1);
        assert!(INF as usize > spread);
        assert!(INF as usize + spread + MAX_BRANCH <= u16::MAX as usize);
        assert!(spread + MAX_BRANCH * (RENORM_INTERVAL + 1) <= u16::MAX as usize);
    };

    // Both generators tap the input bit and the oldest register bit, so a
    // butterfly's four transitions use one pattern index `p` and its
    // complement `3 − p`: lo/in0 and hi/in1 emit `p`, hi/in0 and lo/in1
    // emit `3 − p`.
    const _: () = {
        let mut k = 0;
        while k < HALF {
            let p = IDX_LO0[k];
            assert!(IDX_HI1[k] == p && IDX_HI0[k] == 3 - p && IDX_LO1[k] == 3 - p);
            k += 1;
        }
    };

    // The branch-cost rows below index by the discriminant.
    const _: () = assert!(
        CodedBit::Zero as usize == 0
            && CodedBit::One as usize == 1
            && CodedBit::Erased as usize == 2
    );

    /// `COST_ROW[rx0·3 + rx1]`, one 256-bit vector: word `4p` holds the
    /// cost of transition pattern `p = o0·2 + o1` against the received
    /// pair, the other words zero. Shifting stream `s`'s row left by
    /// `16·s` bits within each 64-bit quad and OR-ing the four streams
    /// builds the step's cost vector (quad `p`, word `s`).
    const COST_ROW: [[u16; 16]; 9] = {
        const fn hamming(rx: usize, tx: usize) -> u16 {
            if rx == 2 {
                0
            } else {
                (rx != tx) as u16
            }
        }
        let mut rows = [[0u16; 16]; 9];
        let mut pair = 0;
        while pair < 9 {
            let mut p = 0;
            while p < 4 {
                rows[pair][4 * p] = hamming(pair / 3, p / 2) + hamming(pair % 3, p % 2);
                p += 1;
            }
            pair += 1;
        }
        rows
    };

    /// `vpermd` indices that gather butterfly group `g`'s cost quads from
    /// the step's cost vector: `GROUP_ROWS[g]` puts pattern
    /// `IDX_LO0[4g + j]` in quad `j`, `GROUP_ROWS[8 + g]` its complement.
    const GROUP_ROWS: [[i32; 8]; 16] = {
        let mut rows = [[0i32; 8]; 16];
        let mut g = 0;
        while g < 8 {
            let mut j = 0;
            while j < 4 {
                let p = IDX_LO0[4 * g + j] as i32;
                rows[g][2 * j] = 2 * p;
                rows[g][2 * j + 1] = 2 * p + 1;
                rows[8 + g][2 * j] = 2 * (3 - p);
                rows[8 + g][2 * j + 1] = 2 * (3 - p) + 1;
                j += 1;
            }
            g += 1;
        }
        rows
    };

    /// Qword order `[0, 2, 1, 3]`: undoes the in-lane interleave of the
    /// 64-bit unpacks and of `packs`.
    const ORDER_0213: i32 = 0b11_01_10_00;

    /// The forward pass for exactly four streams (`streams` stream-major
    /// flat, as in [`super::decode_multi_with_erasures_into`]), writing
    /// four decision words per step into `decisions`.
    ///
    /// Metrics live in 16 vectors: vector `v` holds states `4v..4v+4`, 16
    /// bits per (state, stream) at word `4·(state − 4v) + stream`.
    /// Butterfly group `g` reads states `8g..8g+8` (vectors `2g`, `2g+1`),
    /// splits them into even and odd predecessors, and writes destinations
    /// `4g..4g+4` (vector `g`, input 0) and `32+4g..` (vector `8+g`,
    /// input 1) — no shuffles on the store side.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_n4(streams: &[CodedBit], decisions: &mut [u64]) {
        let len = streams.len() / 4;
        let steps = len / 2;
        // The 16-bit decision stores below rely on this length.
        assert_eq!(decisions.len(), 4 * steps, "four decision words per step");
        let inf = _mm256_set1_epi16(INF as i16);
        let inf_quad = (INF as i64) * 0x0001_0001_0001_0001;
        let mut a = [inf; 16];
        let mut b = [inf; 16];
        a[0] = _mm256_set_epi64x(inf_quad, inf_quad, inf_quad, 0); // state 0 starts at 0
        let (mut cur, mut next) = (&mut a, &mut b);
        let row = |pair: usize| _mm256_loadu_si256(COST_ROW[pair].as_ptr().cast());
        for t in 0..steps {
            let pair = |s: usize| {
                let i = s * len + 2 * t;
                streams[i] as usize * 3 + streams[i + 1] as usize
            };
            let costs = _mm256_or_si256(
                _mm256_or_si256(row(pair(0)), _mm256_slli_epi64::<16>(row(pair(1)))),
                _mm256_or_si256(
                    _mm256_slli_epi64::<32>(row(pair(2))),
                    _mm256_slli_epi64::<48>(row(pair(3))),
                ),
            );
            // SAFETY: `4·t < decisions.len()` by the length assert.
            let dec = decisions.as_mut_ptr().add(4 * t).cast::<u16>();
            for g in 0..HALF / 4 {
                let lo = cur[2 * g];
                let hi = cur[2 * g + 1];
                let even = _mm256_permute4x64_epi64::<ORDER_0213>(_mm256_unpacklo_epi64(lo, hi));
                let odd = _mm256_permute4x64_epi64::<ORDER_0213>(_mm256_unpackhi_epi64(lo, hi));
                let idx = |r: usize| _mm256_loadu_si256(GROUP_ROWS[r].as_ptr().cast());
                let pat = _mm256_permutevar8x32_epi32(costs, idx(g));
                let inv = _mm256_permutevar8x32_epi32(costs, idx(8 + g));

                // take_hi ⇔ min(c0, c1) ≠ c0: a tie keeps the lower
                // predecessor, exactly the scalar `c1 < c0`.
                let c0 = _mm256_add_epi16(even, pat);
                let best0 = _mm256_min_epu16(c0, _mm256_add_epi16(odd, inv));
                let keep0 = _mm256_cmpeq_epi16(best0, c0);
                let c0 = _mm256_add_epi16(even, inv);
                let best1 = _mm256_min_epu16(c0, _mm256_add_epi16(odd, pat));
                let keep1 = _mm256_cmpeq_epi16(best1, c0);
                next[g] = best0;
                next[8 + g] = best1;

                // One bit per (state, stream) in state-major order: the
                // low 16 bits cover states 4g.., the high 16 states 32+4g...
                let packed =
                    _mm256_permute4x64_epi64::<ORDER_0213>(_mm256_packs_epi16(keep0, keep1));
                let take_hi = !(_mm256_movemask_epi8(packed) as u32);
                // SAFETY: `dec` points at step `t`'s four u64 words
                // (`4·t + 3 < decisions.len()` by the assert above), i.e.
                // 16 u16 slots; `g < 8` keeps both writes inside them.
                dec.add(g).write(take_hi as u16);
                dec.add(8 + g).write((take_hi >> 16) as u16);
            }
            if (t + 1) % RENORM_INTERVAL == 0 {
                renormalise(next);
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Subtracts each stream's minimum metric from all 64 of its states.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn renormalise(metrics: &mut [__m256i; 16]) {
        let mut min = metrics[0];
        for &m in &metrics[1..] {
            min = _mm256_min_epu16(min, m);
        }
        // Fold the four state quads so every quad holds the per-stream min.
        min = _mm256_min_epu16(min, _mm256_permute4x64_epi64::<0b01_00_11_10>(min));
        min = _mm256_min_epu16(min, _mm256_permute4x64_epi64::<0b10_11_00_01>(min));
        for m in metrics.iter_mut() {
            *m = _mm256_sub_epi16(*m, min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::encode_into;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(rng: &mut StdRng, n: usize) -> Vec<bool> {
        (0..n).map(|_| rng.gen_bool(0.5)).collect()
    }

    pub(super) fn encode(bits: &[bool]) -> Vec<bool> {
        let mut out = Vec::new();
        encode_into(bits, &mut out);
        out
    }

    /// Decodes `coded` through a fresh workspace.
    fn decode_erasures(coded: &[CodedBit]) -> Vec<bool> {
        let mut out = Vec::new();
        decode_with_erasures_into(coded, &mut ViterbiWorkspace::new(), &mut out);
        out
    }

    /// Decodes hard bits (no erasures).
    pub(super) fn decode(coded: &[bool]) -> Vec<bool> {
        decode_erasures(&coded.iter().map(|&b| CodedBit::from_bool(b)).collect::<Vec<_>>())
    }

    #[test]
    fn noiseless_roundtrip() {
        let mut rng = StdRng::seed_from_u64(41);
        for len in [1usize, 2, 7, 50, 333] {
            let bits = random_bits(&mut rng, len);
            let coded = encode(&bits);
            assert_eq!(decode(&coded), bits, "len {len}");
        }
    }

    #[test]
    fn corrects_isolated_bit_errors() {
        let mut rng = StdRng::seed_from_u64(42);
        let bits = random_bits(&mut rng, 120);
        let mut coded = encode(&bits);
        // Flip well-separated bits: free distance 10 means isolated single
        // errors are always correctable.
        for pos in [5usize, 60, 130, 200] {
            coded[pos] = !coded[pos];
        }
        assert_eq!(decode(&coded), bits);
    }

    #[test]
    fn corrects_short_burst() {
        let mut rng = StdRng::seed_from_u64(43);
        let bits = random_bits(&mut rng, 200);
        let mut coded = encode(&bits);
        // A 2-bit burst within one trellis step (still within d_free/2).
        coded[100] = !coded[100];
        coded[101] = !coded[101];
        assert_eq!(decode(&coded), bits);
    }

    #[test]
    fn handles_erasures() {
        let mut rng = StdRng::seed_from_u64(44);
        let bits = random_bits(&mut rng, 100);
        let coded = encode(&bits);
        let mut symbols: Vec<CodedBit> = coded.iter().map(|&b| CodedBit::from_bool(b)).collect();
        // Erase every 6th symbol (a 1/6 erasure rate is far below capacity
        // for this code).
        for k in (0..symbols.len()).step_by(6) {
            symbols[k] = CodedBit::Erased;
        }
        assert_eq!(decode_erasures(&symbols), bits);
    }

    #[test]
    fn high_noise_fails_gracefully() {
        // Under 30% BER the decoder cannot win, but it must return the right
        // number of bits without panicking.
        let mut rng = StdRng::seed_from_u64(45);
        let bits = random_bits(&mut rng, 64);
        let mut coded = encode(&bits);
        for b in coded.iter_mut() {
            if rng.gen_bool(0.3) {
                *b = !*b;
            }
        }
        assert_eq!(decode(&coded).len(), 64);
    }

    #[test]
    #[should_panic(expected = "even length")]
    fn odd_length_panics() {
        decode(&[true; 15]);
    }

    /// Corrupts a coded stream with bit flips and erasures, seeded per
    /// stream so lockstep siblings genuinely differ.
    fn noisy_stream(rng: &mut StdRng, bits: &[bool]) -> Vec<CodedBit> {
        let coded = encode(bits);
        coded
            .iter()
            .map(|&b| {
                if rng.gen_bool(0.03) {
                    CodedBit::Erased
                } else if rng.gen_bool(0.04) {
                    CodedBit::from_bool(!b)
                } else {
                    CodedBit::from_bool(b)
                }
            })
            .collect()
    }

    #[test]
    fn multi_stream_matches_single_stream_bitwise() {
        // The batching contract: for every stream count (scalar fallback
        // and the 4-stream AVX2 path alike), lockstep decoding returns
        // exactly what per-stream decoding returns — survivors, ties, and
        // all — on noisy, erasure-bearing, disagreeing streams.
        let mut rng = StdRng::seed_from_u64(46);
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        for n in 1..=6usize {
            for len in [80usize, 257] {
                let per: Vec<Vec<bool>> = (0..n).map(|_| random_bits(&mut rng, len)).collect();
                let streams: Vec<Vec<CodedBit>> =
                    per.iter().map(|bits| noisy_stream(&mut rng, bits)).collect();
                let flat: Vec<CodedBit> = streams.concat();
                decode_multi_with_erasures_into(&flat, n, &mut ws, &mut out);
                let info_len = out.len() / n;
                for (s, coded) in streams.iter().enumerate() {
                    let single = decode_erasures(coded);
                    assert_eq!(
                        &out[s * info_len..(s + 1) * info_len],
                        &single[..],
                        "n={n} len={len} stream {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_stream_recovers_clean_payloads() {
        let mut rng = StdRng::seed_from_u64(47);
        let n = 4;
        let per: Vec<Vec<bool>> = (0..n).map(|_| random_bits(&mut rng, 120)).collect();
        let flat: Vec<CodedBit> = per
            .iter()
            .flat_map(|bits| {
                encode(bits).iter().map(|&b| CodedBit::from_bool(b)).collect::<Vec<_>>()
            })
            .collect();
        let mut ws = ViterbiWorkspace::new();
        let mut out = Vec::new();
        decode_multi_with_erasures_into(&flat, n, &mut ws, &mut out);
        let info_len = out.len() / n;
        for (s, bits) in per.iter().enumerate() {
            assert_eq!(&out[s * info_len..s * info_len + 120], &bits[..], "stream {s}");
        }
    }
}

#[cfg(test)]
mod soft_tests {
    use super::tests::{decode, encode};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Decodes LLRs through a fresh workspace.
    fn decode_soft(llrs: &[f64]) -> Vec<bool> {
        let mut out = Vec::new();
        decode_soft_into(llrs, &mut ViterbiWorkspace::new(), &mut out);
        out
    }

    fn to_llrs(coded: &[bool], confidence: f64) -> Vec<f64> {
        coded.iter().map(|&b| if b { -confidence } else { confidence }).collect()
    }

    #[test]
    fn soft_matches_hard_on_clean_input() {
        let mut rng = StdRng::seed_from_u64(401);
        let bits: Vec<bool> = (0..150).map(|_| rng.gen_bool(0.5)).collect();
        let coded = encode(&bits);
        assert_eq!(decode_soft(&to_llrs(&coded, 4.0)), bits);
    }

    #[test]
    fn soft_uses_reliability_to_beat_hard() {
        // Two coded bits are wrong, but their LLRs are weak while the
        // correct bits are strong — soft decoding must recover where a
        // hard decoder sees genuine errors.
        let mut rng = StdRng::seed_from_u64(402);
        let bits: Vec<bool> = (0..80).map(|_| rng.gen_bool(0.5)).collect();
        let coded = encode(&bits);
        let mut llrs = to_llrs(&coded, 5.0);
        // Flip the sign of a burst of bits but with tiny magnitude.
        for k in 40..46 {
            llrs[k] = -llrs[k].signum() * 0.1;
        }
        assert_eq!(decode_soft(&llrs), bits);
    }

    #[test]
    fn zero_llrs_are_erasures() {
        let mut rng = StdRng::seed_from_u64(403);
        let bits: Vec<bool> = (0..100).map(|_| rng.gen_bool(0.5)).collect();
        let coded = encode(&bits);
        let mut llrs = to_llrs(&coded, 3.0);
        for k in (0..llrs.len()).step_by(6) {
            llrs[k] = 0.0;
        }
        assert_eq!(decode_soft(&llrs), bits);
    }

    #[test]
    fn gaussian_channel_soft_beats_hard() {
        // BPSK over AWGN at an SNR where hard decisions fail often: soft
        // decoding must deliver strictly fewer bit errors over many frames.
        let mut rng = StdRng::seed_from_u64(404);
        let mut hard_errs = 0usize;
        let mut soft_errs = 0usize;
        let sigma = 0.9;
        for _ in 0..60 {
            let bits: Vec<bool> = (0..120).map(|_| rng.gen_bool(0.5)).collect();
            let coded = encode(&bits);
            // BPSK: 0 -> +1, 1 -> -1, AWGN, LLR = 2r/sigma^2.
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    let tx = if b { -1.0 } else { 1.0 };
                    let r = tx + sigma * gs_channel::sample_gaussian(&mut rng);
                    2.0 * r / (sigma * sigma)
                })
                .collect();
            let hard: Vec<bool> = llrs.iter().map(|&l| l < 0.0).collect();
            hard_errs += decode(&hard).iter().zip(&bits).filter(|(a, b)| a != b).count();
            soft_errs += decode_soft(&llrs).iter().zip(&bits).filter(|(a, b)| a != b).count();
        }
        assert!(soft_errs < hard_errs, "soft ({soft_errs}) must beat hard ({hard_errs}) on AWGN");
    }
}

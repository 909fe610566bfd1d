//! Golden bits of the QR factors and the Q*-rotation.
//!
//! `tests/search_counters.rs` pins which children the search visits, but a
//! one-ulp change in `R`, `Q` or `ŷ = Q* y` that flips no decision would
//! pass it. This file pins the factors themselves: an FNV-1a hash of the
//! `to_bits()` of every entry of `R` and `Q` and of every rotated receive
//! vector, for a seeded set of channels of three shapes.
//!
//! The constants were captured by running this file on the commit before
//! the QR and the rotation were rewritten for speed, and re-captured when
//! the Gaussian sampler became a ziggurat (new channels and receive
//! vectors) on that change's parent with only the sampler swapped in. They
//! are not tuned to the current code: if one moves, the factorization or
//! the rotation changed its floating-point operation sequence.

use geosphere::channel::{sample_cn, RayleighChannel};
use geosphere::linalg::{qr_decompose, qr_decompose_into, Complex, Matrix, Qr, QrWorkspace};
use geosphere::modulation::Constellation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn complexes(&mut self, zs: &[Complex]) {
        for z in zs {
            self.word(z.re.to_bits());
            self.word(z.im.to_bits());
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        let (rows, cols) = m.shape();
        self.word(rows as u64);
        self.word(cols as u64);
        self.complexes(m.as_slice());
    }
}

/// Channels per case.
const CHANNELS: usize = 24;
/// Receive vectors rotated per channel.
const VECTORS: usize = 4;

/// Hashes `CHANNELS` seeded `na × nc` grid-domain channels: each one's
/// factors (through one long-lived workspace, checked bit-equal to the
/// allocating entry point) and `VECTORS` rotated receive vectors.
fn case_hash(na: usize, nc: usize, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = Constellation::Qam64.scale();
    let mut ws = QrWorkspace::new();
    let mut qr = Qr::default();
    let mut yhat = Vec::new();
    let mut h = Fnv::new();
    for _ in 0..CHANNELS {
        let ch = RayleighChannel::new(na, nc).sample_matrix(&mut rng).scale(scale);
        qr_decompose_into(&ch, &mut ws, &mut qr);
        assert_same_bits(&qr, &qr_decompose(&ch));
        h.matrix(&qr.r);
        h.matrix(&qr.q);
        for _ in 0..VECTORS {
            let y: Vec<Complex> = (0..na).map(|_| sample_cn(&mut rng, 40.0)).collect();
            qr.rotate_into(&y, &mut yhat);
            h.complexes(&yhat);
        }
    }
    h.0
}

fn assert_same_bits(a: &Qr, b: &Qr) {
    for (x, y) in [(&a.r, &b.r), (&a.q, &b.q)] {
        assert_eq!(x.shape(), y.shape());
        for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(u.re.to_bits(), v.re.to_bits());
            assert_eq!(u.im.to_bits(), v.im.to_bits());
        }
    }
}

#[test]
fn qr_and_rotation_bits_are_pinned() {
    // (na, nc, seed, golden hash)
    let cases: [(usize, usize, u64, u64); 3] = [
        (4, 4, 2201, 0x9d15_e881_9114_cffa),
        (4, 2, 2203, 0x20ce_634a_0768_523f),
        (6, 4, 2205, 0x78f2_19c9_ff83_a4a0),
    ];
    let got: Vec<u64> = cases.iter().map(|&(na, nc, seed, _)| case_hash(na, nc, seed)).collect();
    let wrong: Vec<String> = cases
        .iter()
        .zip(&got)
        .filter(|(case, got)| case.3 != **got)
        .map(|(&(na, nc, _, want), got)| format!("{na}x{nc}: got {got:#018x}, want {want:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "factor or rotation bits moved:\n{}", wrong.join("\n"));
}

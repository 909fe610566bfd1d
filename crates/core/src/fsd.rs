//! Fixed-complexity sphere decoder (FSD) — paper §6.1.
//!
//! Barbero & Thompson's decoder: fully expand the first `p` tree levels,
//! then plunge depth-first "using a branching factor of only one" (pure
//! decision feedback). Complexity is constant by construction; ML is only
//! approached asymptotically at high SNR (Jaldén et al.), which is the
//! paper's argument for preferring depth-first search.

use crate::detector::{Detection, MimoDetector};
use crate::sphere::enumerator::{EnumeratorFactory, NodeEnumerator};
use crate::sphere::geosphere_enum::GeosphereFactory;
use crate::stats::DetectorStats;
use gs_linalg::{qr_decompose, Complex, Matrix};
use gs_modulation::{Constellation, GridPoint};

/// The fixed-complexity sphere decoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsdDetector {
    /// Number of top tree levels that are fully expanded (`p` in the
    /// paper's description). `p = 1` is the common configuration.
    pub full_levels: usize,
}

impl FsdDetector {
    /// Creates an FSD with the standard single fully-expanded level.
    pub fn new() -> Self {
        FsdDetector { full_levels: 1 }
    }
}

impl Default for FsdDetector {
    fn default() -> Self {
        FsdDetector::new()
    }
}

impl MimoDetector for FsdDetector {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        let mut stats = DetectorStats::default();
        let nc = h.cols();
        let qr = qr_decompose(h);
        let yhat_full = qr.rotate(y);
        let yhat = &yhat_full[..nc];
        let r = &qr.r;

        let factory = GeosphereFactory::zigzag_only();
        // One enumerator reset in place per fully-expanded node (the reuse
        // protocol's single-slot form).
        let mut enum_slot = None;
        // Partial paths: (distance, symbols chosen root-first).
        let mut paths: Vec<(f64, Vec<GridPoint>)> = vec![(0.0, Vec::new())];
        for i in (0..nc).rev() {
            let depth = nc - 1 - i; // 0 at root
            let full = depth < self.full_levels;
            let mut next: Vec<(f64, Vec<GridPoint>)> = Vec::new();
            for (dist, syms) in &paths {
                let mut acc = yhat[i];
                for (offset, j) in ((i + 1)..nc).enumerate() {
                    acc -= r[(i, j)] * syms[syms.len() - 1 - offset].to_complex();
                }
                stats.complex_mults += (nc - 1 - i) as u64;
                let rll = r[(i, i)].re;
                let center = if rll > f64::EPSILON { acc / rll } else { Complex::ZERO };
                let gain = rll * rll;
                if full {
                    // Expand every child of this node.
                    factory.make_in(&mut enum_slot, c, center, gain, &mut stats);
                    let en = enum_slot.as_mut().expect("slot just filled");
                    while let Some(child) = en.next_child(f64::INFINITY, &mut stats) {
                        stats.visited_nodes += 1;
                        let mut s2 = syms.clone();
                        s2.push(child.point);
                        next.push((dist + child.cost, s2));
                    }
                } else {
                    // Branching factor one: slice.
                    let p = c.slice(center);
                    stats.slices += 1;
                    let cost = gain * p.dist_sqr(center);
                    stats.ped_calcs += 1;
                    stats.visited_nodes += 1;
                    let mut s2 = syms.clone();
                    s2.push(p);
                    next.push((dist + cost, s2));
                }
            }
            paths = next;
        }

        let (_, mut symbols) = paths
            .into_iter()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("FSD always produces candidates");
        symbols.reverse();
        Detection { symbols, stats }
    }

    fn name(&self) -> &'static str {
        "FSD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{apply_channel, residual_norm_sqr};
    use crate::ml::MlDetector;
    use gs_channel::{sample_cn, RayleighChannel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn noiseless_roundtrip() {
        let mut rng = StdRng::seed_from_u64(161);
        let c = Constellation::Qam16;
        let det = FsdDetector::new();
        for _ in 0..30 {
            let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
            let pts = c.points();
            let s: Vec<GridPoint> = (0..4).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
            let y = apply_channel(&h, &s);
            assert_eq!(det.detect(&h, &y, c).symbols, s);
        }
    }

    #[test]
    fn complexity_is_fixed() {
        let mut rng = StdRng::seed_from_u64(162);
        let c = Constellation::Qam16;
        let det = FsdDetector::new();
        let mut counts = std::collections::HashSet::new();
        for _ in 0..10 {
            let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
            let y: Vec<Complex> = (0..4).map(|_| sample_cn(&mut rng, 1.0)).collect();
            counts.insert(det.detect(&h, &y, c).stats.visited_nodes);
        }
        assert_eq!(counts.len(), 1);
        // p=1: |O| root children + |O| single-branch paths × (nc−1) levels.
        assert!(counts.contains(&(16 + 16 * 3)));
    }

    #[test]
    fn all_levels_full_is_exhaustive_ml() {
        let mut rng = StdRng::seed_from_u64(163);
        let c = Constellation::Qpsk;
        let det = FsdDetector { full_levels: 2 };
        for _ in 0..30 {
            let h = RayleighChannel::new(2, 2).sample_matrix(&mut rng).scale(c.scale());
            let y: Vec<Complex> = (0..2).map(|_| sample_cn(&mut rng, 2.0)).collect();
            let fsd = residual_norm_sqr(&h, &y, &det.detect(&h, &y, c).symbols);
            let ml = residual_norm_sqr(&h, &y, &MlDetector.detect(&h, &y, c).symbols);
            assert!((fsd - ml).abs() < 1e-9);
        }
    }

    #[test]
    fn suboptimal_at_low_snr_but_valid() {
        let mut rng = StdRng::seed_from_u64(164);
        let c = Constellation::Qam64;
        let det = FsdDetector::new();
        let h = RayleighChannel::new(4, 4).sample_matrix(&mut rng).scale(c.scale());
        let y: Vec<Complex> = (0..4).map(|_| sample_cn(&mut rng, 2.0)).collect();
        let d = det.detect(&h, &y, c);
        assert_eq!(d.symbols.len(), 4);
        for p in &d.symbols {
            assert!(c.is_valid_coord(p.i) && c.is_valid_coord(p.q));
        }
    }
}

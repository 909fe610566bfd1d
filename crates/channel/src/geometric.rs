//! Ray-based geometric scatterer channel model.
//!
//! This is the workspace's substitute for the paper's WARP testbed traces
//! (see DESIGN.md §3). Channel conditioning in the paper is a *geometric*
//! phenomenon — "when reflectors are located solely in the vicinity of one
//! of the endpoints … the result is a very small angular separation of the
//! energy arriving at the other end, and a poorly-conditioned channel
//! matrix" (Fig. 2). We therefore model exactly that mechanism: clients are
//! surrounded by local scatterer clusters; each client→AP column of `H` is
//! a sum of rays through those scatterers, so the angular spread seen at
//! the AP array — and with it κ(H) — is controlled by the cluster radius
//! and the client–AP distance.

use crate::model::{ChannelModel, MimoChannel};
use crate::noise::sample_gaussian;
use gs_linalg::{Complex, Matrix};
use rand::Rng;

/// Speed of light (m/s).
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;
/// Carrier frequency (Hz) — the paper's 5 GHz ISM band.
pub const CARRIER_HZ: f64 = 5.0e9;
/// Channel bandwidth (Hz) — the paper's 20 MHz channel.
pub const BANDWIDTH_HZ: f64 = 20.0e6;

/// A 2-D position in meters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pos {
    /// x coordinate (m).
    pub x: f64,
    /// y coordinate (m).
    pub y: f64,
}

impl Pos {
    /// Builds a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Pos { x, y }
    }

    /// Euclidean distance to another position.
    pub fn dist(self, other: Pos) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// The AP's uniform linear antenna array.
#[derive(Clone, Debug)]
pub struct ApArray {
    /// Array center.
    pub center: Pos,
    /// Number of antennas.
    pub num_antennas: usize,
    /// Inter-element spacing (m). The paper uses ≈ 0.20 m (3.2 λ at 5 GHz).
    pub spacing: f64,
    /// Array broadside orientation (radians); elements are laid out along
    /// this direction.
    pub orientation: f64,
}

impl ApArray {
    /// An array with the paper's 20 cm spacing.
    pub fn new(center: Pos, num_antennas: usize, orientation: f64) -> Self {
        ApArray { center, num_antennas, spacing: 0.20, orientation }
    }

    /// Physical position of antenna `l` (0-based).
    pub fn antenna_pos(&self, l: usize) -> Pos {
        let offset = (l as f64 - (self.num_antennas as f64 - 1.0) / 2.0) * self.spacing;
        Pos::new(
            self.center.x + offset * self.orientation.cos(),
            self.center.y + offset * self.orientation.sin(),
        )
    }
}

/// One propagation path from a client to the AP: either line-of-sight or a
/// single bounce off a scatterer.
#[derive(Clone, Debug)]
struct Ray {
    /// Complex gain excluding the carrier-phase term (reflection loss and
    /// per-scatterer random phase).
    gain: Complex,
    /// Total path length in meters (client → [scatterer] → AP antenna
    /// varies per antenna; this stores length to the array *center*, with
    /// per-antenna deltas computed from geometry).
    /// Position of the last bounce (the scatterer, or the client for LOS):
    /// the AP sees the ray arriving from this point.
    source: Pos,
    /// Path length from the client up to `source` (0 for LOS).
    pre_length: f64,
}

/// Geometric channel between a set of single-antenna clients and one AP
/// array, with per-client scatterer clusters.
#[derive(Clone, Debug)]
pub struct GeometricChannel {
    /// The AP array.
    pub ap: ApArray,
    /// Client positions.
    pub clients: Vec<Pos>,
    /// Scatterers per client cluster.
    pub scatterers_per_client: usize,
    /// Cluster radius around each client (m). Smaller radius ⇒ smaller
    /// angular spread at the AP ⇒ worse conditioning (Fig. 2(b)).
    pub cluster_radius: f64,
    /// Rician K-factor for the LOS ray (linear power ratio of LOS to the
    /// scattered sum); 0 disables LOS.
    pub los_k_factor: f64,
    /// Number of OFDM subcarriers to realize.
    pub n_subcarriers: usize,
}

impl GeometricChannel {
    /// An indoor non-line-of-sight profile: rich local scattering, no LOS.
    pub fn indoor_nlos(ap: ApArray, clients: Vec<Pos>) -> Self {
        GeometricChannel {
            ap,
            clients,
            scatterers_per_client: 12,
            cluster_radius: 2.0,
            los_k_factor: 0.0,
            n_subcarriers: 48,
        }
    }

    /// Frequency of subcarrier `k` relative to the carrier.
    fn subcarrier_freq(&self, k: usize) -> f64 {
        if self.n_subcarriers == 1 {
            return CARRIER_HZ;
        }
        let frac = k as f64 / (self.n_subcarriers - 1) as f64 - 0.5;
        CARRIER_HZ + frac * BANDWIDTH_HZ
    }

    /// Draws the ray set for one client.
    fn draw_rays<R: Rng + ?Sized>(&self, rng: &mut R, client: Pos) -> Vec<Ray> {
        let mut rays = Vec::with_capacity(self.scatterers_per_client + 1);
        let n = self.scatterers_per_client.max(1);
        // Scattered rays: random per-scatterer complex gain, equal average
        // power, positions Gaussian around the client.
        let scatter_power = 1.0 / (1.0 + self.los_k_factor);
        let per_ray = (scatter_power / n as f64).sqrt();
        for _ in 0..n {
            let s = Pos::new(
                client.x + sample_gaussian(rng) * self.cluster_radius / 2.0,
                client.y + sample_gaussian(rng) * self.cluster_radius / 2.0,
            );
            let phase = rng.gen::<f64>() * std::f64::consts::TAU;
            let amp = per_ray * (0.5 + rng.gen::<f64>()); // mild power variation
            rays.push(Ray {
                gain: Complex::from_polar(amp, phase),
                source: s,
                pre_length: client.dist(s),
            });
        }
        if self.los_k_factor > 0.0 {
            let los_amp = (self.los_k_factor / (1.0 + self.los_k_factor)).sqrt();
            rays.push(Ray { gain: Complex::real(los_amp), source: client, pre_length: 0.0 });
        }
        rays
    }
}

impl ChannelModel for GeometricChannel {
    fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> MimoChannel {
        let na = self.ap.num_antennas;
        let nc = self.clients.len();
        let ap_pos: Vec<Pos> = (0..na).map(|l| self.ap.antenna_pos(l)).collect();

        // Draw rays once per client, then evaluate per subcarrier.
        let rays_per_client: Vec<Vec<Ray>> =
            self.clients.iter().map(|&c| self.draw_rays(rng, c)).collect();

        let mut mats = Vec::with_capacity(self.n_subcarriers);
        for k in 0..self.n_subcarriers {
            let f = self.subcarrier_freq(k);
            let wavenumber = std::f64::consts::TAU * f / SPEED_OF_LIGHT;
            let mut h = Matrix::zeros(na, nc);
            for (c, rays) in rays_per_client.iter().enumerate() {
                for ray in rays {
                    for (l, &apl) in ap_pos.iter().enumerate() {
                        let length = ray.pre_length + ray.source.dist(apl);
                        h[(l, c)] += ray.gain * Complex::cis(-wavenumber * length);
                    }
                }
            }
            mats.push(h);
        }

        // Normalize each client's column block to unit average entry power
        // across subcarriers so the SNR convention holds per stream (the
        // per-link large-scale SNR is handled by the testbed layer).
        let mut norm = MimoChannel::new(mats);
        let mut col_power = vec![0.0f64; nc];
        for m in norm.iter() {
            for c in 0..nc {
                for r in 0..na {
                    col_power[c] += m[(r, c)].norm_sqr();
                }
            }
        }
        let denom = (na * self.n_subcarriers) as f64;
        let scales: Vec<f64> =
            col_power.iter().map(|&p| if p > 0.0 { (denom / p).sqrt() } else { 1.0 }).collect();
        let rescaled: Vec<Matrix> =
            norm.iter().map(|m| Matrix::from_fn(na, nc, |r, c| m[(r, c)] * scales[c])).collect();
        norm = MimoChannel::new(rescaled);
        norm
    }

    fn num_rx(&self) -> usize {
        self.ap.num_antennas
    }

    fn num_tx(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lambda_max_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ap() -> ApArray {
        ApArray::new(Pos::new(0.0, 0.0), 4, 0.0)
    }

    #[test]
    fn array_geometry() {
        let a = ap();
        assert!((a.antenna_pos(0).x + 0.3).abs() < 1e-12);
        assert!((a.antenna_pos(3).x - 0.3).abs() < 1e-12);
        assert!((a.antenna_pos(1).dist(a.antenna_pos(2)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn realization_shapes_and_power() {
        let mut rng = StdRng::seed_from_u64(91);
        let model =
            GeometricChannel::indoor_nlos(ap(), vec![Pos::new(10.0, 5.0), Pos::new(8.0, -3.0)]);
        let ch = model.realize(&mut rng);
        assert_eq!(ch.num_rx(), 4);
        assert_eq!(ch.num_tx(), 2);
        assert_eq!(ch.num_subcarriers(), 48);
        assert!((ch.average_entry_power() - 1.0).abs() < 1e-9, "column normalization");
    }

    #[test]
    fn smaller_cluster_radius_worsens_conditioning() {
        // The Fig. 2 mechanism: shrinking the scatterer cluster shrinks the
        // angular spread at the AP and should degrade Λ on average.
        let mut rng = StdRng::seed_from_u64(92);
        let clients = vec![
            Pos::new(12.0, 2.0),
            Pos::new(12.5, 0.5),
            Pos::new(11.0, -1.5),
            Pos::new(13.0, 3.0),
        ];
        let trials = 40;

        let avg_lambda = |radius: f64, rng: &mut StdRng| -> f64 {
            let model = GeometricChannel {
                cluster_radius: radius,
                ..GeometricChannel::indoor_nlos(ap(), clients.clone())
            };
            let mut acc = 0.0;
            for _ in 0..trials {
                let ch = model.realize(rng);
                acc += lambda_max_db(ch.subcarrier(0));
            }
            acc / trials as f64
        };

        let narrow = avg_lambda(0.5, &mut rng);
        let wide = avg_lambda(8.0, &mut rng);
        assert!(
            narrow > wide + 3.0,
            "narrow cluster should degrade conditioning: narrow {narrow:.1} dB, wide {wide:.1} dB"
        );
    }

    #[test]
    fn frequency_selectivity_present() {
        let mut rng = StdRng::seed_from_u64(93);
        let model = GeometricChannel::indoor_nlos(ap(), vec![Pos::new(15.0, 4.0)]);
        let ch = model.realize(&mut rng);
        let d = ch.subcarrier(0).max_abs_diff(ch.subcarrier(47));
        assert!(d > 1e-3, "subcarriers should differ, max diff {d}");
    }

    #[test]
    fn los_channel_has_higher_k_factor_energy_focus() {
        let mut rng = StdRng::seed_from_u64(94);
        let nlos = GeometricChannel::indoor_nlos(ap(), vec![Pos::new(10.0, 0.0)]);
        // Line of sight at Rician K = 3 dB ≈ 2.0.
        let los = GeometricChannel { los_k_factor: 2.0, ..nlos.clone() };
        // LOS realizations vary less across draws (the deterministic ray
        // dominates): compare dispersion of the first entry.
        let spread = |m: &GeometricChannel, rng: &mut StdRng| -> f64 {
            let vals: Vec<Complex> =
                (0..30).map(|_| m.realize(rng).subcarrier(0)[(0, 0)]).collect();
            let mean = vals.iter().fold(Complex::ZERO, |a, &b| a + b) / vals.len() as f64;
            vals.iter().map(|v| (*v - mean).norm_sqr()).sum::<f64>() / vals.len() as f64
        };
        let s_nlos = spread(&nlos, &mut rng);
        let s_los = spread(&los, &mut rng);
        assert!(s_los < s_nlos, "LOS should reduce fading spread: {s_los} vs {s_nlos}");
    }
}

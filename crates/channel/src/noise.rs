//! Complex Gaussian noise and SNR bookkeeping.
//!
//! Conventions used across the workspace:
//! - channel entries are normalized to unit average power (`E[|h|²] = 1`),
//! - transmitted symbols have unit average energy (the constellation scale
//!   factor is folded into the channel by the PHY),
//! - so "average SNR per stream" (the paper's x-axis) is simply `1/σ²`,
//!   with `σ²` the per-receive-antenna complex noise variance.
//!
//! Gaussian samples come from a 256-layer ziggurat (Marsaglia & Tsang,
//! "The Ziggurat Method for Generating Random Variables", J. Stat. Softw.
//! 5(8), 2000), laid out as `rand_distr::StandardNormal` lays it out. One
//! `next_u64` gives both the layer (its low 8 bits) and a signed uniform
//! (its top 52 bits), and about 98.5% of samples are accepted on that one
//! draw. The rest take one more draw for the wedge test (and start over
//! when it rejects), or draw from the tail beyond `R = 3.6542` by
//! Marsaglia's exponential rejection, two draws per try. A sample thus
//! uses a variable number of generator draws: a seeded stream's later
//! draws depend on the values of its earlier samples.

use gs_linalg::Complex;
use rand::Rng;
use std::sync::LazyLock;

/// Converts an SNR in decibels to the linear power ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to decibels.
#[inline]
pub fn linear_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Noise variance `σ²` for a target per-stream SNR (dB) under the unit
/// signal-power convention.
#[inline]
pub fn noise_variance_for_snr_db(snr_db: f64) -> f64 {
    1.0 / db_to_linear(snr_db)
}

/// Layers of the ziggurat.
const LAYERS: usize = 256;
/// Right edge of the base strip's rectangle, where the tail begins.
const TAIL_START: f64 = 3.654152885361009;

/// The ziggurat's layer edges and density heights: `x[0] > x[1] = R > … >
/// x[255] > x[256] = 0` and `f[i] = e^{-x[i]²/2}`. Layer `i` spans heights
/// `f[i]..f[i + 1]` and, as a rectangle, `|x| < x[i]`; every layer has the
/// same area `V`.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(Ziggurat::build);

/// The unnormalized standard normal density `e^{-x²/2}`.
#[inline]
fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

impl Ziggurat {
    /// Builds the tables from `R` by the recurrence
    /// `f(x[i + 1]) = f(x[i]) + V / x[i]`.
    fn build() -> Self {
        let r = TAIL_START;
        // V is the base strip's area: the rectangle under f(R) plus the
        // tail, ∫_R^∞ e^{-x²/2} dx = f(R) / (R + 1/(R + 2/(R + 3/(R + …))))
        // (Laplace's continued fraction; 64 terms converge at R).
        let cf = (1..=64).rev().fold(0.0, |acc, k| k as f64 / (r + acc));
        let v = r * pdf(r) + pdf(r) / (r + cf);
        let mut x = [0.0; LAYERS + 1];
        let mut f = [0.0; LAYERS + 1];
        // The base strip drawn as one rectangle of area V.
        x[0] = v / pdf(r);
        f[0] = pdf(x[0]);
        x[1] = r;
        f[1] = pdf(r);
        for i in 1..LAYERS - 1 {
            f[i + 1] = f[i] + v / x[i];
            x[i + 1] = (-2.0 * f[i + 1].ln()).sqrt();
        }
        // The top layer closes at the peak: x[256] = 0, f[256] = 1.
        f[LAYERS] = 1.0;
        Ziggurat { x, f }
    }
}

/// Samples a standard real Gaussian (the ziggurat of the module docs).
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let z = &*ZIGGURAT;
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        // The top 52 bits as the mantissa of a float in [2, 4), moved to
        // [-1, 1).
        let u = f64::from_bits(0x4000_0000_0000_0000 | (bits >> 12)) - 3.0;
        let x = u * z.x[i];
        // Inside the part of the layer that lies under the density.
        if x.abs() < z.x[i + 1] {
            return x;
        }
        if i == 0 {
            return sample_tail(rng, u < 0.0);
        }
        // The wedge: a uniform height in the layer against the density.
        if z.f[i + 1] + (z.f[i] - z.f[i + 1]) * rng.gen::<f64>() < pdf(x) {
            return x;
        }
    }
}

/// Marsaglia's tail draw: a standard Gaussian conditioned on `|x| > R`,
/// on the negative side if `negative`.
fn sample_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // 1 - U lies in (0, 1], so both logarithms are finite.
        let x = -(1.0 - rng.gen::<f64>()).ln() / TAIL_START;
        let y = -(1.0 - rng.gen::<f64>()).ln();
        if 2.0 * y > x * x {
            let t = TAIL_START + x;
            return if negative { -t } else { t };
        }
    }
}

/// Samples a circularly-symmetric complex Gaussian `CN(0, variance)`
/// (each real component has variance `variance/2`).
pub fn sample_cn<R: Rng + ?Sized>(rng: &mut R, variance: f64) -> Complex {
    let s = (variance / 2.0).sqrt();
    Complex::new(sample_gaussian(rng) * s, sample_gaussian(rng) * s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn db_roundtrip() {
        for &db in &[-10.0, 0.0, 3.0, 20.0, 25.0] {
            assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-12);
        }
        assert!((db_to_linear(10.0) - 10.0).abs() < 1e-12);
        assert!((db_to_linear(20.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn noise_variance_inverse_of_snr() {
        assert!((noise_variance_for_snr_db(20.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn gaussian_moments() {
        // Mean, variance, kurtosis and three two-sided tail masses of 2M
        // draws, each within 5 standard errors of the standard normal's,
        // and each one-sided mass too. Beyond R every sample came from
        // the tail branch.
        let mut rng = StdRng::seed_from_u64(71);
        let n = 2_000_000;
        let edges = [2.0, 3.0, TAIL_START];
        // P(|x| > e) = erfc(e / √2).
        let want = [0.04550026389635844, 0.0026997960632601913, 0.0002580324876539013];
        let (mut s1, mut s2, mut s4) = (0.0, 0.0, 0.0);
        // (below -e, above e) per edge.
        let mut beyond = [(0u64, 0u64); 3];
        for _ in 0..n {
            let x = sample_gaussian(&mut rng);
            s1 += x;
            s2 += x * x;
            s4 += x * x * x * x;
            for (count, &e) in beyond.iter_mut().zip(&edges) {
                count.0 += u64::from(x < -e);
                count.1 += u64::from(x > e);
            }
        }
        let nf = n as f64;
        let (mean, var, kurt) = (s1 / nf, s2 / nf, s4 / nf);
        assert!(mean.abs() < 5.0 / nf.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / nf).sqrt(), "var {var}");
        assert!((kurt - 3.0).abs() < 5.0 * (96.0 / nf).sqrt(), "E[x^4] {kurt}");
        let in_band =
            |count: u64, p: f64| (count as f64 - nf * p).abs() < 5.0 * (nf * p * (1.0 - p)).sqrt();
        for ((&e, &p), &(below, above)) in edges.iter().zip(&want).zip(&beyond) {
            assert!(in_band(below + above, p), "P(|x| > {e}): {} of {n}, want {p}", below + above);
            assert!(in_band(below, p / 2.0), "P(x < -{e}): {below} of {n}, want {}", p / 2.0);
            assert!(in_band(above, p / 2.0), "P(x > {e}): {above} of {n}, want {}", p / 2.0);
        }
    }

    #[test]
    fn ziggurat_table_is_well_formed() {
        let z = &*ZIGGURAT;
        assert!(z.x.iter().chain(&z.f).all(|v| v.is_finite()), "NaN or infinity in the table");
        assert!(z.x.windows(2).all(|w| w[0] > w[1]), "x must decrease");
        assert!(z.f.windows(2).all(|w| w[0] < w[1]), "f must increase");
        assert_eq!(z.x[1], TAIL_START);
        assert_eq!((z.x[LAYERS], z.f[LAYERS]), (0.0, 1.0));
        // The recurrence closes at the peak only with the right V and R.
        assert!((z.x[LAYERS - 1] - 0.215_241_895_984_9).abs() < 1e-9, "x[255] {}", z.x[255]);
    }

    #[test]
    fn cn_variance_split() {
        let mut rng = StdRng::seed_from_u64(72);
        let n = 100_000;
        let var_target = 0.25;
        let mut e_total = 0.0;
        let mut e_re = 0.0;
        for _ in 0..n {
            let z = sample_cn(&mut rng, var_target);
            e_total += z.norm_sqr();
            e_re += z.re * z.re;
        }
        e_total /= n as f64;
        e_re /= n as f64;
        assert!((e_total - var_target).abs() < 0.01, "total power {e_total}");
        assert!((e_re - var_target / 2.0).abs() < 0.005, "real power {e_re}");
    }
}

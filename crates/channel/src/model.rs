//! Channel abstractions shared by all models.

use gs_linalg::{frequency_response, Complex, Matrix};
use rand::Rng;

/// A realized MIMO channel: one `na × nc` matrix per OFDM subcarrier.
///
/// Narrowband (flat) channels are the single-subcarrier special case.
#[derive(Clone, Debug, PartialEq)]
pub struct MimoChannel {
    subcarriers: Vec<Matrix>,
}

impl MimoChannel {
    /// Wraps per-subcarrier matrices.
    ///
    /// # Panics
    /// Panics when `subcarriers` is empty or shapes disagree.
    pub fn new(subcarriers: Vec<Matrix>) -> Self {
        assert!(!subcarriers.is_empty(), "channel needs at least one subcarrier");
        let shape = subcarriers[0].shape();
        assert!(subcarriers.iter().all(|m| m.shape() == shape), "subcarrier shape mismatch");
        MimoChannel { subcarriers }
    }

    /// A flat (single-subcarrier) channel.
    pub fn flat(h: Matrix) -> Self {
        MimoChannel { subcarriers: vec![h] }
    }

    /// Number of subcarriers.
    pub fn num_subcarriers(&self) -> usize {
        self.subcarriers.len()
    }

    /// Receive antennas (`na`).
    pub fn num_rx(&self) -> usize {
        self.subcarriers[0].rows()
    }

    /// Transmit streams (`nc`).
    pub fn num_tx(&self) -> usize {
        self.subcarriers[0].cols()
    }

    /// The channel matrix on one subcarrier.
    pub fn subcarrier(&self, k: usize) -> &Matrix {
        &self.subcarriers[k]
    }

    /// Iterates over all subcarrier matrices.
    pub fn iter(&self) -> impl Iterator<Item = &Matrix> {
        self.subcarriers.iter()
    }

    /// Average per-entry power across all subcarriers — 1.0 for a
    /// correctly normalized model.
    pub fn average_entry_power(&self) -> f64 {
        let per: f64 = self
            .subcarriers
            .iter()
            .map(|m| m.frobenius_norm_sqr() / (m.rows() * m.cols()) as f64)
            .sum();
        per / self.subcarriers.len() as f64
    }
}

/// A stochastic channel model that can be sampled for realizations.
pub trait ChannelModel {
    /// Draws one channel realization.
    fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> MimoChannel;

    /// Receive antennas of realizations.
    fn num_rx(&self) -> usize;

    /// Transmit streams of realizations.
    fn num_tx(&self) -> usize;
}

/// Converts per-stream tapped-delay-line impulse responses into a
/// per-subcarrier [`MimoChannel`].
///
/// `taps[rx][tx]` is the impulse response from transmit stream `tx` to
/// receive antenna `rx`. The frequency grid has `n_subcarriers` bins taken
/// from an `n_fft`-point DFT (the first `n_subcarriers` bins, matching the
/// data-subcarrier layout used by `gs-phy`).
pub fn taps_to_subcarriers(
    taps: &[Vec<Vec<Complex>>],
    n_fft: usize,
    n_subcarriers: usize,
) -> MimoChannel {
    let na = taps.len();
    let nc = taps[0].len();
    assert!(n_subcarriers <= n_fft);
    // freq[rx][tx] = response per bin
    let freq: Vec<Vec<Vec<Complex>>> = taps
        .iter()
        .map(|row| row.iter().map(|ir| frequency_response(ir, n_fft)).collect())
        .collect();
    let mats = (0..n_subcarriers).map(|k| Matrix::from_fn(na, nc, |r, c| freq[r][c][k])).collect();
    MimoChannel::new(mats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_channel_basics() {
        let ch = MimoChannel::flat(Matrix::identity(3));
        assert_eq!(ch.num_subcarriers(), 1);
        assert_eq!(ch.num_rx(), 3);
        assert_eq!(ch.num_tx(), 3);
        assert!((ch.average_entry_power() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_tap_gives_flat_frequency_response() {
        let taps = vec![vec![vec![Complex::new(0.6, -0.8)]]; 2]; // 2 rx, 1 tx
        let ch = taps_to_subcarriers(&taps, 64, 48);
        assert_eq!(ch.num_subcarriers(), 48);
        for k in 0..48 {
            assert!((ch.subcarrier(k)[(0, 0)] - Complex::new(0.6, -0.8)).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_tap_varies_across_subcarriers() {
        let taps = vec![vec![vec![Complex::real(0.7), Complex::ZERO, Complex::real(0.7)]]];
        let ch = taps_to_subcarriers(&taps, 64, 48);
        let h0 = ch.subcarrier(0)[(0, 0)].abs();
        let h16 = ch.subcarrier(16)[(0, 0)].abs();
        assert!((h0 - h16).abs() > 0.1, "frequency selectivity expected");
    }

    #[test]
    #[should_panic(expected = "at least one subcarrier")]
    fn empty_channel_panics() {
        MimoChannel::new(vec![]);
    }
}

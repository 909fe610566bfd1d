//! PHY configuration and rate accounting.

use gs_coding::CodeRate;
use gs_modulation::Constellation;

/// OFDM symbol duration (s): 3.2 µs useful + 0.8 µs cyclic prefix, the
/// 802.11a/g/n numerology of the paper's 20 MHz channel.
pub const OFDM_SYMBOL_SECONDS: f64 = 4.0e-6;
/// Data subcarriers per OFDM symbol.
pub const DATA_SUBCARRIERS: usize = 48;
/// FFT size of the 20 MHz OFDM numerology.
pub const FFT_SIZE: usize = 64;
/// Cyclic prefix length in samples.
pub const CYCLIC_PREFIX: usize = 16;

/// Static PHY parameters for one transmission.
#[derive(Clone, Copy, Debug)]
pub struct PhyConfig {
    /// Constellation used on every data subcarrier.
    pub constellation: Constellation,
    /// Convolutional code rate.
    pub code_rate: CodeRate,
    /// Data subcarriers per OFDM symbol.
    pub n_subcarriers: usize,
    /// Information payload bits per client frame (before CRC/tail/padding).
    pub payload_bits: usize,
}

impl PhyConfig {
    /// The paper's §4 configuration: rate-1/2 coding over 48 subcarriers,
    /// with a simulation-friendly 2048-bit payload.
    pub fn new(constellation: Constellation) -> Self {
        PhyConfig {
            constellation,
            code_rate: CodeRate::Half,
            n_subcarriers: DATA_SUBCARRIERS,
            payload_bits: 2048,
        }
    }

    /// Coded bits per OFDM symbol per stream (`N_CBPS`).
    pub fn n_cbps(&self) -> usize {
        self.n_subcarriers * self.constellation.bits_per_symbol()
    }

    /// Information (data) bits per OFDM symbol per stream (`N_DBPS`).
    pub fn n_dbps(&self) -> usize {
        self.n_cbps() * self.code_rate.numerator() / self.code_rate.denominator()
    }

    /// Per-stream PHY bit rate in Mbps (the 802.11 rate table generalized:
    /// e.g. 64-QAM rate-1/2 over 48 subcarriers = 36 Mbps).
    pub fn phy_rate_mbps(&self) -> f64 {
        self.n_dbps() as f64 / OFDM_SYMBOL_SECONDS / 1e6
    }

    /// Number of OFDM symbols a frame occupies, after CRC, tail, and
    /// pad-to-symbol-boundary accounting.
    pub fn n_ofdm_symbols(&self) -> usize {
        // payload + 32 CRC bits + pad, then 6 tail bits, must fill whole
        // OFDM symbols of N_DBPS information bits each.
        let base = self.payload_bits + 32 + gs_coding::conv::CONSTRAINT - 1;
        base.div_ceil(self.n_dbps())
    }

    /// Total information bits carried (payload + CRC + tail + pad).
    pub fn total_info_bits(&self) -> usize {
        self.n_ofdm_symbols() * self.n_dbps()
    }

    /// Pad bits appended after the CRC so the tail lands on an OFDM symbol
    /// boundary.
    pub fn pad_bits(&self) -> usize {
        self.total_info_bits() - self.payload_bits - 32 - (gs_coding::conv::CONSTRAINT - 1)
    }

    /// Frame airtime in seconds.
    pub fn airtime_seconds(&self) -> f64 {
        self.n_ofdm_symbols() as f64 * OFDM_SYMBOL_SECONDS
    }

    /// Checks that the frame geometry can be built: the interleaver needs
    /// `n_cbps` to be a positive multiple of 16 with `n_cbps / 16` a
    /// multiple of `max(bits per symbol / 2, 1)`, and the code rate must
    /// leave a whole number of data bits per OFDM symbol. Callers that
    /// hand a config to other threads check it first, so a bad geometry
    /// is refused where it was made.
    pub fn validate(&self) -> Result<(), PhyConfigError> {
        let n_cbps = self.n_cbps();
        let q = self.constellation.bits_per_symbol();
        if n_cbps == 0 || !n_cbps.is_multiple_of(16) {
            Err(PhyConfigError::InterleaverColumns { n_cbps })
        } else if !(n_cbps / 16).is_multiple_of((q / 2).max(1)) {
            Err(PhyConfigError::InterleaverPermutation { n_cbps, bits_per_symbol: q })
        } else if !(n_cbps * self.code_rate.numerator())
            .is_multiple_of(self.code_rate.denominator())
        {
            Err(PhyConfigError::FractionalDataBits { n_cbps, code_rate: self.code_rate })
        } else {
            Ok(())
        }
    }
}

/// Why [`PhyConfig::validate`] refused a frame geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhyConfigError {
    /// Coded bits per OFDM symbol are not a positive multiple of the
    /// interleaver's 16 columns.
    InterleaverColumns {
        /// Coded bits per OFDM symbol per stream.
        n_cbps: usize,
    },
    /// `n_cbps / 16` is not a multiple of `max(bits_per_symbol / 2, 1)`,
    /// so the interleaver's second permutation is not a permutation.
    InterleaverPermutation {
        /// Coded bits per OFDM symbol per stream.
        n_cbps: usize,
        /// Bits per constellation symbol.
        bits_per_symbol: usize,
    },
    /// The code rate leaves a fractional number of data bits per OFDM
    /// symbol.
    FractionalDataBits {
        /// Coded bits per OFDM symbol per stream.
        n_cbps: usize,
        /// The configured code rate.
        code_rate: CodeRate,
    },
}

impl std::fmt::Display for PhyConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PhyConfigError::InterleaverColumns { n_cbps } => {
                write!(f, "{n_cbps} coded bits per OFDM symbol is not a positive multiple of 16")
            }
            PhyConfigError::InterleaverPermutation { n_cbps, bits_per_symbol } => write!(
                f,
                "{n_cbps} coded bits per OFDM symbol: n_cbps / 16 is not a multiple of \
                 max({bits_per_symbol} / 2, 1)"
            ),
            PhyConfigError::FractionalDataBits { n_cbps, code_rate } => write!(
                f,
                "code rate {}/{} leaves a fractional number of data bits in {n_cbps} coded bits",
                code_rate.numerator(),
                code_rate.denominator()
            ),
        }
    }
}

impl std::error::Error for PhyConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_table_matches_80211() {
        // Classic 802.11a rates: QPSK 1/2 = 12 Mbps, 16-QAM 1/2 = 24 Mbps,
        // 64-QAM 1/2 = 36 Mbps (and 3/4 = 54 Mbps).
        assert!((PhyConfig::new(Constellation::Qpsk).phy_rate_mbps() - 12.0).abs() < 1e-9);
        assert!((PhyConfig::new(Constellation::Qam16).phy_rate_mbps() - 24.0).abs() < 1e-9);
        assert!((PhyConfig::new(Constellation::Qam64).phy_rate_mbps() - 36.0).abs() < 1e-9);
        let mut cfg54 = PhyConfig::new(Constellation::Qam64);
        cfg54.code_rate = CodeRate::ThreeQuarters;
        assert!((cfg54.phy_rate_mbps() - 54.0).abs() < 1e-9);
        assert!((PhyConfig::new(Constellation::Qam256).phy_rate_mbps() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn frame_fills_whole_symbols() {
        for c in Constellation::ALL {
            let cfg = PhyConfig::new(c);
            let total = cfg.total_info_bits();
            assert_eq!(total % cfg.n_dbps(), 0);
            assert_eq!(
                cfg.payload_bits + 32 + 6 + cfg.pad_bits(),
                total,
                "{c:?}: accounting must balance"
            );
        }
    }

    #[test]
    fn airtime_scales_with_payload() {
        let mut small = PhyConfig::new(Constellation::Qam16);
        small.payload_bits = 512;
        let mut large = small;
        large.payload_bits = 8192;
        assert!(large.airtime_seconds() > small.airtime_seconds());
    }
}

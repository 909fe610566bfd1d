//! # gs-phy
//!
//! The OFDM MIMO physical layer of the Geosphere workspace (paper §4):
//! 802.11-style framing over 48 data subcarriers, the full
//! scramble→code→interleave→map transmit chain, a per-subcarrier MIMO
//! detection receive chain accepting any [`geosphere_core::MimoDetector`],
//! a time-domain OFDM modulator, and FER/throughput measurement drivers.

#![forbid(unsafe_code)]
// Trellis/detector inner loops index several arrays by the same state or
// stream variable; iterator rewrites obscure the recurrences.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod chanest;
pub mod config;
pub mod frame;
pub mod iterative;
pub mod measure;
pub mod ofdm;
pub mod soft_rx;
pub mod txrx;

pub use chanest::{estimate_channel, estimation_mse, ChannelEstimate};
pub use config::{PhyConfig, PhyConfigError, DATA_SUBCARRIERS, OFDM_SYMBOL_SECONDS};
pub use frame::FrameWorkspace;
pub use iterative::uplink_frame_iterative_into;
pub use measure::{measure, snr_for_target_fer, Measurement};
pub use soft_rx::uplink_frame_soft_into;
pub use txrx::{
    decode_frame_batched_into, decode_frame_with_csi_into, receive_frame, transmit_frame,
    CsiMismatch, GridMismatch, TxFrame, UplinkOutcome,
};

//! # gs-channel
//!
//! MIMO channel substrate for the Geosphere workspace.
//!
//! Provides the two channel families the paper evaluates on — i.i.d.
//! Rayleigh fading for simulation (§5.2.1, §5.3.2) and an emulated indoor
//! office testbed standing in for the WARP measurements (§5.1–5.3) — plus
//! AWGN utilities and the channel-conditioning metrics κ² and Λ that drive
//! the paper's Figures 9 and 10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod geometric;
pub mod metrics;
pub mod model;
pub mod noise;
pub mod rayleigh;
pub mod testbed;

pub use dynamics::{
    fading_correlation, DopplerTrajectory, FadingProcess, InterferenceBurst, SnrWalk,
};
pub use geometric::{ApArray, GeometricChannel, Pos};
pub use metrics::{kappa_sqr_db, lambda_max, lambda_max_db, zf_snr_degradation, Cdf};
pub use model::{taps_to_subcarriers, ChannelModel, MimoChannel};
pub use noise::{
    db_to_linear, linear_to_db, noise_variance_for_snr_db, sample_cn, sample_gaussian,
};
pub use rayleigh::{RayleighChannel, SelectiveRayleighChannel};
pub use testbed::{Testbed, Wall};

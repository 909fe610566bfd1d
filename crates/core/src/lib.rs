//! # geosphere-core
//!
//! The Geosphere maximum-likelihood MIMO detector (SIGCOMM 2014) and every
//! detector it is evaluated against.
//!
//! The paper's two contributions live in [`sphere::geosphere_enum`]
//! (two-dimensional zigzag enumeration, §3.1.1) and [`geoprune`]
//! (geometrical pruning, §3.2). The comparison baselines are
//! [`sphere::hess_enum`] (ETH-SD), [`linear`] (zero-forcing, MMSE),
//! [`sic`] (MMSE-SIC), [`kbest`] and [`fsd`] (breadth-first relatives),
//! and [`ml`] (the exhaustive oracle). All of them implement
//! [`MimoDetector`] and report [`DetectorStats`] operation counts — the
//! paper's complexity currency.
//!
//! ```
//! use geosphere_core::{geosphere_decoder, MimoDetector};
//! use gs_linalg::{Complex, Matrix};
//! use gs_modulation::{Constellation, GridPoint};
//!
//! let c = Constellation::Qam16;
//! let h = Matrix::identity(2).scale(c.scale());
//! let s = [GridPoint { i: 1, q: -3 }, GridPoint { i: 3, q: 1 }];
//! let y: Vec<Complex> = s.iter().map(|p| p.to_complex() * c.scale()).collect();
//! let det = geosphere_decoder().detect(&h, &y, c);
//! assert_eq!(det.symbols, s);
//! ```

// Unsafe code is denied everywhere except the thread-affinity shim, which
// needs one libc syscall (`sched_setaffinity`); see `affinity`.
#![deny(unsafe_code)]
// Trellis/detector inner loops index several arrays by the same state or
// stream variable; iterator rewrites obscure the recurrences.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod affinity;
pub mod batch;
pub mod detector;
pub mod filter_cache;
pub mod fsd;
pub mod geoprune;
pub mod hybrid;
pub mod kbest;
pub mod linear;
pub mod ml;
pub mod precode;
pub mod shard;
pub mod sic;
pub mod soft;
pub mod sphere;
pub mod statprune;
pub mod stats;
pub mod tier;

/// The shared `GS_*` env-knob parse-warn-fallback policy, re-exported
/// from [`gs_linalg::env`] (the lowest layer that reads a knob — `GS_SIMD`
/// — so one helper serves `GS_NO_PIN` and `GS_DOMAINS` here too without a
/// dependency cycle).
pub use gs_linalg::env;

pub use batch::{ChannelOrder, DetectionBatch, DetectionJob, DetectionPool, FramePortions};
pub use detector::{
    apply_channel, apply_channel_into, residual_norm_sqr, slice_vector, Detection,
    DetectorWorkspace, MimoDetector,
};
pub use filter_cache::{FilterCache, PicGram, SicFilters};
pub use fsd::FsdDetector;
pub use hybrid::HybridDetector;
pub use kbest::KBestDetector;
pub use linear::{MmseDetector, ZfDetector};
pub use ml::MlDetector;
pub use precode::{mod_tau, Precoded, VectorPerturbationPrecoder};
pub use shard::{PoolPoisoned, ShardedDetectionPool, ShardedJob, NO_DEADLINE};
pub use sic::MmseSicDetector;
pub use soft::{SoftDetection, SoftGeosphereDetector, SoftWorkspace};
pub use sphere::{GeosphereFactory, HessFactory, SearchWorkspace, SphereDecoder, WorkspaceFor};
pub use statprune::StatisticalPruningDetector;
pub use stats::{AverageStats, DetectorStats};
pub use tier::{DetectorLadder, DetectorTier};

/// The full Geosphere decoder (2-D zigzag + geometric pruning), the
/// system's headline configuration.
pub type GeosphereDecoder = SphereDecoder<GeosphereFactory>;

/// The ETH-SD baseline decoder (Burg et al. engine + Hess enumeration).
pub type EthSdDecoder = SphereDecoder<HessFactory>;

/// Creates the full Geosphere decoder (2-D zigzag + geometric pruning).
pub fn geosphere_decoder() -> GeosphereDecoder {
    SphereDecoder::new(GeosphereFactory::full())
}

/// Creates the 2-D-zigzag-only Geosphere ablation (no geometric pruning).
pub fn geosphere_zigzag_only_decoder() -> GeosphereDecoder {
    SphereDecoder::new(GeosphereFactory::zigzag_only())
}

/// Creates the ETH-SD baseline decoder.
pub fn ethsd_decoder() -> EthSdDecoder {
    SphereDecoder::new(HessFactory)
}

//! # gs-modulation
//!
//! Square QAM constellations and bit mappings for the Geosphere workspace.
//!
//! Everything operates on the **odd-integer grid** (points at
//! `{±1, ±3, …}²`, spacing 2 — the paper's Figure 7 geometry). Power
//! normalization is a scalar ([`Constellation::scale`]) that the PHY folds
//! into the channel matrix, so detectors see integer-valued constellations
//! and the geometric pruning table of Eq. 9 applies exactly.
//!
//! ```
//! use gs_modulation::{map_bitstream_into, unmap_points_into, Constellation};
//!
//! let c = Constellation::Qam16;
//! let bits = [true, false, false, true, false, true, true, false];
//! let (mut points, mut back) = (Vec::new(), Vec::new());
//! map_bitstream_into(c, &bits, &mut points); // 4 bits per symbol
//! assert_eq!(points.len(), 2);
//! unmap_points_into(c, &points, &mut back);
//! assert_eq!(back, bits);
//! assert_eq!(c.slice(points[0].to_complex()), points[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod constellation;
pub mod gray;
pub mod zigzag;

pub use bits::BitTable;
pub use constellation::{Constellation, GridPoint};
pub use gray::{gray_encode, map_bitstream_into, unmap_points_into};
pub use zigzag::AxisZigzag;

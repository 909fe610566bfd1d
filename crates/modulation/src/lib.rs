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
//! use gs_modulation::{BitTable, Constellation};
//!
//! let c = Constellation::Qam16;
//! let table = BitTable::new(c);
//! let p = table.point(0b1001); // 4 bits per symbol, MSB first
//! assert_eq!(table.packed(p), 0b1001);
//! assert_eq!(c.slice(p.to_complex()), p);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod constellation;
pub mod gray;
pub mod zigzag;

pub use bits::BitTable;
pub use constellation::{Constellation, GridPoint};
pub use gray::gray_encode;
pub use zigzag::AxisZigzag;

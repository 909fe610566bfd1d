//! End-to-end and per-layer benchmark of the Geosphere streaming uplink
//! receiver (`gs-runtime`'s `FrameStream`), driven from outside through
//! its public API. See `BENCHMARK.json` at the repository root for the
//! workloads, the metrics, and which layer should move which metric.

pub mod check;
pub mod drive;
pub mod layers;
pub mod stats;
pub mod workload;

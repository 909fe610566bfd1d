//! # gs-runtime
//!
//! The **streaming multi-frame base-station runtime**: the scheduling
//! layer that turns the per-frame codec (`gs-phy` over `geosphere-core`)
//! into a continuously-fed engine serving many concurrent uplink sources.
//!
//! The paper's detector is a per-subcarrier kernel; serving heavy traffic
//! is an architecture problem layered above it. The synchronous entry
//! point (`decode_frame_batched_into`) blocks until one frame fully
//! drains, so its worker pool idles during planning and payload recovery.
//! [`FrameStream`] removes that bubble by running every frame, start to
//! finish, on the workers of one pool, so frames overlap **across
//! workers**:
//!
//! ```text
//!   sources ──▶ [admission: bounded slot pool] ──▶ home shard's EDF queue
//!                (backpressure)                     (frame_id % shards)
//!                                                            │
//!   home shard's worker:   plan ─▶ submit other portions ─▶ detect own portion ─┐
//!   other shards' workers:                    detect own portion ───────────────┤
//!                                   last portion done: recover ─▶ in-order delivery ──▶ recv()
//!
//!   ShardedDetectionPool: one EDF queue per memory domain, workers pinned
//!   inside their domain; FramePortions: one channel-table replica per shard
//! ```
//!
//! * **Ingress** ([`FrameStream::submit`] / [`FrameStream::try_submit`]):
//!   any number of threads submit [`UplinkFrame`]s. Admission is bounded
//!   by the slot pool ([`StreamConfig::capacity`]); `submit` blocks when
//!   full (backpressure), `try_submit` refuses. An admitted frame becomes
//!   one task on its home shard's queue, ordered earliest-deadline-first
//!   from admission on.
//! * **Plan**: the worker that pops the home task seeds the frame's own
//!   RNG, runs the transmit chains and packages detection jobs into the
//!   slot's recycled [`gs_phy::FrameWorkspace`], splits the jobs into
//!   per-shard portions ([`FramePortions`](geosphere_core::FramePortions),
//!   the dispatch core `DetectionPool` shares), and submits the others.
//! * **Detect**: `geosphere-core`'s
//!   [`ShardedDetectionPool`](geosphere_core::ShardedDetectionPool) runs
//!   each portion on a worker pinned in the shard's memory domain,
//!   earliest-deadline-first within the shard, through per-worker reusable
//!   workspaces and, with several shards, per-shard channel-table
//!   replicas. The home portion runs inline after the plan, so every shard
//!   pops exactly once per frame.
//! * **Recover**: the portion that completes the frame scatters
//!   detections back to job order, runs the per-client receive chains
//!   (Viterbi/CRC), accounts deadlines, and delivers. A portion that
//!   panics marks its frame, which is never recovered; the panic poisons
//!   the pool, and the stream reports [`StreamDead`].
//! * **Egress** ([`FrameStream::recv`]): completions arrive in **per-client
//!   submission order** regardless of internal reordering; dropping the
//!   [`Completed`] guard recycles the slot.
//!
//! ## Guarantees
//!
//! * **Bit-identity**: a frame's outcome is a pure function of its
//!   [`UplinkFrame`] (seeded RNG, pure detection, pure receive chain) —
//!   identical to serial `decode_frame_batched_into` with the same seed,
//!   for any worker/shard/capacity configuration and any interleaving
//!   (`tests/stream_determinism.rs`).
//! * **Zero steady-state allocations**: slots, queues, heaps, and
//!   per-shard replicas are bounded and recycled; once every slot has
//!   warmed to the workload's largest frame shape, pushing a frame through
//!   the full pipeline touches the allocator zero times on every thread
//!   involved (same suite).
//! * **Deadlines are scheduling hints, not admission control**: a missed
//!   deadline is recorded ([`RuntimeStats::deadline_misses`],
//!   [`Completed::missed_deadline`]), never dropped.
//!
//! ## Adaptive control plane
//!
//! The detect stage is not welded to one detector: the stream holds a
//! [`DetectorLadder`] (sphere → FSD → MMSE by default) and consults an
//! [`AdaptationPolicy`] once per admission, stamping the chosen
//! [`DetectorTier`] on the frame. The default
//! [`HysteresisPolicy`] degrades under deadline
//! pressure (shard-queue depth, slot-pool occupancy, the windowed miss
//! rate) and climbs back as the queue drains; [`FrameStream::new`] is the
//! degenerate case (uniform ladder, pinned top tier). Completions report
//! the tier that decoded them ([`Completed::tier`]), so determinism is
//! checkable per pinned tier. See [`policy`].
//!
//! ## Knobs
//!
//! [`StreamConfig`] sizes the engine: client lanes, pool workers, shards
//! and slot capacity (its `planners` field is ignored — the pool workers
//! plan). A stream spawns no thread but its pool workers, named
//! `gs-shard{s}-w{k}`. `GS_DOMAINS` overrides memory-domain discovery,
//! `GS_NO_PIN` disables worker pinning, `GS_SIMD` selects the kernel tier —
//! all under the shared warn-and-fallback policy (`geosphere_core::env`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod policy;
pub mod stats;
pub mod stream;

pub use geosphere_core::{DetectorLadder, DetectorTier};
pub use policy::{AdaptationPolicy, HysteresisPolicy, PinnedPolicy, PressureSignal};
pub use stats::RuntimeStats;
pub use stream::{Completed, FrameStream, StreamConfig, StreamDead, TrySubmitError, UplinkFrame};

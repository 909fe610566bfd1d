//! # gs-runtime
//!
//! The **streaming multi-frame base-station runtime**: the scheduling
//! layer that turns the per-frame codec (`gs-phy` over `geosphere-core`)
//! into a continuously-fed engine serving many concurrent uplink sources.
//!
//! The paper's detector is a per-subcarrier kernel; serving heavy traffic
//! is an architecture problem layered above it. The synchronous entry
//! point (`decode_frame_batched_into`) decodes one frame at a time on the
//! calling thread. [`FrameStream`] serves many sources at once by running
//! every frame, start to finish, as one task on one worker of a pool, so
//! frames overlap **across workers**:
//!
//! ```text
//!   sources ──▶ [admission: bounded slot pool] ──▶ the pool's one EDF queue
//!                (backpressure)                              │
//!                                               any idle worker pops it
//!                                                            │
//!   that worker:  plan ─▶ detect ─▶ recover ─▶ in-order delivery ──▶ recv()
//! ```
//!
//! * **Ingress** ([`FrameStream::submit`] / [`FrameStream::try_submit`]):
//!   any number of threads submit [`UplinkFrame`]s. Admission is bounded
//!   by the slot pool ([`StreamConfig::capacity`]); `submit` blocks when
//!   full (backpressure), `try_submit` refuses. An admitted frame becomes
//!   one task on the pool's queue, ordered earliest-deadline-first from
//!   admission on.
//! * **Plan**: the worker that pops the frame's task seeds the frame's
//!   own RNG, runs the transmit chains and packages detection jobs into
//!   the slot's recycled [`gs_phy::FrameWorkspace`].
//! * **Detect**: the same worker detects every job as one batch at the
//!   frame's tier, through its long-lived `DetectorWorkspace`, into the
//!   slot's recycled detection buffer.
//! * **Recover**: the same worker scatters the detections into the
//!   per-client buffers, runs the receive chains (Viterbi/CRC), accounts
//!   deadlines, and delivers. A frame whose worker panics is never
//!   delivered; the panic marks the pool dead, and the stream reports
//!   [`StreamDead`].
//! * **Egress** ([`FrameStream::recv`]): completions arrive in **per-client
//!   submission order** regardless of internal reordering; dropping the
//!   [`Completed`] guard recycles the slot.
//!
//! ## The pool
//!
//! The stream's private executor. Every task is one frame's slot index,
//! and every worker runs the same job on it (plan, detect, recover as
//! above), so a task is plain data: EDF key, arrival ordinal, slot,
//! submit stamps and the flight-recorder identity. Queuing one never
//! allocates.
//!
//! * **One queue, every worker.** The pool keeps one earliest-deadline-first
//!   queue, a fixed-capacity heap on `(deadline key, arrival)`;
//!   deadline-free tasks sort last, FIFO among themselves. Every worker
//!   pops from it, so no worker idles while a frame waits.
//! * **Workers pinned round-robin** over the process's allowed CPUs:
//!   worker `k` runs on the `k mod n`-th of `n` (Linux, best-effort; a
//!   rejected mask leaves a worker unpinned). With pinning off the pool
//!   reads no affinity mask.
//! * **One dead flag.** A worker that panics (organically or through
//!   [`FrameStream::inject_worker_panic_at`]) marks the pool dead; the
//!   pool then refuses every task, and the stream's admission and
//!   completion waits report [`StreamDead`].
//!
//! ## Guarantees
//!
//! * **Bit-identity**: a frame's outcome is a pure function of its
//!   [`UplinkFrame`] (seeded RNG, pure detection, pure receive chain) —
//!   identical to serial `decode_frame_batched_into` with the same seed,
//!   for any worker/capacity configuration and any interleaving
//!   (`tests/stream_determinism.rs`).
//! * **Zero steady-state allocations**: slots, queues, heaps, and
//!   detection buffers are bounded and recycled; once every slot has
//!   decoded a frame, pushing a frame through the full pipeline touches
//!   the allocator zero times on every thread involved (same suite).
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
//! pressure (slot-pool occupancy, the windowed miss rate) and climbs
//! back as the slot pool drains; [`FrameStream::new`] is the
//! degenerate case (uniform ladder, pinned top tier). Completions report
//! the tier that decoded them ([`Completed::tier`]), so determinism is
//! checkable per pinned tier. See [`policy`].
//!
//! ## Knobs
//!
//! [`StreamConfig`] sizes the engine: client lanes, pool workers and slot
//! capacity (its two other fields are ignored, kept only until the
//! benchmark harness stops setting them). A stream spawns no thread but its pool
//! workers, named `gs-worker{k}`. `GS_NO_PIN` disables worker pinning (read by
//! [`StreamConfig::new`]) and `GS_SIMD` selects the kernel tier, both
//! under the shared warn-and-fallback policy (`gs_linalg::env`).

// Unsafe code is denied everywhere except the affinity shim, which needs
// the libc affinity syscalls (`sched_setaffinity`); see `affinity`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod affinity;
pub mod policy;
mod pool;
pub mod stats;
pub mod stream;

pub use geosphere_core::{DetectorLadder, DetectorTier};
pub use policy::{AdaptationPolicy, HysteresisPolicy, PinnedPolicy, PressureSignal};
pub use stats::RuntimeStats;
pub use stream::{Completed, FrameStream, StreamConfig, StreamDead, TrySubmitError, UplinkFrame};

//! The fault taxonomy for seeded scenario campaigns.
//!
//! A campaign scenario may carry exactly one [`FaultSpec`]: a deliberate,
//! deterministic failure injected into the streaming runtime so the
//! campaign can assert that faults degrade into *recorded outcomes* —
//! never aborts, hangs, or silent loss. Each spec maps onto a concrete
//! runtime mechanism:
//!
//! * [`FaultSpec::WorkerPanic`] — arms
//!   `FrameStream::inject_worker_panic_at` on one frame: the worker that
//!   pops it panics before running it, the stream's pool marks itself
//!   dead, and every later `submit`/`recv` reports `StreamDead`.
//! * [`FaultSpec::ShardLoss`] — the same lethal fault in a two-shard
//!   pool: losing one shard's worker kills the whole pool, so the other
//!   shard stops too.
//! * [`FaultSpec::DeadlineStorm`] — a contiguous window of frames is
//!   submitted with already-expired deadlines: every frame in the window
//!   *must* be delivered and *must* be accounted as a miss (deadlines are
//!   scheduling hints, not admission control).
//! * [`FaultSpec::SlotExhaustion`] — a burst of `try_submit` calls with
//!   the consumer stalled: admissions beyond the slot-pool capacity must
//!   be refused (bounded memory), and every admitted frame must still be
//!   delivered once the consumer resumes.
//!
//! Faults are part of the scenario's identity: the same seed arms the
//! same fault at the same frame, so a scenario report — including where
//! the fault fired and how many frames survived — is byte-reproducible.

/// One injected failure inside a campaign scenario. See the module docs
/// for the runtime mechanism behind each variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// The worker popping frame `after_frames` panics after that many
    /// frames have completed; the frame dies with the worker.
    WorkerPanic {
        /// Frames guaranteed to complete before the fault fires.
        after_frames: u64,
    },
    /// [`FaultSpec::WorkerPanic`] in a two-shard pool: the dying worker
    /// takes the whole pool down, not only its own shard.
    ShardLoss {
        /// Frames guaranteed to complete before the fault fires.
        after_frames: u64,
    },
    /// Frames `start .. start + len` (global submission order) carry
    /// already-expired deadlines: all delivered, all accounted as misses.
    DeadlineStorm {
        /// First frame of the expired window (global submission index).
        start: usize,
        /// Number of frames in the window.
        len: usize,
    },
    /// `burst` frames offered via `try_submit` while the consumer is
    /// stalled: admissions are capped at the slot-pool capacity, the rest
    /// refused and counted.
    SlotExhaustion {
        /// Frames offered in the stalled burst.
        burst: usize,
    },
}

impl FaultSpec {
    /// The taxonomy name (stable — used in campaign reports and CI
    /// aggregation).
    pub fn name(&self) -> &'static str {
        match self {
            FaultSpec::WorkerPanic { .. } => "worker_panic",
            FaultSpec::ShardLoss { .. } => "shard_loss",
            FaultSpec::DeadlineStorm { .. } => "deadline_storm",
            FaultSpec::SlotExhaustion { .. } => "slot_exhaustion",
        }
    }

    /// Full descriptor including the fault's position, e.g.
    /// `worker_panic@4` or `deadline_storm@2+5`.
    pub fn describe(&self) -> String {
        match *self {
            FaultSpec::WorkerPanic { after_frames } => format!("worker_panic@{after_frames}"),
            FaultSpec::ShardLoss { after_frames } => format!("shard_loss@{after_frames}"),
            FaultSpec::DeadlineStorm { start, len } => format!("deadline_storm@{start}+{len}"),
            FaultSpec::SlotExhaustion { burst } => format!("slot_exhaustion@{burst}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptors_are_stable() {
        assert_eq!(FaultSpec::WorkerPanic { after_frames: 4 }.describe(), "worker_panic@4");
        assert_eq!(FaultSpec::ShardLoss { after_frames: 2 }.describe(), "shard_loss@2");
        assert_eq!(FaultSpec::DeadlineStorm { start: 2, len: 5 }.describe(), "deadline_storm@2+5");
        assert_eq!(FaultSpec::SlotExhaustion { burst: 9 }.describe(), "slot_exhaustion@9");
    }
}

//! Output checks against the serial reference receiver.
//!
//! `UplinkFrame`'s contract is that a frame's outcome is a pure function
//! of its submission: bit-identical to `decode_frame_batched_into` with
//! one worker and the same channel, SNR and seed, however the runtime
//! schedules it. After the timed window (untimed) a deterministic sample
//! of the delivered frames, every `CHECK_STRIDE`-th frame index, is
//! decoded serially and compared.

use crate::drive::{Delivery, CHECK_STRIDE};
use crate::workload::{Inputs, Workload};
use geosphere_core::{geosphere_decoder, DetectorStats};
use gs_phy::{decode_frame_batched_into, FrameWorkspace, UplinkOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Client CRC verdicts as a bit mask (bit `c` = client `c` passed).
pub fn ok_mask(outcome: &UplinkOutcome) -> u32 {
    outcome.client_ok.iter().enumerate().fold(0, |m, (c, &ok)| m | (u32::from(ok) << c))
}

/// Describes how `d` differs from the reference `outcome`, if it does.
pub fn mismatch(d: &Delivery, outcome: &UplinkOutcome) -> Option<String> {
    let (mask, stats, dets) = (ok_mask(outcome), outcome.stats, outcome.detections);
    (d.ok_mask != mask || d.stats != stats || d.detections != dets).then(|| {
        format!(
            "frame {}: delivered crc {:#b} {:?} ({} detections), reference crc {mask:#b} {stats:?} ({dets})",
            d.index, d.ok_mask, d.stats, d.detections
        )
    })
}

/// Replays every kept delivery whose frame index is a multiple of
/// [`CHECK_STRIDE`] through the serial single-worker decoder. Returns how
/// many were checked and every mismatch.
pub fn replay_check(w: &Workload, inputs: &Inputs, kept: &[Delivery]) -> (usize, Vec<String>) {
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let mut errors = Vec::new();
    let mut checked = 0;
    for d in kept.iter().filter(|d| d.index.is_multiple_of(CHECK_STRIDE)) {
        let spec = inputs.frame(d.index);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let ch = &inputs.channels[spec.channel];
        let outcome = decode_frame_batched_into(&w.cfg, ch, &det, w.snr_db, &mut rng, 1, &mut ws);
        errors.extend(mismatch(d, outcome));
        checked += 1;
    }
    (checked, errors)
}

/// Exact search-effort totals over a fixed set of frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Frames summed.
    pub frames: u64,
    /// Detector invocations summed.
    pub detections: u64,
    /// Detector operation counts summed.
    pub stats: DetectorStats,
}

/// Sums the outcomes of frames `first..first + n`, which must all have
/// been delivered. Because the set is fixed, the totals repeat exactly
/// for a seed, however many frames the window happened to deliver.
pub fn leading_counts(deliveries: &[Delivery], first: u64, n: u64) -> Option<SearchCounts> {
    let mut c = SearchCounts::default();
    for d in deliveries.iter().filter(|d| (first..first + n).contains(&d.index)) {
        c.frames += 1;
        c.detections += d.detections;
        c.stats += d.stats;
    }
    (c.frames == n).then_some(c)
}

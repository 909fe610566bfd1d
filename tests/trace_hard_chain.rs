//! The flight recorder's hard chain on live streams: every frame the
//! streaming runtime delivers must carry every `HARD_CHAIN` span, first
//! occurrences in pipeline order, whichever receive branch it took.
//! Frames with one client run the per-client receive chain; frames with
//! two run the lockstep multi-stream Viterbi.
//!
//! Rings are process-global and frame ids restart with each stream, so a
//! stream's events are the ones its run added (the set difference of two
//! ring snapshots), and the streams run one after another in this
//! binary's only test.

#![cfg(feature = "trace")]

use geosphere::channel::{ChannelModel, RayleighChannel};
use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::PhyConfig;
use geosphere::prof::trace::{self as gtrace, FrameTimeline, TraceEvent, TracePoint, HARD_CHAIN};
use geosphere::runtime::{FrameStream, StreamConfig, UplinkFrame};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;

const FRAMES: u64 = 4;

/// Streams `FRAMES` frames of `n_tx` clients each, receives them all, and
/// assembles the events the run added to the rings.
fn stream_timelines(n_tx: usize) -> Vec<FrameTimeline> {
    let key = |e: &TraceEvent| (e.tsc, e.thread, e.frame, e.point.code(), e.kind.code());
    let before: HashSet<_> = gtrace::snapshot_events().iter().map(key).collect();

    let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) };
    let stream = FrameStream::new(cfg, geosphere_decoder(), StreamConfig::new(1));
    let channel = RayleighChannel::new(4, n_tx).realize(&mut StdRng::seed_from_u64(n_tx as u64));
    let channel = Arc::new(channel);
    for seed in 0..FRAMES {
        let frame = UplinkFrame::new(0, Arc::clone(&channel), 24.0, seed);
        stream.submit(frame).expect("stream alive");
    }
    for _ in 0..FRAMES {
        stream.recv().expect("stream alive");
    }
    drop(stream);

    let added: Vec<TraceEvent> =
        gtrace::snapshot_events().into_iter().filter(|e| !before.contains(&key(e))).collect();
    gtrace::assemble(&added)
}

#[test]
fn every_delivered_frame_records_the_full_hard_chain() {
    gtrace::set_armed(true);
    for n_tx in [1, 2] {
        let timelines = stream_timelines(n_tx);
        let delivered: Vec<_> =
            timelines.iter().filter(|tl| tl.has_point(TracePoint::Deliver)).collect();
        assert_eq!(delivered.len(), FRAMES as usize, "{n_tx}-client stream: delivered frames");
        for tl in delivered {
            for point in HARD_CHAIN {
                assert!(
                    tl.has_point(point),
                    "{n_tx}-client frame {} lacks the {} span",
                    tl.frame,
                    point.name()
                );
            }
            let firsts: Vec<u64> = HARD_CHAIN.iter().map(|p| tl.first_tsc(*p).unwrap()).collect();
            assert!(
                firsts.windows(2).all(|w| w[0] <= w[1]),
                "{n_tx}-client frame {}: hard chain out of pipeline order: {firsts:?}",
                tl.frame
            );
        }
    }
}

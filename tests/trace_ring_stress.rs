//! Stress test of the flight recorder's seqlock'd event rings. Writer
//! threads emit self-checking events as fast as they can: client, tier,
//! point and kind are all derived from the frame id. Reader threads
//! meanwhile snapshot the rings and fire dump triggers. A torn slot that
//! slipped past the seqlock would pair one write's frame id with another
//! write's packed word, so every returned event must pass its self-check.
//!
//! Only this test emits events in its process, so every snapshotted event
//! must be one of the writers'.

#![cfg(feature = "trace")]

use geosphere::prof::trace::{
    self as gtrace, EventKind, FrameCtx, TraceEvent, TracePoint, Trigger, NO_FRAME, RING_CAP,
};
use std::sync::atomic::{AtomicBool, Ordering};

const WRITERS: u64 = 3;
const READERS: usize = 2;
/// Snapshots each reader takes while the writers run.
const SNAPSHOTS: usize = 200;
/// Every this many snapshots, a reader fires a dump trigger instead.
const TRIGGER_EVERY: usize = 20;
/// High bits of every frame id the writers emit.
const TAG: u64 = 0x5EC1_0C4B << 32;

fn frame_id(writer: u64, k: u64) -> u64 {
    TAG | writer << 28 | k
}

/// The identity and point an event of `frame` is written with.
fn derived(frame: u64) -> (FrameCtx, TracePoint, EventKind) {
    let ctx = FrameCtx { frame, client: (frame % 1000) as u32, tier: (frame % 7) as u8 };
    let point = TracePoint::from_code((frame % TracePoint::COUNT as u64) as u16).unwrap();
    let kind = [EventKind::Begin, EventKind::End, EventKind::Instant][(frame % 3) as usize];
    (ctx, point, kind)
}

fn assert_self_consistent(e: &TraceEvent) {
    assert_eq!(e.frame & !((1 << 32) - 1), TAG, "foreign or torn frame id: {e:?}");
    let (ctx, point, kind) = derived(e.frame);
    assert_eq!(
        (e.client, e.tier, e.point, e.kind),
        (ctx.client, ctx.tier, point, kind),
        "torn event: {e:?}"
    );
}

#[test]
fn concurrent_readers_never_see_a_torn_event() {
    gtrace::set_armed(true);
    gtrace::set_min_dump_gap_ms(0);
    let stop = AtomicBool::new(false);
    let written: Vec<u64> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut k = 0;
                    while (!stop.load(Ordering::Relaxed) || k < RING_CAP as u64) && k < 1 << 28 {
                        let (ctx, point, kind) = derived(frame_id(w, k));
                        gtrace::emit_for(point, kind, ctx);
                        k += 1;
                    }
                    k
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(|| {
                    for i in 0..SNAPSHOTS {
                        if i % TRIGGER_EVERY == TRIGGER_EVERY - 1 {
                            gtrace::trigger(Trigger::Manual, NO_FRAME);
                            if let Some(dump) = gtrace::recent_dumps().last() {
                                dump.events.iter().for_each(assert_self_consistent);
                            }
                        } else {
                            gtrace::snapshot_events().iter().for_each(assert_self_consistent);
                        }
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    gtrace::set_min_dump_gap_ms(200);

    // Quiescent rings hold each writer's newest `RING_CAP` events, intact.
    let events = gtrace::snapshot_events();
    events.iter().for_each(assert_self_consistent);
    for (w, &n) in written.iter().enumerate() {
        let mut ks: Vec<u64> = events
            .iter()
            .filter(|e| (e.frame >> 28) & 0xF == w as u64)
            .map(|e| e.frame & ((1 << 28) - 1))
            .collect();
        ks.sort_unstable();
        let newest: Vec<u64> = (n - RING_CAP as u64..n).collect();
        assert_eq!(ks, newest, "writer {w} wrote {n} events");
    }
}

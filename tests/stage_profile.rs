//! Workspace-level pins for the stage-attributed profiler (`gs-prof`).
//!
//! Two build flavors, two contracts:
//!
//! * **`profile` off (the default):** the cycle table must erase
//!   completely — driving a real frame through the receive chain records
//!   nothing, and with `trace` off too [`gs_prof::ScopeGuard`] is a
//!   zero-size type.
//! * **`profile` on (the CI profiling leg):** per-stage counters are
//!   monotone across snapshots, their exclusive-time sum stays within the
//!   wall-clock envelope of the bracketed region (attribution partitions,
//!   never double-counts), and one decoded frame lights up every stage the
//!   hard receive chain passes through.
//! * **`profile` and `trace` on:** the one guard feeds both views, so a
//!   streamed frame's span count per hard-chain stage equals that stage's
//!   invocation delta in the cycle table.
//!
//! The profile-on checks share one `#[test]` run sequentially: snapshots
//! aggregate process-global state, so concurrent test threads doing their
//! own decodes would break the wall-clock envelope comparison.

use geosphere_core::geosphere_decoder;
use gs_channel::{ChannelModel, SelectiveRayleighChannel};
use gs_modulation::Constellation;
use gs_phy::{decode_frame_batched_into, FrameWorkspace, PhyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One hard-decision frame through the batched chain, single worker so
/// every instrumented scope runs on the calling thread.
fn decode_one_frame(seed: u64, ws: &mut FrameWorkspace) {
    let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) };
    let model = SelectiveRayleighChannel {
        n_fft: 64,
        n_subcarriers: cfg.n_subcarriers,
        ..SelectiveRayleighChannel::indoor(4, 4)
    };
    let ch = model.realize(&mut StdRng::seed_from_u64(seed));
    let det = geosphere_decoder();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    decode_frame_batched_into(&cfg, &ch, &det, 22.0, &mut rng, 1, ws);
}

#[cfg(not(feature = "profile"))]
#[test]
fn disabled_build_erases_the_instrumentation() {
    // With `trace` off too, the guard must cost nothing to carry: a
    // zero-size type, so every `let _scope = gs_prof::scope(..)` in the
    // hot path compiles away.
    #[cfg(not(feature = "trace"))]
    assert_eq!(std::mem::size_of::<gs_prof::ScopeGuard>(), 0);
    assert!(!gs_prof::enabled());

    // A real frame through the whole receive chain records nothing.
    let mut ws = FrameWorkspace::new();
    decode_one_frame(0xD15AB1ED, &mut ws);
    assert!(ws.outcome().stats.visited_nodes > 0, "the frame must actually have been decoded");
    let snap = gs_prof::snapshot();
    assert!(snap.is_empty(), "profiling compiled out, yet counters moved: {snap:?}");
    assert_eq!(snap.total_cycles(), 0);
    assert_eq!(snap.top_stage(), None);
}

#[cfg(feature = "profile")]
mod enabled {
    use super::*;
    use geosphere_core::MimoDetector;
    use gs_channel::RayleighChannel;
    use gs_prof::Stage;
    use proptest::prelude::*;

    /// Every stage's counters only ever grow between two snapshots.
    fn assert_monotone(before: &gs_prof::StageProfile, after: &gs_prof::StageProfile) {
        for (b, a) in before.stages.iter().zip(after.stages.iter()) {
            assert_eq!(b.stage, a.stage);
            assert!(a.cycles >= b.cycles, "{}: cycles went backwards", a.stage.name());
            assert!(
                a.invocations >= b.invocations,
                "{}: invocations went backwards",
                a.stage.name()
            );
            assert!(a.bytes >= b.bytes, "{}: bytes went backwards", a.stage.name());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Plain fns (no #[test] meta): invoked sequentially from the one
        // real test below so nothing else touches the global table while
        // a case is bracketed by snapshots.
        fn counters_are_monotone_across_detections(seed in 0u64..1 << 48, nc in 2usize..5) {
            let c = Constellation::Qpsk;
            let mut rng = StdRng::seed_from_u64(seed);
            let h = RayleighChannel::new(nc, nc).sample_matrix(&mut rng).scale(c.scale());
            let pts = c.points();
            let s: Vec<_> = (0..nc).map(|i| pts[(seed as usize + i) % pts.len()]).collect();
            let y = geosphere_core::apply_channel(&h, &s);

            let before = gs_prof::snapshot();
            let det = geosphere_decoder().detect(&h, &y, c);
            let after = gs_prof::snapshot();

            assert_monotone(&before, &after);
            let delta = after.delta(&before);
            prop_assert!(delta.stages[Stage::Enumerate.index()].invocations > 0);
            prop_assert!(det.stats.visited_nodes > 0);
        }
    }

    /// The exclusive-time attribution partitions instrumented time: the
    /// per-stage sum over a bracketed single-threaded region can never
    /// exceed that region's wall-clock tick count.
    fn assert_sum_within_wall_clock() {
        let mut ws = FrameWorkspace::new();
        decode_one_frame(0x5EED_0001, &mut ws); // warmup: slab growth off the clock

        let t0 = gs_prof::ticks();
        let before = gs_prof::snapshot();
        decode_one_frame(0x5EED_0002, &mut ws);
        let after = gs_prof::snapshot();
        let t1 = gs_prof::ticks();

        let spent = after.delta(&before).total_cycles();
        let wall = t1.saturating_sub(t0);
        assert!(
            spent <= wall,
            "stage table claims {spent} ticks inside a {wall}-tick envelope — \
             attribution double-counted"
        );
        // And the table is not trivially empty — it reaches most of the
        // envelope (the ≥95% coverage criterion is enforced by eye on the
        // bench dump; here a loose floor guards against scopes silently
        // detaching from the chain).
        assert!(
            spent as f64 >= wall as f64 * 0.5,
            "stage table covers only {spent} of {wall} ticks — scopes lost?"
        );
    }

    /// One decoded frame must light up every stage the hard single-worker
    /// receive chain passes through.
    fn assert_frame_touches_the_chain() {
        let mut ws = FrameWorkspace::new();
        let before = gs_prof::snapshot();
        decode_one_frame(0x5EED_0003, &mut ws);
        let delta = gs_prof::snapshot().delta(&before);

        for stage in [
            Stage::Plan,
            Stage::QrDecompose,
            Stage::Rotate,
            Stage::Enumerate,
            Stage::Recover,
            Stage::Viterbi,
            Stage::Crc,
        ] {
            let r = &delta.stages[stage.index()];
            assert!(r.cycles > 0, "stage {} recorded no cycles for a decoded frame", stage.name());
            assert!(r.invocations > 0, "stage {} recorded no invocations", stage.name());
        }
    }

    /// Streams one frame alone through `FrameStream` and checks, per
    /// `HARD_CHAIN` stage, that the frame's spans and the table's
    /// invocations moved together: every scope on a hard-chain stage is a
    /// span, and nothing else is. Two clients take the lockstep
    /// multi-stream Viterbi branch, one client the per-client chain.
    #[cfg(feature = "trace")]
    fn assert_table_and_trace_agree() {
        use gs_prof::trace::{self as gtrace, TraceEvent, TracePoint, HARD_CHAIN};
        use gs_runtime::{FrameStream, StreamConfig, UplinkFrame};
        use std::collections::HashSet;
        use std::sync::Arc;

        gtrace::set_armed(true);
        let key = |e: &TraceEvent| (e.tsc, e.thread, e.frame, e.point.code(), e.kind.code());
        let cfg = PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) };
        for n_tx in [2, 1] {
            let stream = FrameStream::new(cfg, geosphere_decoder(), StreamConfig::new(1));
            let channel =
                RayleighChannel::new(4, n_tx).realize(&mut StdRng::seed_from_u64(n_tx as u64));
            let events_before: HashSet<_> = gtrace::snapshot_events().iter().map(key).collect();
            let before = gs_prof::snapshot();
            stream.submit(UplinkFrame::new(0, Arc::new(channel), 24.0, 7)).expect("stream alive");
            stream.recv().expect("stream alive");
            let table = gs_prof::snapshot().delta(&before);
            let added: Vec<TraceEvent> = gtrace::snapshot_events()
                .into_iter()
                .filter(|e| !events_before.contains(&key(e)))
                .collect();
            drop(stream);

            let timelines = gtrace::assemble(&added);
            assert_eq!(timelines.len(), 1, "{n_tx}-client stream: one frame recorded");
            for point in HARD_CHAIN {
                let TracePoint::Stage(stage) = point else { unreachable!("hard chain is stages") };
                let spans = timelines[0].spans.iter().filter(|s| s.point == point).count() as u64;
                let calls = table.stages[stage.index()].invocations;
                assert!(spans > 0, "{n_tx}-client frame: no {} span", stage.name());
                assert_eq!(
                    spans,
                    calls,
                    "{n_tx}-client frame: {} spans vs table invocations",
                    stage.name()
                );
            }
        }
    }

    #[test]
    fn profiling_enabled_invariants() {
        assert!(gs_prof::enabled());
        counters_are_monotone_across_detections();
        assert_sum_within_wall_clock();
        assert_frame_touches_the_chain();
        #[cfg(feature = "trace")]
        assert_table_and_trace_agree();
    }
}

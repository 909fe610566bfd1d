//! Hostile-input properties of the exposition parser and lint.
//!
//! `parse_exposition` and `lint_exposition` read text that crossed a
//! socket, so whatever arrives they must answer `Ok` or `Err`, never
//! panic. The inputs here are arbitrary bytes, bytes drawn from the
//! exposition's own syntax, truncations of a real `/metrics` render, and
//! byte-level mutations of it. The converse holds too: rendering any
//! well-formed [`RuntimeStats`] lints clean.

use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::PhyConfig;
use geosphere::prof::hist::LogHistogram;
use geosphere::runtime::{DetectorTier, FrameStream, RuntimeStats, StreamConfig};
use geosphere::sim::{drive, Pacing, Scenario};
use geosphere::telemetry::{lint_exposition, parse_exposition, render_runtime_stats};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// A snapshot of a stream that decoded a few real frames.
fn real_stats() -> &'static RuntimeStats {
    static STATS: OnceLock<RuntimeStats> = OnceLock::new();
    STATS.get_or_init(|| {
        let cfg = PhyConfig { payload_bits: 128, ..PhyConfig::new(Constellation::Qam16) };
        let mut sc = StreamConfig::new(2);
        sc.workers = 2;
        sc.capacity = 3;
        let stream = FrameStream::new(cfg, geosphere_decoder(), sc);
        let plan = Scenario::new(0xE470).phy(cfg).clients(2).frames_per_client(3).plan();
        drive(&stream, &plan, Pacing::Replay { in_flight: usize::MAX });
        stream.stats()
    })
}

/// The real render, computed once.
fn rendered() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| render_runtime_stats(real_stats()))
}

/// Runs both entry points; only a panic fails the caller.
fn read_both(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = parse_exposition(&text);
    let _ = lint_exposition(&text);
}

/// The characters the exposition is made of, so random draws reach past
/// the first syntax check.
const SYNTAX: &[u8] = b"# TYPEHELPgs_x:{}=\",.0123456789-+eE NaInf\t\n";

/// One byte-level edit: replace, insert or delete at a position.
fn mutate(text: &mut Vec<u8>, (op, pos, byte): (u8, usize, u8)) {
    if text.is_empty() {
        text.push(byte);
        return;
    }
    let pos = pos % text.len();
    match op % 3 {
        0 => text[pos] = byte,
        1 => text.insert(pos, byte),
        _ => {
            text.remove(pos);
        }
    }
}

/// A histogram holding `samples`.
fn histogram(samples: &[u64]) -> geosphere::prof::hist::HistogramSnapshot {
    let h = LogHistogram::new();
    samples.iter().for_each(|&v| h.record(v));
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..400)) {
        read_both(&bytes);
    }

    #[test]
    fn syntax_shaped_bytes_never_panic(
        picks in vec(0..SYNTAX.len(), 0..400),
        prefix in 0usize..3,
    ) {
        let mut bytes: Vec<u8> = [&b""[..], b"# TYPE gs_x counter\n", b"# TYPE gs_x summary\n"]
            [prefix]
            .to_vec();
        bytes.extend(picks.iter().map(|&i| SYNTAX[i]));
        read_both(&bytes);
    }

    #[test]
    fn truncated_renders_never_panic(cut in 0usize..1 << 16) {
        let text = rendered().as_bytes();
        read_both(&text[..cut % (text.len() + 1)]);
    }

    #[test]
    fn mutated_renders_never_panic(
        edits in vec((0u8..3, any::<usize>(), any::<u8>()), 1..12),
        syntax_byte in any::<bool>(),
    ) {
        let mut text = rendered().as_bytes().to_vec();
        for (op, pos, byte) in edits {
            let byte = if syntax_byte { SYNTAX[byte as usize % SYNTAX.len()] } else { byte };
            mutate(&mut text, (op, pos, byte));
        }
        read_both(&text);
    }

    #[test]
    fn any_well_formed_render_lints_clean(
        counters in vec(0u64..1 << 40, 6),
        clients in 0usize..12,
        samples in vec(0u64..1 << 40, 0..40),
        gauges in (0usize..64, 0usize..64, 0usize..16, 0.0f64..1e6, 0.0f64..1.0),
        tier in 0usize..DetectorTier::COUNT,
    ) {
        let mut stats = real_stats().clone();
        [stats.submitted, stats.planned, stats.detected, stats.recovered, stats.completed,
            stats.deadline_misses] = counters.try_into().unwrap();
        stats.tier_admissions = std::array::from_fn(|i| samples.len() as u64 * (i as u64 + 1));
        stats.current_tier = DetectorTier::from_index(tier).unwrap();
        let (in_flight, capacity, queue_depth, rate, miss_rate) = gauges;
        (stats.in_flight, stats.capacity, stats.queue_depth) = (in_flight, capacity, queue_depth);
        (stats.frames_per_sec, stats.windowed_frames_per_sec) = (rate, rate / 2.0);
        stats.windowed_miss_rate = miss_rate;
        stats.elapsed = Duration::from_nanos(samples.iter().sum());
        // Spread the samples over the client lanes, more lanes than the
        // renderer exports so the overflow lane is exercised too.
        stats.latency_per_client =
            (0..clients).map(|c| histogram(&samples[c.min(samples.len())..])).collect();
        stats.queue_wait_per_shard = [histogram(&samples)];
        stats.deadline_slack = histogram(&samples[samples.len() / 2..]);
        stats.deadline_lateness = histogram(&samples[..samples.len() / 2]);
        let text = render_runtime_stats(&stats);
        if let Err(e) = lint_exposition(&text) {
            panic!("render of well-formed stats fails the lint: {e}\n{text}");
        }
    }
}

#[test]
fn the_real_render_lints_clean() {
    let expo = lint_exposition(rendered()).expect("real render lints clean");
    assert_eq!(expo.value("gs_frames_completed_total", &[]), Some(6.0));
    assert_eq!(expo.value("gs_queue_wait_seconds_count", &[]), Some(6.0));
}

//! Flight-recorder timeline properties and Chrome-export schema, checked
//! on synthetic event streams.
//!
//! `assemble`, `TraceDump::from_events`, and `chrome_trace_json` are pure
//! functions over `TraceEvent` slices, so these tests run identically
//! with and without `--features trace` — they pin the assembler's causal
//! guarantees (begin before end, pipeline stages in pipeline order) and
//! the exporter's schema (parses as JSON, references only known trace
//! points and recorded threads) without needing the live recorder. The
//! JSON check uses a small recursive-descent parser because the offline
//! workspace has no serde.

use gs_prof::trace::{
    assemble, chrome_trace_json, EventKind, TraceDump, TraceEvent, TracePoint, Trigger,
    CONTROL_CHAIN, HARD_CHAIN, NO_FRAME, NO_SHARD, NO_TIER,
};
use proptest::prelude::*;
use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Synthetic frame streams
// ---------------------------------------------------------------------------

/// Per-frame shape knobs the property tests randomize.
#[derive(Clone, Debug)]
struct FrameShape {
    jitter: u64,
    gap: u64,
    worker: u16,
    shard: u16,
    parked: bool,
}

fn frame_shape_strategy() -> impl Strategy<Value = FrameShape> {
    (0u64..50, 1u64..40, 1u16..4, 0u16..8, any::<bool>()).prop_map(
        |(jitter, gap, worker, shard, parked)| FrameShape { jitter, gap, worker, shard, parked },
    )
}

/// Lays down one frame's causal event chain — the control instants and
/// the hard-chain spans in pipeline order with strictly increasing ticks —
/// on the threads the shape picks. Mirrors what the instrumented runtime
/// records for one healthy frame.
fn synth_frame(frame: u64, shape: &FrameShape, out: &mut Vec<TraceEvent>) {
    // Frames overlap in time (base advances by less than a frame's span),
    // like a pipelined stream.
    let mut t = 1_000 + frame * 120 + shape.jitter;
    let client = (frame % 4) as u32;
    let tier = (frame % 3) as u8;
    let mut ev = |tsc: u64, thread: u16, point: TracePoint, kind: EventKind, shard: u16| {
        out.push(TraceEvent { tsc, frame, thread, point, kind, client, shard, tier });
    };
    let step = |t: &mut u64| {
        *t += shape.gap;
        *t
    };
    // Control plane on the submit thread (0), then the shard worker, then
    // the recovery thread (worker + 8 keeps the ids disjoint).
    ev(t, 0, TracePoint::Submit, EventKind::Instant, NO_SHARD);
    ev(step(&mut t), 0, TracePoint::Admit, EventKind::Instant, NO_SHARD);
    ev(step(&mut t), 0, TracePoint::Stage(gs_prof::Stage::Plan), EventKind::Begin, NO_SHARD);
    ev(step(&mut t), 0, TracePoint::Stage(gs_prof::Stage::Plan), EventKind::End, NO_SHARD);
    ev(step(&mut t), 0, TracePoint::Enqueue, EventKind::Instant, shape.shard);
    ev(step(&mut t), shape.worker, TracePoint::Pop, EventKind::Instant, shape.shard);
    let detect = TracePoint::Stage(gs_prof::Stage::Detect);
    ev(step(&mut t), shape.worker, detect, EventKind::Begin, shape.shard);
    ev(step(&mut t), shape.worker, detect, EventKind::End, shape.shard);
    let rec = shape.worker + 8;
    let scatter = TracePoint::Stage(gs_prof::Stage::Scatter);
    ev(step(&mut t), rec, scatter, EventKind::Begin, NO_SHARD);
    ev(step(&mut t), rec, scatter, EventKind::End, NO_SHARD);
    if shape.parked {
        ev(step(&mut t), rec, TracePoint::Park, EventKind::Instant, NO_SHARD);
    }
    for stage in [gs_prof::Stage::Recover, gs_prof::Stage::Viterbi, gs_prof::Stage::Crc] {
        ev(step(&mut t), rec, TracePoint::Stage(stage), EventKind::Begin, NO_SHARD);
        ev(step(&mut t), rec, TracePoint::Stage(stage), EventKind::End, NO_SHARD);
    }
    ev(step(&mut t), rec, TracePoint::Deliver, EventKind::Instant, NO_SHARD);
}

/// Deterministic shuffle (splitmix-keyed) — the assembler must not depend
/// on ring snapshot order.
fn shuffle(events: &mut [TraceEvent], seed: u64) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..events.len()).rev() {
        events.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

fn synth_stream(shapes: &[FrameShape], seed: u64) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for (f, shape) in shapes.iter().enumerate() {
        synth_frame(f as u64, shape, &mut events);
    }
    // A couple of frameless stream events (admission refusals): these must
    // never appear in a per-frame timeline.
    for k in 0..2u64 {
        events.push(TraceEvent {
            tsc: 1_500 + 97 * k,
            frame: NO_FRAME,
            thread: 0,
            point: TracePoint::Refuse,
            kind: EventKind::Instant,
            client: (k % 4) as u32,
            shard: NO_SHARD,
            tier: NO_TIER,
        });
    }
    shuffle(&mut events, seed);
    events
}

/// First-occurrence ticks of `chain` points must be non-decreasing within
/// a timeline — the pipeline-order half of the causal contract.
fn assert_chain_ordered(tl: &gs_prof::trace::FrameTimeline, chain: &[TracePoint]) {
    let mut last: Option<(TracePoint, u64)> = None;
    for &point in chain {
        if let Some(tsc) = tl.first_tsc(point) {
            if let Some((prev_point, prev_tsc)) = last {
                assert!(
                    prev_tsc <= tsc,
                    "frame {}: {} at {} precedes {} at {} out of pipeline order",
                    tl.frame,
                    point.name(),
                    tsc,
                    prev_point.name(),
                    prev_tsc
                );
            }
            last = Some((point, tsc));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Timelines assembled from a shuffled synthetic stream are causally
    /// ordered: spans close after they open, the hard chain and the
    /// control chain both run in pipeline order, and frameless events are
    /// excluded.
    #[test]
    fn timelines_are_causally_ordered(
        shapes in proptest::collection::vec(frame_shape_strategy(), 1..6),
        seed in 0u64..1_000_000,
    ) {
        let events = synth_stream(&shapes, seed);
        let timelines = assemble(&events);

        prop_assert_eq!(timelines.len(), shapes.len());
        for (f, tl) in timelines.iter().enumerate() {
            prop_assert_eq!(tl.frame, f as u64);
            prop_assert!(tl.frame != NO_FRAME);
            prop_assert!(tl.begin <= tl.end);
            for s in &tl.spans {
                prop_assert!(s.begin <= s.end, "span {} begins after it ends", s.point.name());
                prop_assert!(tl.begin <= s.begin && s.end <= tl.end);
            }
            for i in &tl.instants {
                prop_assert!(tl.begin <= i.tsc && i.tsc <= tl.end);
            }
            assert_chain_ordered(tl, &HARD_CHAIN);
            assert_chain_ordered(tl, &CONTROL_CHAIN);
            // Every synthetic frame runs submit → delivery end to end.
            for point in CONTROL_CHAIN.iter().filter(|p| !matches!(p, TracePoint::Deliver)) {
                prop_assert!(tl.has_point(*point), "frame {} lost {}", f, point.name());
            }
            prop_assert!(tl.has_point(TracePoint::Deliver));
            for point in HARD_CHAIN {
                prop_assert!(tl.has_point(point), "frame {} lost {}", f, point.name());
            }
        }
    }

    /// The Chrome export of any synthetic dump parses as JSON and
    /// references only known trace points, recorded threads, and the
    /// frames in the dump (pid = frame + 1, pid 0 = stream strays).
    #[test]
    fn chrome_export_parses_and_references_known_names(
        shapes in proptest::collection::vec(frame_shape_strategy(), 1..5),
        seed in 0u64..1_000_000,
    ) {
        let events = synth_stream(&shapes, seed);
        let dump = TraceDump::from_events(Trigger::Manual, 0, 7, 0, 3.0, events.clone());
        let json = chrome_trace_json(&dump);
        let doc = parse_json(&json).expect("chrome export must parse as JSON");

        let mut allowed: HashSet<String> = (0..TracePoint::COUNT)
            .map(|c| TracePoint::from_code(c as u16).unwrap().name().to_string())
            .collect();
        allowed.insert("process_name".into());
        for t in Trigger::ALL {
            allowed.insert(format!("trigger:{}", t.name()));
        }
        let mut known_threads: HashSet<u64> = events.iter().map(|e| e.thread as u64).collect();
        known_threads.insert(0); // metadata + trigger rows
        let known_pids: HashSet<u64> =
            events.iter().map(|e| e.frame.wrapping_add(1)).chain([0]).collect();

        prop_assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
        let rows = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
        prop_assert!(!rows.is_empty());
        let mut phases_seen = HashSet::new();
        for row in rows {
            let name = row.get("name").and_then(Json::as_str).expect("row name");
            prop_assert!(allowed.contains(name), "unknown event name {}", name);
            let ph = row.get("ph").and_then(Json::as_str).expect("row ph");
            prop_assert!(matches!(ph, "X" | "i" | "M"), "unknown phase {}", ph);
            phases_seen.insert(ph.to_string());
            let pid = row.get("pid").and_then(Json::as_num).expect("row pid") as u64;
            prop_assert!(known_pids.contains(&pid), "pid {} references no frame", pid);
            let tid = row.get("tid").and_then(Json::as_num).expect("row tid") as u64;
            prop_assert!(known_threads.contains(&tid), "tid {} references no thread", tid);
            match ph {
                "X" => {
                    prop_assert!(row.get("ts").and_then(Json::as_num).expect("ts") >= 0.0);
                    prop_assert!(row.get("dur").and_then(Json::as_num).expect("dur") >= 0.0);
                }
                "i" => {
                    prop_assert!(row.get("ts").and_then(Json::as_num).is_some());
                    prop_assert!(row.get("s").and_then(Json::as_str).is_some());
                }
                _ => prop_assert!(row.get("args").is_some(), "metadata row without args"),
            }
        }
        // Spans, instants, and process metadata must all be present.
        for ph in ["X", "i", "M"] {
            prop_assert!(phases_seen.contains(ph), "export carries no {} rows", ph);
        }
        // The trigger marker is always the last row.
        let last = rows.last().unwrap();
        prop_assert_eq!(last.get("name").and_then(Json::as_str), Some("trigger:manual"));
    }
}

/// Frameless events (admission refusals) never form a timeline but do
/// appear on the Chrome export's pid-0 "stream" track.
#[test]
fn frameless_events_stay_off_timelines_but_reach_the_stream_track() {
    let shapes = vec![FrameShape { jitter: 3, gap: 5, worker: 1, shard: 2, parked: false }];
    let events = synth_stream(&shapes, 42);
    let timelines = assemble(&events);
    assert_eq!(timelines.len(), 1);
    assert!(timelines.iter().all(|tl| tl.frame != NO_FRAME));

    let dump = TraceDump::from_events(Trigger::AdmissionRefusal, NO_FRAME, 0, 0, 3.0, events);
    let doc = parse_json(&chrome_trace_json(&dump)).expect("export parses");
    let rows = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let refusals: Vec<_> =
        rows.iter().filter(|r| r.get("name").and_then(Json::as_str) == Some("refuse")).collect();
    assert_eq!(refusals.len(), 2);
    for r in &refusals {
        assert_eq!(r.get("pid").and_then(Json::as_num), Some(0.0));
    }
}

// ---------------------------------------------------------------------------
// A minimal JSON parser (test-side only; the workspace builds offline and
// has no serde). Accepts the standard grammar, enough to validate the
// exporter's output strictly.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end".into())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                b => {
                    // The exporter only emits ASCII, but accept UTF-8.
                    let s = &self.bytes[self.pos..];
                    let ch_len = match b {
                        0..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                        .map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                other => return Err(format!("expected , or ] found {:?}", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            out.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                other => return Err(format!("expected , or }} found {:?}", other as char)),
            }
        }
    }
}

//! Drives a [`FrameStream`] from outside, through its public API only:
//! construction and warm-up (the measured set-up), the closed-loop and
//! paced timed windows, and the accounting every window is checked by.

use crate::check::ok_mask;
use crate::stats::{process_cpu_seconds, BlockPercentiles};
use crate::workload::{stream_config, Arrivals, Inputs, Workload, CAPACITY};
use geosphere_core::{geosphere_decoder, DetectorStats};
use gs_runtime::{Completed, FrameStream, RuntimeStats, TrySubmitError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One delivered frame, as the generator saw it.
#[derive(Debug)]
pub struct Delivery {
    /// Frame index (see [`Inputs::frame`]).
    pub index: u64,
    /// Client lane.
    pub client: usize,
    /// Per-client sequence number the stream assigned.
    pub seq: u64,
    /// When `recv` returned it.
    pub recv_at: Instant,
    /// Bit `c` set when client `c`'s payload passed its CRC.
    pub ok_mask: u32,
    /// Detector operation counts of the frame.
    pub stats: DetectorStats,
    /// Detector invocations of the frame.
    pub detections: u64,
    /// The runtime's deadline verdict.
    pub missed_deadline: bool,
    /// Due instant → `recv` return, ns. A paced frame is due at its
    /// scheduled arrival; a closed-loop frame when the generator starts
    /// submitting it.
    pub latency_ns: u64,
    /// `submit` return → `recv` return, ns.
    pub inflight_ns: u64,
    /// Duration of the `submit`/`try_submit` call, ns.
    pub submit_ns: u64,
    /// Delivered inside the timed window (closed loops drain their
    /// in-flight tail after it; those frames are checked, not timed).
    pub in_window: bool,
}

/// Frames whose full [`Delivery`] record a window keeps: the leading ones
/// (the exact search-effort counts and the traced layer replay compare
/// against them) and every [`CHECK_STRIDE`]-th (the reference check
/// replays those).
const KEEP_LEADING: u64 = 1024;
/// Every this-many-th frame index is replayed by the reference check.
pub const CHECK_STRIDE: u64 = 64;

/// Deliveries per block of the latency percentiles: each block's p99 rests
/// on ten samples beyond it.
pub const LATENCY_BLOCK: usize = 1000;
/// The latency percentiles a window reports.
pub const LATENCY_QS: [f64; 2] = [0.5, 0.99];
/// Length of the slices a window's throughput and CPU cost are taken over.
pub const SLICE: Duration = Duration::from_secs(1);

/// One slice of a timed window: from the first delivery at or after a
/// slice boundary to the first delivery at or after the next one.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Wall seconds.
    pub seconds: f64,
    /// Process CPU seconds.
    pub cpu_seconds: f64,
    /// Frames delivered.
    pub frames: u64,
    /// CRC-verified client payloads of those frames.
    pub ok_payloads: u64,
}

/// Where the open slice started.
#[derive(Debug)]
struct Mark {
    at: Instant,
    cpu: f64,
    frames: u64,
    ok_payloads: u64,
}

/// What a window keeps of its deliveries. Untraced windows fold every
/// frame into counters and constant-memory block percentiles, so the
/// harness's memory barely grows with throughput and `peak_rss_mb`
/// measures the receiver, not the harness's log. Traced windows keep every
/// record for the spans.
#[derive(Debug)]
pub struct Log {
    /// Frames delivered, in the window and in the drained tail.
    pub delivered: u64,
    /// Deliveries the runtime marked as past their deadline.
    pub misses: u64,
    /// CRC-verified client payloads over all deliveries.
    pub ok_payloads: u64,
    /// Frames delivered inside the timed window.
    pub timed: u64,
    /// CRC-verified client payloads of the frames delivered in the window.
    pub timed_ok_payloads: u64,
    /// Deliveries whose latency was within the workload's limit (all of
    /// them when it has none).
    pub on_time: u64,
    /// Block percentiles ([`LATENCY_QS`]) of the latency, ms, of the frames
    /// delivered in the window.
    pub latency: BlockPercentiles,
    /// The window's complete [`SLICE`]s, in time order.
    pub slices: Vec<Slice>,
    /// Full records of the kept frames, in delivery order.
    pub kept: Vec<Delivery>,
    keep_all: bool,
    limit_ns: u64,
    open: Option<Mark>,
    next_slice: Instant,
}

impl Log {
    fn new(keep_all: bool, limit: Option<Duration>, start: Instant) -> Self {
        Log {
            delivered: 0,
            misses: 0,
            ok_payloads: 0,
            timed: 0,
            timed_ok_payloads: 0,
            on_time: 0,
            latency: BlockPercentiles::new(LATENCY_BLOCK, &LATENCY_QS),
            slices: Vec::new(),
            kept: Vec::new(),
            keep_all,
            limit_ns: limit.map_or(u64::MAX, |l| l.as_nanos() as u64),
            open: None,
            next_slice: start,
        }
    }

    /// Closes the open slice at `at` and opens the next one there.
    fn cut(&mut self, at: Instant) {
        let cpu = process_cpu_seconds();
        if let Some(m) = self.open.take() {
            self.slices.push(Slice {
                seconds: at.duration_since(m.at).as_secs_f64(),
                cpu_seconds: cpu - m.cpu,
                frames: self.timed - m.frames,
                ok_payloads: self.timed_ok_payloads - m.ok_payloads,
            });
        }
        self.open = Some(Mark { at, cpu, frames: self.timed, ok_payloads: self.timed_ok_payloads });
        while self.next_slice <= at {
            self.next_slice += SLICE;
        }
    }

    fn push(&mut self, d: Delivery) {
        let ok = u64::from(d.ok_mask.count_ones());
        self.delivered += 1;
        self.misses += u64::from(d.missed_deadline);
        self.ok_payloads += ok;
        self.on_time += u64::from(d.latency_ns <= self.limit_ns);
        if d.in_window {
            if d.recv_at >= self.next_slice {
                self.cut(d.recv_at);
            }
            self.timed += 1;
            self.timed_ok_payloads += ok;
            self.latency.push(d.latency_ns as f64 / 1e6);
        }
        if self.keep_all || d.index < KEEP_LEADING || d.index.is_multiple_of(CHECK_STRIDE) {
            self.kept.push(d);
        }
    }
}

/// An admitted frame awaiting delivery.
struct Pending {
    index: u64,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// Per-client delivery bookkeeping: the sequence number each lane must
/// deliver next and its admitted, undelivered frames in admission order.
/// Every completion is matched here, which is what checks strict
/// per-client ordering.
pub struct Lanes {
    next_seq: Vec<u64>,
    pending: Vec<VecDeque<Pending>>,
}

impl Lanes {
    fn new() -> Self {
        let n = stream_config().clients;
        Lanes { next_seq: vec![0; n], pending: (0..n).map(|_| VecDeque::new()).collect() }
    }

    fn admitted(&mut self, client: usize, p: Pending) {
        self.pending[client].push_back(p);
    }

    fn has_pending(&self, client: usize) -> bool {
        !self.pending[client].is_empty()
    }

    /// Matches a completion to the oldest admitted frame of its lane,
    /// requiring the lane's next sequence number.
    fn take(&mut self, done: &Completed<'_>) -> Result<Pending, String> {
        let c = done.client();
        if done.seq() != self.next_seq[c] {
            return Err(format!(
                "client {c}: delivered seq {} but seq {} was due",
                done.seq(),
                self.next_seq[c]
            ));
        }
        self.next_seq[c] += 1;
        self.pending[c]
            .pop_front()
            .ok_or_else(|| format!("client {c}: delivery of seq {} was never admitted", done.seq()))
    }
}

fn record(done: &Completed<'_>, p: &Pending, now: Instant, in_window: bool) -> Delivery {
    let out = done.outcome();
    let ns = |d: Duration| d.as_nanos() as u64;
    Delivery {
        index: p.index,
        client: done.client(),
        seq: done.seq(),
        recv_at: now,
        ok_mask: ok_mask(out),
        stats: out.stats,
        detections: out.detections,
        missed_deadline: done.missed_deadline(),
        latency_ns: ns(now.duration_since(p.due)),
        inflight_ns: ns(now.duration_since(p.submit_end)),
        submit_ns: ns(p.submit_end.duration_since(p.submit_start)),
        in_window,
    }
}

/// A stream that has been built and warmed up.
pub struct Ready {
    /// The stream.
    pub stream: FrameStream,
    /// Its lane bookkeeping, past the warm-up frames.
    pub lanes: Lanes,
    /// Seconds of construction plus warm-up.
    pub setup_s: f64,
}

/// Builds and warms a stream, timing it. Input synthesis happened before
/// and is not included.
pub fn setup(w: &Workload, inputs: &Inputs) -> Result<Ready, String> {
    let t0 = Instant::now();
    let stream = FrameStream::new(w.cfg, geosphere_decoder(), stream_config());
    let mut lanes = Lanes::new();
    warm_up(&stream, w, inputs, &mut lanes)?;
    Ok(Ready { stream, lanes, setup_s: t0.elapsed().as_secs_f64() })
}

/// Rounds of warm-up; each fills the whole window at once, so every slot
/// (and its `FrameWorkspace`) and both detection workers have grown to the
/// frame shape before timing starts.
const WARMUP_ROUNDS: u64 = 2;

fn warm_up(
    stream: &FrameStream,
    w: &Workload,
    inputs: &Inputs,
    lanes: &mut Lanes,
) -> Result<(), String> {
    for round in 0..WARMUP_ROUNDS {
        for j in 0..CAPACITY as u64 {
            let (index, frame) = inputs.warmup_uplink(w, round * CAPACITY as u64 + j);
            let client = frame.client;
            let now = Instant::now();
            stream
                .try_submit(frame)
                .map_err(|_| "warm-up: a free slot refused a frame".to_string())?;
            lanes.admitted(client, Pending { index, due: now, submit_start: now, submit_end: now });
        }
        for _ in 0..CAPACITY {
            let done = stream.recv().map_err(|e| format!("warm-up: {e}"))?;
            lanes.take(&done)?;
        }
    }
    Ok(())
}

/// One timed window and everything needed to check and report it.
pub struct Window {
    /// When the window started.
    pub start: Instant,
    /// The window's deliveries.
    pub log: Log,
    /// Frames offered to the stream.
    pub offered: u64,
    /// Frames the stream admitted.
    pub admitted: u64,
    /// Frames refused admission (`try_submit` found no free slot).
    pub refused: u64,
    /// Wall seconds of the timed window.
    pub seconds: f64,
    /// Process CPU seconds over the timed window.
    pub cpu_seconds: f64,
    /// Generator lateness per submitted frame, ns: a paced frame's actual
    /// submit instant − its due instant; in a closed loop, the delivery
    /// that freed the slot → the next submit.
    pub lag_ns: Vec<u64>,
    /// Stream counters at the start of the window.
    pub stats_before: RuntimeStats,
    /// Stream counters once every admitted frame was delivered.
    pub stats_after: RuntimeStats,
    /// Telemetry samples (traced runs only).
    pub telemetry: Vec<TelemetrySample>,
    /// Ordering or liveness violations seen while driving.
    pub errors: Vec<String>,
}

/// One 10 Hz telemetry sample: a `stats()` snapshot rendered as a
/// Prometheus exposition.
#[derive(Clone, Copy, Debug)]
pub struct TelemetrySample {
    /// `stats()` + `render_runtime_stats` wall time, µs.
    pub render_us: f64,
    /// Exposition size in bytes.
    pub bytes: usize,
    /// Slot-pool occupancy at the snapshot.
    pub occupancy: f64,
}

const TELEMETRY_PERIOD: Duration = Duration::from_millis(100);

/// Samples the stream's telemetry at 10 Hz until `stop` is raised.
fn sample_telemetry(stream: &FrameStream, stop: &AtomicBool) -> Vec<TelemetrySample> {
    let mut out = Vec::new();
    let mut next = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let t0 = Instant::now();
        let stats = stream.stats();
        let text = gs_telemetry::render_runtime_stats(&stats);
        let render_us = t0.elapsed().as_secs_f64() * 1e6;
        out.push(TelemetrySample { render_us, bytes: text.len(), occupancy: stats.occupancy() });
        next += TELEMETRY_PERIOD;
        if let Some(d) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
    }
    out
}

/// Runs `window` with, when `traced`, the telemetry sampler beside it.
fn with_telemetry(stream: &FrameStream, traced: bool, window: impl FnOnce() -> Window) -> Window {
    if !traced {
        return window();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_telemetry(stream, &stop));
        let mut w = window();
        stop.store(true, Ordering::Release);
        w.telemetry = sampler.join().expect("telemetry sampler panicked");
        w
    })
}

/// Runs the workload's timed window on a warmed stream: the closed loop
/// for `seconds`, or the whole paced schedule. Timed frames are indexed
/// from `first_index`.
pub fn run_window(
    ready: &mut Ready,
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    first_index: u64,
    traced: bool,
) -> Window {
    let Ready { stream, lanes, .. } = ready;
    let stream = &*stream;
    with_telemetry(stream, traced, || match w.arrivals {
        Arrivals::Closed => run_closed(stream, lanes, w, inputs, seconds, first_index, traced),
        Arrivals::Poisson { limit, .. } => {
            run_paced(stream, lanes, w, inputs, limit, traced, &|_| {})
        }
    })
}

/// The closed loop: `CAPACITY` frames in flight, a new one submitted from
/// this thread each time a delivery frees a slot, for `seconds`; then the
/// in-flight tail drains untimed.
fn run_closed(
    stream: &FrameStream,
    lanes: &mut Lanes,
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    first_index: u64,
    traced: bool,
) -> Window {
    let stats_before = stream.stats();
    let mut errors = Vec::new();
    let mut lag_ns = Vec::new();
    let mut next = first_index;
    let mut in_flight = 0usize;
    let mut admitted = 0u64;

    let submit = |lanes: &mut Lanes, next: &mut u64| -> bool {
        let spec = inputs.frame(*next);
        *next += 1;
        let submit_start = Instant::now();
        let ok = stream.submit(inputs.uplink(w, &spec, None)).is_ok();
        let submit_end = Instant::now();
        if ok {
            lanes.admitted(
                spec.client,
                Pending { index: spec.index, due: submit_start, submit_start, submit_end },
            );
        }
        ok
    };

    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let mut log = Log::new(traced, None, t0);
    let stop = t0 + Duration::from_secs_f64(seconds);
    let mut window_end: Option<(Instant, f64)> = None;
    for _ in 0..CAPACITY {
        if submit(lanes, &mut next) {
            admitted += 1;
            in_flight += 1;
        }
    }
    while in_flight > 0 {
        let Ok(done) = stream.recv() else {
            errors.push("stream died during the window".into());
            break;
        };
        let now = Instant::now();
        in_flight -= 1;
        let p = match lanes.take(&done) {
            Ok(p) => p,
            Err(e) => {
                errors.push(e);
                break;
            }
        };
        log.push(record(&done, &p, now, window_end.is_none()));
        drop(done);
        if window_end.is_some() {
            continue;
        }
        if now < stop {
            let before = Instant::now();
            if submit(lanes, &mut next) {
                admitted += 1;
                in_flight += 1;
            }
            lag_ns.push(before.duration_since(now).as_nanos() as u64);
        } else {
            window_end = Some((now, process_cpu_seconds()));
        }
    }
    let (end, cpu1) = window_end.unwrap_or_else(|| (Instant::now(), process_cpu_seconds()));
    let offered = next - first_index;
    Window {
        start: t0,
        log,
        offered,
        admitted,
        refused: 0,
        seconds: end.duration_since(t0).as_secs_f64(),
        cpu_seconds: cpu1 - cpu0,
        lag_ns,
        stats_before,
        stats_after: settled_stats(stream),
        telemetry: Vec::new(),
        errors,
    }
}

/// The paced open loop over the whole schedule, on two threads: a pacer
/// that sleeps until each frame is due and `try_submit`s it with deadline
/// `due + limit` (a refusal is counted, never retried), and a receiver
/// blocked in `recv`. The pacer tells the receiver about each admission,
/// so the receiver only waits for frames that will arrive. `before_submit`
/// runs just before each frame is submitted (tests inject stalls there).
pub fn run_paced(
    stream: &FrameStream,
    lanes: &mut Lanes,
    w: &Workload,
    inputs: &Inputs,
    limit: Duration,
    traced: bool,
    before_submit: &(dyn Fn(u64) + Sync),
) -> Window {
    let stats_before = stream.stats();
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, Pending)>();
    let ((lag_ns, admitted, refused), (log, mut errors, end)) = std::thread::scope(|s| {
        let pacer = s.spawn(move || {
            let (mut lags, mut admitted, mut refused) = (Vec::new(), 0u64, 0u64);
            for (k, &(offset, _)) in inputs.arrivals.iter().enumerate() {
                let due = t0 + offset;
                if let Some(d) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(d);
                }
                before_submit(k as u64);
                let spec = inputs.frame(k as u64);
                let submit_start = Instant::now();
                lags.push(submit_start.duration_since(due).as_nanos() as u64);
                match stream.try_submit(inputs.uplink(w, &spec, Some(due + limit))) {
                    Ok(()) => {
                        admitted += 1;
                        let p = Pending {
                            index: spec.index,
                            due,
                            submit_start,
                            submit_end: Instant::now(),
                        };
                        // A receiver that stopped on an error stops the pacing.
                        if tx.send((spec.client, p)).is_err() {
                            break;
                        }
                    }
                    Err(TrySubmitError::Full(_)) => refused += 1,
                    Err(TrySubmitError::Dead(_)) => break,
                }
            }
            (lags, admitted, refused)
        });
        let receiver = s.spawn(move || {
            let (mut log, mut errors) = (Log::new(traced, Some(limit), t0), Vec::new());
            let mut outstanding = 0usize;
            loop {
                if outstanding == 0 {
                    match rx.recv() {
                        Ok((c, p)) => {
                            lanes.admitted(c, p);
                            outstanding += 1;
                        }
                        Err(_) => break,
                    }
                }
                let Ok(done) = stream.recv() else {
                    errors.push("stream died during the window".to_string());
                    break;
                };
                let now = Instant::now();
                // The pacer may not have posted this admission yet.
                while !lanes.has_pending(done.client()) {
                    let Ok((c, p)) = rx.recv() else { break };
                    lanes.admitted(c, p);
                    outstanding += 1;
                }
                match lanes.take(&done) {
                    Ok(p) => log.push(record(&done, &p, now, true)),
                    Err(e) => {
                        errors.push(e);
                        break;
                    }
                }
                outstanding -= 1;
            }
            (log, errors, Instant::now())
        });
        (pacer.join().expect("pacer panicked"), receiver.join().expect("receiver panicked"))
    });
    let cpu1 = process_cpu_seconds();
    if lag_ns.len() < inputs.arrivals.len() {
        errors.push("stream died before the schedule ended".into());
    }
    Window {
        start: t0,
        log,
        offered: inputs.arrivals.len() as u64,
        admitted,
        refused,
        seconds: end.duration_since(t0).as_secs_f64(),
        cpu_seconds: cpu1 - cpu0,
        lag_ns,
        stats_before,
        stats_after: settled_stats(stream),
        telemetry: Vec::new(),
        errors,
    }
}

/// A stats snapshot once the runtime's counters cover every delivery.
/// The recovery thread bumps `completed` just after queueing a completion,
/// so a snapshot taken the instant the last frame is received can trail
/// by one; wait (bounded) for the counters to settle.
fn settled_stats(stream: &FrameStream) -> RuntimeStats {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let s = stream.stats();
        if s.completed == s.submitted || Instant::now() >= deadline {
            return s;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Accounting cross-checks of a finished window: every admitted frame was
/// delivered, and the generator's own counts of admissions, completions
/// and deadline misses equal the runtime's counter deltas.
pub fn accounting_errors(win: &Window) -> Vec<String> {
    let mut errs = Vec::new();
    let (a, b) = (&win.stats_before, &win.stats_after);
    let (delivered, misses) = (win.log.delivered, win.log.misses);
    if win.admitted != delivered {
        errs.push(format!("{} frames admitted but {delivered} delivered", win.admitted));
    }
    if win.admitted + win.refused != win.offered {
        errs.push(format!(
            "{} offered but {} admitted + {} refused",
            win.offered, win.admitted, win.refused
        ));
    }
    for (what, ours, theirs) in [
        ("admissions", win.admitted, b.submitted - a.submitted),
        ("completions", delivered, b.completed - a.completed),
        ("deadline misses", misses, b.deadline_misses - a.deadline_misses),
    ] {
        if ours != theirs {
            errs.push(format!("{what}: generator counted {ours}, RuntimeStats delta {theirs}"));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use crate::workload::{Fading, CLIENTS};
    use gs_modulation::Constellation;
    use gs_phy::PhyConfig;

    const LIMIT: Duration = Duration::from_millis(20);
    const STALL: Duration = Duration::from_millis(60);

    /// A tiny paced workload: 40 short QPSK frames at 400 frames/s.
    fn tiny() -> (Workload, Inputs) {
        let w = Workload {
            name: "tiny_paced",
            cfg: PhyConfig { payload_bits: 64, ..PhyConfig::new(Constellation::Qpsk) },
            snr_db: 30.0,
            fading: Fading::Flat,
            pool_size: 4,
            arrivals: Arrivals::Poisson { rate_hz: 400.0, limit: LIMIT },
            layer_frames: 8,
        };
        let mut inputs = Inputs::generate(&w, 5, 0.1);
        inputs.arrivals.truncate(40);
        (w, inputs)
    }

    fn ms(samples: impl Iterator<Item = u64>, q: f64) -> f64 {
        let mut v: Vec<f64> = samples.map(|ns| ns as f64 / 1e6).collect();
        percentile(&mut v, q).unwrap().value
    }

    fn paced(stall_at: Option<u64>) -> Window {
        let (w, inputs) = tiny();
        let mut ready = setup(&w, &inputs).unwrap();
        let stall = |k: u64| {
            if Some(k) == stall_at {
                std::thread::sleep(STALL);
            }
        };
        let win = run_paced(&ready.stream, &mut ready.lanes, &w, &inputs, LIMIT, true, &stall);
        assert!(win.errors.is_empty(), "{:?}", win.errors);
        assert!(accounting_errors(&win).is_empty(), "{:?}", accounting_errors(&win));
        win
    }

    #[test]
    fn a_stall_before_submission_counts_in_latency_and_generator_lag() {
        let stalled = paced(Some(20));
        let p99 = ms(stalled.log.kept.iter().map(|d| d.latency_ns), 0.99);
        let lag = ms(stalled.lag_ns.iter().copied(), 0.99);
        // The stalled frame was submitted ~60 ms after it was due; timing
        // from submission would hide that, timing from due cannot.
        assert!(p99 >= 55.0, "latency p99 {p99} ms misses the stall");
        assert!(lag >= 55.0, "generator lag p99 {lag} ms misses the stall");
        let inflight = ms(stalled.log.kept.iter().map(|d| d.inflight_ns), 0.99);
        assert!(inflight < p99, "in-flight time {inflight} ms excludes the wait");

        let calm = paced(None);
        let p99 = ms(calm.log.kept.iter().map(|d| d.latency_ns), 0.99);
        assert!(p99 < 55.0, "without a stall latency p99 is {p99} ms");
    }

    #[test]
    fn every_admitted_frame_is_delivered_in_lane_order() {
        let (w, inputs) = tiny();
        let w = Workload { arrivals: Arrivals::Closed, ..w };
        let mut ready = setup(&w, &inputs).unwrap();
        assert!(ready.setup_s > 0.0);
        let win = run_window(&mut ready, &w, &inputs, 0.2, 0, true);
        assert!(win.errors.is_empty(), "{:?}", win.errors);
        assert!(accounting_errors(&win).is_empty(), "{:?}", accounting_errors(&win));
        assert!(!win.telemetry.is_empty(), "traced windows sample telemetry");
        let mut last = [None; CLIENTS];
        for d in &win.log.kept {
            assert!(
                last[d.client].is_none_or(|s| d.seq == s + 1),
                "lane {} out of order",
                d.client
            );
            last[d.client] = Some(d.seq);
        }
        let mut idx: Vec<u64> = win.log.kept.iter().map(|d| d.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..win.offered).collect::<Vec<_>>());

        // A 2.5 s window has two complete one-second slices; the open third
        // one is left out.
        let win = run_window(&mut ready, &w, &inputs, 2.5, win.offered, false);
        assert!(win.errors.is_empty(), "{:?}", win.errors);
        let slices = &win.log.slices;
        assert_eq!(slices.len(), 2, "{slices:?}");
        assert!(slices.iter().all(|s| (0.9..1.5).contains(&s.seconds) && s.frames > 0));
        assert!(slices.iter().map(|s| s.frames).sum::<u64>() < win.log.timed);
    }
}

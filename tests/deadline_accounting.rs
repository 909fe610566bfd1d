//! Deadline-miss accounting for the streaming runtime.
//!
//! Two suites:
//!
//! * **Property suite** (`deadline_miss_accounting_matches_completions`):
//!   randomized scenarios over adversarial deadline assignments — no
//!   deadline, deadlines *before the stream epoch* (the
//!   `unwrap_or_default` branch of the EDF `deadline_key`, which
//!   saturates to the highest priority), already-expired deadlines, far
//!   futures, and deadlines so distant the nanosecond key saturates at
//!   `NO_DEADLINE - 1` (always at least two, so the saturated keys tie in
//!   the shard heap). For every scenario, the per-completion
//!   [`Completed::missed_deadline`](gs_runtime::Completed::missed_deadline)
//!   flags must agree with ground truth and their sum must equal
//!   [`RuntimeStats::deadline_misses`](gs_runtime::RuntimeStats::deadline_misses).
//!
//! * **Parking regression** (`frame_held_in_parking_ring_past_deadline_is_a_miss`):
//!   a deterministic schedule where a frame *finishes recovery before its
//!   deadline* but sits in the per-client parking ring (waiting for a slow
//!   predecessor) until after it. Misses are accounted at **delivery** —
//!   the point the frame becomes observable — so this frame must count.
//!   Under the old recovery-time accounting it silently did not.

use geosphere_core::{Detection, DetectorLadder, DetectorTier, MimoDetector, ZfDetector};
use gs_channel::{ChannelModel, MimoChannel, RayleighChannel};
use gs_linalg::{Complex, Matrix};
use gs_modulation::Constellation;
use gs_phy::PhyConfig;
use gs_runtime::{AdaptationPolicy, FrameStream, PressureSignal, StreamConfig, UplinkFrame};
use proptest::strategy::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a frame's deadline is chosen, and the ground-truth verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeadlineKind {
    /// No deadline: never a miss.
    None,
    /// Before the stream epoch: EDF key saturates to `0`
    /// (`checked_duration_since` fails, `unwrap_or_default`), and the
    /// frame is late the moment it is delivered.
    PreEpoch,
    /// Already expired at submission: always a miss.
    Expired,
    /// An hour out: never a miss.
    FarFuture,
    /// So distant the nanosecond EDF key saturates at `NO_DEADLINE - 1`;
    /// never a miss. At least two per scenario so saturated keys tie.
    Saturating,
}

impl DeadlineKind {
    fn expect_miss(self) -> bool {
        matches!(self, DeadlineKind::PreEpoch | DeadlineKind::Expired)
    }

    /// The concrete deadline, given an instant known to precede the
    /// stream's epoch.
    fn deadline(self, pre_epoch: Instant) -> Option<Instant> {
        match self {
            DeadlineKind::None => None,
            DeadlineKind::PreEpoch => Some(pre_epoch),
            DeadlineKind::Expired => Some(Instant::now()),
            DeadlineKind::FarFuture => Some(Instant::now() + Duration::from_secs(3_600)),
            // ~6.3e11 years of nanoseconds: overflows u64 nanos, so the
            // EDF key clamps to `NO_DEADLINE - 1`.
            DeadlineKind::Saturating => Some(Instant::now() + Duration::from_secs(20_000_000_000)),
        }
    }
}

const KINDS: [DeadlineKind; 5] = [
    DeadlineKind::None,
    DeadlineKind::PreEpoch,
    DeadlineKind::Expired,
    DeadlineKind::FarFuture,
    DeadlineKind::Saturating,
];

#[derive(Debug)]
struct Scenario {
    clients: usize,
    frames_per_client: usize,
    workers: usize,
    shards: usize,
    capacity: usize,
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (1usize..4, 2usize..5, 1usize..4, 1usize..3, 0u64..1_000_000).prop_map(
        |(clients, frames_per_client, workers, shards, seed)| Scenario {
            clients,
            frames_per_client,
            workers,
            shards,
            capacity: 2 + (seed % 3) as usize,
            seed,
        },
    )
}

fn check_deadline_accounting(sc: &Scenario) {
    let cfg = PhyConfig { payload_bits: 128, ..PhyConfig::new(Constellation::Qam16) };
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let channel = Arc::new(RayleighChannel::new(4, 2).realize(&mut rng));

    // Captured before the stream exists, hence before its epoch.
    let pre_epoch = Instant::now();

    let mut stream_sc = StreamConfig::new(sc.clients);
    stream_sc.workers = sc.workers;
    stream_sc.shards = sc.shards;
    stream_sc.capacity = sc.capacity;
    let stream = FrameStream::new(cfg, ZfDetector, stream_sc);

    // Deadline kinds: a mandatory prefix guarantees both saturation ties
    // and both miss kinds appear, the rest are random; then shuffled.
    let total = sc.clients * sc.frames_per_client;
    let mut kinds: Vec<DeadlineKind> = vec![DeadlineKind::Saturating, DeadlineKind::Saturating];
    kinds.extend([DeadlineKind::PreEpoch, DeadlineKind::Expired, DeadlineKind::FarFuture]);
    kinds.truncate(total);
    while kinds.len() < total {
        kinds.push(KINDS[rng.gen_range(0..KINDS.len())]);
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.gen_range(0..i + 1));
    }

    // Per-client frame queues in submission order, remembering each
    // frame's kind for the per-completion check.
    let mut per_client_kinds: Vec<Vec<DeadlineKind>> = vec![Vec::new(); sc.clients];
    let mut per_client: Vec<VecDeque<UplinkFrame>> = vec![VecDeque::new(); sc.clients];
    for (i, &kind) in kinds.iter().enumerate() {
        let client = i % sc.clients;
        let mut f = UplinkFrame::new(client, Arc::clone(&channel), 20.0, sc.seed ^ (i as u64));
        f.deadline = kind.deadline(pre_epoch);
        per_client_kinds[client].push(kind);
        per_client[client].push_back(f);
    }
    let expected_misses = kinds.iter().filter(|k| k.expect_miss()).count() as u64;

    // Adversarial interleaving: a submitter thread drains the per-client
    // queues in random order while the main thread receives.
    let mut schedule: Vec<UplinkFrame> = Vec::new();
    while schedule.len() < total {
        let candidates: Vec<usize> =
            (0..sc.clients).filter(|&c| !per_client[c].is_empty()).collect();
        let c = candidates[rng.gen_range(0..candidates.len())];
        schedule.push(per_client[c].pop_front().unwrap());
    }

    let mut seen: Vec<usize> = vec![0; sc.clients];
    let mut observed_misses = 0u64;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for f in &schedule {
                stream.submit(f.clone()).expect("stream died mid-submit");
            }
        });
        for _ in 0..total {
            let done = stream.recv().expect("stream died mid-drain");
            let client = done.client();
            assert_eq!(done.seq() as usize, seen[client], "{sc:?}: client {client} out of order");
            let kind = per_client_kinds[client][seen[client]];
            assert_eq!(
                done.missed_deadline(),
                kind.expect_miss(),
                "{sc:?}: client {client} seq {} kind {kind:?} mis-flagged",
                seen[client],
            );
            observed_misses += u64::from(done.missed_deadline());
            seen[client] += 1;
        }
    });

    let stats = stream.stats();
    assert_eq!(stats.deadline_misses, expected_misses, "{sc:?}: counter diverges from truth");
    assert_eq!(stats.deadline_misses, observed_misses, "{sc:?}: counter diverges from flags");
    assert_eq!(stats.submitted, total as u64, "{sc:?}");
    assert_eq!(stats.completed, total as u64, "{sc:?}");
    assert_eq!(stats.in_flight, 0, "{sc:?}: all slots released");
}

#[test]
fn deadline_miss_accounting_matches_completions() {
    let strat = scenario_strategy();
    let mut rng = StdRng::seed_from_u64(0xDEAD_11E5);
    for case in 0..8 {
        let sc = strat.sample(&mut rng);
        eprintln!("deadline_accounting case {case}: {sc:?}");
        check_deadline_accounting(&sc);
    }
}

// ---------------------------------------------------------------------------
// Parking-ring regression
// ---------------------------------------------------------------------------

/// A detector whose every `detect` blocks until its gate opens, then
/// delegates to zero-forcing — a deterministic way to hold one frame in
/// the detect stage for as long as the test wants.
struct GateDetector {
    gate: Arc<(Mutex<bool>, Condvar)>,
    inner: ZfDetector,
}

impl GateDetector {
    fn new() -> (Self, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        (GateDetector { gate: Arc::clone(&gate), inner: ZfDetector }, gate)
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cvar) = &**gate;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
}

impl MimoDetector for GateDetector {
    fn detect(&self, h: &Matrix, y: &[Complex], c: Constellation) -> Detection {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        drop(open);
        self.inner.detect(h, y, c)
    }

    fn name(&self) -> &'static str {
        "gated-ZF"
    }
}

/// Replays a fixed tier per admission — the test's way of routing each
/// frame to a chosen ladder rung (and thus a chosen gate).
struct ScriptedPolicy {
    script: VecDeque<DetectorTier>,
}

impl AdaptationPolicy for ScriptedPolicy {
    fn select_tier(&mut self, _signal: &PressureSignal) -> DetectorTier {
        self.script.pop_front().unwrap_or_default()
    }
}

/// The schedule (one worker, one shard, so detection order is the EDF
/// order):
///
/// * `G` (client 1, no deadline, tier `Sphere` → gate `g`) occupies the
///   only worker.
/// * `A0` (client 0 seq 0, no deadline, tier `Fsd` → gate `a`) queues.
/// * `A1` (client 0 seq 1, deadline +50 ms, tier `Mmse` → plain ZF)
///   queues behind it, but its deadline key beats `A0`'s `NO_DEADLINE`.
///
/// Opening `g` frees the worker; EDF picks `A1`, which detects and
/// recovers *well before its deadline* — then parks, because `A0` hasn't
/// delivered. The test sleeps past the deadline before opening `a`, so
/// `A1` is delivered late. Delivery-time accounting must flag it.
#[test]
fn frame_held_in_parking_ring_past_deadline_is_a_miss() {
    let cfg = PhyConfig { payload_bits: 128, ..PhyConfig::new(Constellation::Qam16) };
    let mut rng = StdRng::seed_from_u64(0x9A4C);
    let channel: Arc<MimoChannel> = Arc::new(RayleighChannel::new(4, 2).realize(&mut rng));

    let (gate_g, g) = GateDetector::new();
    let (gate_a, a) = GateDetector::new();
    let ladder = DetectorLadder::new(Arc::new(gate_g), Arc::new(gate_a), Arc::new(ZfDetector));
    let policy = ScriptedPolicy {
        script: VecDeque::from([DetectorTier::Sphere, DetectorTier::Fsd, DetectorTier::Mmse]),
    };

    let mut sc = StreamConfig::new(2);
    sc.workers = 1;
    sc.shards = 1;
    sc.capacity = 3;
    let stream = FrameStream::adaptive(cfg, ladder, policy, sc);

    let frame_g = UplinkFrame::new(1, Arc::clone(&channel), 20.0, 100);
    let frame_a0 = UplinkFrame::new(0, Arc::clone(&channel), 20.0, 200);
    let mut frame_a1 = UplinkFrame::new(0, Arc::clone(&channel), 20.0, 300);
    let deadline = Instant::now() + Duration::from_millis(50);
    frame_a1.deadline = Some(deadline);

    stream.submit(frame_g).expect("submit G");
    stream.submit(frame_a0).expect("submit A0");
    stream.submit(frame_a1).expect("submit A1");

    // Let A0's and A1's home tasks (each plans its own frame when it runs)
    // queue behind the gated worker, then free it: EDF runs A1 (deadline
    // beats A0's NO_DEADLINE key), which recovers quickly and parks behind
    // the still-gated A0.
    std::thread::sleep(Duration::from_millis(20));
    open_gate(&g);

    let done_g = stream.recv().expect("recv G");
    assert_eq!(done_g.client(), 1);
    assert_eq!(done_g.tier(), DetectorTier::Sphere);
    assert!(!done_g.missed_deadline(), "G has no deadline");
    drop(done_g);

    // Sleep past A1's deadline while it sits parked, then release A0.
    let past = deadline + Duration::from_millis(30);
    let now = Instant::now();
    if past > now {
        std::thread::sleep(past - now);
    }
    open_gate(&a);

    let done_a0 = stream.recv().expect("recv A0");
    assert_eq!((done_a0.client(), done_a0.seq()), (0, 0));
    assert_eq!(done_a0.tier(), DetectorTier::Fsd);
    assert!(!done_a0.missed_deadline(), "A0 has no deadline");
    drop(done_a0);

    let done_a1 = stream.recv().expect("recv A1");
    assert_eq!((done_a1.client(), done_a1.seq()), (0, 1));
    assert_eq!(done_a1.tier(), DetectorTier::Mmse);
    assert!(
        done_a1.missed_deadline(),
        "A1 was delivered after its deadline (held parked) and must be accounted a miss"
    );
    drop(done_a1);

    let stats = stream.stats();
    assert_eq!(stats.deadline_misses, 1, "exactly the parked frame misses");
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.in_flight, 0);
}

//! Integration tests for the beyond-the-paper extensions: soft output,
//! iterative reception, distributed MIMO and precoding — each exercised
//! across crate boundaries.

use geosphere::channel::{ChannelModel, RayleighChannel, Testbed};
use geosphere::core::{SoftGeosphereDetector, VectorPerturbationPrecoder};
use geosphere::modulation::{BitTable, Constellation};
use geosphere::phy::{
    measure, uplink_frame_iterative_into, uplink_frame_soft_into, FrameWorkspace, PhyConfig,
};
use geosphere::sim::{DetectorKind, DistributedChannel, DistributedCluster};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(c: Constellation) -> PhyConfig {
    PhyConfig { payload_bits: 512, ..PhyConfig::new(c) }
}

#[test]
fn soft_detection_llrs_decode_through_the_full_chain() {
    let mut rng = StdRng::seed_from_u64(3001);
    let ch = RayleighChannel::new(4, 2).realize(&mut rng);
    let mut ws = FrameWorkspace::new();
    let out = uplink_frame_soft_into(&cfg(Constellation::Qam16), &ch, 30.0, &mut rng, &mut ws);
    assert!(out.client_ok.iter().all(|&ok| ok));
    assert!(out.stats.ped_calcs > 0);
}

#[test]
fn soft_detector_agrees_with_transmitted_bits() {
    let mut rng = StdRng::seed_from_u64(3002);
    let c = Constellation::Qam16;
    let h = RayleighChannel::new(3, 2).sample_matrix(&mut rng).scale(c.scale());
    let pts = c.points();
    let s: Vec<_> = (0..2).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
    let y = geosphere::core::apply_channel(&h, &s);
    let det = SoftGeosphereDetector::new(1e-4);
    let soft = det.detect_soft(&h, &y, c);
    let table = BitTable::new(c);
    let bits: Vec<bool> =
        s.iter().flat_map(|&p| (0..4).rev().map(move |k| table.packed(p) >> k & 1 == 1)).collect();
    for (l, b) in soft.llrs.iter().zip(&bits) {
        assert_eq!(*l < 0.0, *b, "noiseless LLR signs must match the data");
    }
}

#[test]
fn turbo_iterations_never_hurt() {
    let model = RayleighChannel::new(4, 4);
    let mut ws = FrameWorkspace::new();
    let mut ok_after = |iterations: usize, t: u64| {
        let mut rng = StdRng::seed_from_u64(3100 + t);
        let ch = model.realize(&mut rng);
        let cfg = cfg(Constellation::Qam16);
        uplink_frame_iterative_into(&cfg, &ch, 13.0, iterations, &mut rng, &mut ws)
            .client_ok
            .iter()
            .filter(|&&ok| ok)
            .count()
    };
    let mut one = 0usize;
    let mut two = 0usize;
    for t in 0..6 {
        one += ok_after(1, t);
        two += ok_after(2, t);
    }
    assert!(two >= one, "2-iteration turbo ({two}) must not lose to 1 ({one})");
}

#[test]
fn distributed_cluster_beats_single_ap_fer() {
    let tb = Testbed::office();
    let clients = vec![4usize, 6, 7, 9];
    let single = DistributedChannel::new(
        tb.clone(),
        DistributedCluster::synchronized(vec![2], 4),
        clients.clone(),
    );
    let joint =
        DistributedChannel::new(tb, DistributedCluster::synchronized(vec![0, 2], 4), clients);
    let det = DetectorKind::Geosphere.build(16.0);
    let cfg = cfg(Constellation::Qam16);
    let mut ws = FrameWorkspace::new();
    let mut rng = StdRng::seed_from_u64(3201);
    let m_single = measure(&cfg, &single, &*det, 16.0, 5, &mut rng, &mut ws);
    let mut rng = StdRng::seed_from_u64(3201);
    let m_joint = measure(&cfg, &joint, &*det, 16.0, 5, &mut rng, &mut ws);
    assert!(m_joint.fer <= m_single.fer, "joint {} vs single {}", m_joint.fer, m_single.fer);
}

#[test]
fn precoder_and_uplink_share_grid_conventions() {
    // The downlink precoder and uplink decoder must agree on constellation
    // geometry: precode, pass through the channel, slice mod-τ.
    let mut rng = StdRng::seed_from_u64(3301);
    let c = Constellation::Qam64;
    for _ in 0..10 {
        let h = RayleighChannel::new(3, 3).sample_matrix(&mut rng);
        let pre = VectorPerturbationPrecoder::new(&h, c).unwrap();
        let pts = c.points();
        let s: Vec<_> = (0..3).map(|_| pts[rng.gen_range(0..pts.len())]).collect();
        let p = pre.precode(&s);
        let rx = h.mul_vec(&p.x);
        for (k, &want) in s.iter().enumerate() {
            assert_eq!(pre.demodulate(rx[k] / p.gamma.sqrt(), p.gamma, c), want);
        }
    }
}

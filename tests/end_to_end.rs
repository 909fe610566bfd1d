//! End-to-end integration tests spanning the whole stack: channel models →
//! PHY chain → detectors → frame verification, checking the paper's
//! qualitative claims at smoke-test scale.

use geosphere::channel::{ChannelModel, RayleighChannel, Testbed};
use geosphere::core::{ethsd_decoder, geosphere_decoder, MimoDetector, ZfDetector};
use geosphere::modulation::Constellation;
use geosphere::phy::{decode_frame_batched_into, measure, FrameWorkspace, PhyConfig};
use geosphere::sim::{select_groups, testbed_throughput, DetectorKind, ExperimentParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn cfg(c: Constellation) -> PhyConfig {
    PhyConfig { payload_bits: 512, ..PhyConfig::new(c) }
}

#[test]
fn frames_survive_good_channels_with_every_detector() {
    let mut rng = StdRng::seed_from_u64(2001);
    let model = RayleighChannel::new(4, 2);
    let ch = model.realize(&mut rng);
    let detectors: [Arc<dyn MimoDetector>; 3] =
        [Arc::new(ZfDetector), Arc::new(ethsd_decoder()), Arc::new(geosphere_decoder())];
    let mut ws = FrameWorkspace::new();
    for det in &detectors {
        let out = decode_frame_batched_into(
            &cfg(Constellation::Qam16),
            &ch,
            det.as_ref(),
            35.0,
            &mut rng,
            1,
            &mut ws,
        );
        assert!(out.client_ok.iter().all(|&ok| ok), "{} lost a frame at 35 dB", det.name());
    }
}

#[test]
fn geosphere_outperforms_zf_on_ill_conditioned_testbed() {
    // The paper's core throughput claim at integration-test scale.
    let tb = Testbed::office();
    let groups = select_groups(&tb, 4, 20.0, 5.0, 2);
    let cfg = cfg(Constellation::Qam16);
    let geosphere = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let mut zf_ok = 0usize;
    let mut geo_ok = 0usize;
    for (gi, g) in groups.iter().enumerate() {
        let model = tb.channel(g.ap, &g.clients, 4);
        let mut rng = StdRng::seed_from_u64(2002 + gi as u64);
        let zf = measure(&cfg, &model, &ZfDetector, 20.0, 5, &mut rng, &mut ws);
        let mut rng = StdRng::seed_from_u64(2002 + gi as u64);
        let geo = measure(&cfg, &model, &geosphere, 20.0, 5, &mut rng, &mut ws);
        zf_ok += ((1.0 - zf.fer) * 100.0) as usize;
        geo_ok += ((1.0 - geo.fer) * 100.0) as usize;
    }
    assert!(geo_ok >= zf_ok, "Geosphere success {geo_ok} must be at least ZF success {zf_ok}");
}

#[test]
fn complexity_ordering_holds_through_the_phy() {
    // Per-subcarrier PED averages through the full coded pipeline:
    // Geosphere < ETH-SD on dense constellations.
    let mut rng = StdRng::seed_from_u64(2003);
    let model = RayleighChannel::new(4, 4);
    let c = Constellation::Qam64;
    let mut ws = FrameWorkspace::new();
    let geo = measure(&cfg(c), &model, &geosphere_decoder(), 33.0, 3, &mut rng, &mut ws);
    let mut rng = StdRng::seed_from_u64(2003);
    let eth = measure(&cfg(c), &model, &ethsd_decoder(), 33.0, 3, &mut rng, &mut ws);
    assert!(
        geo.per_subcarrier.ped_calcs < eth.per_subcarrier.ped_calcs,
        "geo {} vs eth {}",
        geo.per_subcarrier.ped_calcs,
        eth.per_subcarrier.ped_calcs
    );
    // Same channel/noise seeds ⇒ identical visited nodes (paper §5.3).
    assert!(
        (geo.per_subcarrier.visited_nodes - eth.per_subcarrier.visited_nodes).abs() < 1e-9,
        "visited nodes must match: {} vs {}",
        geo.per_subcarrier.visited_nodes,
        eth.per_subcarrier.visited_nodes
    );
}

#[test]
fn rate_adaptation_picks_denser_constellations_at_higher_snr() {
    let params = ExperimentParams::quick();
    let tb = Testbed::office();
    let low = testbed_throughput(&params, &tb, 2, 4, 12.0, DetectorKind::Geosphere);
    let high = testbed_throughput(&params, &tb, 2, 4, 28.0, DetectorKind::Geosphere);
    assert!(
        high.constellation.size() >= low.constellation.size(),
        "higher SNR should not pick a sparser constellation: {:?} -> {:?}",
        low.constellation,
        high.constellation
    );
    assert!(high.throughput_mbps >= low.throughput_mbps);
}

#[test]
fn throughput_scales_with_clients_for_geosphere() {
    // Fig. 12's qualitative shape at smoke scale: 4-client Geosphere
    // throughput exceeds 1-client throughput.
    let params = ExperimentParams::quick();
    let tb = Testbed::office();
    let one = testbed_throughput(&params, &tb, 1, 4, 20.0, DetectorKind::Geosphere);
    let four = testbed_throughput(&params, &tb, 4, 4, 20.0, DetectorKind::Geosphere);
    assert!(
        four.throughput_mbps > one.throughput_mbps,
        "4 clients {:.1} must beat 1 client {:.1}",
        four.throughput_mbps,
        one.throughput_mbps
    );
}

#[test]
fn selective_channel_uplink_works() {
    // Frequency-selective Rayleigh: per-subcarrier channels differ; the
    // chain must still deliver frames at high SNR.
    let mut rng = StdRng::seed_from_u64(2006);
    let model = geosphere::channel::SelectiveRayleighChannel::indoor(4, 2);
    let ch = model.realize(&mut rng);
    assert_eq!(ch.num_subcarriers(), 48);
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();
    let out = decode_frame_batched_into(
        &cfg(Constellation::Qam16),
        &ch,
        &det,
        35.0,
        &mut rng,
        1,
        &mut ws,
    );
    assert!(out.client_ok.iter().all(|&ok| ok));
}

//! Property test: a reused [`FrameWorkspace`] is bit-identical to a fresh
//! one, across randomized frame-shape sequences.
//!
//! The zero-allocation frame pipeline keeps every buffer alive between
//! frames and only ever grows them, so the dangerous failure mode is
//! *stale state*: a previous frame's larger plan, channel table, job list,
//! detection outputs, or LLR streams leaking into a later (smaller or
//! differently-shaped) frame. This suite drives one long-lived workspace
//! through random sequences of (modulation, client/antenna counts, SNR,
//! payload length) — shrinking and growing between frames —
//! and demands exact equality (`client_ok`, operation counts, detection
//! counts) with a fresh workspace per frame, for the hard batched, soft,
//! and iterative receive paths.

use geosphere_core::geosphere_decoder;
use gs_channel::{ChannelModel, RayleighChannel};
use gs_modulation::Constellation;
use gs_phy::{
    decode_frame_batched_into, uplink_frame_iterative_into, uplink_frame_soft_into, FrameWorkspace,
    PhyConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn constellation_strategy() -> impl Strategy<Value = Constellation> {
    prop_oneof![Just(Constellation::Qpsk), Just(Constellation::Qam16), Just(Constellation::Qam64)]
}

/// One randomized frame scenario: modulation, MIMO size, SNR, frame
/// length, and an RNG seed.
type Scenario = (Constellation, (usize, usize), f64, usize, u64);

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        constellation_strategy(),
        // (clients, extra AP antennas): 1..=3 clients, AP has 0..=2 spares.
        (1usize..4, 0usize..3),
        8.0f64..32.0,
        // Payload length varies the OFDM symbol count (frame length).
        128usize..1024,
        0u64..1_000_000,
    )
}

fn cfg_for(c: Constellation, payload_bits: usize, seed: u64) -> PhyConfig {
    // Vary the subcarrier count too (values keeping n_cbps a multiple of
    // 16 for every constellation), so caches keyed on frame geometry are
    // exercised across shape changes — notably the iterative path's
    // interleaver-map cache, which depends on (n_cbps, bits_per_symbol).
    let n_subcarriers = [8, 24, 48][seed as usize % 3];
    PhyConfig { payload_bits, n_subcarriers, ..PhyConfig::new(c) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Hard batched path: reused workspace ≡ fresh workspace across shape
    /// changes.
    #[test]
    fn reused_workspace_matches_fresh_hard(
        scenarios in proptest::collection::vec(scenario_strategy(), 3..6)
    ) {
        let det = geosphere_decoder();
        let mut shared = FrameWorkspace::new();
        for (step, &(c, (nc, spare), snr_db, payload_bits, seed)) in scenarios.iter().enumerate() {
            let cfg = cfg_for(c, payload_bits, seed);
            let na = nc + spare;
            let ch = RayleighChannel::new(na, nc).realize(&mut StdRng::seed_from_u64(seed));

            let mut fresh_ws = FrameWorkspace::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
            let fresh = decode_frame_batched_into(
                &cfg, &ch, &det, snr_db, &mut rng, 1, &mut fresh_ws,
            ).clone();

            let mut rng = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
            let reused = decode_frame_batched_into(
                &cfg, &ch, &det, snr_db, &mut rng, 1, &mut shared,
            );
            prop_assert_eq!(&reused.client_ok, &fresh.client_ok,
                "step {} ({:?} {}x{} @ {:.1} dB)", step, c, nc, na, snr_db);
            prop_assert_eq!(reused.stats, fresh.stats, "step {} stats", step);
            prop_assert_eq!(reused.detections, fresh.detections, "step {} detections", step);
        }
    }

    /// Soft path: reused workspace ≡ fresh workspace across shape changes.
    #[test]
    fn reused_workspace_matches_fresh_soft(
        scenarios in proptest::collection::vec(scenario_strategy(), 2..4)
    ) {
        let mut shared = FrameWorkspace::new();
        for (step, &(c, (nc, spare), snr_db, payload_bits, seed)) in scenarios.iter().enumerate() {
            // Soft counter-hypothesis searches grow fast with |O|·nc; cap
            // the shape so the property stays quick under libtest.
            let c = if nc >= 3 { Constellation::Qpsk } else { c };
            let cfg = cfg_for(c, 128 + payload_bits % 256, seed);
            let ch = RayleighChannel::new(nc + spare, nc).realize(&mut StdRng::seed_from_u64(seed));

            let mut fresh_ws = FrameWorkspace::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5011D);
            let fresh =
                uplink_frame_soft_into(&cfg, &ch, snr_db, &mut rng, &mut fresh_ws).clone();

            let mut rng = StdRng::seed_from_u64(seed ^ 0x5011D);
            let reused = uplink_frame_soft_into(&cfg, &ch, snr_db, &mut rng, &mut shared);
            prop_assert_eq!(&reused.client_ok, &fresh.client_ok, "step {}", step);
            prop_assert_eq!(reused.stats, fresh.stats, "step {}", step);
            prop_assert_eq!(reused.detections, fresh.detections, "step {}", step);
        }
    }

    /// Iterative (turbo MMSE-PIC) path: reused workspace ≡ fresh workspace,
    /// including the per-subcarrier column Grams rebuilt between channels.
    #[test]
    fn reused_workspace_matches_fresh_iterative(
        scenarios in proptest::collection::vec(scenario_strategy(), 2..4)
    ) {
        let mut shared = FrameWorkspace::new();
        for (step, &(c, (nc, spare), snr_db, payload_bits, seed)) in scenarios.iter().enumerate() {
            let cfg = cfg_for(c, 128 + payload_bits % 256, seed);
            let iterations = 1 + step % 2;
            let ch = RayleighChannel::new(nc + spare, nc).realize(&mut StdRng::seed_from_u64(seed));

            let mut fresh_ws = FrameWorkspace::new();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x17E7);
            let fresh = uplink_frame_iterative_into(
                &cfg, &ch, snr_db, iterations, &mut rng, &mut fresh_ws,
            ).clone();

            let mut rng = StdRng::seed_from_u64(seed ^ 0x17E7);
            let reused =
                uplink_frame_iterative_into(&cfg, &ch, snr_db, iterations, &mut rng, &mut shared);
            prop_assert_eq!(&reused.client_ok, &fresh.client_ok, "step {}", step);
            prop_assert_eq!(reused.stats, fresh.stats, "step {}", step);
            prop_assert_eq!(reused.detections, fresh.detections, "step {}", step);
        }
    }
}

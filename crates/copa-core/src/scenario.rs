//! Scenario preparation: what each AP knows before choosing a strategy.
//!
//! The strategy engine never sees the true channels directly -- precoders
//! and power allocations are computed from *estimated* CSI (learned by
//! overhearing, section 3.1), and only the final SINR evaluation uses the
//! ground truth, exactly as a real deployment would experience it.

use copa_channel::{FreqChannel, Impairments, Topology};
use copa_num::rng::SimRng;
use copa_phy::link::ThroughputModel;

/// Tunable parameters shared by every evaluation.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioParams {
    /// Radio impairment model (CSI error, TX EVM, leakage).
    pub impairments: Impairments,
    /// Channel coherence time in microseconds (sets MAC overhead).
    pub coherence_us: f64,
    /// Throughput model (MPDU size etc.).
    pub model: ThroughputModel,
    /// Seed for the CSI estimation noise draws.
    pub seed: u64,
    /// Also evaluate the mercury/waterfilling (COPA+) variants
    /// (significantly more compute, as in the paper).
    pub include_mercury: bool,
    /// Quarantine threshold on the per-subcarrier condition number of the
    /// estimated channels: any `est[i][i]` subcarrier whose 2-norm
    /// condition number exceeds this is rejected as
    /// [`CopaError::SingularChannel`](crate::CopaError::SingularChannel)
    /// before precoding runs. `f64::INFINITY` (the default) disables the
    /// check, keeping results bit-identical to earlier releases.
    pub cond_limit: f64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            impairments: Impairments::default(),
            coherence_us: 30_000.0, // the paper disseminates CSI every 30 ms
            model: ThroughputModel::default(),
            seed: 0xC0FA,
            include_mercury: false,
            cond_limit: f64::INFINITY,
        }
    }
}

/// A borrowed view of a topology and its CSI estimates: exactly what the
/// evaluation hot path reads. [`crate::engine::Engine::run`] builds one
/// either by borrowing caller-owned estimates or by estimating CSI into
/// workspace-owned slots ([`prepare_into`]), so evaluation never clones
/// the topology or allocates fresh channel buffers.
pub struct ScenarioView<'a> {
    /// Ground-truth channels.
    pub topology: &'a Topology,
    /// `est[a][c]`: the estimated channel from AP `a` to client `c`.
    pub est: [[&'a FreqChannel; 2]; 2],
}

/// Runs CSI estimation on every link of a topology: `est[a][c]` is the
/// estimated channel from AP `a` to client `c`. Evaluate them with
/// [`EvalRequest::estimates`](crate::engine::EvalRequest::estimates).
pub fn prepare(topology: &Topology, params: &ScenarioParams) -> [[FreqChannel; 2]; 2] {
    let mut est: [[FreqChannel; 2]; 2] = Default::default();
    prepare_into(topology, params, &mut est);
    est
}

/// [`prepare`] writing the estimates into caller-owned channel slots:
/// after warm-up, no allocation. Uses the same RNG fork structure and
/// per-link draw order as [`prepare`], so the estimates are bit-identical
/// to the owned entry point.
// alloc-free: begin prepare_into
pub fn prepare_into(topology: &Topology, params: &ScenarioParams, est: &mut [[FreqChannel; 2]; 2]) {
    let mut rng = SimRng::seed_from(params.seed ^ 0x5EED_CAFE);
    for a in 0..2 {
        for c in 0..2 {
            let mut child = rng.fork((a * 2 + c) as u64 + 1);
            params.impairments.estimate_channel_into(
                &mut child,
                &topology.links[a][c],
                &mut est[a][c],
            );
        }
    }
}
// alloc-free: end prepare_into

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    #[test]
    fn prepare_is_deterministic() {
        let topo = TopologySampler::default()
            .suite(1, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let params = ScenarioParams::default();
        let a = prepare(&topo, &params);
        let b = prepare(&topo, &params);
        for i in 0..2 {
            for j in 0..2 {
                for s in [0, 25, 51] {
                    assert!(a[i][j].at(s).approx_eq(b[i][j].at(s), 1e-15));
                }
            }
        }
    }

    #[test]
    fn estimates_differ_from_truth_but_not_much() {
        let topo = TopologySampler::default()
            .suite(2, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let params = ScenarioParams::default();
        let p = prepare(&topo, &params);
        let mut err = 0.0;
        let mut sig = 0.0;
        for s in 0..copa_phy::ofdm::DATA_SUBCARRIERS {
            err += (&p[0][0].at(s).clone() - topo.links[0][0].at(s)).frobenius_norm_sqr();
            sig += topo.links[0][0].at(s).frobenius_norm_sqr();
        }
        let rel_db = 10.0 * (err / sig).log10();
        assert!(
            (-35.0..-25.0).contains(&rel_db),
            "CSI error {rel_db:.1} dB (target ~-30)"
        );
    }

    #[test]
    fn ideal_impairments_estimate_exactly() {
        let topo = TopologySampler::default()
            .suite(3, 1, AntennaConfig::SINGLE)
            .remove(0);
        let params = ScenarioParams {
            impairments: Impairments::ideal(),
            ..Default::default()
        };
        let p = prepare(&topo, &params);
        for s in [0, 30] {
            assert!(p[0][0].at(s).approx_eq(topo.links[0][0].at(s), 1e-10));
        }
    }
}

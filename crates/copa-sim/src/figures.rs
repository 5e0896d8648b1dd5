//! Microscopic experiments: Figures 2, 3, 4, 7 and 9.
//!
//! These regenerate the paper's per-subcarrier and per-topology measurement
//! figures from the simulated testbed.

use crate::json::{Obj, ToJson};
use copa_alloc::concurrent::{allocate_concurrent, AllocatorKind, ConcurrentProblem};
use copa_channel::{AntennaConfig, FreqChannel, MultipathProfile, Topology, TopologySampler};
use copa_core::{prepare, ScenarioParams};
use copa_num::special::{lin_to_db, mw_to_dbm};
use copa_num::stats::{mean, std_dev};
use copa_num::SimRng;
use copa_phy::link::ThroughputModel;
use copa_phy::ofdm::DATA_SUBCARRIERS;
use copa_precoding::beamforming::beamform;
use copa_precoding::nulling::null_toward;
use copa_precoding::sinr::{active_cells, mmse_sinr_grid, received_power_per_subcarrier, TxSide};
use copa_precoding::{cross_gains_into, PrecodeScratch, TxPowers};

/// Figure 2: received power per subcarrier at two antennas from one send
/// antenna with equal power allocation.
#[derive(Clone, Debug)]
pub struct Fig2 {
    /// Received power at antenna 1, dBm per subcarrier.
    pub ant1_dbm: Vec<f64>,
    /// Received power at antenna 2, dBm per subcarrier.
    pub ant2_dbm: Vec<f64>,
}

/// Regenerates Figure 2 from a random single-tx-antenna channel at a
/// representative -55 dBm average receive power.
pub fn fig2(seed: u64) -> Fig2 {
    let mut rng = SimRng::seed_from(seed);
    let avg_rx_dbm = -55.0;
    let gain = copa_num::special::db_to_lin(avg_rx_dbm - copa_phy::ofdm::MAX_TX_POWER_DBM);
    let ch = FreqChannel::random(&mut rng, 2, 1, gain, &MultipathProfile::default());
    let tx_per_subcarrier_mw =
        copa_num::special::dbm_to_mw(copa_phy::ofdm::MAX_TX_POWER_DBM) / DATA_SUBCARRIERS as f64;
    let power = |r: usize| -> Vec<f64> {
        (0..DATA_SUBCARRIERS)
            .map(|s| mw_to_dbm(ch.at(s)[(r, 0)].norm_sqr() * tx_per_subcarrier_mw))
            .collect()
    };
    Fig2 {
        ant1_dbm: power(0),
        ant2_dbm: power(1),
    }
}

/// Figure 3: end-to-end effect of nulling across a topology suite.
#[derive(Clone, Debug)]
pub struct Fig3 {
    /// Interference reduction at the victim from nulling, dB (positive =
    /// less interference), one value per (topology, client).
    pub inr_reduction_db: Vec<f64>,
    /// Collateral damage: own-signal power change from nulling, dB
    /// (negative = lost signal).
    pub snr_reduction_db: Vec<f64>,
    /// Net post-MMSE SINR change, dB.
    pub sinr_increase_db: Vec<f64>,
}

impl Fig3 {
    /// `(mean, std)` helper for each series.
    pub fn summary(series: &[f64]) -> (f64, f64) {
        (mean(series), std_dev(series))
    }
}

/// Regenerates Figure 3 over a suite of 4x2 topologies.
pub fn fig3(suite: &[Topology], params: &ScenarioParams) -> Fig3 {
    let mut inr_red = Vec::new();
    let mut snr_red = Vec::new();
    let mut sinr_inc = Vec::new();
    let noise_total =
        copa_num::special::dbm_to_mw(copa_phy::ofdm::NOISE_FLOOR_DBM) / DATA_SUBCARRIERS as f64;

    for (idx, topo) in suite.iter().enumerate() {
        let mut p = *params;
        p.seed = params.seed.wrapping_add(idx as u64);
        let est = prepare(topo, &p);
        let budget = topo.tx_budget_mw();
        let streams = topo.config.max_streams();

        for client in 0..2 {
            let other = 1 - client;
            // AP `other` either beamforms to its own client or nulls toward
            // `client`; measure both at `client`.
            let bf = beamform(&est[other][other], streams);
            let Some(null) = null_toward(&est[other][other], &est[other][client], streams) else {
                continue;
            };
            let eq = TxPowers::equal(streams, budget);

            let interference = |pre| -> f64 {
                let tx = TxSide {
                    channel: &topo.links[other][client],
                    precoding: pre,
                    powers: &eq,
                    budget_mw: budget,
                };
                received_power_per_subcarrier(&tx, &p.impairments)
                    .iter()
                    .sum()
            };
            let int_bf = interference(&bf);
            let int_null = interference(&null);
            inr_red.push(lin_to_db(int_bf / int_null));

            // Collateral damage on the *own* link of AP `client`'s AP: that
            // AP also switches from BF to nulling.
            let own_bf = beamform(&est[client][client], streams);
            let Some(own_null) = null_toward(&est[client][client], &est[client][other], streams)
            else {
                continue;
            };
            let own_power = |pre| -> f64 {
                let tx = TxSide {
                    channel: &topo.links[client][client],
                    precoding: pre,
                    powers: &eq,
                    budget_mw: budget,
                };
                received_power_per_subcarrier(&tx, &p.impairments)
                    .iter()
                    .sum()
            };
            snr_red.push(lin_to_db(own_power(&own_null) / own_power(&own_bf)));

            // Net SINR effect: concurrent BF/BF vs concurrent null/null.
            let mean_sinr = |own_pre, int_pre| -> f64 {
                let own = TxSide {
                    channel: &topo.links[client][client],
                    precoding: own_pre,
                    powers: &eq,
                    budget_mw: budget,
                };
                let int = TxSide {
                    channel: &topo.links[other][client],
                    precoding: int_pre,
                    powers: &eq,
                    budget_mw: budget,
                };
                let grid = mmse_sinr_grid(&own, Some(&int), noise_total, &p.impairments);
                mean(&active_cells(&grid, &eq))
            };
            let sinr_bf = mean_sinr(&own_bf, &bf);
            let sinr_null = mean_sinr(&own_null, &null);
            sinr_inc.push(lin_to_db(sinr_null / sinr_bf));
        }
    }
    Fig3 {
        inr_reduction_db: inr_red,
        snr_reduction_db: snr_red,
        sinr_increase_db: sinr_inc,
    }
}

/// Figure 4: per-subcarrier SNR / SINR at one client.
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// SNR with unconstrained beamforming, AP1 alone, dB.
    pub snr_bf_db: Vec<f64>,
    /// SNR with the nulling precoder, AP1 alone, dB.
    pub snr_null_db: Vec<f64>,
    /// SINR with both APs concurrent and nulling, dB.
    pub sinr_null_db: Vec<f64>,
}

/// Regenerates Figure 4 on one 4x2 topology.
pub fn fig4(topo: &Topology, params: &ScenarioParams) -> Fig4 {
    assert_eq!(topo.config, AntennaConfig::CONSTRAINED_4X2);
    let est = prepare(topo, params);
    let budget = topo.tx_budget_mw();
    let noise = topo.noise_per_subcarrier_mw();
    let streams = 2;
    let eq = TxPowers::equal(streams, budget);

    let bf = beamform(&est[0][0], streams);
    let null = null_toward(&est[0][0], &est[0][1], streams).expect("4x2 nulls");
    let peer_null = null_toward(&est[1][1], &est[1][0], streams).expect("4x2 nulls");

    let per_subcarrier =
        |own_pre, interferer: Option<&copa_precoding::LinkPrecoding>| -> Vec<f64> {
            let own = TxSide {
                channel: &topo.links[0][0],
                precoding: own_pre,
                powers: &eq,
                budget_mw: budget,
            };
            let int_side = interferer.map(|pre| TxSide {
                channel: &topo.links[1][0],
                precoding: pre,
                powers: &eq,
                budget_mw: budget,
            });
            let grid = mmse_sinr_grid(&own, int_side.as_ref(), noise, &params.impairments);
            // Average the streams per subcarrier, in dB.
            (0..DATA_SUBCARRIERS)
                .map(|s| lin_to_db(grid.iter().map(|row| row[s]).sum::<f64>() / streams as f64))
                .collect()
        };

    Fig4 {
        snr_bf_db: per_subcarrier(&bf, None),
        snr_null_db: per_subcarrier(&null, None),
        sinr_null_db: per_subcarrier(&null, Some(&peer_null)),
    }
}

/// Figure 7: per-subcarrier uncoded BER with and without COPA's power
/// allocation, at the same nulling precoder and bitrate.
#[derive(Clone, Debug)]
pub struct Fig7 {
    /// Uncoded BER per subcarrier under COPA's allocation (dropped
    /// subcarriers reported as `None`).
    pub ber_copa: Vec<Option<f64>>,
    /// Uncoded BER per subcarrier with equal power ("NoPA").
    pub ber_nopa: Vec<f64>,
    /// Subcarriers COPA dropped.
    pub dropped: Vec<usize>,
    /// COPA's goodput at its optimal bitrate, Mbps.
    pub copa_mbps: f64,
    /// NoPA's goodput at its own optimal bitrate, Mbps.
    pub nopa_mbps: f64,
    /// The common MCS index used for the BER comparison.
    pub mcs_index: u8,
}

/// Regenerates Figure 7 on one 4x2 topology (client 1's first stream).
pub fn fig7(topo: &Topology, params: &ScenarioParams) -> Fig7 {
    let est = prepare(topo, params);
    let budget = topo.tx_budget_mw();
    let noise = topo.noise_per_subcarrier_mw();
    let streams = 2;
    let model = ThroughputModel::default();

    let null0 = null_toward(&est[0][0], &est[0][1], streams).expect("4x2");
    let null1 = null_toward(&est[1][1], &est[1][0], streams).expect("4x2");

    // COPA's concurrent Equi-SINR allocation.
    let evm = params.impairments.evm_factor();
    let mut ws = PrecodeScratch::new();
    let mut cross_gains = [Vec::new(), Vec::new()];
    cross_gains_into(&est[0][1], &null0, evm, &mut ws, &mut cross_gains[0]);
    cross_gains_into(&est[1][0], &null1, evm, &mut ws, &mut cross_gains[1]);
    let problem = ConcurrentProblem {
        own_gains: [&null0.stream_gains, &null1.stream_gains],
        cross_gains: [&cross_gains[0], &cross_gains[1]],
        noise_mw: noise,
        budgets_mw: [budget, budget],
    };
    let sol = allocate_concurrent(&problem, AllocatorKind::EquiSinr, &model, 1.0);
    let copa_powers = sol.powers;
    let eq = [
        TxPowers::equal(streams, budget),
        TxPowers::equal(streams, budget),
    ];

    let grid_for = |powers: &[TxPowers; 2]| {
        let own = TxSide {
            channel: &topo.links[0][0],
            precoding: &null0,
            powers: &powers[0],
            budget_mw: budget,
        };
        let int = TxSide {
            channel: &topo.links[1][0],
            precoding: &null1,
            powers: &powers[1],
            budget_mw: budget,
        };
        mmse_sinr_grid(&own, Some(&int), noise, &params.impairments)
    };
    let copa_grid = grid_for(&copa_powers);
    let nopa_grid = grid_for(&eq);

    // Goodputs at each variant's optimal bitrate.
    let copa_choice = model.best(&active_cells(&copa_grid, &copa_powers[0]), 1.0);
    let nopa_choice = model.best(&active_cells(&nopa_grid, &eq[0]), 1.0);
    let modulation = copa_choice.mcs.modulation;

    // Per-subcarrier uncoded BER at the *same* (COPA-optimal) modulation,
    // stream 0.
    let ber_copa: Vec<Option<f64>> = (0..DATA_SUBCARRIERS)
        .map(|s| {
            if copa_powers[0].powers[0][s] > 0.0 {
                Some(modulation.uncoded_ber(copa_grid[0][s]))
            } else {
                None
            }
        })
        .collect();
    let ber_nopa: Vec<f64> = (0..DATA_SUBCARRIERS)
        .map(|s| modulation.uncoded_ber(nopa_grid[0][s]))
        .collect();
    let dropped: Vec<usize> = (0..DATA_SUBCARRIERS)
        .filter(|&s| copa_powers[0].powers[0][s] == 0.0)
        .collect();

    Fig7 {
        ber_copa,
        ber_nopa,
        dropped,
        copa_mbps: copa_choice.goodput_bps / 1e6,
        nopa_mbps: nopa_choice.goodput_bps / 1e6,
        mcs_index: copa_choice.mcs.index,
    }
}

/// Figure 9: the (signal, interference) scatter of a topology suite.
#[derive(Clone, Debug)]
pub struct Fig9 {
    /// One `(signal_dbm, interference_dbm)` point per receiver.
    pub points: Vec<(f64, f64)>,
}

/// Regenerates Figure 9.
pub fn fig9(suite: &[Topology]) -> Fig9 {
    let points = suite
        .iter()
        .flat_map(|t| (0..2).map(move |i| (t.signal_dbm[i], t.interference_dbm[i])))
        .collect();
    Fig9 { points }
}

/// The standard 30-topology suite for a given antenna configuration,
/// matching the paper's testbed methodology.
pub fn standard_suite(config: AntennaConfig) -> Vec<Topology> {
    TopologySampler::default().suite(0xC0FA_5EED, 30, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_suite(cfg: AntennaConfig) -> Vec<Topology> {
        TopologySampler::default().suite(77, 6, cfg)
    }

    #[test]
    fn fig2_shows_deep_fading_and_antenna_diversity() {
        let f = fig2(1);
        assert_eq!(f.ant1_dbm.len(), DATA_SUBCARRIERS);
        let range1 = f.ant1_dbm.iter().cloned().fold(f64::MIN, f64::max)
            - f.ant1_dbm.iter().cloned().fold(f64::MAX, f64::min);
        assert!(range1 > 8.0, "expect multi-dB fading, got {range1:.1} dB");
        // Antennas differ on most subcarriers.
        let diff = f
            .ant1_dbm
            .iter()
            .zip(&f.ant2_dbm)
            .filter(|(a, b)| (*a - *b).abs() > 3.0)
            .count();
        assert!(diff > DATA_SUBCARRIERS / 4);
    }

    #[test]
    fn fig3_nulling_statistics_sane() {
        let suite = small_suite(AntennaConfig::CONSTRAINED_4X2);
        let f = fig3(&suite, &ScenarioParams::default());
        assert!(!f.inr_reduction_db.is_empty());
        let (inr_mean, _) = Fig3::summary(&f.inr_reduction_db);
        let (snr_mean, _) = Fig3::summary(&f.snr_reduction_db);
        let (sinr_mean, _) = Fig3::summary(&f.sinr_increase_db);
        // Paper: ~27 dB INR reduction, ~-8 dB SNR change, ~+18 dB SINR.
        assert!(
            inr_mean > 15.0 && inr_mean < 40.0,
            "INR reduction {inr_mean:.1} dB"
        );
        assert!(
            snr_mean < -1.0 && snr_mean > -20.0,
            "SNR change {snr_mean:.1} dB"
        );
        assert!(sinr_mean > 5.0, "SINR increase {sinr_mean:.1} dB");
    }

    #[test]
    fn fig4_nulling_increases_variance_and_lowers_mean() {
        let suite = small_suite(AntennaConfig::CONSTRAINED_4X2);
        let f = fig4(&suite[0], &ScenarioParams::default());
        let m_bf = mean(&f.snr_bf_db);
        let m_null = mean(&f.snr_null_db);
        let m_sinr = mean(&f.sinr_null_db);
        assert!(m_null < m_bf, "nulling costs SNR: {m_null:.1} vs {m_bf:.1}");
        assert!(m_sinr <= m_null + 1.0, "interference can only hurt");
        let v_bf = std_dev(&f.snr_bf_db);
        let v_sinr = std_dev(&f.sinr_null_db);
        assert!(
            v_sinr > v_bf,
            "nulling should increase subcarrier variability: {v_sinr:.1} vs {v_bf:.1} dB"
        );
    }

    #[test]
    fn fig7_copa_drops_and_wins() {
        let suite = small_suite(AntennaConfig::CONSTRAINED_4X2);
        // Pick a topology where interference is meaningful.
        let f = fig7(&suite[1], &ScenarioParams::default());
        assert_eq!(f.ber_nopa.len(), DATA_SUBCARRIERS);
        for &s in &f.dropped {
            assert!(f.ber_copa[s].is_none());
        }
        assert!(
            f.copa_mbps >= f.nopa_mbps * 0.99,
            "COPA {:.1} vs NoPA {:.1} Mbps",
            f.copa_mbps,
            f.nopa_mbps
        );
    }

    #[test]
    fn fig9_matches_suite() {
        let suite = small_suite(AntennaConfig::SINGLE);
        let f = fig9(&suite);
        assert_eq!(f.points.len(), 12);
        let below = f.points.iter().filter(|(s, i)| s > i).count();
        assert!(below >= 8, "most points should have signal > interference");
    }

    #[test]
    fn standard_suite_has_30_topologies() {
        let s = standard_suite(AntennaConfig::CONSTRAINED_4X2);
        assert_eq!(s.len(), 30);
    }
}

impl ToJson for Fig2 {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("ant1_dbm", &self.ant1_dbm)
            .field("ant2_dbm", &self.ant2_dbm)
            .finish();
    }
}

impl ToJson for Fig3 {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("inr_reduction_db", &self.inr_reduction_db)
            .field("snr_reduction_db", &self.snr_reduction_db)
            .field("sinr_increase_db", &self.sinr_increase_db)
            .finish();
    }
}

impl ToJson for Fig4 {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("snr_bf_db", &self.snr_bf_db)
            .field("snr_null_db", &self.snr_null_db)
            .field("sinr_null_db", &self.sinr_null_db)
            .finish();
    }
}

impl ToJson for Fig7 {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("ber_copa", &self.ber_copa)
            .field("ber_nopa", &self.ber_nopa)
            .field("dropped", &self.dropped)
            .field("copa_mbps", &self.copa_mbps)
            .field("nopa_mbps", &self.nopa_mbps)
            .field("mcs_index", &self.mcs_index)
            .finish();
    }
}

impl ToJson for Fig9 {
    fn write_json(&self, out: &mut String) {
        Obj::new(out).field("points", &self.points).finish();
    }
}

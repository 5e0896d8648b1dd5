//! Ablation studies: design-choice experiments beyond the paper's figures.
//!
//! DESIGN.md calls out several choices worth isolating:
//!
//! * **Coherence time** -- COPA pays per-coherence-time CSI dissemination;
//!   fast-varying channels eat the concurrency gain (Table 1's overheads,
//!   played forward into end-to-end throughput).
//! * **Radio impairments** -- nulling collapses as CSI error / TX EVM grow;
//!   COPA degrades gracefully thanks to its sequential fallback.
//! * **Allocator choice** -- Equi-SINR vs the two halves of Algorithm 1
//!   (selection-only / allocation-only), classic Gaussian waterfilling
//!   (which the paper argues is wrong for discrete constellations), and
//!   mercury/waterfilling.
//! * **CSI aging** -- throughput vs the staleness of the CSI the precoders
//!   were computed from.

use crate::json::{Obj, ToJson};
use crate::runner::evaluate_parallel;
use copa_alloc::stream::{
    allocation_only, equal_power, equi_sinr, mercury_best, selection_only, waterfilling,
    StreamProblem,
};
use copa_channel::{MultipathProfile, Topology};
use copa_core::{prepare, Engine, EvalRequest, ScenarioParams};
use copa_num::stats::mean;
use copa_num::SimRng;
use copa_phy::link::ThroughputModel;

/// One row of the coherence-time ablation.
#[derive(Clone, Debug)]
pub struct CoherenceRow {
    /// Coherence time, milliseconds.
    pub coherence_ms: f64,
    /// Mean CSMA aggregate (insensitive to coherence), Mbps.
    pub csma_mbps: f64,
    /// Mean COPA-fair aggregate, Mbps.
    pub copa_fair_mbps: f64,
    /// COPA-fair gain over CSMA.
    pub gain: f64,
}

/// Sweeps the coherence time: COPA's CSI dissemination cost grows as the
/// channel varies faster, shrinking its edge over CSMA.
pub fn coherence_sweep(
    suite: &[Topology],
    base: &ScenarioParams,
    coherence_ms: &[f64],
    threads: usize,
) -> Vec<CoherenceRow> {
    coherence_ms
        .iter()
        .map(|&ms| {
            let params = ScenarioParams {
                coherence_us: ms * 1000.0,
                ..*base
            };
            let evals = evaluate_parallel(&params, suite, threads);
            let csma = mean(
                &evals
                    .iter()
                    .map(|e| e.csma.aggregate_mbps())
                    .collect::<Vec<_>>(),
            );
            let fair = mean(
                &evals
                    .iter()
                    .map(|e| e.copa_fair.aggregate_mbps())
                    .collect::<Vec<_>>(),
            );
            CoherenceRow {
                coherence_ms: ms,
                csma_mbps: csma,
                copa_fair_mbps: fair,
                gain: fair / csma,
            }
        })
        .collect()
}

/// One row of the impairment ablation.
#[derive(Clone, Debug)]
pub struct ImpairmentRow {
    /// CSI error and TX EVM level (dB, relative).
    pub impairment_db: f64,
    /// Mean vanilla-nulling aggregate, Mbps.
    pub null_mbps: f64,
    /// Mean COPA-fair aggregate, Mbps.
    pub copa_fair_mbps: f64,
    /// Mean CSMA aggregate, Mbps.
    pub csma_mbps: f64,
    /// Fraction of topologies where COPA-fair chose a concurrent strategy.
    pub concurrency_rate: f64,
}

/// Sweeps the radio quality: as CSI error / EVM worsen, vanilla nulling
/// collapses while COPA falls back to sequential and never drops below
/// (approximately) CSMA.
pub fn impairment_sweep(
    suite: &[Topology],
    base: &ScenarioParams,
    levels_db: &[f64],
    threads: usize,
) -> Vec<ImpairmentRow> {
    levels_db
        .iter()
        .map(|&db| {
            let params = ScenarioParams {
                impairments: copa_channel::Impairments {
                    csi_error_db: db,
                    tx_evm_db: db,
                    leakage_db: -27.0,
                },
                ..*base
            };
            let evals = evaluate_parallel(&params, suite, threads);
            let null = mean(
                &evals
                    .iter()
                    .filter_map(|e| e.vanilla_null.map(|o| o.aggregate_mbps()))
                    .collect::<Vec<_>>(),
            );
            let fair = mean(
                &evals
                    .iter()
                    .map(|e| e.copa_fair.aggregate_mbps())
                    .collect::<Vec<_>>(),
            );
            let csma = mean(
                &evals
                    .iter()
                    .map(|e| e.csma.aggregate_mbps())
                    .collect::<Vec<_>>(),
            );
            let conc = evals
                .iter()
                .filter(|e| e.copa_fair.strategy.is_concurrent())
                .count() as f64
                / evals.len() as f64;
            ImpairmentRow {
                impairment_db: db,
                null_mbps: null,
                copa_fair_mbps: fair,
                csma_mbps: csma,
                concurrency_rate: conc,
            }
        })
        .collect()
}

/// Mean throughput of each single-stream allocator over random faded
/// channels (Mbps), in a fixed order:
/// equal, selection-only, allocation-only, equi-SNR, waterfilling, mercury.
#[derive(Clone, Debug)]
pub struct AllocatorComparison {
    /// Allocator names.
    pub names: Vec<&'static str>,
    /// Mean goodput per allocator, Mbps.
    pub mean_mbps: Vec<f64>,
}

/// Compares all allocators on the same population of frequency-selective
/// single-stream channels (paper section 4.2's decomposition, plus the
/// waterfilling-vs-mercury contrast of section 2.1).
pub fn allocator_comparison(seed: u64, trials: usize, mean_snr_db: f64) -> AllocatorComparison {
    let model = ThroughputModel::default();
    let mut rng = SimRng::seed_from(seed);
    let noise = 1e-9;
    let mean_gain = copa_num::special::db_to_lin(mean_snr_db) * noise * 52.0 / 31.6;

    let mut sums = [0.0f64; 6];
    for t in 0..trials {
        let mut child = rng.fork(t as u64);
        // Frequency-selective gains from a real multipath draw.
        let ch = copa_channel::FreqChannel::random(
            &mut child,
            1,
            1,
            mean_gain,
            &MultipathProfile::default(),
        );
        let gains: Vec<f64> = ch.iter().map(|m| m[(0, 0)].norm_sqr()).collect();
        let p = StreamProblem::interference_free(gains, noise, 31.6);
        sums[0] += equal_power(&p, &model, 1.0).throughput_bps;
        sums[1] += selection_only(&p, &model, 1.0).throughput_bps;
        sums[2] += allocation_only(&p, &model, 1.0).throughput_bps;
        sums[3] += equi_sinr(&p, &model, 1.0).throughput_bps;
        sums[4] += waterfilling(&p, &model, 1.0).throughput_bps;
        sums[5] += mercury_best(&p, &model, 1.0).throughput_bps;
    }
    AllocatorComparison {
        names: vec![
            "equal power",
            "selection only",
            "allocation only",
            "Equi-SNR (Alg 1)",
            "waterfilling",
            "mercury/WF",
        ],
        mean_mbps: sums.iter().map(|s| s / trials as f64 / 1e6).collect(),
    }
}

/// One row of the antenna-correlation ablation.
#[derive(Clone, Debug)]
pub struct CorrelationRow {
    /// Exponential antenna correlation coefficient.
    pub rho: f64,
    /// Mean CSMA aggregate, Mbps.
    pub csma_mbps: f64,
    /// Mean vanilla-nulling aggregate, Mbps.
    pub null_mbps: f64,
    /// Mean COPA-fair aggregate, Mbps.
    pub copa_fair_mbps: f64,
}

/// Sweeps antenna correlation (Kronecker model): correlated arrays lose
/// effective spatial degrees of freedom, hurting MIMO multiplexing and
/// nulling depth alike.
pub fn correlation_sweep(
    base: &ScenarioParams,
    config: copa_channel::AntennaConfig,
    rhos: &[f64],
    suite_size: usize,
    threads: usize,
) -> Vec<CorrelationRow> {
    rhos.iter()
        .map(|&rho| {
            let sampler = copa_channel::TopologySampler {
                antenna_correlation: rho,
                ..Default::default()
            };
            let suite = sampler.suite(0xC0EE, suite_size, config);
            let evals = evaluate_parallel(base, &suite, threads);
            CorrelationRow {
                rho,
                csma_mbps: mean(
                    &evals
                        .iter()
                        .map(|e| e.csma.aggregate_mbps())
                        .collect::<Vec<_>>(),
                ),
                null_mbps: mean(
                    &evals
                        .iter()
                        .filter_map(|e| e.vanilla_null.map(|o| o.aggregate_mbps()))
                        .collect::<Vec<_>>(),
                ),
                copa_fair_mbps: mean(
                    &evals
                        .iter()
                        .map(|e| e.copa_fair.aggregate_mbps())
                        .collect::<Vec<_>>(),
                ),
            }
        })
        .collect()
}

/// One row of the CSI-aging ablation.
#[derive(Clone, Debug)]
pub struct AgingRow {
    /// Gauss-Markov correlation between measured and actual channel.
    pub rho: f64,
    /// Mean vanilla-nulling aggregate, Mbps.
    pub null_mbps: f64,
    /// Mean COPA-fair aggregate, Mbps.
    pub copa_fair_mbps: f64,
}

/// Ages the true channels after CSI measurement (rho = 1: fresh; rho = 0:
/// fully decorrelated) and re-evaluates: quantifies how quickly stale CSI
/// destroys nulling.
pub fn csi_aging_sweep(suite: &[Topology], base: &ScenarioParams, rhos: &[f64]) -> Vec<AgingRow> {
    let engine = Engine::new(*base);
    let profile = MultipathProfile::default();
    rhos.iter()
        .map(|&rho| {
            let mut nulls = Vec::new();
            let mut fairs = Vec::new();
            for (idx, topo) in suite.iter().enumerate() {
                let mut params = *base;
                params.seed = base.seed.wrapping_add(idx as u64);
                let mut p = prepare(topo, &params);
                let mut rng = SimRng::seed_from(0xA6E ^ idx as u64);
                for a in 0..2 {
                    for c in 0..2 {
                        p.topology.links[a][c] =
                            p.topology.links[a][c].evolve(&mut rng, rho, &profile);
                    }
                }
                let ev = engine
                    .run(&mut EvalRequest::prepared(&p))
                    .expect("aged scenario stays valid");
                if let Some(n) = ev.vanilla_null {
                    nulls.push(n.aggregate_mbps());
                }
                fairs.push(ev.copa_fair.aggregate_mbps());
            }
            AgingRow {
                rho,
                null_mbps: mean(&nulls),
                copa_fair_mbps: mean(&fairs),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    fn small_suite() -> Vec<Topology> {
        TopologySampler::default().suite(0xAB1A, 6, AntennaConfig::CONSTRAINED_4X2)
    }

    #[test]
    fn coherence_gain_shrinks_for_fast_channels() {
        let rows = coherence_sweep(
            &small_suite(),
            &ScenarioParams::default(),
            &[4.0, 30.0, 1000.0],
            4,
        );
        assert_eq!(rows.len(), 3);
        // CSMA is insensitive; COPA's absolute throughput grows with
        // coherence time (cheaper CSI).
        assert!(rows[0].csma_mbps > 0.0);
        assert!(
            rows[2].copa_fair_mbps >= rows[0].copa_fair_mbps,
            "long coherence should help COPA: {:?}",
            rows
        );
        assert!(rows[2].gain >= rows[0].gain);
    }

    #[test]
    fn impairments_kill_nulling_not_copa() {
        let rows = impairment_sweep(
            &small_suite(),
            &ScenarioParams::default(),
            &[-40.0, -28.0, -18.0],
            4,
        );
        // Nulling monotone degrades.
        assert!(rows[0].null_mbps > rows[2].null_mbps, "{rows:?}");
        // COPA-fair stays within a whisker of CSMA even with awful radios.
        for r in &rows {
            assert!(
                r.copa_fair_mbps > r.csma_mbps * 0.93,
                "COPA-fair collapsed at {} dB: {:.1} vs CSMA {:.1}",
                r.impairment_db,
                r.copa_fair_mbps,
                r.csma_mbps
            );
        }
        // Better radios -> more concurrency chosen.
        assert!(rows[0].concurrency_rate >= rows[2].concurrency_rate);
    }

    #[test]
    fn allocator_ordering() {
        let cmp = allocator_comparison(0x1BEA, 20, 22.0);
        let get = |name: &str| {
            cmp.names
                .iter()
                .position(|n| *n == name)
                .map(|i| cmp.mean_mbps[i])
                .unwrap()
        };
        let equal = get("equal power");
        let equi = get("Equi-SNR (Alg 1)");
        let wf = get("waterfilling");
        let mercury = get("mercury/WF");
        assert!(equi > equal, "Algorithm 1 must beat equal power");
        // The paper's claim: classic waterfilling performs poorly for
        // discrete constellations -- it must not beat Equi-SNR.
        assert!(equi >= wf, "Equi-SNR {equi:.1} vs waterfilling {wf:.1}");
        assert!(mercury >= equal, "mercury at least equal power");
    }

    #[test]
    fn correlation_degrades_spatial_schemes() {
        let rows = correlation_sweep(
            &ScenarioParams::default(),
            copa_channel::AntennaConfig::CONSTRAINED_4X2,
            &[0.0, 0.9],
            6,
            4,
        );
        // Strong correlation hurts both multiplexing (CSMA with 2 streams)
        // and nulling.
        assert!(
            rows[1].null_mbps < rows[0].null_mbps,
            "correlation should hurt nulling: {rows:?}"
        );
        assert!(rows[1].csma_mbps <= rows[0].csma_mbps * 1.02);
    }

    #[test]
    fn aging_degrades_nulling_monotonically() {
        let rows = csi_aging_sweep(&small_suite(), &ScenarioParams::default(), &[1.0, 0.9, 0.5]);
        assert!(rows[0].null_mbps > rows[2].null_mbps, "{rows:?}");
        // COPA keeps a working fallback even with garbage CSI.
        assert!(rows[2].copa_fair_mbps > 0.0);
    }
}

impl ToJson for CoherenceRow {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("coherence_ms", &self.coherence_ms)
            .field("csma_mbps", &self.csma_mbps)
            .field("copa_fair_mbps", &self.copa_fair_mbps)
            .field("gain", &self.gain)
            .finish();
    }
}

impl ToJson for ImpairmentRow {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("impairment_db", &self.impairment_db)
            .field("null_mbps", &self.null_mbps)
            .field("copa_fair_mbps", &self.copa_fair_mbps)
            .field("csma_mbps", &self.csma_mbps)
            .field("concurrency_rate", &self.concurrency_rate)
            .finish();
    }
}

impl ToJson for AllocatorComparison {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("names", &self.names)
            .field("mean_mbps", &self.mean_mbps)
            .finish();
    }
}

impl ToJson for CorrelationRow {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("rho", &self.rho)
            .field("csma_mbps", &self.csma_mbps)
            .field("null_mbps", &self.null_mbps)
            .field("copa_fair_mbps", &self.copa_fair_mbps)
            .finish();
    }
}

impl ToJson for AgingRow {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("rho", &self.rho)
            .field("null_mbps", &self.null_mbps)
            .field("copa_fair_mbps", &self.copa_fair_mbps)
            .finish();
    }
}

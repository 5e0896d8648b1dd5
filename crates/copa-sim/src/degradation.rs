//! Degraded-suite evaluation: topology suites under injected ITS faults.
//!
//! The paper's experiments assume every coordination exchange lands. This
//! runner re-runs a suite the way a deployment would experience it: each
//! topology's decision crosses the air through [`exchange`] -- the same
//! wire protocol, retry budget and delivery policy the daemon drives --
//! and a cell whose exchange exhausts the budget falls back to stock CSMA
//! for that coherence interval. Per-suite [`DegradationStats`] quantify
//! the damage.
//!
//! Each topology is estimated and evaluated once, with the exact per-index
//! seed of [`crate::runner::evaluate_parallel`], on the pool worker's
//! workspace; the exchange carries that evaluation's decision. A
//! coordinated topology reports its COPA-fair outcome, a degraded one its
//! CSMA outcome. A fault-free plan makes every exchange coordinate on the
//! first attempt, so a zero-fault degraded run is bit-identical (per
//! `f64::to_bits`) to plain suite evaluation.

use crate::json::{Obj, ToJson};
use crate::pool;
use crate::runner::seed_for;
use copa_channel::faults::FaultPlan;
use copa_channel::{FreqChannel, Topology};
use copa_core::coordinator::exchange;
use copa_core::{
    prepare_into, CopaError, Engine, EngineWorkspace, EvalRequest, ScenarioParams, Strategy,
};

/// Per-suite accounting of how coordination degraded under faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// ITS exchanges attempted (one per topology).
    pub exchanges: u64,
    /// Exchanges that needed at least one retry.
    pub retried: u64,
    /// Total retries consumed across all exchanges.
    pub retries: u64,
    /// Exchanges that exhausted their retry budget.
    pub failed: u64,
    /// CSMA fallbacks taken (one per failed exchange).
    pub csma_fallbacks: u64,
}

impl ToJson for DegradationStats {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("exchanges", &self.exchanges)
            .field("retried", &self.retried)
            .field("retries", &self.retries)
            .field("failed", &self.failed)
            .field("csma_fallbacks", &self.csma_fallbacks)
            .finish();
    }
}

/// One degraded suite run: the throughput each cell pair actually achieved
/// (COPA-fair when coordinated, stock CSMA when degraded) plus the fault
/// accounting.
#[derive(Clone, Debug)]
pub struct DegradedSuiteResult {
    /// Achieved aggregate throughput per topology, Mbps, in suite order.
    pub throughputs_mbps: Vec<f64>,
    /// The strategy each topology ended up running, in suite order.
    pub decisions: Vec<Strategy>,
    /// Suite-wide degradation accounting.
    pub stats: DegradationStats,
}

impl ToJson for DegradedSuiteResult {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("throughputs_mbps", &self.throughputs_mbps)
            .field("stats", &self.stats)
            .finish();
    }
}

/// Evaluates `suite` under `plan` with `threads` pool workers.
///
/// Topology `idx` is estimated and evaluated with the seed
/// [`crate::runner::evaluate_parallel`] gives that index, and its decision
/// crosses one exchange with AP 0 as Leader under the `(plan.seed, idx)`
/// fault stream. Both are independent of which worker claims the topology,
/// so throughputs and [`DegradationStats`] are bit-identical across thread
/// counts. Evaluation errors propagate as the first failure in suite order
/// without poisoning the worker pool.
pub fn run_degraded_suite(
    params: &ScenarioParams,
    suite: &[Topology],
    plan: &FaultPlan,
    threads: usize,
) -> Result<DegradedSuiteResult, CopaError> {
    let worker = || (EngineWorkspace::new(), <[[FreqChannel; 2]; 2]>::default());
    let rows = pool::map(suite, threads, worker, |(ws, est), idx, topology| {
        let mut p = *params;
        p.seed = seed_for(params, idx);
        prepare_into(topology, &p, est);
        let ev = Engine::new(p).run(&mut EvalRequest::estimates(topology, est).workspace(ws))?;
        let outcome = exchange(est, ev, 0, p.coherence_us, plan, idx as u64, None);
        Ok::<_, CopaError>((*outcome.chosen(), outcome.retries(), outcome.is_degraded()))
    });
    let mut result = DegradedSuiteResult {
        throughputs_mbps: Vec::with_capacity(rows.len()),
        decisions: Vec::with_capacity(rows.len()),
        stats: DegradationStats::default(),
    };
    for row in rows {
        let (chosen, retries, degraded) = row?;
        result.throughputs_mbps.push(chosen.aggregate_mbps());
        result.decisions.push(chosen.strategy);
        let s = &mut result.stats;
        s.exchanges += 1;
        s.retried += u64::from(retries > 0);
        s.retries += u64::from(retries);
        s.failed += u64::from(degraded);
        s.csma_fallbacks += u64::from(degraded);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_parallel;
    use copa_channel::{AntennaConfig, TopologySampler};
    use copa_core::coordinator::Coordinator;

    fn suite(n: usize) -> Vec<Topology> {
        TopologySampler::default().suite(77, n, AntennaConfig::CONSTRAINED_4X2)
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_plain_evaluation() {
        let suite = suite(12);
        let params = ScenarioParams::default();
        let plain = evaluate_parallel(&params, &suite, 4);
        let degraded =
            run_degraded_suite(&params, &suite, &FaultPlan::none(123), 4).expect("no faults");
        assert_eq!(degraded.stats.csma_fallbacks, 0);
        assert_eq!(degraded.stats.retries, 0);
        assert_eq!(degraded.stats.exchanges, 12);
        for (ev, &mbps) in plain.iter().zip(&degraded.throughputs_mbps) {
            assert_eq!(ev.copa_fair.aggregate_mbps().to_bits(), mbps.to_bits());
        }
    }

    #[test]
    fn heavy_loss_causes_csma_fallbacks_without_panicking() {
        let suite = suite(16);
        let params = ScenarioParams::default();
        let plan = FaultPlan {
            max_retries: 1,
            ..FaultPlan::lossy(9, 0.6)
        };
        let r = run_degraded_suite(&params, &suite, &plan, 4).expect("faults degrade, not fail");
        assert_eq!(r.stats.exchanges, 16);
        assert!(
            r.stats.csma_fallbacks > 0,
            "60% loss with 1 retry must strand some exchanges: {:?}",
            r.stats
        );
        assert_eq!(r.stats.csma_fallbacks, r.stats.failed);
        for (mbps, d) in r.throughputs_mbps.iter().zip(&r.decisions) {
            assert!(*mbps > 0.0, "CSMA fallback still carries traffic");
            if r.stats.csma_fallbacks == r.stats.exchanges {
                assert_eq!(*d, Strategy::Csma);
            }
        }
    }

    #[test]
    fn suite_reports_exactly_what_the_coordinator_exchange_reports() {
        // Loss plus stale CSI: every REQ retransmission must follow the
        // coordinator's delivery policy, staleness draws included.
        let suite = TopologySampler::default().suite(0xFA01, 64, AntennaConfig::CONSTRAINED_4X2);
        let params = ScenarioParams::default();
        let plan = FaultPlan {
            frame_loss: 0.3,
            stale_csi: 0.1,
            max_retries: 2,
            ..FaultPlan::none(7)
        };
        let r = run_degraded_suite(&params, &suite, &plan, 2).expect("faults degrade, not fail");
        let plain = evaluate_parallel(&params, &suite, 2);
        let (mut retries, mut failed) = (0u64, 0u64);
        for (idx, t) in suite.iter().enumerate() {
            let mut p = params;
            p.seed = seed_for(&params, idx);
            let outcome = Coordinator::new(Engine::new(p))
                .run_exchange_with_faults(t, 0, &plan, idx as u64)
                .expect("exchange");
            retries += u64::from(outcome.retries());
            failed += u64::from(outcome.is_degraded());
            let expected = if outcome.is_degraded() {
                *outcome.chosen()
            } else {
                plain[idx].copa_fair
            };
            assert_eq!(r.decisions[idx], expected.strategy, "topology {idx}");
            assert_eq!(
                r.throughputs_mbps[idx].to_bits(),
                expected.aggregate_mbps().to_bits(),
                "topology {idx}"
            );
        }
        assert_eq!(r.stats.retries, retries);
        assert_eq!(r.stats.failed, failed);
        assert_eq!(r.stats.csma_fallbacks, failed);
        assert!(failed > 0, "the plan must strand some exchanges");
    }

    #[test]
    fn stats_and_throughputs_are_thread_count_invariant() {
        let suite = suite(10);
        let params = ScenarioParams::default();
        let plan = FaultPlan {
            frame_loss: 0.25,
            corruption: 0.1,
            stale_csi: 0.1,
            ..FaultPlan::none(0xFA117)
        };
        let one = run_degraded_suite(&params, &suite, &plan, 1).expect("run");
        for threads in [2, 8] {
            let many = run_degraded_suite(&params, &suite, &plan, threads).expect("run");
            assert_eq!(one.stats, many.stats, "{threads} threads");
            assert_eq!(one.decisions, many.decisions);
            for (a, b) in one.throughputs_mbps.iter().zip(&many.throughputs_mbps) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }
}

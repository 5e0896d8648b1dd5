//! Degraded-suite evaluation: topology suites under injected ITS faults.
//!
//! The paper's experiments assume every coordination exchange lands. This
//! runner re-runs a suite the way a deployment would experience it: each
//! topology's ITS frames are really encoded and pushed through a seeded
//! [`FaultPlan`] medium with bounded retries, and a cell whose exchange
//! exhausts the budget falls back to stock CSMA for that coherence
//! interval. Per-suite [`DegradationStats`] quantify the damage.
//!
//! Evaluations use the exact per-index seeds of
//! [`crate::runner::evaluate_parallel`], and a fault-free plan makes every
//! exchange succeed on the first attempt, so a zero-fault degraded run is
//! bit-identical (per `f64::to_bits`) to plain suite evaluation.

use crate::json::{Obj, ToJson};
use crate::pool;
use crate::runner::seed_for;
use copa_channel::faults::{Delivery, ExchangeFaults, FaultPlan};
use copa_channel::Topology;
use copa_core::{
    prepare, CopaError, Engine, EngineWorkspace, EvalRequest, ScenarioParams, Strategy,
};
use copa_mac::csi_codec::{compress_csi, decompress_csi};
use copa_mac::frames::{Addr, Decision, ItsFrame};

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

impl DegradationStats {
    /// Accumulates another worker's counters into this one. Addition is
    /// commutative, so merged suite stats are thread-count independent.
    pub fn merge(&mut self, other: &DegradationStats) {
        self.exchanges += other.exchanges;
        self.retried += other.retried;
        self.retries += other.retries;
        self.failed += other.failed;
        self.csma_fallbacks += other.csma_fallbacks;
    }
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

/// What one simulated exchange cost.
struct ExchangeCost {
    retries: u32,
    coordinated: bool,
}

/// Pushes one topology's ITS exchange (INIT, REQ with real compressed CSI,
/// ACK) through the faulty medium with a shared retry budget, mirroring
/// `Coordinator::run_exchange_with_faults`'s delivery policy: stale CSI
/// forces a re-measurement, garbled or lost frames are retransmitted, and
/// CSI payloads that fail to decompress count like garbled frames.
fn simulate_exchange(
    faults: &mut ExchangeFaults,
    init_wire: &[u8],
    req_wire: &[u8],
    ack_wire: &[u8],
) -> ExchangeCost {
    let max_retries = faults.plan().max_retries;
    let mut retries = 0u32;
    let mut deliver = |faults: &mut ExchangeFaults, wire: &[u8], is_req: bool| -> bool {
        loop {
            if is_req && faults.csi_is_stale() {
                if retries >= max_retries {
                    return false;
                }
                retries += 1;
                continue;
            }
            let decodable = match faults.deliver(wire) {
                Delivery::Lost => false,
                Delivery::Intact(bytes)
                | Delivery::Corrupted(bytes)
                | Delivery::Truncated(bytes) => match ItsFrame::decode(&bytes) {
                    Ok(ItsFrame::Req {
                        csi_to_client1,
                        csi_to_client2,
                        ..
                    }) => {
                        decompress_csi(&csi_to_client1).is_ok()
                            && decompress_csi(&csi_to_client2).is_ok()
                    }
                    Ok(_) => true,
                    Err(_) => false,
                },
            };
            if decodable {
                return true;
            }
            if retries >= max_retries {
                return false;
            }
            retries += 1;
        }
    };
    let coordinated = deliver(faults, init_wire, false)
        && deliver(faults, req_wire, true)
        && deliver(faults, ack_wire, false);
    ExchangeCost {
        retries,
        coordinated,
    }
}

/// Evaluates `suite` under `plan` with `threads` pool workers.
///
/// Each topology is evaluated with the same per-index seed as
/// [`crate::runner::evaluate_parallel`]; its exchange's fault stream is
/// seeded by `(plan.seed, index)`. Both are independent of which worker
/// claims the topology, so throughputs and [`DegradationStats`] are
/// bit-identical across thread counts. Evaluation errors propagate as the
/// first failure in suite order without poisoning the worker pool.
pub fn run_degraded_suite(
    params: &ScenarioParams,
    suite: &[Topology],
    plan: &FaultPlan,
    threads: usize,
) -> Result<DegradedSuiteResult, CopaError> {
    let rows = pool::map(suite, threads, EngineWorkspace::new, |ws, idx, topology| {
        evaluate_one(params, topology, idx, plan, ws)
    });
    let mut throughputs_mbps = Vec::with_capacity(rows.len());
    let mut decisions = Vec::with_capacity(rows.len());
    let mut stats = DegradationStats::default();
    for row in rows {
        let (mbps, decision, retries, coordinated) = row?;
        throughputs_mbps.push(mbps);
        decisions.push(decision);
        stats.merge(&DegradationStats {
            exchanges: 1,
            retried: u64::from(retries > 0),
            retries: u64::from(retries),
            failed: u64::from(!coordinated),
            csma_fallbacks: u64::from(!coordinated),
        });
    }
    Ok(DegradedSuiteResult {
        throughputs_mbps,
        decisions,
        stats,
    })
}

/// One topology: evaluate with the suite seed, then push the exchange's
/// frames through the medium and pick COPA-fair or the CSMA fallback.
fn evaluate_one(
    params: &ScenarioParams,
    topology: &Topology,
    idx: usize,
    plan: &FaultPlan,
    ws: &mut EngineWorkspace,
) -> Result<(f64, Strategy, u32, bool), CopaError> {
    let mut p = *params;
    p.seed = seed_for(params, idx);
    let engine = Engine::new(p);
    let evaluation = engine.run(&mut EvalRequest::topology(topology).workspace(ws))?;

    // The real wire images the exchange would carry (leader = AP 0).
    let prepared = prepare(topology, &p);
    let ap = [Addr::from_id(1), Addr::from_id(2)];
    let client = [Addr::from_id(11), Addr::from_id(12)];
    let txop = copa_mac::timing::TXOP_US as u32;
    let init_wire = ItsFrame::Init {
        leader: ap[0],
        client: client[0],
        airtime_us: txop,
    }
    .encode();
    let req_wire = ItsFrame::Req {
        leader: ap[0],
        follower: ap[1],
        client1: client[0],
        client2: client[1],
        csi_to_client1: compress_csi(&prepared.est[1][0]),
        csi_to_client2: compress_csi(&prepared.est[1][1]),
        airtime_us: txop,
    }
    .encode();
    let decision = if evaluation.copa_fair.strategy.is_concurrent() {
        Decision::Concurrent {
            precoder: compress_csi(&prepared.est[1][1]),
            shut_down_antenna: None,
        }
    } else {
        Decision::Sequential
    };
    let ack_wire = ItsFrame::Ack {
        leader: ap[0],
        follower: ap[1],
        client1: client[0],
        client2: client[1],
        decision,
        airtime_us: txop,
    }
    .encode();

    let mut faults = plan.for_exchange(idx as u64);
    let cost = simulate_exchange(&mut faults, &init_wire, &req_wire, &ack_wire);
    let (mbps, chosen) = if cost.coordinated {
        (
            evaluation.copa_fair.aggregate_mbps(),
            evaluation.copa_fair.strategy,
        )
    } else {
        (evaluation.csma.aggregate_mbps(), Strategy::Csma)
    };
    Ok((mbps, chosen, cost.retries, cost.coordinated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_parallel;
    use copa_channel::{AntennaConfig, TopologySampler};

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

//! Property-based tests for the strategy engine and the ITS coordinator,
//! on the in-repo [`copa_num::prop`] harness.

use copa_channel::{AntennaConfig, TopologySampler};
use copa_core::coordinator::Coordinator;
use copa_core::{Engine, EvalRequest, ScenarioParams, Strategy};
use copa_num::prop::{check, Gen};
use copa_num::{prop_assert, prop_assert_eq};

/// Engine evaluations are expensive (full strategy menu per case), so the
/// engine-level properties run fewer cases than the per-crate kernels.
const ENGINE_CASES: usize = 6;

const CONFIGS: [AntennaConfig; 3] = [
    AntennaConfig::SINGLE,
    AntennaConfig::CONSTRAINED_4X2,
    AntennaConfig::OVERCONSTRAINED_3X2,
];

fn sample_topology(g: &mut Gen, cfg: AntennaConfig) -> copa_channel::Topology {
    TopologySampler::default().suite(g.u64(), 1, cfg).remove(0)
}

fn params(g: &mut Gen) -> ScenarioParams {
    ScenarioParams {
        seed: g.u64(),
        ..ScenarioParams::default()
    }
}

#[test]
fn copa_picks_the_best_feasible_outcome() {
    check("copa_picks_the_best_feasible_outcome", ENGINE_CASES, |g| {
        let cfg = *g.pick(&CONFIGS);
        let t = sample_topology(g, cfg);
        let e = Engine::new(params(g))
            .run(&mut EvalRequest::topology(&t))
            .expect("sampled topology is valid");
        // COPA maximizes over its own menu (section 3.3) -- CSMA and the
        // vanilla-nulling baseline are outside it and may win on some
        // topologies (that is the paper's Figure 11 story).
        for o in &e.outcomes {
            if Strategy::copa_menu().contains(&o.strategy) {
                prop_assert!(
                    e.copa.aggregate_bps() >= o.aggregate_bps() - 1e-6,
                    "COPA must dominate its menu: {:?} beats it",
                    o.strategy
                );
            }
            prop_assert!(o.per_client_bps[0] >= 0.0 && o.per_client_bps[1] >= 0.0);
            prop_assert!(o.aggregate_bps().is_finite());
        }
        Ok(())
    });
}

#[test]
fn copa_fair_is_incentive_compatible() {
    check("copa_fair_is_incentive_compatible", ENGINE_CASES, |g| {
        let cfg = *g.pick(&CONFIGS);
        let t = sample_topology(g, cfg);
        let e = Engine::new(params(g))
            .run(&mut EvalRequest::topology(&t))
            .expect("sampled topology is valid");
        // Fairness (section 3.5): the fair pick never leaves a client worse
        // off than sequential cooperation, and never beats COPA's aggregate.
        prop_assert!(
            e.copa_fair.incentive_compatible_vs(&e.copa_seq),
            "fair pick harms a client: {:?} vs COPA-SEQ",
            e.copa_fair.strategy
        );
        prop_assert!(e.copa.aggregate_bps() >= e.copa_fair.aggregate_bps() - 1e-6);
        Ok(())
    });
}

#[test]
fn evaluation_is_pure() {
    check("evaluation_is_pure", ENGINE_CASES, |g| {
        let t = sample_topology(g, AntennaConfig::SINGLE);
        let p = params(g);
        let a = Engine::new(p)
            .run(&mut EvalRequest::topology(&t))
            .expect("valid");
        let b = Engine::new(p)
            .run(&mut EvalRequest::topology(&t))
            .expect("valid");
        prop_assert_eq!(a.outcomes.len(), b.outcomes.len());
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            prop_assert_eq!(x.strategy, y.strategy);
            prop_assert_eq!(x.per_client_bps[0].to_bits(), y.per_client_bps[0].to_bits());
            prop_assert_eq!(x.per_client_bps[1].to_bits(), y.per_client_bps[1].to_bits());
        }
        Ok(())
    });
}

#[test]
fn certain_faults_exhaust_the_budget_and_degrade() {
    // The p = 1.0 edge of the fault plan: every frame is lost (or every
    // CSI draw is stale), so the exchange must burn exactly its retry
    // budget and come back Degraded -- never spin forever, never panic.
    use copa_channel::FaultPlan;
    use copa_core::coordinator::ExchangeOutcome;
    check("certain_faults_exhaust_the_budget", ENGINE_CASES, |g| {
        let cfg = *g.pick(&CONFIGS);
        let t = sample_topology(g, cfg);
        let budget = *g.pick(&[0u32, 1, 2, 7]);
        let plan = if g.bool() {
            FaultPlan {
                frame_loss: 1.0,
                max_retries: budget,
                ..FaultPlan::none(g.u64())
            }
        } else {
            FaultPlan {
                stale_csi: 1.0,
                max_retries: budget,
                ..FaultPlan::none(g.u64())
            }
        };
        let coord = Coordinator::new(Engine::new(params(g)));
        let outcome = coord.run_exchange_with_faults(&t, 0, &plan, g.u64());
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => return Err(format!("certain faults must degrade, not error: {e}")),
        };
        prop_assert!(outcome.is_degraded(), "certain faults cannot coordinate");
        prop_assert_eq!(
            outcome.retries(),
            budget,
            "a hopeless medium must consume exactly the retry budget"
        );
        match outcome {
            ExchangeOutcome::Degraded { evaluation, .. } => {
                prop_assert!(
                    evaluation.csma.aggregate_bps() > 0.0,
                    "CSMA fallback still flows"
                );
            }
            ExchangeOutcome::Coordinated(_) => unreachable!("checked degraded above"),
        }
        Ok(())
    });
}

#[test]
fn zero_retry_budget_degrades_on_the_first_fault() {
    // max_retries = 0 means the very first injected fault ends the
    // exchange: no retry loop entered, retries reported as 0.
    use copa_channel::FaultPlan;
    check(
        "zero_retry_budget_degrades_immediately",
        ENGINE_CASES,
        |g| {
            let cfg = *g.pick(&CONFIGS);
            let t = sample_topology(g, cfg);
            let plan = FaultPlan {
                frame_loss: 1.0,
                max_retries: 0,
                ..FaultPlan::none(g.u64())
            };
            let coord = Coordinator::new(Engine::new(params(g)));
            let outcome = match coord.run_exchange_with_faults(&t, 0, &plan, g.u64()) {
                Ok(o) => o,
                Err(e) => return Err(format!("zero budget must degrade, not error: {e}")),
            };
            prop_assert!(outcome.is_degraded());
            prop_assert_eq!(outcome.retries(), 0);
            Ok(())
        },
    );
}

#[test]
fn its_exchange_round_trips_over_the_air() {
    check("its_exchange_round_trips_over_the_air", ENGINE_CASES, |g| {
        let cfg = *g.pick(&CONFIGS);
        let t = sample_topology(g, cfg);
        let leader = g.usize_in(0, 2);
        let coord = Coordinator::new(Engine::new(params(g)));
        let trace = coord.run_exchange(&t, leader);
        let trace = match trace {
            Ok(tr) => tr,
            Err(e) => return Err(format!("exchange failed: {e}")),
        };
        // The full INIT/REQ/ACK handshake crossed the air.
        prop_assert!(trace.frames.len() >= 3, "INIT, REQ, ACK expected");
        for rec in &trace.frames {
            prop_assert!(rec.wire_bytes > 0);
            prop_assert!(rec.airtime_us > 0.0);
        }
        prop_assert!(
            trace.control_airtime_us > 0.0,
            "control exchange takes airtime"
        );
        prop_assert!(trace.evaluation.copa.aggregate_bps() >= 0.0);
        Ok(())
    });
}

//! Telemetry smoke: the standard suite with observation on, end to end.
//!
//! ```sh
//! cargo run --release --example telemetry_suite
//! ```
//!
//! Runs the canonical 30-topology 4x2 suite through the supervised runner
//! with a [`SuiteTelemetry`] bundle attached and tracing enabled, then
//! drives a handful of ITS exchanges (one clean, several over a lossy
//! medium) through the observed exchange so every layer's metrics are
//! populated. The merged registry JSON and the chrome-trace export are
//! both re-parsed with the in-repo readers before anything is asserted on
//! them -- the export formats are validated, not trusted. Prints the
//! registry JSON as a single line so `scripts/check.sh --obs-smoke` can
//! capture it, and exits nonzero if any layer recorded nothing.

use copa::channel::faults::FaultPlan;
use copa::channel::{AntennaConfig, Topology};
use copa::core::coordinator::{exchange, ExchangeOutcome};
use copa::core::{prepare, Engine, EvalRequest, ScenarioParams};
use copa::obs::json::{parse, Value};
use copa::obs::validate_chrome_trace;
use copa::sim::json::ToJson;
use copa::sim::{
    exported_counter as counter, run_suite, standard_suite, SuiteConfig, SuiteTelemetry,
};

fn main() {
    let params = ScenarioParams::default();
    let suite = standard_suite(AntennaConfig::CONSTRAINED_4X2);
    let tel = SuiteTelemetry::with_trace(4096);

    // --- 1. the supervised suite, observed --------------------------------
    let cfg = SuiteConfig {
        threads: 4,
        telemetry: Some(&tel),
        ..Default::default()
    };
    let report = run_suite(&params, &suite, &cfg);
    assert_eq!(
        report.health.completed as usize,
        suite.len(),
        "standard suite must complete cleanly"
    );

    // --- 2. ITS exchanges, observed: one clean, four lossy ----------------
    // Each exchange carries one evaluation of its topology's estimates,
    // run unobserved so the engine counter stays the suite's own.
    let engine = Engine::new(params);
    let obs = tel.exchange_obs();
    let observed_exchange = |topology: &Topology, plan: &FaultPlan, id: u64| {
        let est = prepare(topology, &params);
        let ev = engine
            .run(&mut EvalRequest::estimates(topology, &est))
            .expect("standard-suite topologies evaluate");
        exchange(&est, ev, 0, params.coherence_us, plan, id, Some(&obs))
    };
    let clean = observed_exchange(&suite[0], &FaultPlan::none(0xA11CE), 0);
    assert!(
        matches!(clean, ExchangeOutcome::Coordinated(_)),
        "a fault-free exchange must coordinate"
    );
    let lossy = FaultPlan::lossy(0xA11CE, 0.25);
    for id in 1..5u64 {
        observed_exchange(&suite[id as usize], &lossy, id);
    }

    // --- 3. validate the registry export with the in-repo reader ----------
    let json = tel.to_json();
    let doc = parse(&json).expect("registry JSON must re-parse");
    let n = suite.len() as u64;
    assert_eq!(counter(&doc, "suite.completed"), n, "supervisor layer");
    assert_eq!(counter(&doc, "engine.evaluations"), n, "engine layer");
    let sent = counter(&doc, "its.frames_sent");
    let done = counter(&doc, "its.exchanges_completed");
    let degraded = counter(&doc, "its.exchanges_degraded");
    assert!(sent > 0, "ITS layer recorded no frames");
    assert_eq!(done + degraded, 5, "every exchange must be accounted for");
    let phase_count = doc
        .get("histograms")
        .and_then(|h| h.get("engine.allocation_us"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .expect("allocation phase histogram missing");
    // The allocation phase runs once per *candidate strategy*, so each
    // evaluation contributes several samples.
    assert!(
        phase_count >= n,
        "at least one allocation span per evaluation ({phase_count} < {n})"
    );

    // --- 4. validate the chrome-trace export -------------------------------
    let trace = tel.trace().expect("tracing was enabled").to_chrome_json();
    let events = validate_chrome_trace(&trace).expect("trace must validate");
    assert!(events > 0, "trace captured no events");

    println!(
        "{} topologies observed: {sent} ITS frames, {done} coordinated, \
         {degraded} degraded, {events} trace events",
        suite.len()
    );
    println!("{json}");
    println!("ok: telemetry export validated end to end");
}

//! `figures_copa_plus`: the Fig 10-13 suites through `fig10`..`fig13`
//! with `include_mercury`, the path `reproduce` runs. Mercury allocation
//! and the per-topology `Engine::new` (MMSE curve build) dominate it.

use crate::ledger::{quantile, Ledger};
use crate::{
    derive, engine_layers, overhead_layers, pool_layers, pool_map, quantile_layers, runner_seed,
    time_setup, timed_passes, wall, Args, EndToEnd, Layers, OutDir, Traced,
};
use copa::channel::{AntennaConfig, Topology, TopologySampler};
use copa::core::{Engine, EngineWorkspace, EvalRequest, Evaluation, ScenarioParams};
use copa::num::stats::mean;
use copa::sim::{fig10, fig11, fig12, fig13, SuiteTelemetry, ThroughputExperiment};

/// Topologies per figure suite (the `standard_suite` size).
const SUITE: usize = 30;
const FIGURES: [&str; 4] = ["fig10", "fig11", "fig12", "fig13"];
/// Engine constructions per `include_mercury` setting in the probe.
const NEW_PROBE_REPS: usize = 16;

struct Inputs {
    s1: Vec<Topology>,
    s4: Vec<Topology>,
    s3: Vec<Topology>,
    params: ScenarioParams,
}

fn inputs(seed: u64) -> Inputs {
    let sampler = TopologySampler::default();
    Inputs {
        s1: sampler.suite(derive(seed, 10), SUITE, AntennaConfig::SINGLE),
        s4: sampler.suite(derive(seed, 11), SUITE, AntennaConfig::CONSTRAINED_4X2),
        s3: sampler.suite(derive(seed, 13), SUITE, AntennaConfig::OVERCONSTRAINED_3X2),
        params: ScenarioParams {
            include_mercury: true,
            seed: derive(seed, 14),
            ..Default::default()
        },
    }
}

/// Per figure: mean CSMA, COPA and COPA+ aggregate Mbps, and how many
/// topologies produced a COPA+ outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
struct FigureMeans {
    csma: f64,
    copa: f64,
    copa_plus: f64,
    copa_plus_n: usize,
}

/// One pass over the four figures.
#[derive(Clone, Debug, PartialEq)]
struct Pass {
    figures: [FigureMeans; 4],
    /// Mean COPA+ aggregate over every topology that has one.
    copa_plus_mbps: f64,
}

fn means(exp: &ThroughputExperiment) -> Result<FigureMeans, String> {
    let series = |name: &str| {
        exp.series(name)
            .ok_or(format!("{}: series {name} missing", exp.label))
    };
    let plus = series("COPA+")?;
    Ok(FigureMeans {
        csma: series("CSMA")?.mean_mbps(),
        copa: series("COPA")?.mean_mbps(),
        copa_plus: plus.mean_mbps(),
        copa_plus_n: plus.aggregate_mbps.len(),
    })
}

fn means_of(evals: &[Evaluation]) -> FigureMeans {
    let csma: Vec<f64> = evals.iter().map(|e| e.csma.aggregate_mbps()).collect();
    let copa: Vec<f64> = evals.iter().map(|e| e.copa.aggregate_mbps()).collect();
    let plus: Vec<f64> = evals
        .iter()
        .filter_map(|e| e.copa_plus.map(|o| o.aggregate_mbps()))
        .collect();
    FigureMeans {
        csma: mean(&csma),
        copa: mean(&copa),
        copa_plus: mean(&plus),
        copa_plus_n: plus.len(),
    }
}

fn finish(figures: [FigureMeans; 4]) -> Result<Pass, String> {
    // The golden ladder: COPA+ never trails COPA, COPA beats CSMA.
    for (name, f) in FIGURES.iter().zip(&figures) {
        if !(f.copa_plus >= f.copa && f.copa > f.csma) {
            return Err(format!(
                "{name}: ladder COPA+ {:.3} >= COPA {:.3} > CSMA {:.3} broken",
                f.copa_plus, f.copa, f.csma
            ));
        }
    }
    let n: usize = figures.iter().map(|f| f.copa_plus_n).sum();
    let sum: f64 = figures
        .iter()
        .map(|f| f.copa_plus * f.copa_plus_n as f64)
        .sum();
    Ok(Pass {
        figures,
        copa_plus_mbps: sum / n.max(1) as f64,
    })
}

fn pass(inp: &Inputs) -> Result<Pass, String> {
    let t = crate::threads();
    finish([
        means(&fig10(&inp.s1, &inp.params, t))?,
        means(&fig11(&inp.s4, &inp.params, t))?,
        means(&fig12(&inp.s4, &inp.params, t))?,
        means(&fig13(&inp.s3, &inp.params, t))?,
    ])
}

fn evaluations_per_pass() -> u64 {
    (FIGURES.len() * SUITE) as u64
}

fn missing(p: &Pass) -> u64 {
    evaluations_per_pass() - p.figures.iter().map(|f| f.copa_plus_n as u64).sum::<u64>()
}

pub fn end_to_end(args: &Args) -> Result<EndToEnd, String> {
    let (inp, setup_s) = time_setup(|| inputs(args.seed));
    let timed = timed_passes(args.seconds, || pass(&inp))?;
    let first = &timed.outputs[0];
    if timed.outputs.iter().any(|p| p != first) {
        return Err("passes over the same inputs disagree".into());
    }
    let passes = timed.outputs.len() as u64;
    let failed = missing(first) * passes;
    let rate = timed.rate(evaluations_per_pass());
    let mut notes = vec![format!(
        "figures_copa_plus: topologies_per_s {rate:.3} topologies/s, copa_plus_mbps {:.4} Mbps, \
         failed_share {failed}/{} evaluations",
        first.copa_plus_mbps,
        evaluations_per_pass() * passes
    )];
    for (name, f) in FIGURES.iter().zip(&first.figures) {
        notes.push(format!(
            "  {name}: CSMA {:.2}  COPA {:.2}  COPA+ {:.2} Mbps",
            f.csma, f.copa, f.copa_plus
        ));
    }
    Ok(EndToEnd {
        setup_s,
        items_per_s: rate,
        attempted: evaluations_per_pass() * passes,
        failed,
        goodput_mbps: first.copa_plus_mbps,
        notes,
    })
}

/// One figure through the public `Engine::new` / `Engine::run` with
/// `EngineObs`, spans keyed by topology (`figure * 1000 + index`).
fn traced_figure(
    fig: usize,
    suite: &[Topology],
    params: &ScenarioParams,
    tel: &SuiteTelemetry,
    ledger: &Ledger,
) -> Result<Vec<Evaluation>, String> {
    let evals = pool_map(suite.len(), EngineWorkspace::new, |ws, idx, tid| {
        let key = (fig * 1000 + idx) as u64;
        let mut p = *params;
        p.seed = runner_seed(params.seed, idx);
        let engine = ledger.time("engine.new", key, tid, || Engine::new(p));
        ledger.time("engine.run", key, tid, || {
            engine.run(
                &mut EvalRequest::topology(&suite[idx])
                    .workspace(ws)
                    .observe(tel.engine_obs(key as u32)),
            )
        })
    });
    evals
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("fig{}: {e}", fig + 10))
}

pub fn traced(args: &Args, out: &OutDir) -> Result<Traced, String> {
    let (inp, _) = time_setup(|| inputs(args.seed));
    // The first untraced pass pays first-use costs and is the reference
    // output; the overhead compares the traced pass with a later one.
    let untraced = pass(&inp)?;

    let tel = SuiteTelemetry::with_trace(1 << 16);
    let ledger = Ledger::new();
    let weak: Vec<Topology> = inp
        .s4
        .iter()
        .map(|t| t.with_weaker_interference(10.0))
        .collect();
    let suites = [&inp.s1, &inp.s4, &weak, &inp.s3];
    let (traced, traced_s) = wall(|| -> Result<Pass, String> {
        let mut figs = Vec::with_capacity(4);
        for (fig, suite) in suites.iter().enumerate() {
            figs.push(means_of(&traced_figure(
                fig,
                suite,
                &inp.params,
                &tel,
                &ledger,
            )?));
        }
        finish([figs[0], figs[1], figs[2], figs[3]])
    });
    let traced = traced?;
    if traced != untraced {
        return Err(format!(
            "traced outputs differ from untraced: {traced:?} vs {untraced:?}"
        ));
    }
    let (again, untraced_s) = wall(|| pass(&inp));
    if again? != untraced {
        return Err("untraced passes over the same inputs disagree".into());
    }

    // Probe: the curve build inside `Engine::new`, Mercury on and off.
    let new_us = |include_mercury: bool| {
        let p = ScenarioParams {
            include_mercury,
            ..inp.params
        };
        let d = ledger.probe("probe.engine_new", NEW_PROBE_REPS, |_| Engine::new(p));
        quantile(&d, 0.5) / 1e3
    };
    let mercury_us = new_us(true);
    let plain_us = new_us(false);

    let busy_ms = ledger.total_ms("engine.new") + ledger.total_ms("engine.run");
    let mut layers = Layers::new();
    let new_calls = ledger.durations_ns("engine.new").len();
    layers.insert("engine.new_calls", new_calls as f64);
    layers.insert("engine.new_ms", ledger.total_ms("engine.new"));
    layers.insert("engine.new_us_mercury", mercury_us);
    layers.insert("engine.new_us_plain", plain_us);
    engine_layers(&mut layers, &tel);
    quantile_layers(
        &mut layers,
        "engine.eval_samples",
        &[("engine.eval_us_p50", 0.5), ("engine.eval_us_p90", 0.9)],
        &ledger.durations_ns("engine.run"),
    );
    pool_layers(&mut layers, busy_ms, traced_s);
    overhead_layers(&mut layers, untraced_s, traced_s);

    let share = |ms: f64| ms / busy_ms;
    let mut notes = crate::write_traces(out, args, &ledger, tel.trace())?;
    notes.insert(
        0,
        format!(
            "shares of pool busy time ({busy_ms:.1} ms over {} workers): engine.new {:.3}, \
             allocation {:.3}, precoding {:.3}, sinr {:.3}, csi_prep {:.3}",
            crate::threads(),
            share(layers["engine.new_ms"]),
            share(layers["engine.allocation_ms"]),
            share(layers["engine.precoding_ms"]),
            share(layers["engine.sinr_ms"]),
            share(layers["engine.csi_prep_ms"]),
        ),
    );
    Ok(Traced {
        attempted: evaluations_per_pass(),
        failed: missing(&traced),
        layers,
        notes,
    })
}

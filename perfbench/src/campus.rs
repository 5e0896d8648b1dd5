//! `campus_500`: `run_campus_suite_journaled` on a 500-AP 4x2 dense
//! campus with plain COPA, as `examples/dense_campus` runs it. Loads the
//! plain engine's kernel mix, the serial `plan_campus`, the supervisor
//! pool and journal appends; builds no MMSE curves.

use crate::ledger::{quantile, Ledger};
use crate::{
    counter_layers, derive, engine_layers, engine_phase_ms, overhead_layers, pool_layers,
    quantile_layers, time_setup, timed_passes, wall, Args, EndToEnd, Layers, OutDir, Traced,
};
use copa::channel::{AntennaConfig, Campus};
use copa::core::{EngineWorkspace, ScenarioParams};
use copa::num::batch::{svd_batch_into, CBatch, SvdBatch, SvdBatchScratch};
use copa::sim::journal::wipe_journal;
use copa::sim::json::ToJson;
use copa::sim::supervisor::TopologyOutcome;
use copa::sim::{
    evaluate_cluster, load_journal, plan_campus, run_campus_suite_journaled, CampusParams,
    CampusReport, CampusScheme, SuiteConfig, SuiteTelemetry,
};
use std::path::Path;

const CELLS: usize = 500;
/// Repetitions of the planner probe; `campus.plan_ms` is their median.
const PLAN_PROBE_REPS: usize = 3;
/// Clusters the per-cluster evaluation probe times (serially).
const EVAL_PROBE_CLUSTERS: usize = 128;
/// Cluster topologies whose four links feed the batched-SVD probe.
const SVD_PROBE_UNITS: usize = 32;

struct Inputs {
    cp: CampusParams,
    params: ScenarioParams,
    /// The sampled campus (AP/client positions and the N x N power
    /// matrix) the run will plan; the check holds the report's partition
    /// against it.
    campus: Campus,
}

fn inputs(seed: u64) -> Inputs {
    let cp = CampusParams::dense(CELLS, derive(seed, 20), AntennaConfig::CONSTRAINED_4X2);
    Inputs {
        campus: cp.sampler.sample(cp.campus_seed, cp.cells, cp.config),
        cp,
        params: ScenarioParams {
            seed: derive(seed, 21),
            ..Default::default()
        },
    }
}

/// What a pass must show: the clusters partition the campus's cells,
/// every cluster is `Done`, no panics, a finite positive per-cell rate.
struct Pass {
    json: String,
    mbps: f64,
    clusters: u64,
    not_done: u64,
}

fn check(report: &CampusReport, campus: &Campus) -> Result<Pass, String> {
    let mut seen = vec![0u32; campus.cells()];
    for &cell in report.clusters.iter().flatten() {
        match seen.get_mut(cell) {
            Some(n) => *n += 1,
            None => return Err(format!("cluster member {cell} is not a campus cell")),
        }
    }
    if seen.iter().any(|&n| n != 1) || report.cells != campus.cells() {
        return Err("clusters do not partition the campus".into());
    }
    let clusters = report.clusters.len() as u64;
    let not_done = report
        .suite
        .records
        .iter()
        .filter(|r| !matches!(r.outcome, TopologyOutcome::Done { .. }))
        .count() as u64
        + clusters.saturating_sub(report.suite.records.len() as u64);
    let h = &report.suite.health;
    if not_done > 0 || h.panicked > 0 || h.completed != clusters {
        return Err(format!(
            "{not_done} of {clusters} clusters not Done ({} completed, {} panicked)",
            h.completed, h.panicked
        ));
    }
    let mbps = report.mean_per_cell_mbps;
    if !(mbps.is_finite() && mbps > 0.0) {
        return Err(format!("mean per-cell rate {mbps}"));
    }
    Ok(Pass {
        json: report.to_json(),
        mbps,
        clusters,
        not_done,
    })
}

fn pass(inp: &Inputs, tel: Option<&SuiteTelemetry>, prefix: &Path) -> Result<Pass, String> {
    let cfg = SuiteConfig {
        threads: crate::threads(),
        telemetry: tel,
        ..Default::default()
    };
    let report = run_campus_suite_journaled(&inp.cp, &inp.params, CampusScheme::Copa, &cfg, prefix)
        .map_err(|e| format!("campus run: {e}"))?;
    check(&report, &inp.campus)
}

pub fn end_to_end(args: &Args, out: &OutDir) -> Result<EndToEnd, String> {
    let (inp, setup_s) = time_setup(|| inputs(args.seed));
    let prefix = out.journal("campus");
    let timed = timed_passes(args.seconds, || {
        let p = pass(&inp, None, &prefix);
        wipe_journal(&prefix).map_err(|e| e.to_string())?;
        p
    })?;
    let first = &timed.outputs[0];
    if timed.outputs.iter().any(|p| p.json != first.json) {
        return Err("passes over the same campus disagree".into());
    }
    let passes = timed.outputs.len() as u64;
    let rate = timed.rate(CELLS as u64);
    Ok(EndToEnd {
        setup_s,
        items_per_s: rate,
        attempted: first.clusters * passes,
        failed: first.not_done * passes,
        goodput_mbps: first.mbps,
        notes: vec![format!(
            "campus_500: cells_per_s {rate:.3} cells/s, campus_mbps_per_cell {:.4} Mbps, \
             failed_share {}/{} clusters",
            first.mbps,
            first.not_done * passes,
            first.clusters * passes
        )],
    })
}

pub fn traced(args: &Args, out: &OutDir) -> Result<Traced, String> {
    let (inp, _) = time_setup(|| inputs(args.seed));
    let prefix = out.journal("campus");
    // The first untraced pass pays first-use costs and is the reference
    // output; the overhead compares the traced pass with a later one.
    let untraced = pass(&inp, None, &prefix)?;
    wipe_journal(&prefix).map_err(|e| e.to_string())?;

    let tel = SuiteTelemetry::with_trace(1 << 18);
    let ledger = Ledger::new();
    let (traced, traced_s) = wall(|| {
        ledger.time("campus.run_suite_journaled", 0, 0, || {
            pass(&inp, Some(&tel), &prefix)
        })
    });
    let traced = traced?;
    if traced.json != untraced.json {
        return Err("traced campus report differs from the untraced one".into());
    }
    // Probe: resume-side cost of the journal the traced pass wrote.
    let state = ledger.time("journal.load", 0, 0, || {
        load_journal(&prefix, traced.clusters as u32, inp.params.seed)
    });
    let state = state.map_err(|e| format!("journal reload: {e}"))?;
    if state.records.len() as u64 != traced.clusters {
        return Err(format!(
            "journal holds {} records for {} clusters",
            state.records.len(),
            traced.clusters
        ));
    }
    wipe_journal(&prefix).map_err(|e| e.to_string())?;
    let (again, untraced_s) = wall(|| pass(&inp, None, &prefix));
    wipe_journal(&prefix).map_err(|e| e.to_string())?;
    if again?.json != untraced.json {
        return Err("untraced passes over the same campus disagree".into());
    }

    // Probe: the serial planner the suite call runs before its pool.
    let plan_ns = ledger.probe("probe.plan_campus", PLAN_PROBE_REPS, |_| {
        plan_campus(&inp.cp)
    });
    let plan = plan_campus(&inp.cp);
    // Probe: per-cluster evaluation, keyed by cluster.
    let mut ws = EngineWorkspace::new();
    for (idx, unit) in plan.units.iter().take(EVAL_PROBE_CLUSTERS).enumerate() {
        ledger
            .time("probe.evaluate_cluster", idx as u64, 0, || {
                evaluate_cluster(
                    &inp.params,
                    CampusScheme::Copa,
                    idx,
                    unit,
                    &plan.campus,
                    &mut ws,
                    None,
                )
            })
            .map_err(|e| format!("cluster {idx}: {e}"))?;
    }
    // Probe: batched SVD over one link's subcarriers, as precoding runs it.
    let mut batch = CBatch::new();
    let mut scratch = SvdBatchScratch::new();
    let mut dec = SvdBatch::default();
    for (idx, unit) in plan.units.iter().take(SVD_PROBE_UNITS).enumerate() {
        for link in unit.topology.links.iter().flatten() {
            batch.reset(link.rx(), link.tx(), link.iter().count());
            for (s, h) in link.iter().enumerate() {
                batch.load_lane(s, h);
            }
            ledger.time("probe.svd_batch", idx as u64, 0, || {
                svd_batch_into(&batch, &mut scratch, &mut dec)
            });
        }
    }

    let busy_ms = tel.registry().histogram_ref(tel.suite.attempt_us).sum() as f64 / 1e3;
    let plan_ms = quantile(&plan_ns, 0.5) / 1e6;
    let mut layers = Layers::new();
    engine_layers(&mut layers, &tel);
    quantile_layers(
        &mut layers,
        "engine.eval_samples",
        &[("engine.eval_us_p50", 0.5), ("engine.eval_us_p90", 0.9)],
        &ledger.durations_ns("probe.evaluate_cluster"),
    );
    quantile_layers(
        &mut layers,
        "num.svd_batch_samples",
        &[("num.svd_batch_us", 0.5)],
        &ledger.durations_ns("probe.svd_batch"),
    );
    pool_layers(&mut layers, busy_ms, traced_s);
    counter_layers(
        &mut layers,
        &tel,
        &[
            "suite.requeues",
            "suite.deadline_misses",
            "campus.clusters",
            "campus.pairs",
            "campus.graph_edges",
            "journal.records_appended",
            "journal.bytes_written",
            "journal.segments_sealed",
        ],
    );
    layers.insert("campus.plan_ms", plan_ms);
    layers.insert("journal.replay_ms", ledger.total_ms("journal.load"));
    overhead_layers(&mut layers, untraced_s, traced_s);

    let phases = engine_phase_ms(&layers);
    let mut notes = crate::write_traces(out, args, &ledger, tel.trace())?;
    notes.insert(
        0,
        format!(
            "shares: campus.plan {:.3} of traced wall; of engine phase time ({phases:.1} ms): \
             allocation {:.3}, precoding {:.3}, sinr {:.3}, csi_prep {:.3}",
            plan_ms / (traced_s * 1e3),
            layers["engine.allocation_ms"] / phases,
            layers["engine.precoding_ms"] / phases,
            layers["engine.sinr_ms"] / phases,
            layers["engine.csi_prep_ms"] / phases,
        ),
    );
    Ok(Traced {
        attempted: traced.clusters,
        failed: traced.not_done,
        layers,
        notes,
    })
}

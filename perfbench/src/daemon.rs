//! `daemon_chaos`: `run_daemon_journaled` on 32 trace-driven 4x2 cells
//! with 20% ITS frame loss, a churn process and journaled checkpoints, as
//! `examples/daemon_soak --chaos` runs it. Drives the engine through
//! session `Estimates` and the exchange's `Prepared` lane, plus channel
//! evolution, traffic, the ITS wire protocol and the CSI codec.
//!
//! Many cells over a short horizon (32 cells x 15 simulated seconds): at
//! a fixed number of cell-epochs per pass, the goodput mean over more
//! independent topologies varies less from seed to seed.

use crate::ledger::Ledger;
use crate::{
    counter_layers, derive, engine_layers, engine_phase_ms, overhead_layers, pool_layers,
    quantile_layers, runner_seed, time_setup, timed_passes, wall, Args, EndToEnd, Layers, OutDir,
    Traced,
};
use copa::channel::evolution::ChannelDrift;
use copa::channel::{
    AntennaConfig, ChannelScratch, FaultPlan, MultipathProfile, Topology, TopologySampler,
};
use copa::core::coordinator::Coordinator;
use copa::core::{CellSession, Engine, ScenarioParams};
use copa::sim::churn::{ChurnConfig, ChurnSource};
use copa::sim::journal::wipe_journal;
use copa::sim::json::ToJson;
use copa::sim::{
    load_journal_raw, run_daemon_journaled, DaemonConfig, DaemonReport, SuiteTelemetry,
};
use std::path::Path;

const CELLS: usize = 32;
const EPOCHS: u64 = 1_500;
const CHECKPOINT_EVERY: u64 = 500;
const FRAME_LOSS: f64 = 0.2;
/// Coherence blocks each cell steps through in the layer probes.
const PROBE_BLOCKS: u64 = 4;

struct Inputs {
    suite: Vec<Topology>,
    params: ScenarioParams,
    faults: FaultPlan,
}

fn inputs(seed: u64) -> Inputs {
    Inputs {
        suite: TopologySampler::default().suite(
            derive(seed, 30),
            CELLS,
            AntennaConfig::CONSTRAINED_4X2,
        ),
        params: ScenarioParams {
            seed: derive(seed, 31),
            ..Default::default()
        },
        faults: FaultPlan::lossy(derive(seed, 32), FRAME_LOSS),
    }
}

fn config<'a>(inp: &Inputs, threads: usize, tel: Option<&'a SuiteTelemetry>) -> DaemonConfig<'a> {
    DaemonConfig {
        epochs: EPOCHS,
        checkpoint_every: CHECKPOINT_EVERY,
        threads,
        telemetry: tel,
        faults: Some(inp.faults),
        churn: Some(ChurnSource::Process(ChurnConfig {
            mean_gap_epochs: 1_000,
            ..ChurnConfig::default()
        })),
        ..DaemonConfig::default()
    }
}

struct Pass {
    json: String,
    report: DaemonReport,
    /// Σ `phy_bits` over Σ active time, Mbps per cell.
    mbps: f64,
}

/// Runs one journaled daemon pass, then checks the journal re-loads with
/// one checkpoint per round and every per-cell rate is finite.
fn pass(
    inp: &Inputs,
    cfg: &DaemonConfig<'_>,
    prefix: &Path,
    replay: Option<&Ledger>,
) -> Result<Pass, String> {
    let report = run_daemon_journaled(&inp.params, &inp.suite, cfg, prefix)
        .map_err(|e| format!("daemon run: {e}"))?;
    let load = || load_journal_raw(prefix, CELLS as u32, inp.params.seed);
    let state = match replay {
        Some(l) => l.time("journal.load_raw", 0, 0, load),
        None => load(),
    }
    .map_err(|e| format!("journal reload: {e}"))?;
    wipe_journal(prefix).map_err(|e| e.to_string())?;
    let rounds = EPOCHS / CHECKPOINT_EVERY;
    if state.payloads.len() as u64 != rounds {
        return Err(format!(
            "journal holds {} checkpoints for {rounds} rounds",
            state.payloads.len()
        ));
    }
    if let Some(c) = report
        .per_cell
        .iter()
        .find(|c| !(c.phy_bits.is_finite() && c.last_mbps.is_finite()))
    {
        return Err(format!("cell {} rate is not finite", c.cell));
    }
    let bits: f64 = report.per_cell.iter().map(|c| c.phy_bits).sum();
    let active_us = report.active_cell_epochs as f64 * report.epoch_us as f64;
    if !(active_us > 0.0 && bits > 0.0) {
        return Err("no cell served traffic".into());
    }
    Ok(Pass {
        json: report.to_json(),
        report,
        mbps: bits / active_us,
    })
}

pub fn end_to_end(args: &Args, out: &OutDir) -> Result<EndToEnd, String> {
    let (inp, setup_s) = time_setup(|| inputs(args.seed));
    let prefix = out.journal("daemon");
    let cfg = config(&inp, crate::threads(), None);
    let timed = timed_passes(args.seconds, || pass(&inp, &cfg, &prefix, None))?;
    let first = &timed.outputs[0];
    if timed.outputs.iter().any(|p| p.json != first.json) {
        return Err("passes over the same cells disagree".into());
    }
    let passes = timed.outputs.len() as u64;
    let rate = timed.rate(CELLS as u64 * EPOCHS);
    let r = &first.report;
    Ok(EndToEnd {
        setup_s,
        items_per_s: rate,
        attempted: CELLS as u64 * EPOCHS * passes,
        failed: 0,
        goodput_mbps: first.mbps,
        notes: vec![format!(
            "daemon_chaos: cell_epochs_per_s {rate:.1} cell-epochs/s, daemon_mbps_per_cell {:.4} \
             Mbps, failed_share {}/{} degraded of active cell-epochs",
            first.mbps, r.degraded_cell_epochs, r.active_cell_epochs
        )],
    })
}

/// Layer probes on the daemon's own cells, keyed by cell: block drift,
/// one ITS exchange at the run's loss rate, and a session evaluation on
/// the refreshed estimates.
fn probes(inp: &Inputs, ledger: &Ledger) -> Result<(), String> {
    let drift = ChannelDrift::new(
        inp.params.seed,
        ChannelDrift::RHO_HALF_LIFE,
        MultipathProfile::default(),
    );
    let mut scratch = ChannelScratch::new();
    for (cell, base) in inp.suite.iter().enumerate() {
        let key = cell as u64;
        let mut p = inp.params;
        p.seed = runner_seed(inp.params.seed, cell);
        let coordinator = Coordinator::new(Engine::new(p));
        let mut session = CellSession::new(p);
        let mut topo = base.clone();
        for block in 1..=PROBE_BLOCKS {
            ledger.time("probe.advance_topology", key, 0, || {
                drift.advance_topology(key, block - 1, block, &mut topo, &mut scratch)
            });
            ledger
                .time("probe.exchange", key, 0, || {
                    coordinator.run_exchange_with_faults(&topo, 0, &inp.faults, key * 1_000 + block)
                })
                .map_err(|e| format!("cell {cell} exchange: {e}"))?;
            session.exchange(&topo, block * 1_000_000);
            ledger
                .time("probe.session_evaluate", key, 0, || {
                    session.evaluate(&topo, None)
                })
                .map_err(|e| format!("cell {cell} evaluation: {e}"))?;
        }
    }
    Ok(())
}

pub fn traced(args: &Args, out: &OutDir) -> Result<Traced, String> {
    let (inp, _) = time_setup(|| inputs(args.seed));
    let prefix = out.journal("daemon");
    let threads = crate::threads();
    // The first untraced pass pays first-use costs and is the reference
    // output; the overhead and scaling compare later passes.
    let pooled = config(&inp, threads, None);
    let untraced = pass(&inp, &pooled, &prefix, None)?;

    let tel = SuiteTelemetry::with_trace(1 << 16);
    let ledger = Ledger::new();
    let (traced, traced_s) = wall(|| {
        ledger.time("daemon.run_journaled", 0, 0, || {
            pass(
                &inp,
                &config(&inp, threads, Some(&tel)),
                &prefix,
                Some(&ledger),
            )
        })
    });
    let traced = traced?;
    if traced.json != untraced.json {
        return Err("traced daemon report differs from the untraced one".into());
    }
    let (again, untraced_s) = wall(|| pass(&inp, &pooled, &prefix, None));
    if again?.json != untraced.json {
        return Err("untraced passes over the same cells disagree".into());
    }
    let (serial, serial_s) = wall(|| pass(&inp, &config(&inp, 1, None), &prefix, None));
    if serial?.json != untraced.json {
        return Err("the 1-thread daemon report differs from the pooled one".into());
    }
    probes(&inp, &ledger)?;

    let exchanges = ledger.durations_ns("probe.exchange");
    let mut layers = Layers::new();
    engine_layers(&mut layers, &tel);
    quantile_layers(
        &mut layers,
        "engine.eval_samples",
        &[("engine.eval_us_p50", 0.5), ("engine.eval_us_p90", 0.9)],
        &ledger.durations_ns("probe.session_evaluate"),
    );
    quantile_layers(
        &mut layers,
        "exchange.samples",
        &[("exchange.us_p50", 0.5), ("exchange.us_p90", 0.9)],
        &exchanges,
    );
    quantile_layers(
        &mut layers,
        "channel.advance_samples",
        &[("channel.advance_us", 0.5)],
        &ledger.durations_ns("probe.advance_topology"),
    );
    // The daemon's chunked pool exports no busy time; the 1-thread run's
    // wall is the work it spreads across its workers.
    pool_layers(&mut layers, serial_s * 1e3, untraced_s);
    layers.insert("daemon.thread_scaling", serial_s / untraced_s);
    counter_layers(
        &mut layers,
        &tel,
        &[
            "its.frames_sent",
            "its.frames_retried",
            "its.frames_lost",
            "its.exchanges_degraded",
            "daemon.exchanges",
            "daemon.evals",
            "daemon.active_cell_epochs",
            "journal.records_appended",
            "journal.bytes_written",
            "journal.segments_sealed",
        ],
    );
    let reg = tel.registry();
    let degraded = reg.counter_value(tel.daemon.degraded_epochs) as f64;
    let active = layers["daemon.active_cell_epochs"];
    layers.insert("daemon.degraded_share", degraded / active);
    layers.insert(
        "daemon.evals_per_active_epoch",
        layers["daemon.evals"] / active,
    );
    layers.insert("journal.replay_ms", ledger.total_ms("journal.load_raw"));
    overhead_layers(&mut layers, untraced_s, traced_s);

    let serial_ms = serial_s * 1e3;
    let mean_exchange_ms =
        exchanges.iter().sum::<u64>() as f64 / exchanges.len().max(1) as f64 / 1e6;
    let mut notes = crate::write_traces(out, args, &ledger, tel.trace())?;
    notes.insert(
        0,
        format!(
            "shares of 1-thread wall ({serial_ms:.1} ms): observed engine phases {:.3}, \
             exchanges (probe mean x count) {:.3}; degraded {degraded}/{active} active \
             cell-epochs",
            engine_phase_ms(&layers) / serial_ms,
            mean_exchange_ms * layers["daemon.exchanges"] / serial_ms,
        ),
    );
    Ok(Traced {
        attempted: CELLS as u64 * EPOCHS,
        failed: 0,
        layers,
        notes,
    })
}

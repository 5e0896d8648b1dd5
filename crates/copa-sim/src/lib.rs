//! # copa-sim
//!
//! The experiment harness that regenerates every table and figure in the
//! paper's evaluation:
//!
//! * [`figures`] -- microscopic experiments (Figures 2, 3, 4, 7, 9).
//! * [`throughput`] -- the topology-suite CDF experiments (Figures 10-13)
//!   and the multi-decoder comparison (Figure 14).
//! * [`report`] -- the paper's headline statistics and text rendering.
//! * `pool` -- the one worker pool every runner maps its items through:
//!   std scoped threads claiming items from a shared cursor, one state
//!   per worker, results in item order, per-index seeds.
//! * [`runner`] -- parallel suite evaluation on the pool.
//! * [`supervisor`] -- the supervised suite runner: panic isolation,
//!   per-topology deadlines with bounded-retry backoff, and the
//!   [`SuiteHealth`] report.
//! * [`journal`] -- the crash-safe checkpoint journal backing
//!   [`run_suite_resumed`].
//! * [`degradation`] -- suites under injected ITS faults: retries, CSMA
//!   fallbacks and [`DegradationStats`] accounting.
//! * [`json`] -- the dependency-free JSON writer all reports serialize
//!   through (re-exported from `copa-obs`, which adds a reader).
//! * [`telemetry`] -- the [`SuiteTelemetry`] bundle: one shared registry
//!   of engine/exchange/supervisor/journal metrics over `copa-obs`.
//! * [`ablations`] -- design-choice sweeps (coherence time, impairments,
//!   allocator comparison, CSI aging) beyond the paper's own figures.
//! * [`validation`] -- Monte-Carlo validation of the analytic BER chain
//!   against the bit-true 802.11 baseband pipeline.
//! * [`reuse`] -- subcarrier reuse analysis: how much of a concurrent
//!   solution is OFDMA-style partitioning vs true spatial sharing (4.2).
//! * [`campus`] -- the N-cell layer: interference-graph clustering of a
//!   dense campus and per-cluster COPA over the supervised pool
//!   ([`run_campus_suite`]); clusters of three or more APs rotate leaders
//!   over pairwise ITS exchanges ([`rotate_leaders`], the paper's
//!   section 3.1 future work).
//! * [`traffic`] -- deterministic bursty arrivals with heavy-tailed flow
//!   sizes: the trace that decides which cells are active per epoch.
//! * [`churn`] -- the seeded arrival/departure process: membership events
//!   that tear down / cold-start sessions and re-fold residual noise.
//! * [`daemon`] -- the event-driven coordination daemon: a long-lived
//!   epoch loop with channel evolution, CSI aging (the one simulation of
//!   refresh policy on a drifting channel), fault-injected ITS
//!   exchanges with degraded-session recovery, cell churn, amortized
//!   evaluation and journaled kill-and-resume replay.

#![warn(missing_docs)]

pub mod ablations;
pub mod campus;
pub mod churn;
pub mod daemon;
pub mod degradation;
pub mod figures;
pub mod journal;
pub mod json;
mod pool;
pub mod report;
pub mod reuse;
pub mod runner;
pub mod supervisor;
pub mod telemetry;
pub mod throughput;
pub mod traffic;
pub mod validation;

pub use ablations::{
    allocator_comparison, coherence_sweep, correlation_sweep, csi_aging_sweep, impairment_sweep,
};
pub use campus::{
    evaluate_cluster, plan_campus, rotate_leaders, run_campus_suite, run_campus_suite_journaled,
    run_campus_suite_resumed, CampusParams, CampusPlan, CampusReport, CampusScheme, ClusterUnit,
    Rotation,
};
pub use daemon::{
    run_daemon, run_daemon_journaled, run_daemon_resumed, CellSummary, DaemonConfig, DaemonReport,
};
pub use degradation::{run_degraded_suite, DegradationStats, DegradedSuiteResult};
pub use figures::{fig2, fig3, fig4, fig7, fig9, standard_suite};
pub use journal::{
    load_journal, load_journal_raw, JournalState, JournalStats, JournalWriter, RawJournalState,
};
pub use report::{headline_stats, render_experiment, HeadlineStats};
pub use runner::{evaluate_parallel, evaluate_serial, try_evaluate_parallel};
pub use supervisor::{
    evaluate_guarded, run_suite, run_suite_journaled, run_suite_resumed, MonotonicClock,
    SuiteClock, SuiteConfig, SuiteHealth, SuiteReport, TopologyOutcome, TopologyRecord,
};
pub use telemetry::{
    exported_counter, CampusMetrics, DaemonMetrics, JournalMetrics, SuiteTelemetry,
    SupervisorMetrics,
};
pub use throughput::{
    fig10, fig11, fig12, fig13, fig14_scenario, SchemeSeries, ThroughputExperiment,
};
pub use traffic::{TrafficConfig, TrafficEpoch, TrafficState};
pub use validation::{
    run_waveform_grid, validator_setup, ValidatorSetup, WaveformGridConfig, WaveformPoint,
    WaveformSim,
};

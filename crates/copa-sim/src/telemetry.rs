//! Suite-level telemetry: one shared registry bundling every layer's
//! metrics (engine phases, ITS exchanges, supervisor scheduling, journal
//! IO) plus the clock spans are timed against.
//!
//! A [`SuiteTelemetry`] is handed to the supervisor by reference via
//! [`crate::supervisor::SuiteConfig::telemetry`]; recording is `&self`
//! and lock-free, so one bundle is shared by every worker thread and the
//! totals (sums and histogram counts) do not depend on which worker
//! recorded what. With `telemetry: None` the runner takes the exact
//! pre-telemetry path: no clock reads, no atomics, no allocation,
//! bit-identical results.
//!
//! Span durations are the only scheduling-sensitive samples; the
//! determinism suite injects a [`copa_obs::FrozenClock`] via
//! [`SuiteTelemetry::with_clock`] so they collapse to zero and merged
//! JSON is byte-identical across thread counts.

use crate::journal::JournalStats;
use crate::json::ToJson;
use crate::supervisor::{MonotonicClock, SuiteClock};
use copa_core::{EngineMetrics, EngineObs, ExchangeMetrics, ExchangeObs};
use copa_obs::json::Value;
use copa_obs::{CounterId, HistogramId, ObsClock, Sink, Telemetry, TraceBuffer};

/// Reads counter `name` out of a parsed registry JSON export, panicking
/// with a useful message when the metric is missing. The smoke examples
/// share this so "every wired layer shows up in the export" is asserted
/// the same way everywhere.
pub fn exported_counter(doc: &Value, name: &str) -> u64 {
    let missing = format!("counter {name} missing from registry JSON");
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .expect(&missing)
}

impl ObsClock for MonotonicClock {
    fn now_us(&self) -> u64 {
        SuiteClock::now_us(self)
    }
}

/// Handles to the supervisor's scheduling metrics on a shared registry.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorMetrics {
    /// Topologies that evaluated successfully.
    pub completed: CounterId,
    /// Topologies lost to a worker panic.
    pub panicked: CounterId,
    /// Topologies rejected by the conditioning quarantine.
    pub quarantined: CounterId,
    /// Topologies that exhausted their deadline-retry budget.
    pub abandoned: CounterId,
    /// Topologies that failed with any other error.
    pub failed: CounterId,
    /// Attempts retried after a deadline miss.
    pub requeues: CounterId,
    /// Attempts that exceeded their deadline.
    pub deadline_misses: CounterId,
    /// Microseconds of headroom left when an attempt met its deadline.
    pub deadline_margin_us: HistogramId,
    /// Wall time charged to each attempt (per the suite clock).
    pub attempt_us: HistogramId,
}

impl SupervisorMetrics {
    /// Registers the supervisor metric names on `tel` (idempotent).
    pub fn register(tel: &mut Telemetry) -> Self {
        Self {
            completed: tel.counter("suite.completed"),
            panicked: tel.counter("suite.panicked"),
            quarantined: tel.counter("suite.quarantined"),
            abandoned: tel.counter("suite.abandoned"),
            failed: tel.counter("suite.failed"),
            requeues: tel.counter("suite.requeues"),
            deadline_misses: tel.counter("suite.deadline_misses"),
            deadline_margin_us: tel.histogram("suite.deadline_margin_us"),
            attempt_us: tel.histogram("suite.attempt_us"),
        }
    }
}

/// Handles to the checkpoint journal's IO metrics on a shared registry.
#[derive(Clone, Copy, Debug)]
pub struct JournalMetrics {
    /// Records physically appended (including re-appended salvage).
    pub records_appended: CounterId,
    /// Segments sealed (fsync + atomic rename).
    pub segments_sealed: CounterId,
    /// Record frame bytes written (headers excluded).
    pub bytes_written: CounterId,
    /// Records replayed from disk by a resumed run.
    pub records_replayed: CounterId,
    /// Torn/corrupt files whose valid prefix had to be salvaged.
    pub salvage_events: CounterId,
}

impl JournalMetrics {
    /// Registers the journal metric names on `tel` (idempotent).
    pub fn register(tel: &mut Telemetry) -> Self {
        Self {
            records_appended: tel.counter("journal.records_appended"),
            segments_sealed: tel.counter("journal.segments_sealed"),
            bytes_written: tel.counter("journal.bytes_written"),
            records_replayed: tel.counter("journal.records_replayed"),
            salvage_events: tel.counter("journal.salvage_events"),
        }
    }
}

/// Handles to the campus layer's partition metrics on a shared registry.
/// Recorded once per run, before supervision starts, so the registry
/// stays thread-count invariant by construction.
#[derive(Clone, Copy, Debug)]
pub struct CampusMetrics {
    /// Cells in the campus.
    pub cells: CounterId,
    /// Above-threshold interference-graph edges.
    pub graph_edges: CounterId,
    /// Coordination clusters formed.
    pub clusters: CounterId,
    /// Clusters of size 1 (solo cells).
    pub singletons: CounterId,
    /// Clusters of size 2 (pair-engine units).
    pub pairs: CounterId,
    /// Clusters of size 3+ (leader rotation).
    pub multis: CounterId,
    /// Cluster sizes.
    pub cluster_size: HistogramId,
    /// Per-cell residual (out-of-cluster) interference over noise, dB,
    /// clamped at 0.
    pub residual_inr_db: HistogramId,
}

impl CampusMetrics {
    /// Registers the campus metric names on `tel` (idempotent).
    pub fn register(tel: &mut Telemetry) -> Self {
        Self {
            cells: tel.counter("campus.cells"),
            graph_edges: tel.counter("campus.graph_edges"),
            clusters: tel.counter("campus.clusters"),
            singletons: tel.counter("campus.singletons"),
            pairs: tel.counter("campus.pairs"),
            multis: tel.counter("campus.multis"),
            cluster_size: tel.histogram("campus.cluster_size"),
            residual_inr_db: tel.histogram("campus.residual_inr_db"),
        }
    }
}

/// Handles to the event-driven daemon's epoch-loop metrics on a shared
/// registry. Counters accumulate across rounds, so a streaming consumer
/// sees them grow monotonically while the daemon runs.
#[derive(Clone, Copy, Debug)]
pub struct DaemonMetrics {
    /// Epochs completed (per cell-epoch the loop ticked).
    pub epochs: CounterId,
    /// Cell-epochs that had backlog to serve.
    pub active_cell_epochs: CounterId,
    /// CSI exchanges scheduled (cold start, staleness or churn).
    pub exchanges: CounterId,
    /// Full engine evaluations run (new coherence block or fresh CSI).
    pub evals: CounterId,
    /// Epoch checkpoints appended to the journal.
    pub checkpoints: CounterId,
    /// Traffic flows drained to completion.
    pub flows_completed: CounterId,
    /// Cell-epochs served pinned to CSMA while degraded.
    pub degraded_epochs: CounterId,
    /// Recovery exchanges attempted while degraded (success or not).
    pub recovery_attempts: CounterId,
    /// Membership events (joins + leaves) applied to their own cell.
    pub churn_events: CounterId,
    /// Wall time per daemon round (per the suite clock).
    pub round_us: HistogramId,
    /// Degradation bout length at recovery, in epochs (log2 buckets).
    pub recovery_epochs: HistogramId,
}

impl DaemonMetrics {
    /// Registers the daemon metric names on `tel` (idempotent).
    pub fn register(tel: &mut Telemetry) -> Self {
        Self {
            epochs: tel.counter("daemon.epochs"),
            active_cell_epochs: tel.counter("daemon.active_cell_epochs"),
            exchanges: tel.counter("daemon.exchanges"),
            evals: tel.counter("daemon.evals"),
            checkpoints: tel.counter("daemon.checkpoints"),
            flows_completed: tel.counter("daemon.flows_completed"),
            degraded_epochs: tel.counter("daemon.degraded_epochs"),
            recovery_attempts: tel.counter("daemon.recovery_attempts"),
            churn_events: tel.counter("daemon.churn_events"),
            round_us: tel.histogram("daemon.round_us"),
            recovery_epochs: tel.histogram("daemon.recovery_epochs"),
        }
    }
}

/// One registry with every layer's metrics pre-registered, plus the span
/// clock: the bundle a suite run records into.
pub struct SuiteTelemetry {
    registry: Telemetry,
    clock: Box<dyn ObsClock + Send + Sync>,
    /// Engine phase metrics (registered via `copa-core`).
    pub engine: EngineMetrics,
    /// ITS exchange metrics (registered via `copa-core`).
    pub exchange: ExchangeMetrics,
    /// Supervisor scheduling metrics.
    pub suite: SupervisorMetrics,
    /// Checkpoint journal IO metrics.
    pub journal: JournalMetrics,
    /// Campus partition metrics (N-cell layer).
    pub campus: CampusMetrics,
    /// Event-driven daemon epoch-loop metrics.
    pub daemon: DaemonMetrics,
}

impl Default for SuiteTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl SuiteTelemetry {
    /// A bundle with tracing disabled and wall-clock spans.
    pub fn new() -> Self {
        Self::from_registry(Telemetry::new())
    }

    /// A bundle that also captures up to `cap` chrome-trace events.
    pub fn with_trace(cap: usize) -> Self {
        Self::from_registry(Telemetry::new().with_trace(cap))
    }

    fn from_registry(mut registry: Telemetry) -> Self {
        let engine = EngineMetrics::register(&mut registry);
        let exchange = ExchangeMetrics::register(&mut registry);
        let suite = SupervisorMetrics::register(&mut registry);
        let journal = JournalMetrics::register(&mut registry);
        let campus = CampusMetrics::register(&mut registry);
        let daemon = DaemonMetrics::register(&mut registry);
        Self {
            registry,
            clock: Box::new(MonotonicClock::new()),
            engine,
            exchange,
            suite,
            journal,
            campus,
            daemon,
        }
    }

    /// Replaces the span clock (e.g. [`copa_obs::FrozenClock`] so the
    /// determinism suite gets thread-count-invariant telemetry).
    pub fn with_clock(mut self, clock: Box<dyn ObsClock + Send + Sync>) -> Self {
        self.clock = clock;
        self
    }

    /// The underlying registry (also the [`Sink`] recording goes to).
    pub fn registry(&self) -> &Telemetry {
        &self.registry
    }

    /// The clock spans are timed against.
    pub fn clock(&self) -> &dyn ObsClock {
        &*self.clock
    }

    /// The trace buffer, when tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.registry.trace()
    }

    /// Adds `delta` to a counter.
    pub fn count(&self, id: CounterId, delta: u64) {
        self.registry.add(id, delta);
    }

    /// Records one histogram sample.
    pub fn sample(&self, id: HistogramId, value: u64) {
        self.registry.record(id, value);
    }

    /// An engine observation context on this bundle, trace track `tid`
    /// (the supervisor uses the topology index).
    pub fn engine_obs(&self, tid: u32) -> EngineObs<'_> {
        EngineObs::new(&self.registry, &*self.clock, self.engine).tid(tid)
    }

    /// An ITS exchange observation context on this bundle.
    pub fn exchange_obs(&self) -> ExchangeObs<'_> {
        ExchangeObs::new(&self.registry, self.exchange)
    }

    /// Counts a sealed journal's write-side totals.
    pub(crate) fn journal_sealed(&self, stats: &JournalStats) {
        self.count(self.journal.records_appended, stats.records_appended);
        self.count(
            self.journal.segments_sealed,
            u64::from(stats.segments_sealed),
        );
        self.count(self.journal.bytes_written, stats.bytes_written);
    }

    /// Counts what a resumed run replayed from its journal.
    pub(crate) fn journal_replayed(&self, records: usize, salvage_events: u32) {
        self.count(self.journal.records_replayed, records as u64);
        self.count(self.journal.salvage_events, u64::from(salvage_events));
    }
}

impl ToJson for SuiteTelemetry {
    /// Canonical registry JSON (metric names sorted; see
    /// [`copa_obs::Telemetry`]).
    fn write_json(&self, out: &mut String) {
        self.registry.write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_obs::FrozenClock;

    #[test]
    fn bundle_registers_every_layer() {
        let tel = SuiteTelemetry::new();
        for name in [
            "engine.evaluations",
            "its.frames_sent",
            "suite.completed",
            "journal.segments_sealed",
        ] {
            assert_eq!(tel.registry().counter_by_name(name), Some(0), "{name}");
        }
        assert!(tel.trace().is_none());
        assert!(SuiteTelemetry::with_trace(8).trace().is_some());
    }

    #[test]
    fn obs_contexts_record_into_the_shared_registry() {
        let tel = SuiteTelemetry::new().with_clock(Box::new(FrozenClock(0)));
        let obs = tel.engine_obs(3);
        obs.sink.add(obs.metrics.evaluations, 2);
        let xo = tel.exchange_obs();
        xo.sink.add(xo.metrics.frames_sent, 5);
        tel.count(tel.suite.requeues, 1);
        tel.sample(tel.suite.attempt_us, 4);
        assert_eq!(
            tel.registry().counter_by_name("engine.evaluations"),
            Some(2)
        );
        assert_eq!(tel.registry().counter_by_name("its.frames_sent"), Some(5));
        assert_eq!(tel.registry().counter_by_name("suite.requeues"), Some(1));
        assert_eq!(
            tel.registry().histogram_ref(tel.suite.attempt_us).count(),
            1
        );
    }
}

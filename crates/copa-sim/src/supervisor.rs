//! Supervised suite runner: panic isolation, per-topology deadlines with
//! bounded-retry backoff, and crash-safe checkpoint/resume.
//!
//! [`run_suite`] supervises each topology on whichever worker of the
//! crate's pool ([`crate::pool`]) claims it, with three layers of
//! run-level robustness:
//!
//! 1. **Panic isolation** -- every attempt runs under the one
//!    `catch_unwind` guard [`evaluate_guarded`] also uses; a panicking
//!    evaluation discards its (possibly corrupt) workspace, records a
//!    `Panicked` outcome for that one topology, and the worker keeps
//!    claiming work. One poisoned evaluation costs one topology, not the
//!    pool.
//! 2. **Deadline + retry supervision** -- a monotonic clock (injected as
//!    [`SuiteClock`], so tests stay deterministic) charges each attempt
//!    against an airtime-proportional deadline. A straggler sleeps a
//!    capped exponential backoff and retries on the same worker;
//!    topologies that exhaust the retry budget are classified `Abandoned`.
//!    [`SuiteHealth`] is a fold over the records, so the report is
//!    thread-count invariant whenever the clock is.
//! 3. **Checkpoint/resume** -- completed records append to the
//!    [`crate::journal`]; [`run_suite_resumed`] replays it, skips the
//!    indices already on disk, and produces byte-identical JSON to an
//!    uninterrupted run.

use crate::journal::{load_journal, JournalWriter};
use crate::json::{Obj, ToJson};
use crate::pool;
use crate::runner::seed_for;
use crate::telemetry::SuiteTelemetry;
use copa_channel::Topology;
use copa_core::{CopaError, Engine, EngineWorkspace, EvalRequest, ScenarioParams, Strategy};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The supervisor's notion of time. Injected so tests can script deadline
/// misses deterministically; production uses [`MonotonicClock`].
pub trait SuiteClock: Sync {
    /// Microseconds since an arbitrary (monotonic) origin.
    fn now_us(&self) -> u64;

    /// Parks the calling worker for about `us` microseconds.
    fn sleep_us(&self, us: u64);

    /// Wall time charged to one evaluation attempt. The default is the
    /// real elapsed time; deterministic tests override this with a pure
    /// function of `(idx, attempt)` so every thread count observes the
    /// same misses.
    fn attempt_us(&self, idx: usize, attempt: u32, start_us: u64, end_us: u64) -> u64 {
        let _ = (idx, attempt);
        end_us.saturating_sub(start_us)
    }
}

/// Real time: `Instant`-based, immune to wall-clock steps.
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl SuiteClock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn sleep_us(&self, us: u64) {
        std::thread::sleep(Duration::from_micros(us));
    }
}

/// Supervision policy for one suite run.
#[derive(Clone, Copy)]
pub struct SuiteConfig<'a> {
    /// Worker threads of the pool, like the plain runner.
    pub threads: usize,
    /// Deadline per topology is this many microseconds per spatial stream
    /// (airtime-proportional: a 4x2 topology gets twice a 1x1's budget).
    /// `u64::MAX` disables deadline supervision entirely.
    pub deadline_us_per_stream: u64,
    /// How many times a straggler is retried before being `Abandoned`.
    pub max_deadline_retries: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_us: u64,
    /// Exponential backoff is capped here.
    pub backoff_cap_us: u64,
    /// Journal segment rotation threshold (records per sealed segment).
    pub records_per_segment: u32,
    /// Stop claiming fresh topologies after this many suite indices: a
    /// deterministic stand-in for "the process was killed mid-suite" in
    /// resume tests. `None` runs the whole suite.
    pub stop_after: Option<usize>,
    /// Clock override for deterministic tests; `None` uses real time.
    pub clock: Option<&'a dyn SuiteClock>,
    /// Telemetry bundle the run records into. `None` (the default) takes
    /// the exact pre-telemetry path: no clock reads, no atomics, and
    /// bit-identical results.
    pub telemetry: Option<&'a SuiteTelemetry>,
}

impl Default for SuiteConfig<'_> {
    fn default() -> Self {
        Self {
            threads: 4,
            deadline_us_per_stream: 30_000_000,
            max_deadline_retries: 2,
            backoff_base_us: 1_000,
            backoff_cap_us: 100_000,
            records_per_segment: 64,
            stop_after: None,
            clock: None,
            telemetry: None,
        }
    }
}

/// How one topology's supervision ended.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologyOutcome {
    /// Evaluation completed: COPA-fair aggregate throughput and choice.
    Done {
        /// Aggregate COPA-fair throughput, Mbps.
        mbps: f64,
        /// The strategy COPA-fair selected.
        strategy: Strategy,
    },
    /// The evaluation panicked; the worker's workspace was rebuilt.
    Panicked {
        /// The panic payload, downcast to text when possible.
        payload: String,
    },
    /// The conditioning quarantine rejected a channel.
    Quarantined {
        /// Which estimated channel tripped the limit (e.g. `"est[1][1]"`).
        context: String,
        /// The offending subcarrier.
        subcarrier: u32,
        /// Its measured condition number.
        cond: f64,
    },
    /// Every attempt missed its deadline; the retry budget is exhausted.
    Abandoned,
    /// Evaluation returned some other [`CopaError`].
    Failed {
        /// The error's display form.
        error: String,
    },
}

/// One topology's supervised result (the unit the journal checkpoints).
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyRecord {
    /// Suite index of the topology.
    pub index: u32,
    /// Evaluation attempts made (1 unless deadlines forced retries).
    pub attempts: u32,
    /// Total backoff this topology slept between retries, microseconds.
    pub backoff_us: u64,
    /// How supervision ended.
    pub outcome: TopologyOutcome,
}

impl ToJson for TopologyRecord {
    fn write_json(&self, out: &mut String) {
        let o = Obj::new(out)
            .field("index", &self.index)
            .field("attempts", &self.attempts)
            .field("backoff_us", &self.backoff_us);
        match &self.outcome {
            TopologyOutcome::Done { mbps, strategy } => o
                .field("status", &"done")
                .field("mbps", mbps)
                .field("strategy", &strategy.to_string())
                .finish(),
            TopologyOutcome::Panicked { payload } => o
                .field("status", &"panicked")
                .field("payload", payload)
                .finish(),
            TopologyOutcome::Quarantined {
                context,
                subcarrier,
                cond,
            } => o
                .field("status", &"quarantined")
                .field("context", context)
                .field("subcarrier", subcarrier)
                .field("cond", cond)
                .finish(),
            TopologyOutcome::Abandoned => o.field("status", &"abandoned").finish(),
            TopologyOutcome::Failed { error } => {
                o.field("status", &"failed").field("error", error).finish()
            }
        }
    }
}

/// Suite-wide supervision accounting: a fold of [`SuiteHealth::absorb`]
/// over a run's records. Sums and a max do not depend on record order, so
/// totals are independent of which worker handled which topology.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuiteHealth {
    /// Topologies that evaluated successfully.
    pub completed: u64,
    /// Topologies lost to a worker panic.
    pub panicked: u64,
    /// Topologies rejected by the conditioning quarantine.
    pub quarantined: u64,
    /// Topologies that exhausted their deadline-retry budget.
    pub abandoned: u64,
    /// Topologies that failed with any other error.
    pub failed: u64,
    /// Individual attempts that missed their deadline.
    pub deadline_misses: u64,
    /// Total backoff spent across all retries, microseconds.
    pub backoff_us: u64,
    /// Largest condition number seen among quarantined topologies
    /// (0 when none were quarantined).
    pub max_cond: f64,
}

impl Default for SuiteHealth {
    fn default() -> Self {
        Self {
            completed: 0,
            panicked: 0,
            quarantined: 0,
            abandoned: 0,
            failed: 0,
            deadline_misses: 0,
            backoff_us: 0,
            max_cond: 0.0,
        }
    }
}

impl SuiteHealth {
    /// Accounts one finished record.
    pub fn absorb(&mut self, rec: &TopologyRecord) {
        self.backoff_us += rec.backoff_us;
        match &rec.outcome {
            TopologyOutcome::Done { .. } => {
                self.completed += 1;
                self.deadline_misses += u64::from(rec.attempts - 1);
            }
            TopologyOutcome::Panicked { .. } => {
                self.panicked += 1;
                self.deadline_misses += u64::from(rec.attempts - 1);
            }
            TopologyOutcome::Quarantined { cond, .. } => {
                self.quarantined += 1;
                self.deadline_misses += u64::from(rec.attempts - 1);
                if *cond > self.max_cond {
                    self.max_cond = *cond;
                }
            }
            TopologyOutcome::Abandoned => {
                self.abandoned += 1;
                // Every attempt of an abandoned topology was a miss.
                self.deadline_misses += u64::from(rec.attempts);
            }
            TopologyOutcome::Failed { .. } => {
                self.failed += 1;
                self.deadline_misses += u64::from(rec.attempts - 1);
            }
        }
    }
}

impl ToJson for SuiteHealth {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("completed", &self.completed)
            .field("panicked", &self.panicked)
            .field("quarantined", &self.quarantined)
            .field("abandoned", &self.abandoned)
            .field("failed", &self.failed)
            .field("deadline_misses", &self.deadline_misses)
            .field("backoff_us", &self.backoff_us)
            .field("max_cond", &self.max_cond)
            .finish();
    }
}

/// One supervised suite run: the per-topology records (suite order) and
/// their health accounting.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Length of the suite the run was launched over.
    pub suite_len: usize,
    /// One record per supervised topology, sorted by suite index. An
    /// interrupted run (`stop_after`) holds only the finished prefix.
    pub records: Vec<TopologyRecord>,
    /// Supervision accounting folded over `records`.
    pub health: SuiteHealth,
}

impl ToJson for SuiteReport {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("suite_len", &self.suite_len)
            .field("health", &self.health)
            .field("records", &self.records)
            .finish();
    }
}

/// Renders a panic payload as text (the common `String` / `&str` payloads
/// are preserved verbatim).
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => match other.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Runs `f` on `ws` under `catch_unwind`. An unwind rebuilds the workspace
/// (its buffers may hold torn state) and comes back as the panic's text.
/// The supervisor and [`evaluate_guarded`] isolate panics through this one
/// guard.
fn guard<R>(
    ws: &mut EngineWorkspace,
    f: impl FnOnce(&mut EngineWorkspace) -> R,
) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(|| f(ws))).map_err(|payload| {
        *ws = EngineWorkspace::new();
        panic_text(payload)
    })
}

/// Evaluates one topology under the supervisor's panic guard, converting
/// an unwind into [`CopaError::WorkerPanic`] and rebuilding the workspace.
/// The hotpath bench asserts it adds zero allocations to a warmed
/// evaluation.
pub fn evaluate_guarded(
    engine: &Engine,
    topology_id: usize,
    topology: &Topology,
    ws: &mut EngineWorkspace,
) -> Result<(f64, Strategy), CopaError> {
    guard(ws, |ws| {
        let ev = engine.run(&mut EvalRequest::topology(topology).workspace(ws))?;
        Ok((ev.copa_fair.aggregate_mbps(), ev.copa_fair.strategy))
    })
    .unwrap_or_else(|payload| {
        Err(CopaError::WorkerPanic {
            topology_id,
            payload,
        })
    })
}

/// Deadline for one topology: `deadline_us_per_stream` scaled by its
/// stream count, saturating so `u64::MAX` stays "disabled".
fn deadline_us(cfg: &SuiteConfig<'_>, t: &Topology) -> u64 {
    cfg.deadline_us_per_stream
        .saturating_mul(t.config.max_streams().max(1) as u64)
}

/// Capped exponential backoff for the given (0-based) attempt number.
fn backoff_us(cfg: &SuiteConfig<'_>, attempt: u32) -> u64 {
    let doubling = 1u64 << attempt.min(20);
    cfg.backoff_base_us
        .saturating_mul(doubling)
        .min(cfg.backoff_cap_us)
}

/// Supervises topology `idx` on the worker that claimed it: every attempt
/// runs through [`guard`] and is charged against the topology's deadline;
/// a miss sleeps its capped exponential backoff and retries here until the
/// retry budget is spent.
fn supervise_one<F>(
    idx: usize,
    topology: &Topology,
    cfg: &SuiteConfig<'_>,
    clock: &dyn SuiteClock,
    ws: &mut EngineWorkspace,
    eval: &F,
) -> TopologyRecord
where
    F: Fn(usize, &Topology, &mut EngineWorkspace) -> Result<(f64, Strategy), CopaError> + Sync,
{
    let deadline = deadline_us(cfg, topology);
    let mut attempt = 0;
    let mut backoff = 0;
    let outcome = loop {
        let start = clock.now_us();
        let result = guard(ws, |ws| eval(idx, topology, ws));
        let elapsed = clock.attempt_us(idx, attempt, start, clock.now_us());
        // Panics bypass the deadline check entirely.
        let missed = result.is_ok() && elapsed > deadline;
        if let Some(t) = cfg.telemetry {
            t.sample(t.suite.attempt_us, elapsed);
            if missed {
                t.count(t.suite.deadline_misses, 1);
            } else if result.is_ok() && deadline != u64::MAX {
                t.sample(t.suite.deadline_margin_us, deadline - elapsed);
            }
        }
        if missed && attempt < cfg.max_deadline_retries {
            let pause = backoff_us(cfg, attempt);
            if let Some(t) = cfg.telemetry {
                t.count(t.suite.requeues, 1);
            }
            clock.sleep_us(pause);
            backoff += pause;
            attempt += 1;
            continue;
        }
        break match result {
            // No retry: a panic is a bug, not a transient.
            Err(payload) => TopologyOutcome::Panicked { payload },
            Ok(_) if missed => TopologyOutcome::Abandoned,
            Ok(Ok((mbps, strategy))) => TopologyOutcome::Done { mbps, strategy },
            Ok(Err(CopaError::SingularChannel {
                context,
                subcarrier,
                cond,
            })) => TopologyOutcome::Quarantined {
                context: context.to_string(),
                subcarrier: subcarrier as u32,
                cond,
            },
            Ok(Err(e)) => TopologyOutcome::Failed {
                error: e.to_string(),
            },
        };
    };
    if let Some(t) = cfg.telemetry {
        let counter = match outcome {
            TopologyOutcome::Done { .. } => t.suite.completed,
            TopologyOutcome::Panicked { .. } => t.suite.panicked,
            TopologyOutcome::Quarantined { .. } => t.suite.quarantined,
            TopologyOutcome::Abandoned => t.suite.abandoned,
            TopologyOutcome::Failed { .. } => t.suite.failed,
        };
        t.count(counter, 1);
    }
    TopologyRecord {
        index: idx as u32,
        attempts: attempt + 1,
        backoff_us: backoff,
        outcome,
    }
}

/// The production evaluation: per-index suite seeds (identical to
/// [`crate::runner::evaluate_parallel`]) and the COPA-fair outcome. When
/// a telemetry bundle is supplied the engine's phase spans record into
/// it, on trace track `idx`.
fn default_eval<'p>(
    params: &'p ScenarioParams,
    tel: Option<&'p SuiteTelemetry>,
) -> impl Fn(usize, &Topology, &mut EngineWorkspace) -> Result<(f64, Strategy), CopaError> + Sync + 'p
{
    move |idx, topo, ws| {
        let mut p = *params;
        p.seed = seed_for(params, idx);
        let engine = Engine::new(p);
        let mut req = EvalRequest::topology(topo).workspace(ws);
        if let Some(t) = tel {
            req = req.observe(t.engine_obs(idx as u32));
        }
        let ev = engine.run(&mut req)?;
        Ok((ev.copa_fair.aggregate_mbps(), ev.copa_fair.strategy))
    }
}

/// Where a run checkpoints: nowhere, a fresh journal at a prefix (any
/// previous journal there is wiped first), or the journal a killed run
/// left at a prefix.
pub(crate) enum Journal<'p> {
    Off,
    Fresh(&'p Path),
    Resume(&'p Path),
}

/// The one body behind every suite entry point. Replays the journal when
/// resuming, supervises every not-yet-recorded index below `stop_after`
/// on the pool (appending each record to the journal as it finishes),
/// seals the journal, and assembles the report: prior records and this
/// run's, sorted by suite index, with health folded over them. `seed`
/// keys the journal header so a resume against different params is
/// rejected.
pub(crate) fn run<F>(
    seed: u64,
    suite: &[Topology],
    cfg: &SuiteConfig<'_>,
    journal: Journal<'_>,
    eval: &F,
) -> Result<SuiteReport, CopaError>
where
    F: Fn(usize, &Topology, &mut EngineWorkspace) -> Result<(f64, Strategy), CopaError> + Sync,
{
    let (n, per_segment) = (suite.len() as u32, cfg.records_per_segment);
    let (mut records, writer) = match journal {
        Journal::Off => (Vec::new(), None),
        Journal::Fresh(prefix) => (
            Vec::new(),
            Some(JournalWriter::create(prefix, n, seed, per_segment)?),
        ),
        Journal::Resume(prefix) => {
            let state = load_journal(prefix, n, seed)?;
            if let Some(t) = cfg.telemetry {
                t.journal_replayed(state.records.len(), state.salvage_events);
            }
            let writer = JournalWriter::resume(prefix, n, seed, per_segment, &state)?;
            (state.records, Some(writer))
        }
    };
    let mut done = vec![false; suite.len()];
    for r in &records {
        if let Some(slot) = done.get_mut(r.index as usize) {
            *slot = true;
        }
    }
    let limit = cfg.stop_after.map_or(suite.len(), |s| s.min(suite.len()));
    let todo: Vec<usize> = (0..limit).filter(|&idx| !done[idx]).collect();
    let fallback = MonotonicClock::new();
    let clock = cfg.clock.unwrap_or(&fallback);
    let journal = writer.map(Mutex::new);
    let fresh = pool::map(todo, cfg.threads, EngineWorkspace::new, |ws, _, idx| {
        let rec = supervise_one(idx, &suite[idx], cfg, clock, ws, eval);
        match &journal {
            // invariant: no code path panics while holding this lock
            Some(j) => j.lock().expect("journal lock").append(&rec).map(|()| rec),
            None => Ok(rec),
        }
    });
    for rec in fresh {
        records.push(rec?);
    }
    if let Some(j) = journal {
        // invariant: the pool has joined every worker; the lock is free
        let stats = j.into_inner().expect("journal lock").finish()?;
        if let Some(t) = cfg.telemetry {
            t.journal_sealed(&stats);
        }
    }
    records.sort_by_key(|r| r.index);
    records.dedup_by_key(|r| r.index);
    let health = records.iter().fold(SuiteHealth::default(), |mut h, r| {
        h.absorb(r);
        h
    });
    Ok(SuiteReport {
        suite_len: suite.len(),
        records,
        health,
    })
}

/// Runs `suite` under supervision without checkpointing.
pub fn run_suite(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &SuiteConfig<'_>,
) -> SuiteReport {
    run_suite_with(suite, cfg, &default_eval(params, cfg.telemetry))
}

/// [`run_suite`] with a caller-supplied evaluation (the injection point
/// for panic/fault tests; `eval` sees the suite index, the topology and
/// the worker's workspace).
pub fn run_suite_with<F>(suite: &[Topology], cfg: &SuiteConfig<'_>, eval: &F) -> SuiteReport
where
    F: Fn(usize, &Topology, &mut EngineWorkspace) -> Result<(f64, Strategy), CopaError> + Sync,
{
    run(0, suite, cfg, Journal::Off, eval)
        // invariant: only journal IO can fail, and there is none
        .expect("journal-free supervision cannot fail")
}

/// Runs `suite` under supervision, checkpointing every record to the
/// journal at `prefix` (any previous journal there is wiped first).
pub fn run_suite_journaled(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &SuiteConfig<'_>,
    prefix: &Path,
) -> Result<SuiteReport, CopaError> {
    let eval = default_eval(params, cfg.telemetry);
    run(params.seed, suite, cfg, Journal::Fresh(prefix), &eval)
}

/// Replays the journal at `prefix`, skips every topology already recorded
/// there, supervises the remainder, and returns the combined report --
/// byte-identical (as JSON) to what the uninterrupted run would have
/// produced.
pub fn run_suite_resumed(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &SuiteConfig<'_>,
    prefix: &Path,
) -> Result<SuiteReport, CopaError> {
    let eval = default_eval(params, cfg.telemetry);
    run(params.seed, suite, cfg, Journal::Resume(prefix), &eval)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn suite(n: usize) -> Vec<Topology> {
        TopologySampler::default().suite(0x5AFE, n, AntennaConfig::CONSTRAINED_4X2)
    }

    fn temp_prefix(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("copa-supervisor-{tag}-{}", std::process::id()))
    }

    /// A deterministic clock: `now` advances only via `sleep_us`, and
    /// attempt durations are a scripted pure function of the index, so
    /// deadline misses are identical across thread counts.
    struct ScriptedClock {
        now: AtomicU64,
        slow_every: usize,
        slow_us: u64,
    }

    impl ScriptedClock {
        fn new(slow_every: usize, slow_us: u64) -> Self {
            Self {
                now: AtomicU64::new(0),
                slow_every,
                slow_us,
            }
        }
    }

    impl SuiteClock for ScriptedClock {
        fn now_us(&self) -> u64 {
            self.now.load(Ordering::SeqCst)
        }

        fn sleep_us(&self, us: u64) {
            self.now.fetch_add(us, Ordering::SeqCst);
        }

        fn attempt_us(&self, idx: usize, _attempt: u32, _start: u64, _end: u64) -> u64 {
            if idx % self.slow_every == 0 {
                self.slow_us
            } else {
                1
            }
        }
    }

    #[test]
    fn supervised_run_matches_plain_runner() {
        let s = suite(8);
        let params = ScenarioParams::default();
        let report = run_suite(&params, &s, &SuiteConfig::default());
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.health.completed, 8);
        assert_eq!(report.health.panicked + report.health.failed, 0);
        let plain = crate::runner::evaluate_parallel(&params, &s, 4);
        for (rec, ev) in report.records.iter().zip(&plain) {
            match &rec.outcome {
                TopologyOutcome::Done { mbps, strategy } => {
                    assert_eq!(mbps.to_bits(), ev.copa_fair.aggregate_mbps().to_bits());
                    assert_eq!(*strategy, ev.copa_fair.strategy);
                }
                other => panic!("expected Done, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_panic_costs_exactly_one_topology() {
        let s = suite(10);
        let params = ScenarioParams::default();
        let eval = default_eval(&params, None);
        let poisoned = |idx: usize, t: &Topology, ws: &mut EngineWorkspace| {
            if idx == 4 {
                panic!("poisoned topology {idx}");
            }
            eval(idx, t, ws)
        };
        for threads in [1, 2, 8] {
            let cfg = SuiteConfig {
                threads,
                ..Default::default()
            };
            let report = run_suite_with(&s, &cfg, &poisoned);
            assert_eq!(report.records.len(), 10, "{threads} threads");
            assert_eq!(report.health.panicked, 1);
            assert_eq!(report.health.completed, 9);
            match &report.records[4].outcome {
                TopologyOutcome::Panicked { payload } => {
                    assert!(payload.contains("poisoned topology 4"), "{payload}");
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
            // The panicking worker kept working: its neighbours completed.
            assert!(matches!(
                report.records[5].outcome,
                TopologyOutcome::Done { .. }
            ));
        }
    }

    #[test]
    fn health_is_bit_identical_across_1_2_8_threads() {
        let s = suite(12);
        let params = ScenarioParams::default();
        let clock = ScriptedClock::new(5, 10_000);
        let base = SuiteConfig {
            deadline_us_per_stream: 1_000, // 4x2: deadline 2000us < 10000us
            max_deadline_retries: 2,
            clock: Some(&clock),
            ..Default::default()
        };
        let one = run_suite(&params, &s, &SuiteConfig { threads: 1, ..base });
        assert!(one.health.abandoned > 0, "scripted stragglers abandoned");
        assert!(one.health.deadline_misses > 0);
        for threads in [2, 8] {
            let many = run_suite(&params, &s, &SuiteConfig { threads, ..base });
            assert_eq!(one.health, many.health, "{threads} threads");
            assert_eq!(one.records, many.records, "{threads} threads");
            assert_eq!(one.to_json(), many.to_json(), "{threads} threads");
        }
    }

    #[test]
    fn deadline_retries_accumulate_backoff_and_abandon() {
        let s = suite(4);
        let params = ScenarioParams::default();
        let clock = ScriptedClock::new(1, 10_000); // every topology is slow
        let cfg = SuiteConfig {
            threads: 2,
            deadline_us_per_stream: 1_000,
            max_deadline_retries: 2,
            backoff_base_us: 100,
            backoff_cap_us: 150,
            clock: Some(&clock),
            ..Default::default()
        };
        let report = run_suite(&params, &s, &cfg);
        assert_eq!(report.health.abandoned, 4);
        assert_eq!(report.health.completed, 0);
        for rec in &report.records {
            assert_eq!(rec.attempts, 3, "initial try + 2 retries");
            // Backoff: 100 then min(200, 150) = 250 total.
            assert_eq!(rec.backoff_us, 250);
            assert_eq!(rec.outcome, TopologyOutcome::Abandoned);
        }
        assert_eq!(report.health.deadline_misses, 12, "3 misses x 4 topologies");
    }

    #[test]
    fn quarantine_surfaces_in_health() {
        let s = suite(6);
        let params = ScenarioParams {
            cond_limit: 1.0 + 1e-12, // rejects every realistic draw
            ..Default::default()
        };
        let report = run_suite(&params, &s, &SuiteConfig::default());
        assert_eq!(report.health.quarantined, 6);
        assert!(report.health.max_cond > 1.0);
        for rec in &report.records {
            assert!(matches!(rec.outcome, TopologyOutcome::Quarantined { .. }));
        }
    }

    #[test]
    fn kill_and_resume_reproduces_uninterrupted_json() {
        let s = suite(9);
        let params = ScenarioParams::default();
        let prefix = temp_prefix("resume");
        let full = run_suite_journaled(
            &params,
            &s,
            &SuiteConfig {
                records_per_segment: 2,
                ..Default::default()
            },
            &prefix,
        )
        .expect("uninterrupted run");
        // Crash after 4 topologies, then resume.
        let interrupted = run_suite_journaled(
            &params,
            &s,
            &SuiteConfig {
                records_per_segment: 2,
                stop_after: Some(4),
                ..Default::default()
            },
            &prefix,
        )
        .expect("interrupted run");
        assert_eq!(interrupted.records.len(), 4);
        let resumed = run_suite_resumed(
            &params,
            &s,
            &SuiteConfig {
                records_per_segment: 2,
                ..Default::default()
            },
            &prefix,
        )
        .expect("resumed run");
        assert_eq!(resumed.to_json(), full.to_json(), "byte-identical resume");
        crate::journal::wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn resume_rejects_a_journal_from_different_params() {
        let s = suite(4);
        let params = ScenarioParams::default();
        let prefix = temp_prefix("mismatch");
        run_suite_journaled(&params, &s, &SuiteConfig::default(), &prefix).expect("journaled run");
        let other = ScenarioParams {
            seed: 0xBAD5EED,
            ..Default::default()
        };
        match run_suite_resumed(&other, &s, &SuiteConfig::default(), &prefix) {
            Err(CopaError::JournalError { .. }) => {}
            other => panic!("expected JournalError, got {other:?}"),
        }
        crate::journal::wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn evaluate_guarded_converts_panics_and_rebuilds_workspace() {
        let s = suite(1);
        let other = TopologySampler::default().suite(0x5AFF, 1, AntennaConfig::OVERCONSTRAINED_3X2);
        let engine = Engine::new(ScenarioParams::default());
        let mut ws = EngineWorkspace::new();
        // Dirty the workspace with a differently shaped evaluation, then
        // unwind out of the real guard mid-use.
        let caught = guard(&mut ws, |ws| {
            let _ = engine.run(&mut EvalRequest::topology(&other[0]).workspace(ws));
            panic!("boom");
        });
        assert_eq!(caught.expect_err("the guard caught the unwind"), "boom");
        let rebuilt = evaluate_guarded(&engine, 0, &s[0], &mut ws).expect("valid topology");
        let fresh = evaluate_guarded(&engine, 0, &s[0], &mut EngineWorkspace::new())
            .expect("valid topology");
        assert!(rebuilt.0 > 0.0);
        assert_eq!(rebuilt.0.to_bits(), fresh.0.to_bits());
        assert_eq!(rebuilt.1, fresh.1);
    }
}

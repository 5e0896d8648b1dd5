//! The event-driven coordination daemon: a long-lived, trace-driven
//! service over the batch engine.
//!
//! Where [`crate::supervisor`] evaluates a suite of frozen snapshots once
//! each, the daemon runs a discrete-event epoch loop over *live* cells:
//!
//! * ground-truth channels evolve per coherence block through
//!   [`copa_channel::evolution::ChannelDrift`] (deterministic
//!   `(seed, link, epoch)`-derived innovations, replay-invariant);
//! * a deterministic bursty traffic trace ([`crate::traffic`]) decides
//!   which cells have backlog — and therefore coordinate — each epoch;
//! * per-cell [`CellSession`]s persist precoder/allocator state across
//!   TXOPs: the engine re-runs only when the truth entered a new
//!   coherence block or a CSI re-exchange fired (cold start, staleness
//!   at-or-past [`DaemonConfig::staleness_us`], or churn — waking from an
//!   idle span that crossed a coherence boundary, or a live membership
//!   change), so evaluations scale with coherence blocks, not epochs;
//! * a scheduled exchange makes one decision: the session measures the
//!   next ordinal's estimates and evaluates them once, and that
//!   evaluation is what the cell serves. With [`DaemonConfig::faults`]
//!   set, the *real* ITS wire protocol ([`exchange`]) carries the decision
//!   under the fault stream of [`FaultPlan::epoch_exchange_id`]`(cell,
//!   epoch)`: retries charge DCF backoff airtime against the simulated
//!   clock (a lossy exchange that spills past its epoch holds its
//!   decision until the airtime drains, then serves it without
//!   re-evaluating unless the block or the fold changed meanwhile), and a
//!   budget-exhausted exchange serves the evaluation's CSMA outcome and
//!   pins the session to CSMA ([`copa_core::SessionState::Degraded`])
//!   until capped exponential backoff lets a recovery exchange fire;
//! * with [`DaemonConfig::churn`] set, a seeded membership process
//!   ([`crate::churn`]) joins and leaves cells mid-run: departures tear
//!   the session down and survivors re-fold the remaining population's
//!   ambient power into their noise floor, arrivals cold-start through
//!   the normal exchange path;
//! * every round the daemon checkpoints its epoch state through the
//!   CRC-32 journal ([`crate::journal`], raw-payload lane) and streams
//!   [`crate::telemetry::DaemonMetrics`] deltas, so a killed daemon —
//!   even one killed mid-degradation — resumes from the last checkpoint
//!   and replays to a byte-identical report.
//!
//! The loop allocates only while per-cell buffers (engine workspace, CSI
//! estimate slots, evolution scratch) grow to their steady-state shapes;
//! warmed epochs are allocation-free on the single-threaded path, which
//! the hotpath bench and the soak example both assert.
//!
//! A single-epoch, force-active daemon run is bit-identical to the batch
//! supervisor's evaluation of the same suite — the snapshot runners are
//! the degenerate case of this epoch machinery.

use crate::churn::{self, ChurnKind, ChurnSchedule, ChurnSource};
use crate::journal::{load_journal_raw, JournalWriter};
use crate::json::{Obj, ToJson};
use crate::pool;
use crate::runner::seed_for;
use crate::supervisor::Journal;
use crate::telemetry::SuiteTelemetry;
use crate::traffic::{TrafficConfig, TrafficState};
use copa_channel::evolution::{block_of, ChannelDrift};
use copa_channel::faults::FaultPlan;
use copa_channel::{ChannelScratch, MultipathProfile, Topology};
use copa_core::coordinator::{exchange, ExchangeOutcome};
use copa_core::{CellSession, CopaError, Evaluation, ScenarioParams, Strategy};
use copa_mac::wire::{ByteReader, ByteWriter};
use std::path::Path;

/// Policy for one daemon run.
#[derive(Clone, Copy)]
pub struct DaemonConfig<'a> {
    /// Epoch (TXOP scheduling quantum) length, microseconds of simulated
    /// time.
    pub epoch_us: u64,
    /// Total epochs to run (simulated duration = `epochs * epoch_us`).
    pub epochs: u64,
    /// CSI age at-or-beyond which a re-exchange is scheduled.
    pub staleness_us: u64,
    /// Channel coherence-block length: truth takes one Gauss-Markov step
    /// per block boundary.
    pub coherence_us: u64,
    /// Block-to-block channel correlation (see
    /// [`ChannelDrift::RHO_HALF_LIFE`]).
    pub rho: f64,
    /// Worker threads of the pool; workers claim cells one at a time.
    /// `1` runs inline (the allocation-free soak/bench path).
    pub threads: usize,
    /// Epochs per round: the checkpoint/telemetry cadence.
    pub checkpoint_every: u64,
    /// Journal segment rotation threshold, in checkpoints.
    pub checkpoints_per_segment: u32,
    /// The per-cell arrival/service process.
    pub traffic: TrafficConfig,
    /// Treat every cell as active every epoch, ignoring the traffic
    /// trace. This is the batch-parity mode: one forced epoch reproduces
    /// the snapshot suite evaluation bit for bit.
    pub force_active: bool,
    /// Stop after this many epochs even if `epochs` is larger: a
    /// deterministic stand-in for "the daemon was killed" in resume
    /// tests. `None` runs to `epochs`.
    pub stop_after: Option<u64>,
    /// Telemetry bundle the daemon streams into after every round; its
    /// clock times the rounds. Simulated time never reads a clock.
    pub telemetry: Option<&'a SuiteTelemetry>,
    /// Fault plan the ITS wire exchanges run under. `None` is the oracle
    /// path: CSI redraws happen instantly and nothing can fail.
    /// `Some(FaultPlan::none(..))` routes every exchange through the real
    /// wire protocol but stays bit-transparent: reports and journals are
    /// byte-identical to the `None` path.
    pub faults: Option<FaultPlan>,
    /// Membership churn source. `None` keeps the population static.
    pub churn: Option<ChurnSource<'a>>,
    /// Base backoff after a failed (degraded) exchange, microseconds of
    /// simulated time; doubles per consecutive failure.
    pub recovery_backoff_us: u64,
    /// Cap on the backoff doubling exponent.
    pub recovery_backoff_cap: u32,
}

impl Default for DaemonConfig<'_> {
    fn default() -> Self {
        Self {
            epoch_us: 10_000,
            epochs: 6_000,
            staleness_us: 1_000_000,
            coherence_us: 1_000_000,
            rho: ChannelDrift::RHO_HALF_LIFE,
            threads: 1,
            checkpoint_every: 500,
            checkpoints_per_segment: 8,
            traffic: TrafficConfig::default(),
            force_active: false,
            stop_after: None,
            telemetry: None,
            faults: None,
            churn: None,
            recovery_backoff_us: 100_000,
            recovery_backoff_cap: 6,
        }
    }
}

impl DaemonConfig<'_> {
    /// `true` when this run can actually inject faults or churn — the
    /// configurations whose checkpoints need the extended (v2) codec.
    fn needs_robustness_state(&self) -> bool {
        self.faults.map_or(false, |p| !p.is_zero()) || self.churn.is_some()
    }
}

/// Sentinel for "this cell has never exchanged".
const NO_EXCHANGE: u64 = u64::MAX;

/// Per-round context shared read-only by every worker: the channel
/// evolution process and the resolved membership schedule.
struct EpochCtx<'a> {
    drift: &'a ChannelDrift,
    churn: Option<&'a ChurnSchedule>,
}

/// One cell's complete daemon-side state: evolving ground truth, the
/// persistent engine session, the traffic trace, and accumulators.
struct CellState {
    truth: Topology,
    /// The residual-noise-folded view of `truth` a live cell coordinates
    /// and evaluates over when churn is on; refolded from the pristine
    /// truth whenever the block or the population changes.
    folded: Topology,
    session: CellSession,
    traffic: TrafficState,
    scratch: ChannelScratch,
    /// Base seed the run's churn process draws its ambient powers from.
    base_seed: u64,
    /// Coherence block the truth is currently evolved to.
    block: u64,
    was_active: bool,
    /// Whether `last_mbps`/`last_strategy` reflect the current truth+CSI.
    cache_valid: bool,
    last_mbps: f64,
    last_strategy: Option<Strategy>,
    /// The `(mbps, strategy)` decision of an exchange whose airtime spilled
    /// past its epoch: served once the airtime drains, unless a block
    /// advance, a refold, a newer exchange or a teardown replaced the
    /// inputs it was made on.
    pending: Option<(f64, Strategy)>,
    last_exchange_epoch: u64,
    /// Exchanges across every session incarnation this run (a teardown
    /// resets the session's own ordinal but never this): the monotone
    /// count the telemetry deltas flush from.
    exchanges_total: u64,
    evals: u64,
    active_epochs: u64,
    flows_arrived: u64,
    flows_completed: u64,
    /// Bits drained by the traffic model's nominal service rate.
    traffic_bits: f64,
    /// Bits deliverable at the evaluated COPA rate over active time.
    phy_bits: f64,
    /// Whether this cell is on the air (always `true` without churn).
    live: bool,
    /// A live membership change happened since the last exchange fired.
    pending_churn: bool,
    /// This cell's cursor into the shared churn schedule.
    churn_idx: usize,
    /// This cell's view of every cell's liveness (empty without churn).
    live_mask: Vec<bool>,
    /// Residual-noise fold factor of the current population (1 = no fold).
    ambient_scale: f64,
    /// `folded` no longer matches `truth` x `ambient_scale`.
    fold_dirty: bool,
    /// Simulated instant the last retried exchange's airtime drains at;
    /// evaluations wait for it when it spills past the epoch.
    eval_ready_us: u64,
    /// Epoch the current degradation bout started at (`NO_EXCHANGE` when
    /// not degraded).
    degraded_since_epoch: u64,
    /// Active epochs served pinned to CSMA while degraded.
    degraded_epochs: u64,
    /// Recovery exchanges attempted while degraded (success or not).
    recovery_attempts: u64,
    /// Degradation bouts ended by a successful exchange.
    recoveries: u64,
    joins: u64,
    leaves: u64,
}

impl CellState {
    fn new(
        idx: usize,
        params: &ScenarioParams,
        suite: &[Topology],
        cfg: &DaemonConfig<'_>,
    ) -> Self {
        let mut session_params = *params;
        session_params.seed = seed_for(params, idx);
        let live_mask = match cfg.churn {
            Some(_) => vec![true; suite.len()],
            None => Vec::new(),
        };
        let ambient_scale = match cfg.churn {
            Some(_) => churn::noise_scale(params.seed, idx, &live_mask),
            None => 1.0,
        };
        Self {
            truth: suite[idx].clone(),
            folded: suite[idx].clone(),
            session: CellSession::new(session_params),
            traffic: TrafficState::new(params.seed, idx as u64, cfg.traffic),
            scratch: ChannelScratch::new(),
            base_seed: params.seed,
            block: 0,
            was_active: false,
            cache_valid: false,
            last_mbps: 0.0,
            last_strategy: None,
            pending: None,
            last_exchange_epoch: NO_EXCHANGE,
            exchanges_total: 0,
            evals: 0,
            active_epochs: 0,
            flows_arrived: 0,
            flows_completed: 0,
            traffic_bits: 0.0,
            phy_bits: 0.0,
            live: true,
            pending_churn: false,
            churn_idx: 0,
            live_mask,
            ambient_scale,
            fold_dirty: cfg.churn.is_some(),
            eval_ready_us: 0,
            degraded_since_epoch: NO_EXCHANGE,
            degraded_epochs: 0,
            recovery_attempts: 0,
            recoveries: 0,
            joins: 0,
            leaves: 0,
        }
    }

    /// Applies every membership event scheduled at-or-before `epoch`:
    /// own leave tears the session down, own join brings the cell back
    /// cold, and any event around a live cell marks genuine churn and
    /// re-folds the survivors' ambient power. Mirrored verbatim by the
    /// resume replay, so cursors and fold factors restore bit-identically.
    fn apply_churn(&mut self, idx: usize, epoch: u64, sched: &ChurnSchedule) {
        let events = sched.events();
        while self.churn_idx < events.len() && events[self.churn_idx].epoch <= epoch {
            let ev = events[self.churn_idx];
            self.churn_idx += 1;
            let c = ev.cell as usize;
            self.live_mask[c] = ev.kind == ChurnKind::Join;
            if c == idx {
                match ev.kind {
                    ChurnKind::Join => {
                        self.live = true;
                        self.joins += 1;
                        // Cold-start: the torn-down session is always due,
                        // so the normal exchange path fires on the first
                        // active epoch. Nothing special to schedule here.
                        self.pending_churn = false;
                    }
                    ChurnKind::Leave => {
                        self.live = false;
                        self.leaves += 1;
                        self.session.teardown();
                        self.cache_valid = false;
                        self.last_mbps = 0.0;
                        self.last_strategy = None;
                        self.pending = None;
                        self.last_exchange_epoch = NO_EXCHANGE;
                        self.eval_ready_us = 0;
                        self.degraded_since_epoch = NO_EXCHANGE;
                        self.pending_churn = false;
                    }
                }
            } else if self.live {
                // The interference landscape changed around a live cell:
                // its session sees a real `churned` trigger next epoch.
                self.pending_churn = true;
            }
            // From-scratch refold (fixed summation order), never
            // incremental: resume replay and property tests reproduce
            // the exact bits.
            self.ambient_scale = churn::noise_scale(self.base_seed, idx, &self.live_mask);
            self.fold_dirty = true;
        }
    }

    /// Re-derives `folded` from the pristine truth at the current fold
    /// factor. Alloc-free once the folded buffers are warm.
    fn refold(&mut self) {
        churn::fold_topology(&self.truth, self.ambient_scale, &mut self.folded);
        self.fold_dirty = false;
    }

    /// Evaluates the session's estimates against the view the cell
    /// coordinates over (noise-folded when churn is on), observed and
    /// counted.
    fn evaluate(
        &mut self,
        idx: usize,
        use_folded: bool,
        cfg: &DaemonConfig<'_>,
    ) -> Result<Evaluation, CopaError> {
        let view = if use_folded {
            &self.folded
        } else {
            &self.truth
        };
        let ev = self
            .session
            .evaluate(view, cfg.telemetry.map(|t| t.engine_obs(idx as u32)))?;
        self.evals += 1;
        Ok(ev)
    }

    /// Runs one scheduled CSI exchange at `t_us` of epoch `epoch`: measures
    /// the next ordinal's estimates and evaluates them once. With a fault
    /// plan the real ITS wire protocol then carries that decision under the
    /// `(cell, epoch)` fault stream; without one the exchange is the oracle
    /// redraw and cannot fail. A delivered exchange commits the estimates
    /// and returns its evaluation for [`CellState::step`] to serve; a
    /// failed one serves the evaluation's CSMA outcome and returns `None`.
    fn run_exchange(
        &mut self,
        idx: usize,
        epoch: u64,
        t_us: u64,
        use_folded: bool,
        cfg: &DaemonConfig<'_>,
    ) -> Result<Option<Evaluation>, CopaError> {
        let was_degraded = self.session.degraded().is_some();
        if was_degraded {
            self.recovery_attempts += 1;
        }
        let view = if use_folded {
            &self.folded
        } else {
            &self.truth
        };
        self.session.measure(view);
        let ev = self.evaluate(idx, use_folded, cfg)?;
        let outcome = cfg.faults.as_ref().map(|plan| {
            let obs = cfg.telemetry.map(|t| t.exchange_obs());
            exchange(
                self.session.estimates(),
                ev,
                0,
                self.session.params().coherence_us,
                plan,
                FaultPlan::epoch_exchange_id(idx as u64, epoch),
                obs.as_ref(),
            )
        });
        match outcome {
            Some(ExchangeOutcome::Degraded {
                control_airtime_us, ..
            }) => {
                // Retry budget exhausted: pin to stock CSMA and back off.
                // The failed exchange's airtime pushes the backoff start,
                // so a lossy epoch visibly delays recovery.
                if !was_degraded {
                    self.degraded_since_epoch = epoch;
                }
                let done_us = t_us + control_airtime_us.max(0.0).ceil() as u64;
                self.session.mark_degraded(
                    done_us,
                    cfg.recovery_backoff_us,
                    cfg.recovery_backoff_cap,
                );
                self.last_mbps = ev.csma.aggregate_mbps();
                self.last_strategy = Some(Strategy::Csma);
                self.cache_valid = true;
                self.pending = None;
                return Ok(None);
            }
            Some(ExchangeOutcome::Coordinated(trace)) => {
                // Retried frames burned real airtime on the shared medium:
                // if the exchange spilled past this epoch, serving its
                // decision waits until the control traffic drains. A clean
                // exchange (retries = 0, sub-millisecond) never defers,
                // keeping the zero plan bit-transparent.
                let done_us = t_us + trace.control_airtime_us.max(0.0).ceil() as u64;
                if trace.retries > 0 && done_us > t_us + cfg.epoch_us {
                    self.eval_ready_us = done_us;
                }
            }
            None => {}
        }
        self.session.commit(t_us);
        self.exchanges_total += 1;
        self.pending_churn = false;
        self.last_exchange_epoch = epoch;
        if was_degraded {
            self.recoveries += 1;
            if let Some(t) = cfg.telemetry {
                t.sample(
                    t.daemon.recovery_epochs,
                    epoch.saturating_sub(self.degraded_since_epoch),
                );
            }
            self.degraded_since_epoch = NO_EXCHANGE;
        }
        Ok(Some(ev))
    }

    /// The demand half of one epoch, shared by the live loop and the resume
    /// replay: applies the membership events due at `epoch`, steps the
    /// traffic trace (it flows whether or not the AP is on the air) into
    /// the accumulators, and returns whether the cell serves this epoch,
    /// counting it if so.
    fn tick(
        &mut self,
        idx: usize,
        epoch: u64,
        churn: Option<&ChurnSchedule>,
        cfg: &DaemonConfig<'_>,
    ) -> bool {
        if let Some(sched) = churn {
            self.apply_churn(idx, epoch, sched);
        }
        let te = self.traffic.step(cfg.epoch_us);
        self.flows_arrived += u64::from(te.arrivals);
        self.flows_completed += u64::from(te.completions);
        self.traffic_bits += te.bits_served;
        let active = (te.active || cfg.force_active) && self.live;
        if active {
            self.active_epochs += 1;
        }
        active
    }

    /// One epoch of the event loop for this cell. Allocation-free once
    /// every buffer is warm (exchange epochs under a fault plan are the
    /// exception: the wire protocol encodes real frames).
    fn step(
        &mut self,
        idx: usize,
        epoch: u64,
        ctx: &EpochCtx<'_>,
        cfg: &DaemonConfig<'_>,
    ) -> Result<(), CopaError> {
        let t_us = epoch * cfg.epoch_us;
        let active = self.tick(idx, epoch, ctx.churn, cfg);
        if active {
            let block = block_of(t_us, cfg.coherence_us);
            // Waking across a coherence boundary is churn: the CSI learned
            // before the idle span describes a channel that decorrelated
            // while the cell slept. Waking within the same block is not --
            // staleness alone decides whether the estimates are reusable.
            // A live membership change is churn outright.
            let churned = (!self.was_active && !cfg.force_active && block != self.block)
                || self.pending_churn;
            let mut dirty = !self.cache_valid;
            if block != self.block {
                ctx.drift.advance_topology(
                    idx as u64,
                    self.block,
                    block,
                    &mut self.truth,
                    &mut self.scratch,
                );
                self.block = block;
                self.fold_dirty = true;
                self.pending = None;
                dirty = true;
            }
            let use_folded = ctx.churn.is_some();
            if use_folded && self.fold_dirty {
                self.refold();
                self.pending = None;
            }
            let mut exchanged = None;
            if self.session.needs_exchange(t_us, cfg.staleness_us, churned) {
                exchanged = self.run_exchange(idx, epoch, t_us, use_folded, cfg)?;
                dirty |= exchanged.is_some();
            }
            let decided =
                exchanged.map(|ev| (ev.copa_fair.aggregate_mbps(), ev.copa_fair.strategy));
            if self.session.degraded().is_some() {
                // Pinned to CSMA: the decision is frozen until recovery
                // (which re-exchanges and re-evaluates), so block drift
                // does not re-run the engine here.
                self.degraded_epochs += 1;
            } else if dirty {
                if t_us >= self.eval_ready_us {
                    // This epoch's exchange, or a deferred one whose inputs
                    // are still current, already evaluated the view.
                    let (mbps, strategy) = match decided.or(self.pending.take()) {
                        Some(decision) => decision,
                        None => {
                            let ev = self.evaluate(idx, use_folded, cfg)?;
                            (ev.copa_fair.aggregate_mbps(), ev.copa_fair.strategy)
                        }
                    };
                    self.last_mbps = mbps;
                    self.last_strategy = Some(strategy);
                    self.cache_valid = true;
                } else {
                    // The exchange's control traffic is still draining:
                    // keep serving the previous decision, hold this
                    // exchange's until the airtime clears, and leave the
                    // cache invalid so the cell decides once it does.
                    self.pending = decided.or(self.pending);
                    self.cache_valid = false;
                }
            }
            // Mbps x microseconds = bits.
            self.phy_bits += self.last_mbps * cfg.epoch_us as f64;
        }
        self.was_active = active;
        Ok(())
    }

    fn summary(&self, idx: usize) -> CellSummary {
        CellSummary {
            cell: idx as u32,
            exchanges: self.session.exchanges(),
            evals: self.evals,
            active_epochs: self.active_epochs,
            flows_arrived: self.flows_arrived,
            flows_completed: self.flows_completed,
            traffic_bits: self.traffic_bits,
            phy_bits: self.phy_bits,
            backlog_bits: self.traffic.backlog_bits(),
            last_mbps: self.last_mbps,
            last_strategy: self.last_strategy,
            degraded_epochs: self.degraded_epochs,
            recovery_attempts: self.recovery_attempts,
            recoveries: self.recoveries,
            joins: self.joins,
            leaves: self.leaves,
            live: self.live,
            degraded: self.session.degraded().is_some(),
        }
    }
}

/// One cell's line in the [`DaemonReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct CellSummary {
    /// Cell index in the suite.
    pub cell: u32,
    /// CSI exchanges scheduled (cold start, staleness or churn).
    pub exchanges: u64,
    /// Full engine evaluations run.
    pub evals: u64,
    /// Epochs with backlog to serve.
    pub active_epochs: u64,
    /// Traffic flows that arrived.
    pub flows_arrived: u64,
    /// Traffic flows drained to completion.
    pub flows_completed: u64,
    /// Bits drained at the traffic model's nominal rate.
    pub traffic_bits: f64,
    /// Bits deliverable at the evaluated COPA rate over active time.
    pub phy_bits: f64,
    /// Backlog outstanding when the run ended, bits.
    pub backlog_bits: f64,
    /// The most recent evaluation's COPA-fair aggregate, Mbps.
    pub last_mbps: f64,
    /// The most recent evaluation's strategy choice (`None` before the
    /// first evaluation).
    pub last_strategy: Option<Strategy>,
    /// Active epochs served pinned to CSMA while degraded.
    pub degraded_epochs: u64,
    /// Recovery exchanges attempted while degraded.
    pub recovery_attempts: u64,
    /// Degradation bouts ended by a successful exchange.
    pub recoveries: u64,
    /// Membership arrivals this cell saw.
    pub joins: u64,
    /// Membership departures this cell saw.
    pub leaves: u64,
    /// Whether the cell was on the air when the run ended.
    pub live: bool,
    /// Whether the cell was degraded when the run ended.
    pub degraded: bool,
}

impl ToJson for CellSummary {
    fn write_json(&self, out: &mut String) {
        let strategy = match self.last_strategy {
            Some(s) => s.to_string(),
            None => "none".to_string(),
        };
        Obj::new(out)
            .field("cell", &self.cell)
            .field("exchanges", &self.exchanges)
            .field("evals", &self.evals)
            .field("active_epochs", &self.active_epochs)
            .field("flows_arrived", &self.flows_arrived)
            .field("flows_completed", &self.flows_completed)
            .field("traffic_bits", &self.traffic_bits)
            .field("phy_bits", &self.phy_bits)
            .field("backlog_bits", &self.backlog_bits)
            .field("last_mbps", &self.last_mbps)
            .field("strategy", &strategy)
            .field("degraded_epochs", &self.degraded_epochs)
            .field("recovery_attempts", &self.recovery_attempts)
            .field("recoveries", &self.recoveries)
            .field("joins", &self.joins)
            .field("leaves", &self.leaves)
            .field("live", &self.live)
            .field("degraded", &self.degraded)
            .finish();
    }
}

/// What an entire daemon run did: per-cell lines plus totals. Two runs
/// are compared by their canonical JSON bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct DaemonReport {
    /// Number of cells the daemon coordinated.
    pub cells: usize,
    /// Epochs completed (equals the config's target unless stopped).
    pub epochs: u64,
    /// Epoch length, microseconds.
    pub epoch_us: u64,
    /// Simulated time covered, microseconds.
    pub sim_time_us: u64,
    /// CSI exchanges across all cells.
    pub exchanges: u64,
    /// Engine evaluations across all cells.
    pub evals: u64,
    /// Active cell-epochs across all cells.
    pub active_cell_epochs: u64,
    /// CSMA-pinned (degraded) cell-epochs across all cells.
    pub degraded_cell_epochs: u64,
    /// Degradation bouts recovered across all cells.
    pub recoveries: u64,
    /// Membership events (joins + leaves) across all cells.
    pub churn_events: u64,
    /// Cells on the air when the run ended.
    pub live_cells: u64,
    /// One line per cell, in suite order.
    pub per_cell: Vec<CellSummary>,
}

impl ToJson for DaemonReport {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("cells", &self.cells)
            .field("epochs", &self.epochs)
            .field("epoch_us", &self.epoch_us)
            .field("sim_time_us", &self.sim_time_us)
            .field("exchanges", &self.exchanges)
            .field("evals", &self.evals)
            .field("active_cell_epochs", &self.active_cell_epochs)
            .field("degraded_cell_epochs", &self.degraded_cell_epochs)
            .field("recoveries", &self.recoveries)
            .field("churn_events", &self.churn_events)
            .field("live_cells", &self.live_cells)
            .field("per_cell", &self.per_cell)
            .finish();
    }
}

/// Daemon checkpoint codec version (its own lane; the journal's record
/// status tags are untouched). Version 1 is the original engine-state
/// codec; version 2 appends the robustness state (degradation bout,
/// airtime deferral and its pending decision, churn flags) and is written
/// only by configurations that can produce it
/// ([`DaemonConfig::needs_robustness_state`]) — the version is a function
/// of the *config*, never of the run's state, so a zero-fault run's
/// journal stays byte-identical to the fault-unaware daemon's.
const CKPT_MAGIC: u8 = 0xD0;
const CKPT_V1: u8 = 1;
const CKPT_V2: u8 = 2;

/// Flag bits of the v2 per-cell robustness byte.
const CK_LIVE: u8 = 1 << 0;
const CK_PENDING_CHURN: u8 = 1 << 1;
const CK_CACHE_VALID: u8 = 1 << 2;
const CK_DEGRADED: u8 = 1 << 3;
/// Set when the v2 cell record ends with a pending decision: its Mbps as
/// `f64` bits, then its strategy's wire tag.
const CK_PENDING: u8 = 1 << 4;

/// The engine-side facts a checkpoint must carry per cell. Everything
/// traffic-side is a pure function of the seed and is replayed from epoch
/// zero on resume instead of being serialized; the fault streams need no
/// state at all (each exchange re-derives its stream from
/// [`FaultPlan::epoch_exchange_id`]).
#[derive(Clone, Copy, Debug, PartialEq)]
struct CellCheckpoint {
    exchanges: u64,
    last_exchange_epoch: u64,
    block: u64,
    evals: u64,
    phy_bits: f64,
    last_mbps: f64,
    /// `Strategy::wire_tag`, or `0xFF` before the first evaluation.
    strategy_tag: u8,
    /// v2 flag byte (`CK_*` bits); v1 checkpoints synthesize it.
    flags: u8,
    degraded_until_us: u64,
    degraded_attempts: u32,
    degraded_since_epoch: u64,
    degraded_epochs: u64,
    recovery_attempts: u64,
    recoveries: u64,
    eval_ready_us: u64,
    pending: Option<(f64, Strategy)>,
}

const NO_STRATEGY: u8 = 0xFF;

fn encode_checkpoint(epoch: u64, cells: &[CellState], cfg: &DaemonConfig<'_>) -> Vec<u8> {
    let v2 = cfg.needs_robustness_state();
    let mut w = ByteWriter::with_capacity(16 + cells.len() * if v2 { 100 } else { 50 });
    w.put_u8(CKPT_MAGIC);
    w.put_u8(if v2 { CKPT_V2 } else { CKPT_V1 });
    w.put_u64(epoch);
    w.put_u32(cells.len() as u32);
    for c in cells {
        w.put_u64(c.session.exchanges());
        w.put_u64(c.last_exchange_epoch);
        w.put_u64(c.block);
        w.put_u64(c.evals);
        w.put_u64(c.phy_bits.to_bits());
        w.put_u64(c.last_mbps.to_bits());
        w.put_u8(match c.last_strategy {
            Some(s) => s.wire_tag(),
            None => NO_STRATEGY,
        });
        if v2 {
            let degraded = c.session.degraded();
            let mut flags = 0u8;
            flags |= if c.live { CK_LIVE } else { 0 };
            flags |= if c.pending_churn { CK_PENDING_CHURN } else { 0 };
            flags |= if c.cache_valid { CK_CACHE_VALID } else { 0 };
            flags |= if degraded.is_some() { CK_DEGRADED } else { 0 };
            flags |= if c.pending.is_some() { CK_PENDING } else { 0 };
            let (until_us, attempts) = degraded.unwrap_or((0, 0));
            w.put_u8(flags);
            w.put_u64(until_us);
            w.put_u32(attempts);
            w.put_u64(c.degraded_since_epoch);
            w.put_u64(c.degraded_epochs);
            w.put_u64(c.recovery_attempts);
            w.put_u64(c.recoveries);
            w.put_u64(c.eval_ready_us);
            if let Some((mbps, strategy)) = c.pending {
                w.put_u64(mbps.to_bits());
                w.put_u8(strategy.wire_tag());
            }
        }
    }
    w.into_vec()
}

fn decode_checkpoint(payload: &[u8], n_cells: usize) -> Option<(u64, Vec<CellCheckpoint>)> {
    let mut r = ByteReader::new(payload);
    if r.get_u8().ok()? != CKPT_MAGIC {
        return None;
    }
    let version = r.get_u8().ok()?;
    if version != CKPT_V1 && version != CKPT_V2 {
        return None;
    }
    let epoch = r.get_u64().ok()?;
    let n = r.get_u32().ok()? as usize;
    if n != n_cells {
        return None;
    }
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        let mut ck = CellCheckpoint {
            exchanges: r.get_u64().ok()?,
            last_exchange_epoch: r.get_u64().ok()?,
            block: r.get_u64().ok()?,
            evals: r.get_u64().ok()?,
            phy_bits: f64::from_bits(r.get_u64().ok()?),
            last_mbps: f64::from_bits(r.get_u64().ok()?),
            strategy_tag: r.get_u8().ok()?,
            flags: CK_LIVE,
            degraded_until_us: 0,
            degraded_attempts: 0,
            degraded_since_epoch: NO_EXCHANGE,
            degraded_epochs: 0,
            recovery_attempts: 0,
            recoveries: 0,
            eval_ready_us: 0,
            pending: None,
        };
        if version == CKPT_V2 {
            ck.flags = r.get_u8().ok()?;
            ck.degraded_until_us = r.get_u64().ok()?;
            ck.degraded_attempts = r.get_u32().ok()?;
            ck.degraded_since_epoch = r.get_u64().ok()?;
            ck.degraded_epochs = r.get_u64().ok()?;
            ck.recovery_attempts = r.get_u64().ok()?;
            ck.recoveries = r.get_u64().ok()?;
            ck.eval_ready_us = r.get_u64().ok()?;
            if ck.flags & CK_PENDING != 0 {
                let mbps = f64::from_bits(r.get_u64().ok()?);
                ck.pending = Some((mbps, Strategy::from_wire_tag(r.get_u8().ok()?)?));
            }
        } else {
            // v1 never deferred or degraded: the cache is valid exactly
            // when an evaluation happened.
            if ck.evals > 0 {
                ck.flags |= CK_CACHE_VALID;
            }
        }
        cells.push(ck);
    }
    if !r.is_empty() {
        return None;
    }
    Some((epoch, cells))
}

/// Running totals already flushed to telemetry, so each round streams
/// only its delta and counters stay monotone while the daemon runs.
#[derive(Default, Clone, Copy)]
struct Flushed {
    epochs: u64,
    active: u64,
    exchanges: u64,
    evals: u64,
    flows_completed: u64,
    degraded_epochs: u64,
    recovery_attempts: u64,
    churn_events: u64,
}

fn flush_telemetry(
    tel: &SuiteTelemetry,
    cells: &[CellState],
    epochs_done: u64,
    flushed: &mut Flushed,
    round_us: u64,
) {
    let mut active = 0;
    let mut exchanges = 0;
    let mut evals = 0;
    let mut flows = 0;
    let mut degraded = 0;
    let mut recovery_attempts = 0;
    let mut churn_events = 0;
    for c in cells {
        active += c.active_epochs;
        exchanges += c.exchanges_total;
        evals += c.evals;
        flows += c.flows_completed;
        degraded += c.degraded_epochs;
        recovery_attempts += c.recovery_attempts;
        churn_events += c.joins + c.leaves;
    }
    let epochs = epochs_done * cells.len() as u64;
    tel.count(tel.daemon.epochs, epochs - flushed.epochs);
    tel.count(tel.daemon.active_cell_epochs, active - flushed.active);
    tel.count(tel.daemon.exchanges, exchanges - flushed.exchanges);
    tel.count(tel.daemon.evals, evals - flushed.evals);
    tel.count(tel.daemon.flows_completed, flows - flushed.flows_completed);
    tel.count(
        tel.daemon.degraded_epochs,
        degraded - flushed.degraded_epochs,
    );
    tel.count(
        tel.daemon.recovery_attempts,
        recovery_attempts - flushed.recovery_attempts,
    );
    tel.count(tel.daemon.churn_events, churn_events - flushed.churn_events);
    tel.sample(tel.daemon.round_us, round_us);
    *flushed = Flushed {
        epochs,
        active,
        exchanges,
        evals,
        flows_completed: flows,
        degraded_epochs: degraded,
        recovery_attempts,
        churn_events,
    };
}

/// Advances every cell from `from_epoch` to `to_epoch` on the pool, one
/// claimed cell at a time. Cells are independent, so the result is
/// invariant to the thread count; errors resolve to the lowest-indexed
/// failing cell for the same reason.
fn run_round(
    cells: &mut [CellState],
    from_epoch: u64,
    to_epoch: u64,
    ctx: &EpochCtx<'_>,
    cfg: &DaemonConfig<'_>,
) -> Result<(), CopaError> {
    pool::map(
        cells,
        cfg.threads,
        || (),
        |_, idx, cell| (from_epoch..to_epoch).try_for_each(|epoch| cell.step(idx, epoch, ctx, cfg)),
    )
    .into_iter()
    .collect()
}

fn build_report(cells: &[CellState], epochs: u64, cfg: &DaemonConfig<'_>) -> DaemonReport {
    let per_cell: Vec<CellSummary> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| c.summary(i))
        .collect();
    DaemonReport {
        cells: cells.len(),
        epochs,
        epoch_us: cfg.epoch_us,
        sim_time_us: epochs * cfg.epoch_us,
        exchanges: per_cell.iter().map(|c| c.exchanges).sum(),
        evals: per_cell.iter().map(|c| c.evals).sum(),
        active_cell_epochs: per_cell.iter().map(|c| c.active_epochs).sum(),
        degraded_cell_epochs: per_cell.iter().map(|c| c.degraded_epochs).sum(),
        recoveries: per_cell.iter().map(|c| c.recoveries).sum(),
        churn_events: per_cell.iter().map(|c| c.joins + c.leaves).sum(),
        live_cells: per_cell.iter().filter(|c| c.live).count() as u64,
        per_cell,
    }
}

/// The shared epoch loop behind every entry point: round-based stepping
/// from `start_epoch` with optional checkpointing.
fn drive(
    params: &ScenarioParams,
    cells: &mut [CellState],
    cfg: &DaemonConfig<'_>,
    churn: Option<&ChurnSchedule>,
    start_epoch: u64,
    mut journal: Option<&mut JournalWriter>,
) -> Result<u64, CopaError> {
    let drift = ChannelDrift::new(params.seed, cfg.rho, MultipathProfile::default());
    let ctx = EpochCtx {
        drift: &drift,
        churn,
    };
    let end = cfg.stop_after.map_or(cfg.epochs, |s| s.min(cfg.epochs));
    let round = cfg.checkpoint_every.max(1);
    let mut flushed = Flushed::default();
    let mut epoch = start_epoch;
    while epoch < end {
        let upto = (epoch + round).min(end);
        let round_start = cfg.telemetry.map_or(0, |t| t.clock().now_us());
        run_round(cells, epoch, upto, &ctx, cfg)?;
        epoch = upto;
        if let Some(w) = journal.as_deref_mut() {
            w.append_payload(&encode_checkpoint(epoch, cells, cfg))?;
            if let Some(t) = cfg.telemetry {
                t.count(t.daemon.checkpoints, 1);
            }
        }
        if let Some(t) = cfg.telemetry {
            let round_us = t.clock().now_us().saturating_sub(round_start);
            flush_telemetry(t, cells, epoch, &mut flushed, round_us);
        }
    }
    Ok(epoch)
}

fn fresh_cells(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &DaemonConfig<'_>,
) -> Vec<CellState> {
    (0..suite.len())
        .map(|i| CellState::new(i, params, suite, cfg))
        .collect()
}

/// Resolves the run's membership schedule once, up front: generated over
/// the *full* horizon (`cfg.epochs`, never `stop_after`) so a killed run
/// and its resume agree on every future event.
fn resolve_churn(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &DaemonConfig<'_>,
) -> Option<ChurnSchedule> {
    cfg.churn
        .map(|src| ChurnSchedule::from_source(src, params.seed, suite.len(), cfg.epochs))
}

/// The one body behind the three daemon entry points: open (or replay)
/// the journal, build the cells (restoring them from the last valid
/// checkpoint when resuming), drive the epoch loop, and seal the journal.
fn run(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &DaemonConfig<'_>,
    journal: Journal<'_>,
) -> Result<DaemonReport, CopaError> {
    let (n, per_segment) = (suite.len() as u32, cfg.checkpoints_per_segment);
    let (mut writer, checkpoint) = match journal {
        Journal::Off => (None, None),
        Journal::Fresh(prefix) => (
            Some(JournalWriter::create(prefix, n, params.seed, per_segment)?),
            None,
        ),
        Journal::Resume(prefix) => {
            let state = load_journal_raw(prefix, n, params.seed)?;
            if let Some(t) = cfg.telemetry {
                t.journal_replayed(state.payloads.len(), state.salvage_events);
            }
            let writer = JournalWriter::resume_raw(prefix, n, params.seed, per_segment, &state)?;
            let checkpoint = state
                .payloads
                .iter()
                .rev()
                .find_map(|p| decode_checkpoint(p, suite.len()));
            (Some(writer), checkpoint)
        }
    };
    let sched = resolve_churn(params, suite, cfg);
    let mut cells = fresh_cells(params, suite, cfg);
    let start_epoch = match checkpoint {
        Some((epoch, saved)) => {
            restore_cells(&mut cells, &saved, epoch, params, sched.as_ref(), cfg);
            epoch
        }
        None => 0,
    };
    let epochs = drive(
        params,
        &mut cells,
        cfg,
        sched.as_ref(),
        start_epoch,
        writer.as_mut(),
    )?;
    if let Some(w) = writer {
        let stats = w.finish()?;
        if let Some(t) = cfg.telemetry {
            t.journal_sealed(&stats);
        }
    }
    Ok(build_report(&cells, epochs, cfg))
}

/// Runs the daemon without checkpointing: the soak/bench path, and the
/// baseline for resume byte-identity comparisons.
pub fn run_daemon(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &DaemonConfig<'_>,
) -> Result<DaemonReport, CopaError> {
    run(params, suite, cfg, Journal::Off)
}

/// Runs the daemon, appending an epoch checkpoint to the journal at
/// `prefix` every round (any previous journal there is wiped first).
pub fn run_daemon_journaled(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &DaemonConfig<'_>,
    prefix: &Path,
) -> Result<DaemonReport, CopaError> {
    run(params, suite, cfg, Journal::Fresh(prefix))
}

/// Resumes a killed daemon from the journal at `prefix`: restores the
/// last valid checkpoint, replays the deterministic parts (traffic trace,
/// channel blocks, last CSI exchange) without touching the engine, and
/// continues to `cfg.epochs`. The final report is byte-identical to the
/// uninterrupted run's.
pub fn run_daemon_resumed(
    params: &ScenarioParams,
    suite: &[Topology],
    cfg: &DaemonConfig<'_>,
    prefix: &Path,
) -> Result<DaemonReport, CopaError> {
    run(params, suite, cfg, Journal::Resume(prefix))
}

/// Rebuilds live cell state from a checkpoint taken after `epoch` epochs:
/// traffic and membership replay from zero (pure traces), truth replays
/// its coherence blocks (stepwise evolution equals one-shot), and only
/// the *last* CSI exchange re-runs, against the noise-folded view of its
/// block — earlier exchanges were fully overwritten. The cached
/// evaluation, deferral deadline, pending decision and degradation bout
/// (backoff deadline + attempt count) are restored from the stored bits;
/// no engine run and no fault stream happens here, so a daemon killed
/// mid-degradation resumes with the exact backoff schedule the
/// uninterrupted run follows.
fn restore_cells(
    cells: &mut [CellState],
    saved: &[CellCheckpoint],
    epoch: u64,
    params: &ScenarioParams,
    churn: Option<&ChurnSchedule>,
    cfg: &DaemonConfig<'_>,
) {
    let drift = ChannelDrift::new(params.seed, cfg.rho, MultipathProfile::default());
    for (idx, (cell, ck)) in cells.iter_mut().zip(saved).enumerate() {
        // Traffic + membership: replay the pure traces through the live
        // loop's own `tick` to recover state, accumulators and the churn
        // cursor (same from-scratch fold factors, same join/leave counts);
        // the session it tears down is still cold and is restored below.
        for e in 0..epoch {
            cell.was_active = cell.tick(idx, e, churn, cfg);
        }
        // Truth + CSI: replay blocks, re-run only the final exchange —
        // against the folded view of the population at its epoch, exactly
        // as the live loop saw it.
        if ck.exchanges > 0 {
            let t_x = ck.last_exchange_epoch * cfg.epoch_us;
            let block_x = block_of(t_x, cfg.coherence_us);
            drift.advance_topology(idx as u64, 0, block_x, &mut cell.truth, &mut cell.scratch);
            let view = match churn {
                Some(sched) => {
                    let mut mask = vec![true; cell.live_mask.len()];
                    sched.mask_at(ck.last_exchange_epoch, &mut mask);
                    let f = churn::noise_scale(cell.base_seed, idx, &mask);
                    churn::fold_topology(&cell.truth, f, &mut cell.folded);
                    &cell.folded
                }
                None => &cell.truth,
            };
            cell.session.restore(view, ck.exchanges - 1, t_x);
            drift.advance_topology(
                idx as u64,
                block_x,
                ck.block,
                &mut cell.truth,
                &mut cell.scratch,
            );
        } else {
            // No exchange survived the checkpoint (e.g. every attempt
            // degraded), but the truth still drifted while active.
            drift.advance_topology(idx as u64, 0, ck.block, &mut cell.truth, &mut cell.scratch);
        }
        if ck.flags & CK_DEGRADED != 0 {
            // After `restore` (a successful exchange clears the bout):
            // reinstate the pinned state and its backoff schedule.
            cell.session
                .restore_degraded(ck.degraded_until_us, ck.degraded_attempts);
        }
        cell.block = ck.block;
        cell.last_exchange_epoch = ck.last_exchange_epoch;
        // Lifetime exchange count is telemetry-only (it is not in the
        // checkpoint): restart it at the restored incarnation's count so
        // the resumed process's deltas stay monotone.
        cell.exchanges_total = ck.exchanges;
        cell.evals = ck.evals;
        cell.phy_bits = ck.phy_bits;
        cell.last_mbps = ck.last_mbps;
        cell.last_strategy = if ck.strategy_tag == NO_STRATEGY {
            None
        } else {
            Strategy::from_wire_tag(ck.strategy_tag)
        };
        cell.cache_valid = ck.flags & CK_CACHE_VALID != 0;
        cell.pending = ck.pending;
        cell.pending_churn = ck.flags & CK_PENDING_CHURN != 0;
        cell.eval_ready_us = ck.eval_ready_us;
        cell.degraded_since_epoch = ck.degraded_since_epoch;
        cell.degraded_epochs = ck.degraded_epochs;
        cell.recovery_attempts = ck.recovery_attempts;
        cell.recoveries = ck.recoveries;
        cell.fold_dirty = churn.is_some();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    fn small_suite(n: usize) -> Vec<Topology> {
        TopologySampler::default().suite(0xDAE0, n, AntennaConfig::CONSTRAINED_4X2)
    }

    fn quick_cfg() -> DaemonConfig<'static> {
        DaemonConfig {
            epoch_us: 10_000,
            epochs: 2_000, // 20 s simulated
            staleness_us: 1_000_000,
            coherence_us: 1_000_000,
            checkpoint_every: 250,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let params = ScenarioParams::default();
        let suite = small_suite(2);
        let cfg = quick_cfg();
        let cells = fresh_cells(&params, &suite, &cfg);
        let payload = encode_checkpoint(17, &cells, &cfg);
        assert_eq!(payload[1], CKPT_V1, "quiet configs write v1");
        let (epoch, saved) = decode_checkpoint(&payload, 2).expect("round trip");
        assert_eq!(epoch, 17);
        assert_eq!(saved.len(), 2);
        assert_eq!(saved[0].exchanges, 0);
        assert_eq!(saved[0].strategy_tag, NO_STRATEGY);
        assert_eq!(saved[0].flags, CK_LIVE, "v1 synthesizes live, no cache");
        assert!(decode_checkpoint(&payload, 3).is_none(), "cell count check");
        assert!(decode_checkpoint(&payload[..10], 2).is_none(), "short");
    }

    #[test]
    fn checkpoint_codec_v2_round_trips_robustness_state() {
        let params = ScenarioParams::default();
        let suite = small_suite(2);
        let cfg = DaemonConfig {
            faults: Some(FaultPlan::lossy(9, 0.3)),
            ..quick_cfg()
        };
        let mut cells = fresh_cells(&params, &suite, &cfg);
        cells[1].session.mark_degraded(5_000, 100, 3);
        cells[1].degraded_since_epoch = 12;
        cells[1].degraded_epochs = 4;
        cells[1].recovery_attempts = 2;
        cells[1].eval_ready_us = 77_000;
        cells[1].pending_churn = true;
        cells[0].pending = Some((96.5, Strategy::CopaSeq));
        let payload = encode_checkpoint(17, &cells, &cfg);
        assert_eq!(payload[1], CKPT_V2, "faulted configs write v2");
        let (_, saved) = decode_checkpoint(&payload, 2).expect("round trip");
        assert_eq!(saved[0].flags, CK_LIVE | CK_PENDING);
        assert_eq!(saved[0].pending, Some((96.5, Strategy::CopaSeq)));
        assert_eq!(saved[1].flags, CK_LIVE | CK_PENDING_CHURN | CK_DEGRADED);
        assert_eq!(saved[1].degraded_until_us, 5_100);
        assert_eq!(saved[1].degraded_attempts, 1);
        assert_eq!(saved[1].degraded_since_epoch, 12);
        assert_eq!(saved[1].degraded_epochs, 4);
        assert_eq!(saved[1].recovery_attempts, 2);
        assert_eq!(saved[1].eval_ready_us, 77_000);
        assert_eq!(saved[1].pending, None);
    }

    /// Exchanges that spill past their 1 ms epochs: three 4x2 cells for
    /// 3,000 epochs, half the ITS frames lost with 8 retries, CSI refreshed
    /// every 30 ms.
    fn deferring_cfg() -> DaemonConfig<'static> {
        DaemonConfig {
            epoch_us: 1_000,
            epochs: 3_000,
            staleness_us: 30_000,
            force_active: true,
            faults: Some(FaultPlan {
                max_retries: 8,
                ..FaultPlan::lossy(5, 0.5)
            }),
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn drained_deferral_serves_its_exchange_decision() {
        // 132 exchanges defer here. Re-evaluating their unchanged inputs
        // once the airtime drained took 131 of the 426 engine runs; serving
        // each exchange's own decision instead leaves every served rate,
        // and so every other report field, where it was.
        let params = ScenarioParams::default();
        let tel = SuiteTelemetry::new();
        let cfg = DaemonConfig {
            telemetry: Some(&tel),
            ..deferring_cfg()
        };
        let report = run_daemon(&params, &small_suite(3), &cfg).expect("run");
        let doc = copa_obs::json::parse(&tel.to_json()).expect("registry JSON");
        assert_eq!(
            crate::telemetry::exported_counter(&doc, "engine.evaluations"),
            report.evals
        );
        assert_eq!(report.evals, 426 - 131);
        assert_eq!(
            (
                report.exchanges,
                report.degraded_cell_epochs,
                report.recoveries
            ),
            (284, 526, 4)
        );
        let phy: Vec<f64> = report.per_cell.iter().map(|c| c.phy_bits).collect();
        assert_eq!(
            phy,
            [
                459_540_535.747_954_55,
                352_229_639.109_660_7,
                308_943_670.234_674_7
            ]
        );
    }

    #[test]
    fn kill_inside_a_deferral_window_resumes_byte_identical() {
        let params = ScenarioParams::default();
        let suite = small_suite(3);
        let cfg = DaemonConfig {
            epochs: 600,
            checkpoint_every: 100,
            ..deferring_cfg()
        };
        // The first epoch count after which some cell holds a decision
        // whose airtime has not drained yet.
        let drift = ChannelDrift::new(params.seed, cfg.rho, MultipathProfile::default());
        let ctx = EpochCtx {
            drift: &drift,
            churn: None,
        };
        let mut cells = fresh_cells(&params, &suite, &cfg);
        let kill = 1
            + (0..cfg.epochs)
                .find(|&e| {
                    for (idx, cell) in cells.iter_mut().enumerate() {
                        cell.step(idx, e, &ctx, &cfg).expect("step");
                    }
                    cells.iter().any(|c| c.pending.is_some())
                })
                .expect("a lossy exchange defers");
        let prefix = std::env::temp_dir().join(format!("copa-daemon-defer-{}", std::process::id()));
        let full = run_daemon_journaled(&params, &suite, &cfg, &prefix).expect("full");
        let killed = DaemonConfig {
            stop_after: Some(kill),
            ..cfg
        };
        run_daemon_journaled(&params, &suite, &killed, &prefix).expect("killed");
        let state = load_journal_raw(&prefix, 3, params.seed).expect("journal");
        let last = state.payloads.last().expect("a checkpoint");
        let (epoch, saved) = decode_checkpoint(last, 3).expect("checkpoint");
        assert_eq!(epoch, kill);
        assert!(saved.iter().any(|c| c.pending.is_some()));
        let resumed = run_daemon_resumed(&params, &suite, &cfg, &prefix).expect("resume");
        assert_eq!(full.to_json(), resumed.to_json());
        crate::journal::wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn amortization_keeps_evals_far_below_epochs() {
        let params = ScenarioParams::default();
        let suite = small_suite(2);
        let cfg = quick_cfg();
        let report = run_daemon(&params, &suite, &cfg).expect("run");
        assert_eq!(report.epochs, 2_000);
        assert!(report.evals > 0, "some cell must have coordinated");
        let epochs_total = report.epochs * suite.len() as u64;
        assert!(
            report.evals * 10 < epochs_total,
            "evals ({}) must be far below cell-epochs ({epochs_total})",
            report.evals
        );
        assert!(report.exchanges <= report.evals);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let params = ScenarioParams::default();
        let suite = small_suite(4);
        let base = quick_cfg();
        let one = run_daemon(&params, &suite, &base).expect("1 thread");
        for threads in [2, 8] {
            let cfg = DaemonConfig { threads, ..base };
            let multi = run_daemon(&params, &suite, &cfg).expect("n threads");
            assert_eq!(one.to_json(), multi.to_json(), "threads={threads}");
        }
    }

    #[test]
    fn kill_and_resume_is_byte_identical() {
        let params = ScenarioParams::default();
        let suite = small_suite(2);
        let cfg = quick_cfg();
        let prefix =
            std::env::temp_dir().join(format!("copa-daemon-resume-{}", std::process::id()));
        let full = run_daemon_journaled(&params, &suite, &cfg, &prefix).expect("full");
        // Kill mid-run (at a non-checkpoint-aligned epoch) and resume.
        let killed = DaemonConfig {
            stop_after: Some(1_100),
            ..cfg
        };
        let partial = run_daemon_journaled(&params, &suite, &killed, &prefix).expect("killed");
        assert_eq!(partial.epochs, 1_100);
        let resumed = run_daemon_resumed(&params, &suite, &cfg, &prefix).expect("resume");
        assert_eq!(full.to_json(), resumed.to_json());
        crate::journal::wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn journaled_matches_plain_run() {
        let params = ScenarioParams::default();
        let suite = small_suite(2);
        let cfg = quick_cfg();
        let prefix =
            std::env::temp_dir().join(format!("copa-daemon-journal-{}", std::process::id()));
        let plain = run_daemon(&params, &suite, &cfg).expect("plain");
        let journaled = run_daemon_journaled(&params, &suite, &cfg, &prefix).expect("journaled");
        assert_eq!(plain.to_json(), journaled.to_json());
        crate::journal::wipe_journal(&prefix).expect("cleanup");
    }

    #[test]
    fn force_active_single_epoch_evaluates_every_cell_once() {
        let params = ScenarioParams::default();
        let suite = small_suite(3);
        let cfg = DaemonConfig {
            epochs: 1,
            force_active: true,
            ..quick_cfg()
        };
        let report = run_daemon(&params, &suite, &cfg).expect("run");
        assert_eq!(report.evals, 3);
        assert_eq!(report.exchanges, 3);
        for c in &report.per_cell {
            assert_eq!(c.evals, 1);
            assert!(c.last_mbps > 0.0);
            assert!(c.last_strategy.is_some());
        }
    }

    #[test]
    fn lossy_exchanges_evaluate_once_each() {
        // An exchange evaluates its fresh estimates once, observed, and
        // the wire protocol carries that decision: every engine run is a
        // counted daemon evaluation, including the ones whose exchange
        // ran out of retries and serves CSMA.
        let params = ScenarioParams::default();
        let suite = small_suite(3);
        let tel = SuiteTelemetry::new();
        let cfg = DaemonConfig {
            epochs: 400,
            staleness_us: 30_000,
            force_active: true,
            faults: Some(FaultPlan {
                max_retries: 1,
                ..FaultPlan::lossy(5, 0.45)
            }),
            telemetry: Some(&tel),
            ..quick_cfg()
        };
        let report = run_daemon(&params, &suite, &cfg).expect("faults degrade, not fail");
        assert!(report.degraded_cell_epochs > 0, "45% loss must degrade");
        let doc = copa_obs::json::parse(&tel.to_json()).expect("registry JSON");
        assert_eq!(
            crate::telemetry::exported_counter(&doc, "engine.evaluations"),
            report.evals
        );
    }

    #[test]
    fn lazy_csi_refresh_costs_copa_throughput() {
        // Refreshing CSI once per coherence time (section 3.1) keeps the
        // precoders matched to the drifting channel; refreshing 10x too
        // rarely saves exchanges but serves decisions made on stale CSI.
        let params = ScenarioParams::default();
        let suite = small_suite(2);
        let run = |staleness_us| {
            let cfg = DaemonConfig {
                epoch_us: 4_400,
                epochs: 140,
                coherence_us: 30_000,
                staleness_us,
                force_active: true,
                ..quick_cfg()
            };
            run_daemon(&params, &suite, &cfg).expect("run")
        };
        let bits = |r: &DaemonReport| r.per_cell.iter().map(|c| c.phy_bits).sum::<f64>();
        let fresh = run(30_000);
        let lazy = run(300_000);
        assert!(
            lazy.exchanges * 5 < fresh.exchanges,
            "exchanges: lazy {} vs fresh {}",
            lazy.exchanges,
            fresh.exchanges
        );
        assert!(
            bits(&lazy) < bits(&fresh),
            "staleness should cost COPA: {:.1} vs {:.1} Mbit",
            bits(&lazy) / 1e6,
            bits(&fresh) / 1e6
        );
    }
}

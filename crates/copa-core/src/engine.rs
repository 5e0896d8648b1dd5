//! The Figure 8 strategy engine.
//!
//! For each topology the engine builds beamforming and nulling precoders
//! from estimated CSI, runs the power allocators for every candidate
//! strategy, evaluates the *true* resulting SINRs at both clients, predicts
//! per-client throughput including MAC overhead, and finally picks the best
//! strategy -- either maximizing aggregate throughput ("COPA") or subject to
//! the incentive-compatibility constraint that no client does worse than
//! the sequential fallback ("COPA fair", section 3.5).

use crate::error::CopaError;
use crate::scenario::{prepare_into, ScenarioParams, ScenarioView};
use crate::strategy::{Outcome, OutcomeVec, Strategy};
use crate::telemetry::{phase_span, EngineObs};
use copa_alloc::concurrent::{
    allocate_ap_into, allocate_concurrent_into, AllocatorKind, ConcurrentProblem,
    ConcurrentSolution, MAX_ITERATIONS,
};
use copa_alloc::stream::AllocScratch;
use copa_channel::{FreqChannel, Topology};
use copa_mac::overhead::{airtime_efficiency, OverheadConfig, Scheme};
use copa_num::svd::{cond_into, Svd, SvdScratch};
use copa_phy::ofdm::DATA_SUBCARRIERS;
use copa_precoding::beamforming::beamform_with;
use copa_precoding::nulling::null_toward_with;
use copa_precoding::sda::antenna_to_keep;
use copa_precoding::sinr::{active_cells_into, mmse_sinr_grid_with, SinrScratch, TxSide};
use copa_precoding::{cross_gains_into, LinkPrecoding, PrecodeScratch, TxPowers};

/// How the receiver decodes (section 4.6): one decoder for the whole frame
/// (stock 802.11) or one decoder per coding rate, enabling per-subcarrier
/// rate adaptation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecoderMode {
    /// Single decoder: one MCS across all subcarriers (the 802.11 reality).
    Single,
    /// Per-subcarrier MCS (the paper's multi-decoder what-if).
    PerSubcarrier,
}

/// Full evaluation of one topology.
#[derive(Clone, Copy, Debug)]
pub struct Evaluation {
    /// Every strategy evaluated, in menu order.
    pub outcomes: OutcomeVec,
    /// Stock CSMA baseline.
    pub csma: Outcome,
    /// COPA-SEQ (also the fairness reference).
    pub copa_seq: Outcome,
    /// Vanilla nulling baseline (None when nulling is impossible, e.g. 1x1).
    pub vanilla_null: Option<Outcome>,
    /// COPA's aggregate-maximizing choice.
    pub copa: Outcome,
    /// COPA restricted to incentive-compatible strategies.
    pub copa_fair: Outcome,
    /// COPA+ (with mercury/waterfilling), when enabled in the params.
    pub copa_plus: Option<Outcome>,
    /// COPA+ fair variant, when enabled.
    pub copa_plus_fair: Option<Outcome>,
}

impl Evaluation {
    /// Looks up the outcome of a specific strategy, if it was feasible.
    pub fn outcome(&self, s: Strategy) -> Option<&Outcome> {
        self.outcomes.iter().find(|o| o.strategy == s)
    }
}

/// Reusable working storage for one evaluation worker.
///
/// One instance holds every scratch buffer the engine touches on the hot
/// path -- precoding scratch, SINR scratch, the SINR grid, the active-cell
/// list and the precoder output slots. Buffers grow to the largest shape in
/// play and are then reused across all subcarriers, strategies and
/// topologies the worker evaluates, so a warmed-up evaluation does not touch
/// the allocator in its per-subcarrier kernels.
#[derive(Default)]
pub struct EngineWorkspace {
    /// CSI-estimate slots for raw-topology requests ([`prepare_into`] fills
    /// them in place; estimates requests borrow the caller's slots).
    est: [[FreqChannel; 2]; 2],
    /// All the scratch/output buffers. Split from `est` so the evaluation
    /// can borrow the estimates immutably (through a [`ScenarioView`])
    /// while mutating these.
    buf: WorkBuffers,
}

/// The mutable half of [`EngineWorkspace`].
#[derive(Default)]
struct WorkBuffers {
    /// Beamforming / nulling scratch.
    pre: PrecodeScratch,
    /// MMSE SINR scratch.
    sinr: SinrScratch,
    /// SINR grid output slot (`streams x DATA_SUBCARRIERS`).
    grid: Vec<[f64; DATA_SUBCARRIERS]>,
    /// Active-cell SINR list output slot.
    cells: Vec<f64>,
    /// SVD scratch for the conditioning quarantine check.
    cond_svd: SvdScratch,
    /// SVD output slot for the conditioning quarantine check.
    cond_out: Svd,
    /// Own-link beamformers, memoized per evaluation: CSMA, COPA-SEQ and
    /// concurrent-BF all beamform the same `est[i][i]` at the same stream
    /// count, so the SVDs run once per AP per topology.
    bf_valid: [bool; 2],
    bf_pre: [LinkPrecoding; 2],
    /// Nulling precoders, memoized per evaluation and keyed by the SDA
    /// role assignment (`None`, leader 0, leader 1): vanilla nulling and
    /// COPA's concurrent nulling share identical precoding work.
    /// `None` = not yet computed; `Some(feasible)` afterwards.
    null_state: [Option<bool>; 3],
    null_pre: [[LinkPrecoding; 2]; 3],
    /// SDA-reduced channels, memoized per evaluation and keyed by the
    /// leader: `[est own, est cross, true own, true cross]`, each restricted
    /// to the antenna the follower's client keeps.
    sda_valid: [bool; 2],
    sda_rx: [[FreqChannel; 4]; 2],
    /// Pooled power-allocation buffers: one allocator scratch serves the
    /// sequential strategies and the Figure 6 game.
    seq_powers: TxPowers,
    alloc: AllocScratch,
    eq_powers: [TxPowers; 2],
    cross_gains: [Vec<[f64; DATA_SUBCARRIERS]>; 2],
    conc_sol: ConcurrentSolution,
    tally: WorkTally,
}

/// Deterministic work counts of one evaluation, tallied in the workspace
/// and flushed to the registry once per [`Engine::run`], so the allocation
/// kernels touch no atomics.
#[derive(Default)]
struct WorkTally {
    mercury_streams: u64,
    mercury_solves: u64,
    /// `fig6_rounds[r]`: Figure 6 games that ran `r` rounds.
    fig6_rounds: [u64; MAX_ITERATIONS + 1],
    /// `fig6_best_round[r]`: Figure 6 games that kept round `r`'s prediction.
    fig6_best_round: [u64; MAX_ITERATIONS + 1],
    /// Per game, |predicted - exact| aggregate goodput, kbps (pooled: a
    /// warm workspace pushes without allocating).
    fig6_pred_error_kbps: Vec<u64>,
    /// Games whose predicted aggregate exceeded the exact one.
    fig6_overpredicted: u64,
}

impl WorkTally {
    /// Zeroes every count for a new evaluation, keeping the error buffer.
    fn reset(&mut self) {
        let mut errors = core::mem::take(&mut self.fig6_pred_error_kbps);
        errors.clear();
        *self = Self {
            fig6_pred_error_kbps: errors,
            ..Self::default()
        };
    }

    /// Tallies one Figure 6 game: its rounds, its kept round, and how far
    /// the kept round's predicted aggregate is from the `exact` per-client
    /// evaluation of its powers. The prediction picks an MCS per stream on
    /// scalar cross gains from estimated CSI plus the EVM floor; the exact
    /// evaluation picks one MCS over all cells from MMSE SINR on the true
    /// channel.
    fn game(&mut self, sol: &ConcurrentSolution, exact: [f64; 2]) {
        self.fig6_rounds[sol.iterations] += 1;
        self.fig6_best_round[sol.best_round] += 1;
        let predicted = sol.predicted_bps[0] + sol.predicted_bps[1];
        let exact = exact[0] + exact[1];
        self.fig6_pred_error_kbps
            .push(((predicted - exact).abs() / 1e3).round() as u64);
        self.fig6_overpredicted += u64::from(predicted > exact);
    }

    fn flush(&self, o: &EngineObs<'_>) {
        let m = &o.metrics;
        o.sink.add(m.mercury_streams, self.mercury_streams);
        o.sink.add(m.mercury_solves, self.mercury_solves);
        for r in 1..=MAX_ITERATIONS {
            for _ in 0..self.fig6_rounds[r] {
                o.sink.record(m.fig6_rounds, r as u64);
            }
            for _ in 0..self.fig6_best_round[r] {
                o.sink.record(m.fig6_best_round, r as u64);
            }
        }
        for &kbps in &self.fig6_pred_error_kbps {
            o.sink.record(m.fig6_pred_error_kbps, kbps);
        }
        o.sink.add(m.fig6_overpredicted, self.fig6_overpredicted);
    }
}

impl EngineWorkspace {
    /// A fresh workspace; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What an [`EvalRequest`] evaluates: a raw topology (the engine prepares
/// CSI estimates itself) or a topology under the caller's own estimates.
pub enum EvalInput<'a> {
    /// Prepare CSI from the topology using the engine's params.
    Topology(&'a Topology),
    /// Evaluate `topology` (ground truth) under caller-owned CSI estimate
    /// slots, validated before use: CSI that round-tripped through the ITS
    /// compression pipeline, or the daemon's aged CSI, where truth keeps
    /// evolving while the estimates stay pinned to the last exchange.
    Estimates {
        /// Ground-truth channels to evaluate against.
        topology: &'a Topology,
        /// `est[a][c]`: the (possibly stale) estimated channels.
        est: &'a [[FreqChannel; 2]; 2],
    },
}

/// One evaluation request: input + decoder mode + optional caller-owned
/// workspace, consumed by [`Engine::run`].
///
/// ```ignore
/// let ev = engine.run(&mut EvalRequest::topology(&topo))?;
/// let ev = engine.run(
///     &mut EvalRequest::estimates(&topo, &est)
///         .mode(DecoderMode::PerSubcarrier)
///         .workspace(&mut ws),
/// )?;
/// ```
pub struct EvalRequest<'a> {
    input: EvalInput<'a>,
    mode: DecoderMode,
    workspace: Option<&'a mut EngineWorkspace>,
    obs: Option<EngineObs<'a>>,
}

impl<'a> EvalRequest<'a> {
    /// A request for a raw topology with the stock single decoder.
    pub fn topology(topology: &'a Topology) -> Self {
        Self {
            input: EvalInput::Topology(topology),
            mode: DecoderMode::Single,
            workspace: None,
            obs: None,
        }
    }

    /// A request evaluating ground truth `topology` under caller-owned
    /// (possibly compressed or aged) CSI estimates, with the stock single
    /// decoder.
    pub fn estimates(topology: &'a Topology, est: &'a [[FreqChannel; 2]; 2]) -> Self {
        Self {
            input: EvalInput::Estimates { topology, est },
            mode: DecoderMode::Single,
            workspace: None,
            obs: None,
        }
    }

    /// Selects the decoder mode (default: [`DecoderMode::Single`]).
    pub fn mode(mut self, mode: DecoderMode) -> Self {
        self.mode = mode;
        self
    }

    /// Reuses a caller-owned workspace instead of allocating a fresh one
    /// (the hot-path option for suite runners: one workspace per worker).
    pub fn workspace(mut self, ws: &'a mut EngineWorkspace) -> Self {
        self.workspace = Some(ws);
        self
    }

    /// Attaches an observation context: per-phase spans (CSI prep,
    /// precoding, allocation, SINR) and the evaluation counter are
    /// recorded through its sink. Without one (or with a
    /// [`copa_obs::NoopSink`]) the evaluation performs no clock reads and
    /// produces bit-identical results.
    pub fn observe(mut self, obs: EngineObs<'a>) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// The strategy engine. Construct once, evaluate many topologies.
pub struct Engine {
    params: ScenarioParams,
}

impl Engine {
    /// Builds an engine. This is free: COPA+ evaluations read the
    /// process-wide MMSE curve table ([`MmseCurve::all`]), which the first
    /// of them builds.
    ///
    /// [`MmseCurve::all`]: copa_phy::mmse_curves::MmseCurve::all
    pub fn new(params: ScenarioParams) -> Self {
        Self { params }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &ScenarioParams {
        &self.params
    }

    /// Runs one [`EvalRequest`]: resolves the input (preparing CSI for raw
    /// topologies), validates the estimates either lane evaluates, borrows
    /// the request's workspace or allocates a fresh one, and evaluates every
    /// strategy. This is the engine's single entry point.
    pub fn run(&self, req: &mut EvalRequest<'_>) -> Result<Evaluation, CopaError> {
        let (EvalInput::Topology(topology) | EvalInput::Estimates { topology, .. }) = req.input;
        validate_topology(topology)?;
        let obs = req.obs;
        let obs = obs.as_ref();
        let mut fresh;
        let ws: &mut EngineWorkspace = match req.workspace.as_deref_mut() {
            Some(ws) => ws,
            None => {
                fresh = EngineWorkspace::new();
                &mut fresh
            }
        };
        // Split the workspace: the view borrows the CSI slots immutably
        // while the evaluation mutates everything else.
        let EngineWorkspace { est, buf } = ws;
        let est: &[[FreqChannel; 2]; 2] = match req.input {
            EvalInput::Topology(t) => {
                phase_span(
                    obs,
                    |m| m.csi_prep_us,
                    "csi_prep",
                    || prepare_into(t, &self.params, est),
                );
                est
            }
            EvalInput::Estimates { est, .. } => est,
        };
        // Both lanes check the CSI they evaluate. Caller-supplied CSI (e.g.
        // decompressed from an ITS frame) can be degenerate, and so can the
        // engine's own: estimation noise scales with the true link's gain,
        // so a vanishing own link has a vanishing estimate.
        validate_estimates(topology, est)?;
        let view = ScenarioView {
            topology,
            est: [[&est[0][0], &est[0][1]], [&est[1][0], &est[1][1]]],
        };
        self.quarantine_ill_conditioned(&view, buf)?;
        let ev = self.eval_all(&view, req.mode, buf, obs);
        if let Some(o) = obs {
            o.sink.add(o.metrics.evaluations, 1);
            buf.tally.flush(o);
        }
        Ok(ev)
    }

    /// The numerical-conditioning quarantine: when `params.cond_limit` is
    /// finite, measure the 2-norm condition number of every own-link
    /// (`est[i][i]`) subcarrier matrix and reject the whole topology the
    /// moment one exceeds the limit. Ill-conditioned own links are exactly
    /// where nulling-based allocation goes wrong (COPA section 5: SINR
    /// variance explodes), so such draws are surfaced as
    /// [`CopaError::SingularChannel`] with the measured condition number
    /// instead of being folded into garbage SINR averages. With the default
    /// infinite limit this is a single branch -- results stay bit-identical.
    fn quarantine_ill_conditioned(
        &self,
        v: &ScenarioView<'_>,
        ws: &mut WorkBuffers,
    ) -> Result<(), CopaError> {
        let limit = self.params.cond_limit;
        if !limit.is_finite() {
            return Ok(());
        }
        for i in 0..2 {
            // alloc-free: begin cond quarantine sweep (scratch reused per subcarrier)
            for (s, m) in v.est[i][i].iter().enumerate() {
                let cond = cond_into(m, &mut ws.cond_svd, &mut ws.cond_out);
                if !(cond <= limit) {
                    return Err(CopaError::SingularChannel {
                        context: EST_NAMES[i][i],
                        subcarrier: s,
                        cond,
                    });
                }
            }
            // alloc-free: end cond quarantine sweep
        }
        Ok(())
    }

    /// Evaluates every strategy for one validated, prepared scenario.
    fn eval_all(
        &self,
        p: &ScenarioView<'_>,
        mode: DecoderMode,
        ws: &mut WorkBuffers,
        obs: Option<&EngineObs<'_>>,
    ) -> Evaluation {
        // New topology: every memoized precoder and SDA channel is stale.
        ws.bf_valid = [false; 2];
        ws.null_state = [None; 3];
        ws.sda_valid = [false; 2];
        ws.tally.reset();

        let csma = self.eval_sequential(p, Strategy::Csma, mode, ws, obs);
        let copa_seq = self.eval_sequential(p, Strategy::CopaSeq, mode, ws, obs);
        let vanilla_null = self.eval_concurrent(p, Strategy::VanillaNull, mode, ws, obs);

        let mut outcomes = OutcomeVec::new();
        outcomes.push(csma);
        outcomes.push(copa_seq);
        if let Some(v) = vanilla_null {
            outcomes.push(v);
        }

        let menu: &[Strategy] = if self.params.include_mercury {
            Strategy::copa_plus_menu()
        } else {
            Strategy::copa_menu()
        };
        for &s in menu {
            if s == Strategy::CopaSeq {
                continue; // already evaluated
            }
            let out = match s {
                Strategy::SeqMercury => Some(self.eval_sequential(p, s, mode, ws, obs)),
                _ => self.eval_concurrent(p, s, mode, ws, obs),
            };
            if let Some(o) = out {
                outcomes.push(o);
            }
        }

        let pick = |candidates: &[Strategy], fair: bool| -> Outcome {
            let mut best = copa_seq;
            for o in &outcomes {
                if !candidates.contains(&o.strategy) {
                    continue;
                }
                if fair && !o.incentive_compatible_vs(&copa_seq) {
                    continue;
                }
                if o.aggregate_bps() > best.aggregate_bps() {
                    best = *o;
                }
            }
            best
        };

        let copa = pick(Strategy::copa_menu(), false);
        let copa_fair = pick(Strategy::copa_menu(), true);
        let (copa_plus, copa_plus_fair) = if self.params.include_mercury {
            (
                Some(pick(Strategy::copa_plus_menu(), false)),
                Some(pick(Strategy::copa_plus_menu(), true)),
            )
        } else {
            (None, None)
        };

        Evaluation {
            outcomes,
            csma,
            copa_seq,
            vanilla_null,
            copa,
            copa_fair,
            copa_plus,
            copa_plus_fair,
        }
    }

    fn overhead_config(&self, topo: &Topology, streams: usize) -> OverheadConfig {
        OverheadConfig {
            ap_antennas: topo.config.ap_antennas,
            client_antennas: topo.config.client_antennas,
            streams,
        }
    }

    fn goodput(&self, cells: &[f64], eff: f64, mode: DecoderMode) -> f64 {
        match mode {
            DecoderMode::Single => self.params.model.best(cells, eff).goodput_bps,
            DecoderMode::PerSubcarrier => self.params.model.multi_decoder_goodput(cells, eff),
        }
    }

    /// Sequential strategies: each AP transmits alone half the time.
    fn eval_sequential(
        &self,
        p: &ScenarioView<'_>,
        strategy: Strategy,
        mode: DecoderMode,
        ws: &mut WorkBuffers,
        obs: Option<&EngineObs<'_>>,
    ) -> Outcome {
        let topo = p.topology;
        let streams = topo.config.max_streams();
        let scheme = match strategy {
            Strategy::Csma => Scheme::CsmaCtsSelf,
            _ => Scheme::CopaSequential,
        };
        let eff = airtime_efficiency(
            scheme,
            &self.overhead_config(topo, streams),
            self.params.coherence_us,
        );
        let noise = topo.noise_per_subcarrier_mw();
        let budget = topo.tx_budget_mw();
        let imp = &self.params.impairments;

        let WorkBuffers {
            pre: pre_scratch,
            sinr: sinr_scratch,
            grid,
            cells,
            bf_valid,
            bf_pre,
            seq_powers,
            alloc,
            tally,
            ..
        } = ws;
        let mut per_client = [0.0; 2];
        for i in 0..2 {
            // CSMA, COPA-SEQ and concurrent-BF all use this same precoder;
            // the SVDs run once per AP per topology.
            if !bf_valid[i] {
                phase_span(
                    obs,
                    |m| m.precoding_us,
                    "precoding",
                    || {
                        beamform_with(p.est[i][i], streams, pre_scratch, &mut bf_pre[i]);
                    },
                );
                bf_valid[i] = true;
            }
            let seq_pre = &bf_pre[i];
            phase_span(
                obs,
                |m| m.allocation_us,
                "allocation",
                || match strategy {
                    Strategy::Csma => seq_powers.set_equal(streams, budget),
                    _ => {
                        let kind = if strategy.is_mercury() {
                            AllocatorKind::Mercury
                        } else {
                            AllocatorKind::EquiSinr
                        };
                        let (_, solves) = allocate_ap_into(
                            &seq_pre.stream_gains,
                            noise,
                            budget,
                            None,
                            kind,
                            &self.params.model,
                            eff,
                            alloc,
                            seq_powers,
                        );
                        if kind == AllocatorKind::Mercury {
                            tally.mercury_streams += seq_pre.streams() as u64;
                            tally.mercury_solves += solves as u64;
                        }
                    }
                },
            );
            let own = TxSide {
                channel: &topo.links[i][i],
                precoding: seq_pre,
                powers: seq_powers,
                budget_mw: budget,
            };
            phase_span(
                obs,
                |m| m.sinr_us,
                "sinr",
                || {
                    mmse_sinr_grid_with(&own, None, noise, imp, sinr_scratch, grid);
                    active_cells_into(grid, seq_powers, cells);
                },
            );
            // Half the medium time each.
            per_client[i] = 0.5 * self.goodput(cells, eff, mode);
        }
        Outcome {
            strategy,
            per_client_bps: per_client,
        }
    }

    /// Concurrent strategies. Returns `None` when the precoders are
    /// infeasible (e.g. nulling with single-antenna APs).
    fn eval_concurrent(
        &self,
        p: &ScenarioView<'_>,
        strategy: Strategy,
        mode: DecoderMode,
        ws: &mut WorkBuffers,
        obs: Option<&EngineObs<'_>>,
    ) -> Option<Outcome> {
        let nulling = matches!(
            strategy,
            Strategy::VanillaNull | Strategy::ConcurrentNull | Strategy::ConcurrentNullMercury
        );

        if nulling {
            // Full-rank symmetric nulling (e.g. 4x2: two streams each while
            // nulling both victim antennas) when the degrees of freedom
            // allow it.
            if let Some(out) = self.eval_concurrent_setup(p, strategy, mode, None, true, ws, obs) {
                return Some(out);
            }
            // Overconstrained (section 3.4): shut down a victim antenna.
            // DCF randomizes who leads, so average both role assignments.
            let a = self.eval_concurrent_setup(p, strategy, mode, Some(0), false, ws, obs);
            let b = self.eval_concurrent_setup(p, strategy, mode, Some(1), false, ws, obs);
            let sda = match (a, b) {
                (Some(x), Some(y)) => Some(Outcome {
                    strategy,
                    per_client_bps: [
                        0.5 * (x.per_client_bps[0] + y.per_client_bps[0]),
                        0.5 * (x.per_client_bps[1] + y.per_client_bps[1]),
                    ],
                }),
                _ => None,
            };
            // The paper's "Null+SDA" baseline is SDA specifically.
            if strategy == Strategy::VanillaNull {
                return sda;
            }
            // COPA's engine also considers the symmetric reduced-rank
            // option (one nulled stream each) and keeps the better.
            let reduced = self.eval_concurrent_setup(p, strategy, mode, None, false, ws, obs);
            return match (sda, reduced) {
                (Some(x), Some(y)) => Some(if x.aggregate_bps() >= y.aggregate_bps() {
                    x
                } else {
                    y
                }),
                (x, y) => x.or(y),
            };
        }
        self.eval_concurrent_setup(p, strategy, mode, None, false, ws, obs)
    }

    /// One concurrent configuration. `sda_leader = Some(l)` means AP `l`
    /// leads and the *other* AP's client shuts down its weaker antennas so
    /// that nulling becomes feasible (section 3.4).
    #[allow(clippy::too_many_arguments)]
    fn eval_concurrent_setup(
        &self,
        p: &ScenarioView<'_>,
        strategy: Strategy,
        mode: DecoderMode,
        sda_leader: Option<usize>,
        require_full_rank: bool,
        ws: &mut WorkBuffers,
        obs: Option<&EngineObs<'_>>,
    ) -> Option<Outcome> {
        let topo = p.topology;
        let noise = topo.noise_per_subcarrier_mw();
        let budget = topo.tx_budget_mw();
        let imp = &self.params.impairments;
        let nulling = matches!(
            strategy,
            Strategy::VanillaNull | Strategy::ConcurrentNull | Strategy::ConcurrentNullMercury
        );

        let WorkBuffers {
            pre: pre_scratch,
            sinr: sinr_scratch,
            grid,
            cells,
            bf_valid,
            bf_pre,
            null_state,
            null_pre,
            sda_valid,
            sda_rx,
            alloc,
            eq_powers,
            cross_gains,
            conc_sol,
            tally,
            ..
        } = ws;

        // Estimated channels, with the SDA row reduction applied to every
        // channel *into* the reduced client. Borrowed in place -- only the
        // SDA path reads (four reduced) channels, built once per leader.
        let mut est_own: [&FreqChannel; 2] = [p.est[0][0], p.est[1][1]];
        let mut est_cross: [&FreqChannel; 2] = [p.est[0][1], p.est[1][0]]; // [i] = AP i -> other client
        let mut true_own: [&FreqChannel; 2] = [&topo.links[0][0], &topo.links[1][1]];
        let mut true_cross: [&FreqChannel; 2] = [&topo.links[0][1], &topo.links[1][0]];
        if let Some(leader) = sda_leader {
            let follower = 1 - leader;
            if !sda_valid[leader] {
                let keep = [antenna_to_keep(p.est[follower][follower])];
                let reduced = &mut sda_rx[leader];
                est_own[follower].select_rx_into(&keep, &mut reduced[0]);
                est_cross[leader].select_rx_into(&keep, &mut reduced[1]);
                true_own[follower].select_rx_into(&keep, &mut reduced[2]);
                true_cross[leader].select_rx_into(&keep, &mut reduced[3]);
                sda_valid[leader] = true;
            }
            let reduced = &sda_rx[leader];
            est_own[follower] = &reduced[0];
            est_cross[leader] = &reduced[1];
            true_own[follower] = &reduced[2];
            true_cross[leader] = &reduced[3];
        }

        // Precoders: most streams each side can sustain. Both the nulling
        // precoders (shared by vanilla nulling and COPA's concurrent
        // nulling, keyed by the SDA role assignment) and the beamformers
        // (shared with the sequential strategies) are memoized per topology.
        let pres: &[LinkPrecoding; 2] = if nulling {
            let key = match sda_leader {
                None => 0,
                Some(l) => 1 + l,
            };
            if null_state[key].is_none() {
                let slot = &mut null_pre[key];
                let ok = phase_span(
                    obs,
                    |m| m.precoding_us,
                    "precoding",
                    || {
                        for i in 0..2 {
                            let max_streams = est_own[i].rx().min(est_own[i].tx());
                            // Highest stream count that still permits nulling.
                            let feasible = (1..=max_streams).rev().any(|k| {
                                null_toward_with(
                                    est_own[i],
                                    est_cross[i],
                                    k,
                                    pre_scratch,
                                    &mut slot[i],
                                )
                            });
                            if !feasible {
                                return false;
                            }
                        }
                        true
                    },
                );
                null_state[key] = Some(ok);
            }
            if null_state[key] != Some(true) {
                return None;
            }
            // With `require_full_rank`, only the full stream count will do.
            if require_full_rank {
                for i in 0..2 {
                    let max_streams = est_own[i].rx().min(est_own[i].tx());
                    if null_pre[key][i].streams() < max_streams {
                        return None;
                    }
                }
            }
            &null_pre[key]
        } else {
            for i in 0..2 {
                if !bf_valid[i] {
                    phase_span(
                        obs,
                        |m| m.precoding_us,
                        "precoding",
                        || {
                            let max_streams = est_own[i].rx().min(est_own[i].tx());
                            beamform_with(est_own[i], max_streams, pre_scratch, &mut bf_pre[i]);
                        },
                    );
                    bf_valid[i] = true;
                }
            }
            &*bf_pre
        };

        // Cross-gain predictions for the allocator: residual leakage of each
        // stream at the victim, plus the EVM floor the radio specs promise.
        let evm = self.params.impairments.evm_factor();
        let streams = topo.config.max_streams();
        let eff = airtime_efficiency(
            Scheme::CopaConcurrent,
            &self.overhead_config(topo, streams),
            self.params.coherence_us,
        );

        phase_span(
            obs,
            |m| m.allocation_us,
            "allocation",
            || match strategy {
                Strategy::VanillaNull => {
                    for i in 0..2 {
                        eq_powers[i].set_equal(pres[i].streams(), budget);
                    }
                }
                _ => {
                    let kind = if strategy.is_mercury() {
                        AllocatorKind::Mercury
                    } else {
                        AllocatorKind::EquiSinr
                    };
                    for i in 0..2 {
                        cross_gains_into(
                            est_cross[i],
                            &pres[i],
                            evm,
                            pre_scratch,
                            &mut cross_gains[i],
                        );
                    }
                    let problem = ConcurrentProblem {
                        own_gains: [&pres[0].stream_gains, &pres[1].stream_gains],
                        cross_gains: [&cross_gains[0], &cross_gains[1]],
                        noise_mw: noise,
                        budgets_mw: [budget, budget],
                    };
                    allocate_concurrent_into(
                        &problem,
                        kind,
                        &self.params.model,
                        eff,
                        alloc,
                        conc_sol,
                    );
                    if kind == AllocatorKind::Mercury {
                        // Every round allocates every stream of both APs.
                        let streams = pres[0].streams() + pres[1].streams();
                        tally.mercury_streams += (conc_sol.iterations * streams) as u64;
                        tally.mercury_solves += conc_sol.mercury_solves as u64;
                    }
                }
            },
        );
        let powers: &[TxPowers; 2] = match strategy {
            Strategy::VanillaNull => eq_powers,
            _ => &conc_sol.powers,
        };

        // Ground-truth evaluation at both clients.
        let mut per_client = [0.0; 2];
        for i in 0..2 {
            let own = TxSide {
                channel: true_own[i],
                precoding: &pres[i],
                powers: &powers[i],
                budget_mw: budget,
            };
            let j = 1 - i;
            let int = TxSide {
                channel: true_cross[j], // AP j -> client i
                precoding: &pres[j],
                powers: &powers[j],
                budget_mw: budget,
            };
            phase_span(
                obs,
                |m| m.sinr_us,
                "sinr",
                || {
                    mmse_sinr_grid_with(&own, Some(&int), noise, imp, sinr_scratch, grid);
                    active_cells_into(grid, &powers[i], cells);
                },
            );
            per_client[i] = self.goodput(cells, eff, mode);
        }
        if strategy != Strategy::VanillaNull {
            tally.game(conc_sol, per_client);
        }
        Some(Outcome {
            strategy,
            per_client_bps: per_client,
        })
    }
}

/// Static channel-matrix names for error context (indexed `[i][j]`).
const EST_NAMES: [[&str; 2]; 2] = [["est[0][0]", "est[0][1]"], ["est[1][0]", "est[1][1]"]];
/// Static true-link names for error context (indexed `[a][c]`).
const LINK_NAMES: [[&str; 2]; 2] = [
    ["links[0][0]", "links[0][1]"],
    ["links[1][0]", "links[1][1]"],
];

/// Rejects a topology whose true links disagree with its antenna config:
/// every `links[a][c]` must be `client_antennas x ap_antennas`, both at
/// least 1. Every such channel carries all `DATA_SUBCARRIERS` subcarriers,
/// which the fixed-width rows of the precoding data model rely on. A true
/// link with a non-finite entry (or one whose power overflows) is a
/// [`CopaError::SingularChannel`], as for estimates. An all-zero true link
/// passes here; an own one then fails [`validate_estimates`], because its
/// estimate is all zero too.
fn validate_topology(topology: &Topology) -> Result<(), CopaError> {
    let cfg = topology.config;
    let expected = (cfg.client_antennas, cfg.ap_antennas);
    for (a, row) in topology.links.iter().enumerate() {
        for (c, link) in row.iter().enumerate() {
            let got = (link.rx(), link.tx());
            if got != expected || expected.0 == 0 || expected.1 == 0 {
                return Err(CopaError::DimensionMismatch {
                    context: "true link vs antenna config",
                    expected,
                    got,
                });
            }
            if let Some(s) = link
                .iter()
                .position(|m| !m.frobenius_norm_sqr().is_finite())
            {
                return Err(CopaError::SingularChannel {
                    context: LINK_NAMES[a][c],
                    subcarrier: s,
                    cond: f64::INFINITY,
                });
            }
        }
    }
    Ok(())
}

/// Rejects estimates the numerics cannot digest, whether the caller supplied
/// them or the engine prepared them: estimated CSI whose shape disagrees
/// with the true link it estimates, and channels with non-finite entries or
/// an all-zero own link (rank zero -- beamforming would divide by a zero
/// norm).
fn validate_estimates(topology: &Topology, est: &[[FreqChannel; 2]; 2]) -> Result<(), CopaError> {
    for i in 0..2 {
        for j in 0..2 {
            let est = &est[i][j];
            let truth = &topology.links[i][j];
            if est.rx() != truth.rx() || est.tx() != truth.tx() {
                return Err(CopaError::DimensionMismatch {
                    context: "estimated CSI vs true link",
                    expected: (truth.rx(), truth.tx()),
                    got: (est.rx(), est.tx()),
                });
            }
            for (s, m) in est.iter().enumerate() {
                let norm = m.frobenius_norm_sqr();
                if !norm.is_finite() || (i == j && norm == 0.0) {
                    return Err(CopaError::SingularChannel {
                        context: EST_NAMES[i][j],
                        subcarrier: s,
                        cond: f64::INFINITY,
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    fn engine() -> Engine {
        Engine::new(ScenarioParams::default())
    }

    fn topo(seed: u64, cfg: AntennaConfig) -> Topology {
        TopologySampler::default().suite(seed, 1, cfg).remove(0)
    }

    fn eval(e: &Engine, t: &Topology) -> Evaluation {
        e.run(&mut EvalRequest::topology(t))
            .expect("valid topology")
    }

    #[test]
    fn evaluates_4x2_with_all_strategies() {
        let e = engine();
        let ev = eval(&e, &topo(11, AntennaConfig::CONSTRAINED_4X2));
        assert!(ev.csma.aggregate_bps() > 0.0);
        assert!(ev.copa_seq.aggregate_bps() > 0.0);
        assert!(ev.vanilla_null.is_some(), "4x2 supports nulling");
        assert!(ev.outcome(Strategy::ConcurrentNull).is_some());
        assert!(ev.outcome(Strategy::ConcurrentBf).is_some());
        // COPA picks from its menu and is at least as good as COPA-SEQ.
        assert!(ev.copa.aggregate_bps() >= ev.copa_seq.aggregate_bps());
        assert!(ev.copa_fair.aggregate_bps() <= ev.copa.aggregate_bps() + 1.0);
    }

    #[test]
    fn single_antenna_has_no_nulling() {
        let e = engine();
        let ev = eval(&e, &topo(12, AntennaConfig::SINGLE));
        assert!(ev.vanilla_null.is_none(), "1x1 cannot null");
        assert!(ev.outcome(Strategy::ConcurrentNull).is_none());
        assert!(ev.outcome(Strategy::ConcurrentBf).is_some());
    }

    #[test]
    fn overconstrained_uses_sda() {
        let e = engine();
        let ev = eval(&e, &topo(13, AntennaConfig::OVERCONSTRAINED_3X2));
        // SDA makes nulling feasible even though 3 - 2 < 2.
        assert!(
            ev.vanilla_null.is_some(),
            "3x2 should fall back to SDA nulling"
        );
        assert!(ev.outcome(Strategy::ConcurrentNull).is_some());
    }

    #[test]
    fn copa_seq_never_loses_to_csma_much() {
        // COPA-SEQ = CSMA + power allocation + subcarrier selection; it can
        // only lose the tiny extra MAC overhead.
        let e = engine();
        for seed in 20..26 {
            let ev = eval(&e, &topo(seed, AntennaConfig::CONSTRAINED_4X2));
            assert!(
                ev.copa_seq.aggregate_bps() > ev.csma.aggregate_bps() * 0.93,
                "seed {seed}: COPA-SEQ {:.1} vs CSMA {:.1} Mbps",
                ev.copa_seq.aggregate_mbps(),
                ev.csma.aggregate_mbps()
            );
        }
    }

    #[test]
    fn fair_variant_is_incentive_compatible() {
        let e = engine();
        for seed in 30..36 {
            let ev = eval(&e, &topo(seed, AntennaConfig::CONSTRAINED_4X2));
            assert!(
                ev.copa_fair.incentive_compatible_vs(&ev.copa_seq),
                "seed {seed}: fair pick must not hurt either client"
            );
        }
    }

    #[test]
    fn copa_plus_requires_flag_and_dominates() {
        let params = ScenarioParams {
            include_mercury: true,
            ..Default::default()
        };
        let e = Engine::new(params);
        let ev = eval(&e, &topo(40, AntennaConfig::SINGLE));
        let plus = ev.copa_plus.expect("mercury enabled");
        assert!(
            plus.aggregate_bps() >= ev.copa.aggregate_bps() * 0.98,
            "COPA+ should be at least competitive: {:.1} vs {:.1}",
            plus.aggregate_mbps(),
            ev.copa.aggregate_mbps()
        );
    }

    #[test]
    fn observed_copa_plus_evaluation_counts_its_allocation_work() {
        use crate::telemetry::EngineMetrics;
        use copa_obs::{FrozenClock, Telemetry};

        let e = Engine::new(ScenarioParams {
            include_mercury: true,
            ..Default::default()
        });
        let t = topo(11, AntennaConfig::CONSTRAINED_4X2);
        let mut tel = Telemetry::new();
        let metrics = EngineMetrics::register(&mut tel);
        let clock = FrozenClock(0);
        let obs = EngineObs::new(&tel, &clock, metrics);
        e.run(&mut EvalRequest::topology(&t).observe(obs))
            .expect("valid topology");

        // Every Mercury stream solves 1 to 4 constellations, and on a 4x2
        // evaluation some stream skips at least one.
        let streams = tel.counter_value(metrics.mercury_streams);
        let solves = tel.counter_value(metrics.mercury_solves);
        assert!(
            streams > 0 && streams <= solves && solves < 4 * streams,
            "{streams} Mercury streams ran {solves} solves"
        );
        let rounds = tel.histogram_ref(metrics.fig6_rounds);
        let best = tel.histogram_ref(metrics.fig6_best_round);
        assert!(rounds.count() > 0, "no Figure 6 game recorded");
        assert_eq!(rounds.count(), best.count(), "one kept round per game");
        for h in [rounds, best] {
            assert!(h.min() >= Some(1) && h.max() <= Some(MAX_ITERATIONS as u64));
        }
        assert!(best.sum() <= rounds.sum(), "a kept round is a round run");
        // One prediction error per game, from the same tally.
        let errors = tel.histogram_ref(metrics.fig6_pred_error_kbps);
        assert_eq!(
            errors.count(),
            rounds.count(),
            "one prediction error per game"
        );
        assert!(tel.counter_value(metrics.fig6_overpredicted) <= errors.count());
    }

    #[test]
    fn estimates_input_matches_topology_input_bitwise() {
        // The daemon's aged-CSI path: evaluating a topology with estimates
        // produced by `prepare_into` under the same seed must be
        // bit-identical to the engine-prepared raw-topology path.
        let e = engine();
        let t = topo(50, AntennaConfig::CONSTRAINED_4X2);
        let via_topology = eval(&e, &t);
        let mut est: [[FreqChannel; 2]; 2] = Default::default();
        prepare_into(&t, e.params(), &mut est);
        let mut ws = EngineWorkspace::new();
        let via_estimates = e
            .run(&mut EvalRequest::estimates(&t, &est).workspace(&mut ws))
            .expect("valid estimates");
        assert_eq!(
            via_topology.copa_fair.aggregate_bps().to_bits(),
            via_estimates.copa_fair.aggregate_bps().to_bits()
        );
        assert_eq!(
            via_topology.csma.aggregate_bps().to_bits(),
            via_estimates.csma.aggregate_bps().to_bits()
        );
    }

    #[test]
    fn estimates_input_rejects_degenerate_csi() {
        let e = engine();
        let t = topo(51, AntennaConfig::CONSTRAINED_4X2);
        let mut est: [[FreqChannel; 2]; 2] = Default::default();

        prepare_into(&t, e.params(), &mut est);
        est[0][0] = est[0][0].scale_power(0.0);
        match e.run(&mut EvalRequest::estimates(&t, &est)) {
            Err(CopaError::SingularChannel { context, .. }) => assert_eq!(context, "est[0][0]"),
            other => panic!("expected SingularChannel, got {other:?}"),
        }

        prepare_into(&t, e.params(), &mut est);
        est[1][0] = est[1][0].select_rx(&[0]);
        match e.run(&mut EvalRequest::estimates(&t, &est)) {
            Err(CopaError::DimensionMismatch { got, .. }) => assert_eq!(got.0, 1),
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn malformed_topology_is_a_typed_error_in_both_lanes() {
        let e = engine();
        let mut t = topo(53, AntennaConfig::CONSTRAINED_4X2);
        t.links = Default::default();
        let est: [[FreqChannel; 2]; 2] = Default::default();
        for run in [
            e.run(&mut EvalRequest::topology(&t)),
            e.run(&mut EvalRequest::estimates(&t, &est)),
        ] {
            match run {
                Err(CopaError::DimensionMismatch {
                    context,
                    expected,
                    got,
                }) => {
                    assert_eq!(context, "true link vs antenna config");
                    assert_eq!((expected, got), ((2, 4), (0, 0)));
                }
                other => panic!("expected DimensionMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_finite_true_links_are_a_typed_error_in_both_lanes() {
        // One poisoned entry on one subcarrier of a true own or cross link:
        // both lanes must refuse it before any kernel sees it.
        let e = engine();
        let clean = topo(5, AntennaConfig::CONSTRAINED_4X2);
        let mut est: [[FreqChannel; 2]; 2] = Default::default();
        prepare_into(&clean, e.params(), &mut est);
        for bad in [f64::NAN, f64::INFINITY, 1e200] {
            for (c, name) in [(0, "links[0][0]"), (1, "links[0][1]")] {
                let mut t = clean.clone();
                t.links[0][c] = t.links[0][c].map(|s, m| {
                    let mut m = m.clone();
                    if s == 7 {
                        m[(0, 0)] = copa_num::complex::C64::real(bad);
                    }
                    m
                });
                for run in [
                    e.run(&mut EvalRequest::topology(&t)),
                    e.run(&mut EvalRequest::estimates(&t, &est)),
                ] {
                    match run {
                        Err(CopaError::SingularChannel {
                            context,
                            subcarrier,
                            cond,
                        }) => {
                            assert_eq!((context, subcarrier), (name, 7), "{bad:e}");
                            assert_eq!(cond, f64::INFINITY);
                        }
                        other => {
                            panic!("{name} = {bad:e}: expected SingularChannel, got {other:?}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn both_lanes_reject_a_vanishing_own_link_alike() {
        // Estimation noise scales with the true link's gain, so a true link
        // scaled to nothing has an all-zero estimate in either lane. An own
        // link is then the same SingularChannel in both; a cross link stays
        // valid, with the same bits in both.
        let e = engine();
        for cfg in [
            AntennaConfig::CONSTRAINED_4X2,
            AntennaConfig::SINGLE,
            AntennaConfig::OVERCONSTRAINED_3X2,
        ] {
            for factor in [0.0, 1e-160] {
                for c in [0, 1] {
                    let mut t = topo(5, cfg);
                    t.links[0][c] = t.links[0][c].map(|_, m| m.scale(factor));
                    let mut est: [[FreqChannel; 2]; 2] = Default::default();
                    prepare_into(&t, e.params(), &mut est);
                    let topology = e.run(&mut EvalRequest::topology(&t));
                    let estimates = e.run(&mut EvalRequest::estimates(&t, &est));
                    let ctx = format!("{cfg:?}, links[0][{c}] x {factor:e}");
                    match (c, topology, estimates) {
                        (0, Err(a), Err(b)) => {
                            assert!(
                                matches!(
                                    a,
                                    CopaError::SingularChannel {
                                        context: "est[0][0]",
                                        subcarrier: 0,
                                        ..
                                    }
                                ),
                                "{ctx}: {a:?}"
                            );
                            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}");
                        }
                        (1, Ok(a), Ok(b)) => {
                            for (x, y) in [(a.copa_fair, b.copa_fair), (a.csma, b.csma)] {
                                assert_eq!(
                                    x.aggregate_bps().to_bits(),
                                    y.aggregate_bps().to_bits(),
                                    "{ctx}"
                                );
                            }
                        }
                        (_, a, b) => panic!("{ctx}: lanes gave {a:?} and {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn cond_limit_quarantines_ill_conditioned_channels() {
        let t = topo(52, AntennaConfig::CONSTRAINED_4X2);

        // An absurdly tight limit rejects every realistic fading draw...
        let tight = Engine::new(ScenarioParams {
            cond_limit: 1.0 + 1e-12,
            ..Default::default()
        });
        match tight.run(&mut EvalRequest::topology(&t)) {
            Err(CopaError::SingularChannel { context, cond, .. }) => {
                assert!(context.starts_with("est["), "context {context}");
                assert!(cond.is_finite() && cond > 1.0, "measured cond {cond}");
            }
            other => panic!("expected conditioning quarantine, got {other:?}"),
        }

        // ...a generous finite limit accepts it, bit-identical to the
        // default infinite limit (the check must not perturb results).
        let loose = Engine::new(ScenarioParams {
            cond_limit: 1e12,
            ..Default::default()
        });
        let guarded = loose
            .run(&mut EvalRequest::topology(&t))
            .expect("well-conditioned draw");
        let plain = engine()
            .run(&mut EvalRequest::topology(&t))
            .expect("valid topology");
        assert_eq!(
            guarded.copa_fair.aggregate_bps().to_bits(),
            plain.copa_fair.aggregate_bps().to_bits()
        );
    }

    #[test]
    fn multi_decoder_not_worse() {
        let e = engine();
        let t = topo(41, AntennaConfig::CONSTRAINED_4X2);
        let single = eval(&e, &t);
        let multi = e
            .run(&mut EvalRequest::topology(&t).mode(DecoderMode::PerSubcarrier))
            .expect("valid topology");
        assert!(
            multi.csma.aggregate_bps() >= single.csma.aggregate_bps() * 0.999,
            "per-subcarrier rate adaptation should not hurt CSMA"
        );
        assert!(multi.copa.aggregate_bps() >= single.copa.aggregate_bps() * 0.95);
    }
}

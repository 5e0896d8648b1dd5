//! Long-lived per-cell coordination state: CSI age tracking and the
//! persistent engine session the event-driven daemon drives.
//!
//! The batch runners treat every topology as a cold start: estimate CSI,
//! evaluate, discard. A deployment does the opposite — precoder and
//! allocator state persists across TXOPs, and the expensive work (an ITS
//! CSI exchange followed by a full strategy evaluation) re-runs only when
//! the cached CSI has aged past the staleness threshold or the traffic mix
//! churned. [`CsiAgeState`] is the trigger logic; [`CellSession`] owns the
//! estimate slots, engine workspace and cached decision that persist
//! between triggers.

use crate::engine::{Engine, EngineWorkspace, EvalRequest, Evaluation};
use crate::error::CopaError;
use crate::scenario::{prepare_into, ScenarioParams};
use crate::telemetry::EngineObs;
use copa_channel::{FreqChannel, Topology};

/// When the CSI backing a cell's decision was last refreshed, and whether
/// it is due for another exchange.
///
/// Age semantics are deliberately strict: CSI that is *exactly* as old as
/// the staleness threshold is already stale (the decision it backs was made
/// a full threshold ago), and a cell that has never exchanged is always
/// due. A clock that never advances therefore schedules exactly one
/// exchange — the cold-start one — and then stays quiet.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CsiAgeState {
    learned_at_us: Option<u64>,
}

impl CsiAgeState {
    /// A cold-start state: no CSI has ever been exchanged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Age of the current CSI at `now_us`, or `None` before the first
    /// exchange. Saturates at zero if the caller's clock runs backwards.
    pub fn age_us(&self, now_us: u64) -> Option<u64> {
        self.learned_at_us
            .map(|learned| now_us.saturating_sub(learned))
    }

    /// `true` when an exchange must be scheduled: cold start, topology /
    /// traffic churn, or age at-or-beyond the staleness threshold.
    pub fn needs_exchange(&self, now_us: u64, staleness_us: u64, churned: bool) -> bool {
        match self.age_us(now_us) {
            None => true,
            Some(_) if churned => true,
            Some(age) => age >= staleness_us,
        }
    }

    /// Records a completed exchange at `now_us`.
    pub fn mark_exchanged(&mut self, now_us: u64) {
        self.learned_at_us = Some(now_us);
    }

    /// When the current CSI was learned (`None` before the first exchange).
    pub fn learned_at_us(&self) -> Option<u64> {
        self.learned_at_us
    }
}

/// The lifecycle state of a [`CellSession`], as the daemon's scheduler
/// sees it at a given instant.
///
/// ```text
///            exchange ok                staleness / churn
///   (cold) ─────────────▶ Fresh ─────────────────────────▶ Stale
///                           ▲                                │
///                exchange ok│          exchange fails        │
///                           │      (retry budget exhausted)  ▼
///                           └──────────────────────────── Degraded
///                                                     ▲      │
///                                  recovery exchange  │      │ backoff
///                                  fails again        └──────┘ doubles
/// ```
///
/// `Degraded` pins the cell to stock CSMA: no engine evaluations run and
/// no exchange fires until the backoff deadline `until_us` passes, when
/// the next recovery exchange is due. Every further failure doubles the
/// backoff (capped); any successful exchange returns the session to
/// `Fresh`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// CSI younger than the staleness threshold backs the cached decision.
    Fresh,
    /// Cold start, or CSI at-or-past the staleness threshold: the next
    /// active epoch schedules an exchange.
    Stale,
    /// Coordination failed; the cell runs stock CSMA until the backoff
    /// deadline, then attempts a recovery exchange.
    Degraded {
        /// Simulated time before which no recovery exchange fires.
        until_us: u64,
        /// Failed exchanges in the current degradation bout.
        attempts: u32,
    },
}

/// A persistent per-cell engine session: the daemon-side half of the old
/// engine/coordinator split.
///
/// Owns what survives between TXOPs — the CSI estimate slots written by the
/// last measurement, the warmed [`EngineWorkspace`], the [`CsiAgeState`],
/// the exchange ordinal and the degradation bout — so a long-lived run
/// touches the allocator only while buffers grow toward their steady-state
/// shapes. The daemon runs an exchange as [`CellSession::measure`], one
/// [`CellSession::evaluate`] whose decision the ITS exchange carries, and
/// [`CellSession::commit`] once the exchange delivered.
pub struct CellSession {
    engine: Engine,
    ws: EngineWorkspace,
    est: [[FreqChannel; 2]; 2],
    age: CsiAgeState,
    exchanges: u64,
    /// `(until_us, attempts)` of the active degradation bout, if any.
    degraded: Option<(u64, u32)>,
}

impl CellSession {
    /// A cold session: no CSI, unwarmed workspace, exchange ordinal 0.
    pub fn new(params: ScenarioParams) -> Self {
        Self {
            engine: Engine::new(params),
            ws: EngineWorkspace::new(),
            est: Default::default(),
            age: CsiAgeState::new(),
            exchanges: 0,
            degraded: None,
        }
    }

    /// The session's engine parameters.
    pub fn params(&self) -> &ScenarioParams {
        self.engine.params()
    }

    /// The CSI age trigger state.
    pub fn age(&self) -> &CsiAgeState {
        &self.age
    }

    /// Completed exchanges (the next exchange's ordinal).
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// The lifecycle state at `now_us` under `staleness_us`. Degradation
    /// dominates: a degraded session reads `Degraded` even when its CSI
    /// would also count as stale.
    pub fn state(&self, now_us: u64, staleness_us: u64) -> SessionState {
        if let Some((until_us, attempts)) = self.degraded {
            return SessionState::Degraded { until_us, attempts };
        }
        if self.age.needs_exchange(now_us, staleness_us, false) {
            SessionState::Stale
        } else {
            SessionState::Fresh
        }
    }

    /// The active degradation bout (`(until_us, attempts)`), if any.
    pub fn degraded(&self) -> Option<(u64, u32)> {
        self.degraded
    }

    /// Records a failed exchange at `now_us`: enters (or extends) the
    /// degradation bout with capped exponential backoff. Attempt `n`
    /// (1-based) schedules the next recovery at
    /// `now_us + backoff_base_us << min(n - 1, backoff_cap)`. Returns the
    /// attempt count of the bout so far.
    pub fn mark_degraded(&mut self, now_us: u64, backoff_base_us: u64, backoff_cap: u32) -> u32 {
        let attempts = self.degraded.map_or(0, |(_, n)| n) + 1;
        let shift = (attempts - 1).min(backoff_cap).min(63);
        let until_us = now_us.saturating_add(backoff_base_us.saturating_mul(1u64 << shift));
        self.degraded = Some((until_us, attempts));
        attempts
    }

    /// Reinstates a degradation bout verbatim: the journal-resume path.
    pub fn restore_degraded(&mut self, until_us: u64, attempts: u32) {
        self.degraded = Some((until_us, attempts));
    }

    /// Forgets everything the session learned — CSI estimates, age,
    /// exchange ordinal, degradation bout — returning it to the cold state
    /// a brand-new session starts in. The daemon calls this when a cell
    /// departs so nothing leaks into a later rejoin, which cold-starts
    /// through the normal exchange path.
    pub fn teardown(&mut self) {
        self.est = Default::default();
        self.age = CsiAgeState::new();
        self.exchanges = 0;
        self.degraded = None;
    }

    /// `true` when the session holds no learned state at all (as after
    /// [`CellSession::teardown`] or before the first exchange).
    pub fn is_cold(&self) -> bool {
        self.exchanges == 0 && self.age.learned_at_us().is_none() && self.degraded.is_none()
    }

    /// The estimation seed of exchange `ordinal` under base seed `seed`.
    /// Ordinal 0 is exactly the base seed, so a session's first exchange
    /// reproduces the batch path's `prepare_into` bit for bit; later
    /// ordinals draw fresh, well-separated estimation noise.
    pub fn exchange_seed(seed: u64, ordinal: u64) -> u64 {
        if ordinal == 0 {
            seed
        } else {
            seed.wrapping_add(ordinal.wrapping_mul(0xA24B_AED4_963E_E407)) ^ 0xC51A_6EDC_51A6_ED0C
        }
    }

    /// Restores the session to "exchange `ordinal` (0-based) happened at
    /// `now_us` against `topology`" without replaying earlier exchanges:
    /// the daemon's journal-resume path. Earlier exchanges fully overwrite
    /// each other's estimate slots, so re-running only the last one
    /// reproduces the live session bit for bit. (A failed exchange's
    /// uncommitted measurement is not restored: a degraded session
    /// evaluates nothing before its recovery exchange re-measures.) Afterwards
    /// [`CellSession::exchanges`] reads `ordinal + 1`. Clears any
    /// degradation bout (exchanges do); a resume that checkpointed
    /// mid-degradation reinstates it afterwards via
    /// [`CellSession::restore_degraded`].
    pub fn restore(&mut self, topology: &Topology, ordinal: u64, now_us: u64) {
        self.exchanges = ordinal;
        self.exchange(topology, now_us);
    }

    /// Draws the next exchange ordinal's CSI estimates of `topology` into
    /// the session's slots without committing them: the ordinal, the CSI
    /// age and any degradation bout stay as they are until
    /// [`CellSession::commit`], so an exchange that fails re-measures under
    /// the same ordinal when it is retried. Alloc-free once the slots are
    /// warm.
    pub fn measure(&mut self, topology: &Topology) {
        let mut params = *self.engine.params();
        params.seed = Self::exchange_seed(params.seed, self.exchanges);
        prepare_into(topology, &params, &mut self.est);
    }

    /// Commits the measured estimates as a completed exchange at `now_us`:
    /// advances the exchange ordinal and the CSI age, and ends any
    /// degradation bout.
    pub fn commit(&mut self, now_us: u64) {
        self.exchanges += 1;
        self.age.mark_exchanged(now_us);
        self.degraded = None;
    }

    /// Runs one CSI exchange against the current ground truth at `now_us`:
    /// [`CellSession::measure`] then [`CellSession::commit`].
    pub fn exchange(&mut self, topology: &Topology, now_us: u64) {
        self.measure(topology);
        self.commit(now_us);
    }

    /// The CSI estimate slots: `est[a][c]` from AP `a` to client `c`, as the
    /// last [`CellSession::measure`] left them.
    pub fn estimates(&self) -> &[[FreqChannel; 2]; 2] {
        &self.est
    }

    /// Whether the session must exchange before its next evaluation.
    /// While degraded, only the backoff deadline matters: the recovery
    /// exchange fires at-or-after `until_us` and neither staleness nor
    /// churn can pull it earlier (the whole point of backing off a lossy
    /// medium).
    pub fn needs_exchange(&self, now_us: u64, staleness_us: u64, churned: bool) -> bool {
        match self.degraded {
            Some((until_us, _)) => now_us >= until_us,
            None => self.age.needs_exchange(now_us, staleness_us, churned),
        }
    }

    /// Evaluates the current ground truth under the session's estimates
    /// (freshly measured, or aged since the last exchange), reusing the
    /// persistent workspace. Before the first measurement the slots are
    /// empty and the evaluation fails with [`CopaError::DimensionMismatch`].
    pub fn evaluate(
        &mut self,
        topology: &Topology,
        obs: Option<EngineObs<'_>>,
    ) -> Result<Evaluation, CopaError> {
        let mut req = EvalRequest::estimates(topology, &self.est).workspace(&mut self.ws);
        if let Some(o) = obs {
            req = req.observe(o);
        }
        self.engine.run(&mut req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    fn topo(seed: u64) -> Topology {
        TopologySampler::default()
            .suite(seed, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0)
    }

    #[test]
    fn cold_start_then_fresh_then_stale() {
        let mut age = CsiAgeState::new();
        assert!(age.needs_exchange(0, 1_000, false), "cold start is due");
        age.mark_exchanged(0);
        assert!(!age.needs_exchange(999, 1_000, false));
        assert!(age.needs_exchange(1_000, 1_000, false), "age == threshold");
        assert!(age.needs_exchange(500, 1_000, true), "churn forces it");
        assert_eq!(age.age_us(700), Some(700));
    }

    #[test]
    fn first_exchange_matches_batch_prepare_bitwise() {
        let t = topo(31);
        let params = ScenarioParams::default();
        let mut session = CellSession::new(params);
        session.exchange(&t, 0);
        let mut est: [[FreqChannel; 2]; 2] = Default::default();
        prepare_into(&t, &params, &mut est);
        for a in 0..2 {
            for c in 0..2 {
                for s in [0usize, 25, 51] {
                    assert!(session.est[a][c].at(s).approx_eq(est[a][c].at(s), 1e-300));
                }
            }
        }
    }

    #[test]
    fn session_evaluation_matches_engine_run() {
        let t = topo(32);
        let params = ScenarioParams::default();
        let mut session = CellSession::new(params);
        session.exchange(&t, 0);
        let ev = session.evaluate(&t, None).expect("valid");
        let reference = Engine::new(params)
            .run(&mut EvalRequest::topology(&t))
            .expect("valid");
        assert_eq!(
            ev.copa_fair.aggregate_bps().to_bits(),
            reference.copa_fair.aggregate_bps().to_bits()
        );
    }

    #[test]
    fn evaluate_before_any_measurement_is_a_dimension_mismatch() {
        let t = topo(36);
        let mut s = CellSession::new(ScenarioParams::default());
        assert!(matches!(
            s.evaluate(&t, None),
            Err(CopaError::DimensionMismatch { .. })
        ));
        // A measurement fills the slots without committing an exchange.
        s.measure(&t);
        assert!(s.evaluate(&t, None).is_ok());
        assert_eq!(s.exchanges(), 0, "measure alone commits nothing");
        assert_eq!(s.age().learned_at_us(), None);
        s.commit(0);
        assert_eq!(s.exchanges(), 1);
    }

    #[test]
    fn degradation_backs_off_exponentially_and_recovers_on_exchange() {
        let t = topo(34);
        let mut s = CellSession::new(ScenarioParams::default());
        s.exchange(&t, 0);
        assert_eq!(s.state(100, 1_000), SessionState::Fresh);
        assert_eq!(s.state(1_000, 1_000), SessionState::Stale);
        // First failure: backoff = base; due exactly at the deadline.
        assert_eq!(s.mark_degraded(1_000, 100, 3), 1);
        assert_eq!(
            s.state(1_000, 1_000),
            SessionState::Degraded {
                until_us: 1_100,
                attempts: 1
            }
        );
        assert!(
            !s.needs_exchange(1_099, 1_000, true),
            "churn cannot rush it"
        );
        assert!(s.needs_exchange(1_100, 1_000, false), "due at the deadline");
        // Repeated failures double the backoff until the cap.
        assert_eq!(s.mark_degraded(2_000, 100, 3), 2);
        assert_eq!(s.degraded(), Some((2_200, 2)));
        s.mark_degraded(3_000, 100, 3);
        s.mark_degraded(4_000, 100, 3);
        assert_eq!(s.degraded(), Some((4_800, 4)), "shift 3");
        s.mark_degraded(5_000, 100, 3);
        assert_eq!(s.degraded(), Some((5_800, 5)), "capped at shift 3");
        // A successful exchange ends the bout.
        s.exchange(&t, 6_000);
        assert_eq!(s.degraded(), None);
        assert_eq!(s.state(6_000, 1_000), SessionState::Fresh);
    }

    #[test]
    fn teardown_returns_the_session_to_cold() {
        let t = topo(35);
        let mut s = CellSession::new(ScenarioParams::default());
        assert!(s.is_cold());
        s.exchange(&t, 0);
        s.mark_degraded(10, 100, 3);
        assert!(!s.is_cold());
        s.teardown();
        assert!(s.is_cold());
        assert_eq!(s.exchanges(), 0);
        assert_eq!(s.degraded(), None);
        assert_eq!(s.state(0, 1_000), SessionState::Stale, "cold start is due");
        assert!(s.needs_exchange(0, 1_000, false));
        // Rejoining cold-starts through the normal path: the first exchange
        // after teardown is ordinal 0 again, bit-identical to a new session.
        s.restore_degraded(50, 2);
        assert_eq!(s.degraded(), Some((50, 2)));
        s.teardown();
        s.exchange(&t, 100);
        let mut fresh = CellSession::new(ScenarioParams::default());
        fresh.exchange(&t, 100);
        for sc in [0usize, 25, 51] {
            assert!(s.est[0][1].at(sc).approx_eq(fresh.est[0][1].at(sc), 1e-300));
        }
    }

    #[test]
    fn later_exchanges_redraw_estimation_noise() {
        let t = topo(33);
        let mut session = CellSession::new(ScenarioParams::default());
        session.exchange(&t, 0);
        let first = session.est[0][0].clone();
        session.exchange(&t, 1_000);
        assert_eq!(session.exchanges(), 2);
        assert!(
            !session.est[0][0].at(7).approx_eq(first.at(7), 1e-15),
            "second exchange must draw fresh estimation noise"
        );
        assert_ne!(
            CellSession::exchange_seed(5, 1),
            CellSession::exchange_seed(5, 2)
        );
        assert_eq!(CellSession::exchange_seed(5, 0), 5);
    }
}

//! The ITS coordination protocol, end to end.
//!
//! [`Coordinator`] drives the actual section 3.1 message flow between two AP
//! objects: the Leader's ITS INIT, the Follower's ITS REQ carrying
//! *compressed* CSI, the Leader's strategy computation, and the ITS ACK with
//! the Follower's precoding matrices. Every frame is really encoded to
//! bytes, CRC-protected, and decoded on the other side, and the Leader's
//! decision is computed from the CSI that survived the compression pipeline
//! -- so quantization loss genuinely flows into the chosen strategy, as it
//! would over the air.

use crate::engine::{Engine, EvalRequest, Evaluation};
use crate::error::{CopaError, WireFault};
use crate::scenario::prepare;
use crate::strategy::{Outcome, Strategy};
use crate::telemetry::ExchangeObs;
use copa_channel::faults::{Delivery, ExchangeFaults, FaultPlan};
use copa_channel::{FreqChannel, Topology};
use copa_mac::csi_codec::{compress_csi, decompress_csi};
use copa_mac::frames::{Addr, Decision, ItsFrame};
use copa_mac::timing::{
    bulk_frame_us, control_frame_us, CW_MAX, CW_MIN, DIFS_US, SIFS_US, SLOT_US,
};
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock};

/// A CSI cache entry: the channel learned by overhearing, plus when.
#[derive(Clone, Debug)]
pub struct CsiEntry {
    /// The (estimated) channel from the overheard sender.
    pub channel: FreqChannel,
    /// Cache timestamp in microseconds.
    pub learned_at_us: f64,
}

/// Per-AP CSI table indexed by sender address (section 3.1 "Learning CSI").
/// Shared between the AP's receive path and its coordination logic, hence
/// the lock.
#[derive(Default)]
pub struct CsiCache {
    entries: RwLock<HashMap<Addr, CsiEntry>>,
}

impl CsiCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an overheard channel.
    pub fn learn(&self, sender: Addr, channel: FreqChannel, now_us: f64) {
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                sender,
                CsiEntry {
                    channel,
                    learned_at_us: now_us,
                },
            );
    }

    /// Applies `f` to the cached channel if it is still fresh (within one
    /// coherence time), under a single read guard and without cloning the
    /// channel.
    pub fn with_fresh<R>(
        &self,
        sender: Addr,
        now_us: f64,
        coherence_us: f64,
        f: impl FnOnce(&FreqChannel) -> R,
    ) -> Option<R> {
        let map = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let e = map.get(&sender)?;
        if now_us - e.learned_at_us <= coherence_us {
            Some(f(&e.channel))
        } else {
            None
        }
    }

    /// Copies the whole table out under one read guard, for callers that
    /// would otherwise probe entry by entry (each probe taking its own
    /// guard). Entries come back sorted by sender address so iteration
    /// order is deterministic.
    pub fn snapshot(&self) -> Vec<(Addr, CsiEntry)> {
        let map = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let mut all: Vec<(Addr, CsiEntry)> = map.iter().map(|(a, e)| (*a, e.clone())).collect();
        all.sort_by_key(|(a, _)| *a);
        all
    }

    /// Number of cached senders.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// `true` if nothing has been overheard yet.
    pub fn is_empty(&self) -> bool {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .is_empty()
    }
}

/// A record of one exchanged frame.
#[derive(Clone, Debug)]
pub struct FrameRecord {
    /// Frame name ("ITS INIT" etc.).
    pub name: &'static str,
    /// On-air size in bytes.
    pub wire_bytes: usize,
    /// Airtime of the frame at its transmission rate, microseconds.
    pub airtime_us: f64,
}

/// The result of a full ITS exchange.
#[derive(Debug)]
pub struct ExchangeTrace {
    /// Frames that decoded on the air, in order (retransmissions of a frame
    /// appear once per successful decode; lost attempts only burn airtime).
    pub frames: Vec<FrameRecord>,
    /// Total control airtime including SIFS gaps, retransmissions and
    /// backoff, microseconds.
    pub control_airtime_us: f64,
    /// Delivery attempts made across all frames.
    pub attempts: u32,
    /// Retries consumed out of the fault plan's budget.
    pub retries: u32,
    /// The decision the Leader sent in ITS ACK.
    pub decision: Strategy,
    /// The Leader's full evaluation (computed from decompressed CSI).
    pub evaluation: Evaluation,
}

/// The outcome of a fault-aware ITS exchange.
#[derive(Debug)]
pub enum ExchangeOutcome {
    /// The exchange completed; both cells follow the Leader's decision.
    Coordinated(ExchangeTrace),
    /// The retry budget ran out: both cells abandon coordination for this
    /// coherence interval and fall back to stock CSMA.
    Degraded {
        /// The Leader's local evaluation (its CSMA outcome is what the
        /// cells actually run).
        evaluation: Evaluation,
        /// Delivery attempts made before giving up.
        attempts: u32,
        /// Retries consumed (the whole budget, by construction).
        retries: u32,
        /// Control airtime burned by the failed exchange, microseconds.
        control_airtime_us: f64,
        /// Why the exchange gave up (an [`CopaError::ExchangeFailed`]
        /// wrapping the final fault).
        reason: CopaError,
    },
}

impl ExchangeOutcome {
    /// The strategy both cells actually end up running.
    pub fn decision(&self) -> Strategy {
        match self {
            ExchangeOutcome::Coordinated(t) => t.decision,
            ExchangeOutcome::Degraded { .. } => Strategy::Csma,
        }
    }

    /// The per-client outcome of that strategy (COPA-fair when coordinated,
    /// stock CSMA when degraded).
    pub fn chosen(&self) -> &Outcome {
        match self {
            ExchangeOutcome::Coordinated(t) => &t.evaluation.copa_fair,
            ExchangeOutcome::Degraded { evaluation, .. } => &evaluation.csma,
        }
    }

    /// `true` when the exchange fell back to CSMA.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ExchangeOutcome::Degraded { .. })
    }

    /// Retries consumed by this exchange.
    pub fn retries(&self) -> u32 {
        match self {
            ExchangeOutcome::Coordinated(t) => t.retries,
            ExchangeOutcome::Degraded { retries, .. } => *retries,
        }
    }
}

/// The lossy medium one exchange runs over: applies the fault plan to every
/// transmitted frame, accounts airtime (including retransmissions and
/// DCF-style backoff), and enforces the shared retry budget.
struct Airwave {
    faults: ExchangeFaults,
    attempts: u32,
    retries_used: u32,
    backoff_stage: u32,
    airtime_us: f64,
    frames: Vec<FrameRecord>,
}

impl Airwave {
    fn new(faults: ExchangeFaults) -> Self {
        Self {
            faults,
            attempts: 0,
            retries_used: 0,
            backoff_stage: 0,
            airtime_us: 0.0,
            frames: Vec::new(),
        }
    }

    /// Consumes one retry from the budget, charging the mean backoff of a
    /// doubling contention window; fails with `cause` once the budget is
    /// spent.
    fn retry(&mut self, cause: CopaError) -> Result<(), CopaError> {
        if self.retries_used >= self.faults.plan().max_retries {
            return Err(cause);
        }
        self.retries_used += 1;
        let cw = ((CW_MIN + 1) << self.backoff_stage.min(6)).min(CW_MAX + 1) - 1;
        self.backoff_stage += 1;
        self.airtime_us += DIFS_US + 0.5 * f64::from(cw) * SLOT_US;
        Ok(())
    }

    /// Transmits one frame through the faulty medium until it decodes or
    /// the retry budget dies. `air_of` maps wire bytes to airtime (control
    /// vs bulk rate). A fault-free plan charges exactly one airtime + SIFS,
    /// keeping clean traces bit-identical to the lossless implementation.
    fn send(
        &mut self,
        name: &'static str,
        wire: &[u8],
        air_of: fn(usize) -> f64,
    ) -> Result<ItsFrame, CopaError> {
        let air_us = air_of(wire.len());
        loop {
            self.attempts += 1;
            self.airtime_us += air_us + SIFS_US;
            let fault = match self.faults.deliver(wire) {
                Delivery::Lost => CopaError::CodecError {
                    stage: name,
                    kind: WireFault::Lost { frame: name },
                },
                Delivery::Intact(bytes)
                | Delivery::Corrupted(bytes)
                | Delivery::Truncated(bytes) => match ItsFrame::decode(&bytes) {
                    Ok(frame) => {
                        self.frames.push(FrameRecord {
                            name,
                            wire_bytes: wire.len(),
                            airtime_us: air_us,
                        });
                        return Ok(frame);
                    }
                    Err(e) => CopaError::CodecError {
                        stage: name,
                        kind: WireFault::Frame(e),
                    },
                },
            };
            self.retry(fault)?;
        }
    }
}

/// Drives ITS exchanges over a topology.
pub struct Coordinator {
    engine: Engine,
}

impl Coordinator {
    /// Wraps a strategy engine.
    pub fn new(engine: Engine) -> Self {
        Self { engine }
    }

    /// Access to the wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Runs one complete ITS exchange with AP `leader` as Leader over a
    /// clean (fault-free) medium.
    pub fn run_exchange(
        &self,
        topology: &Topology,
        leader: usize,
    ) -> Result<ExchangeTrace, CopaError> {
        match self.run_exchange_with_faults(topology, leader, &FaultPlan::none(0), 0)? {
            ExchangeOutcome::Coordinated(trace) => Ok(trace),
            ExchangeOutcome::Degraded { reason, .. } => Err(reason),
        }
    }

    /// Runs one ITS exchange over the medium described by `plan`.
    ///
    /// Every frame is retried with DCF-style backoff out of a shared budget
    /// (`plan.max_retries`); stale cached CSI forces a re-measurement that
    /// also costs a retry. When the budget runs out the exchange does what
    /// the real protocol must: both cells give up on coordination for this
    /// coherence interval and run stock CSMA, reported as
    /// [`ExchangeOutcome::Degraded`] rather than an error. `exchange_id`
    /// salts the fault stream, so a `(plan.seed, exchange_id)` pair replays
    /// bit-identically regardless of which thread runs it.
    pub fn run_exchange_with_faults(
        &self,
        topology: &Topology,
        leader: usize,
        plan: &FaultPlan,
        exchange_id: u64,
    ) -> Result<ExchangeOutcome, CopaError> {
        self.run_exchange_observed(topology, leader, plan, exchange_id, None)
    }

    /// [`Self::run_exchange_with_faults`] with an observation context:
    /// records ITS frames sent / retried / lost, the exchange verdict,
    /// and the control airtime histogram through the sink. All samples
    /// derive from *simulated* protocol time and the deterministic fault
    /// stream, so telemetry is a pure function of `(plan.seed,
    /// exchange_id)` and the results are bit-identical with or without
    /// observation.
    ///
    /// The batch runners pass their flat topology index as `exchange_id`;
    /// the daemon passes [`FaultPlan::epoch_exchange_id`] of its
    /// `(cell, epoch)` key, so every re-exchange a long-lived run
    /// schedules replays bit-identically.
    pub fn run_exchange_observed(
        &self,
        topology: &Topology,
        leader: usize,
        plan: &FaultPlan,
        exchange_id: u64,
        obs: Option<&ExchangeObs<'_>>,
    ) -> Result<ExchangeOutcome, CopaError> {
        assert!(leader < 2); // allowlisted: caller-side API contract
        let est = prepare(topology, self.engine.params());
        let mut air = Airwave::new(plan.for_exchange(exchange_id));
        let outcome = match self.attempt_exchange(&est, topology, leader, &mut air) {
            Ok(trace) => Ok(ExchangeOutcome::Coordinated(trace)),
            Err(last) => {
                // Coordination failed: both cells stay on stock CSMA for
                // this coherence interval. The Leader can still evaluate
                // its local view -- the CSMA outcome needs no exchange.
                let evaluation = self
                    .engine
                    .run(&mut EvalRequest::estimates(topology, &est))?;
                Ok(ExchangeOutcome::Degraded {
                    evaluation,
                    attempts: air.attempts,
                    retries: air.retries_used,
                    control_airtime_us: air.airtime_us,
                    reason: CopaError::ExchangeFailed {
                        attempts: air.attempts,
                        retries: air.retries_used,
                        last: Box::new(last),
                    },
                })
            }
        };
        if let (Some(o), Ok(out)) = (obs, &outcome) {
            let m = &o.metrics;
            let (attempts, retries, delivered, airtime_us) = match out {
                ExchangeOutcome::Coordinated(t) => {
                    o.sink.add(m.exchanges_completed, 1);
                    (
                        t.attempts,
                        t.retries,
                        t.frames.len() as u32,
                        t.control_airtime_us,
                    )
                }
                ExchangeOutcome::Degraded {
                    attempts,
                    retries,
                    control_airtime_us,
                    ..
                } => {
                    o.sink.add(m.exchanges_degraded, 1);
                    (
                        *attempts,
                        *retries,
                        air.frames.len() as u32,
                        *control_airtime_us,
                    )
                }
            };
            o.sink.add(m.frames_sent, u64::from(attempts));
            o.sink.add(m.frames_retried, u64::from(retries));
            o.sink
                .add(m.frames_lost, u64::from(attempts.saturating_sub(delivered)));
            o.sink.record(m.airtime_us, airtime_us.max(0.0) as u64);
        }
        outcome
    }

    /// One full coordination chain under the fault plan: INIT, REQ (with
    /// CSI decompression), the Leader's evaluation, ACK. Any error here is
    /// terminal for the exchange -- the shared retry budget is spent.
    fn attempt_exchange(
        &self,
        est: &[[FreqChannel; 2]; 2],
        topology: &Topology,
        leader: usize,
        air: &mut Airwave,
    ) -> Result<ExchangeTrace, CopaError> {
        let follower = 1 - leader;
        let params = self.engine.params();
        let ap = [Addr::from_id(1), Addr::from_id(2)];
        let client = [Addr::from_id(11), Addr::from_id(12)];

        // Step 2: ITS INIT from the Leader.
        let init = ItsFrame::Init {
            leader: ap[leader],
            client: client[leader],
            airtime_us: copa_mac::timing::TXOP_US as u32,
        };
        let decoded_init = air.send("ITS INIT", &init.encode(), control_frame_us)?;
        let (init_leader, init_client) = match decoded_init {
            ItsFrame::Init { leader, client, .. } => (leader, client),
            // invariant: decode of an encoded INIT preserves the tag
            _ => unreachable!("encoded an INIT"),
        };

        // Step 3: ITS REQ from the Follower, carrying compressed CSI from
        // the Follower to both clients. Stale cached CSI forces a
        // re-measurement before sending; a REQ whose CSI payload fails to
        // decompress is retransmitted like any other garbled frame.
        let (csi1, csi2) = loop {
            if air.faults.csi_is_stale() {
                air.retry(CopaError::StaleCsi {
                    age_us: 2.0 * params.coherence_us,
                    coherence_us: params.coherence_us,
                })?;
                continue;
            }
            let req = ItsFrame::Req {
                leader: init_leader,
                follower: ap[follower],
                client1: init_client,
                client2: client[follower],
                csi_to_client1: compress_csi(&est[follower][leader]),
                csi_to_client2: compress_csi(&est[follower][follower]),
                airtime_us: copa_mac::timing::TXOP_US as u32,
            };
            let decoded_req = air.send("ITS REQ", &req.encode(), bulk_frame_us)?;
            let (blob1, blob2) = match decoded_req {
                ItsFrame::Req {
                    csi_to_client1,
                    csi_to_client2,
                    ..
                } => (csi_to_client1, csi_to_client2),
                // invariant: decode of an encoded REQ preserves the tag
                _ => unreachable!("encoded a REQ"),
            };
            match (decompress_csi(&blob1), decompress_csi(&blob2)) {
                (Ok(a), Ok(b)) => break (a, b),
                (r1, r2) => {
                    // invariant: this arm only matches when a side failed
                    let e = r1.err().or_else(|| r2.err()).expect("one side failed");
                    air.retry(CopaError::CodecError {
                        stage: "ITS REQ CSI payload",
                        kind: WireFault::Csi(e),
                    })?;
                }
            }
        };

        // Step 4: the Leader computes the best joint strategy from what the
        // REQ actually delivered (decompressed CSI, quantization and all).
        let mut leaders_est = est.clone();
        leaders_est[follower][leader] = csi1;
        leaders_est[follower][follower] = csi2;
        let evaluation = self
            .engine
            .run(&mut EvalRequest::estimates(topology, &leaders_est))?;
        let chosen = evaluation.copa_fair;

        // Step 5: ITS ACK with the decision (and, when concurrent, the
        // Follower's precoding matrices -- compressed with the same codec).
        let decision = if chosen.strategy.is_concurrent() {
            let own = &leaders_est[follower][follower];
            let streams = topology.config.max_streams().min(own.rx().min(own.tx()));
            let pre = copa_precoding::beamforming::beamform(own, streams);
            let pre_as_channel = FreqChannel::from_matrices(pre.precoder.clone());
            Decision::Concurrent {
                precoder: compress_csi(&pre_as_channel),
                shut_down_antenna: None,
            }
        } else {
            Decision::Sequential
        };
        let ack = ItsFrame::Ack {
            leader: ap[leader],
            follower: ap[follower],
            client1: client[leader],
            client2: client[follower],
            decision,
            airtime_us: copa_mac::timing::TXOP_US as u32,
        };
        air.send("ITS ACK", &ack.encode(), bulk_frame_us)?;

        Ok(ExchangeTrace {
            frames: std::mem::take(&mut air.frames),
            control_airtime_us: air.airtime_us,
            attempts: air.attempts,
            retries: air.retries_used,
            decision: chosen.strategy,
            evaluation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioParams;
    use copa_channel::{AntennaConfig, MultipathProfile, TopologySampler};
    use copa_num::SimRng;

    #[test]
    fn csi_cache_freshness() {
        let cache = CsiCache::new();
        assert!(cache.is_empty());
        let ch = FreqChannel::random(
            &mut SimRng::seed_from(1),
            2,
            4,
            1.0,
            &MultipathProfile::default(),
        );
        let a = Addr::from_id(7);
        cache.learn(a, ch, 1000.0);
        assert_eq!(cache.len(), 1);
        assert!(cache.with_fresh(a, 20_000.0, 30_000.0, |_| ()).is_some());
        assert!(
            cache.with_fresh(a, 40_000.0, 30_000.0, |_| ()).is_none(),
            "stale beyond coherence"
        );
        assert!(cache
            .with_fresh(Addr::from_id(9), 1000.0, 30_000.0, |_| ())
            .is_none());
    }

    #[test]
    fn csi_cache_with_fresh_avoids_clone() {
        let cache = CsiCache::new();
        let ch = FreqChannel::random(
            &mut SimRng::seed_from(2),
            2,
            4,
            1.0,
            &MultipathProfile::default(),
        );
        let a = Addr::from_id(3);
        cache.learn(a, ch, 0.0);
        // Inspect under the guard without cloning the channel out.
        let dims = cache.with_fresh(a, 10.0, 1000.0, |c| (c.rx(), c.tx()));
        assert_eq!(dims, Some((2, 4)));
        // Stale or unknown senders short-circuit to None without calling f.
        assert!(cache.with_fresh(a, 5000.0, 1000.0, |_| ()).is_none());
        assert!(cache
            .with_fresh(Addr::from_id(4), 0.0, 1000.0, |_| ())
            .is_none());
    }

    #[test]
    fn csi_cache_snapshot_is_sorted_and_complete() {
        let cache = CsiCache::new();
        let mut rng = SimRng::seed_from(3);
        for id in [9u8, 1, 5] {
            let ch = FreqChannel::random(&mut rng, 1, 2, 1.0, &MultipathProfile::default());
            cache.learn(Addr::from_id(id), ch, f64::from(id));
        }
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 3);
        let ids: Vec<Addr> = snap.iter().map(|(a, _)| *a).collect();
        assert_eq!(
            ids,
            vec![Addr::from_id(1), Addr::from_id(5), Addr::from_id(9)]
        );
        for (a, e) in &snap {
            assert_eq!(e.learned_at_us, f64::from(a.0[5]));
        }
    }

    #[test]
    fn exchange_runs_end_to_end_4x2() {
        let topo = TopologySampler::default()
            .suite(50, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        let trace = coord
            .run_exchange(&topo, 0)
            .expect("exchange should succeed");
        assert_eq!(trace.frames.len(), 3);
        assert_eq!(trace.frames[0].name, "ITS INIT");
        assert_eq!(trace.frames[1].name, "ITS REQ");
        assert_eq!(trace.frames[2].name, "ITS ACK");
        // The REQ carries two compressed CSI blobs; it dominates the bytes.
        assert!(trace.frames[1].wire_bytes > trace.frames[0].wire_bytes);
        assert!(trace.control_airtime_us > 0.0);
        // The decision comes from the COPA-fair menu.
        assert!(Strategy::copa_menu().contains(&trace.decision));
    }

    #[test]
    fn leader_decision_survives_csi_compression() {
        // The decision computed from decompressed CSI should still deliver
        // an outcome close to the uncompressed evaluation.
        let topo = TopologySampler::default()
            .suite(51, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let engine = Engine::new(ScenarioParams::default());
        let direct = engine
            .run(&mut EvalRequest::topology(&topo))
            .expect("valid topology");
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        let trace = coord.run_exchange(&topo, 0).unwrap();
        let ratio = trace.evaluation.copa_fair.aggregate_bps() / direct.copa_fair.aggregate_bps();
        assert!(
            ratio > 0.7,
            "compression should not destroy the decision quality: ratio {ratio:.2}"
        );
    }

    #[test]
    fn single_antenna_exchange_often_sequential() {
        let topos = TopologySampler::default().suite(52, 4, AntennaConfig::SINGLE);
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        for t in &topos {
            let trace = coord.run_exchange(&t.clone(), 1).unwrap();
            // Valid decision either way; just exercise the leader=1 path.
            assert!(Strategy::copa_menu().contains(&trace.decision));
        }
    }

    #[test]
    fn zero_fault_plan_matches_clean_exchange() {
        let topo = TopologySampler::default()
            .suite(53, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        let clean = coord.run_exchange(&topo, 0).expect("clean medium");
        let outcome = coord
            .run_exchange_with_faults(&topo, 0, &FaultPlan::none(99), 7)
            .expect("zero plan cannot fail");
        let trace = match outcome {
            ExchangeOutcome::Coordinated(t) => t,
            other => panic!("zero plan must coordinate, got {other:?}"),
        };
        assert_eq!(trace.decision, clean.decision);
        assert_eq!(trace.attempts, 3, "one attempt per frame");
        assert_eq!(trace.retries, 0);
        assert_eq!(
            trace.control_airtime_us.to_bits(),
            clean.control_airtime_us.to_bits()
        );
        assert_eq!(
            trace.evaluation.copa_fair.aggregate_bps().to_bits(),
            clean.evaluation.copa_fair.aggregate_bps().to_bits()
        );
    }

    #[test]
    fn total_loss_degrades_to_csma() {
        let topo = TopologySampler::default()
            .suite(54, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        let plan = FaultPlan::lossy(1, 1.0);
        let outcome = coord
            .run_exchange_with_faults(&topo, 0, &plan, 0)
            .expect("degradation is an outcome, not an error");
        assert!(outcome.is_degraded());
        assert_eq!(outcome.decision(), Strategy::Csma);
        assert_eq!(outcome.retries(), plan.max_retries);
        match outcome {
            ExchangeOutcome::Degraded {
                reason: CopaError::ExchangeFailed { attempts, last, .. },
                control_airtime_us,
                ..
            } => {
                assert_eq!(attempts, plan.max_retries + 1);
                assert!(
                    matches!(
                        *last,
                        CopaError::CodecError {
                            kind: WireFault::Lost { .. },
                            ..
                        }
                    ),
                    "final fault should be a lost frame: {last}"
                );
                assert!(
                    control_airtime_us > 0.0,
                    "failed attempts still burn airtime"
                );
            }
            other => panic!("expected ExchangeFailed reason, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_frames_are_retried_then_survive() {
        // Moderate corruption with a generous retry budget: the exchange
        // should eventually coordinate, having burned retries on CRC
        // failures.
        let topo = TopologySampler::default()
            .suite(55, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        let plan = FaultPlan {
            corruption: 0.5,
            max_retries: 64,
            ..FaultPlan::none(11)
        };
        // Across a few exchange ids at 50% corruption, at least one retry
        // must happen and every exchange must still coordinate.
        let mut total_retries = 0;
        for id in 0..6 {
            let outcome = coord
                .run_exchange_with_faults(&topo, 0, &plan, id)
                .expect("budget is generous");
            assert!(!outcome.is_degraded());
            total_retries += outcome.retries();
        }
        assert!(total_retries > 0, "50% corruption must cost retries");
    }

    #[test]
    fn fault_outcomes_replay_bit_identically() {
        let topo = TopologySampler::default()
            .suite(56, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        let plan = FaultPlan {
            frame_loss: 0.4,
            corruption: 0.2,
            stale_csi: 0.2,
            ..FaultPlan::none(0xD15EA5E)
        };
        for id in 0..4 {
            let a = coord.run_exchange_with_faults(&topo, 0, &plan, id).unwrap();
            let b = coord.run_exchange_with_faults(&topo, 0, &plan, id).unwrap();
            assert_eq!(a.is_degraded(), b.is_degraded());
            assert_eq!(a.retries(), b.retries());
            assert_eq!(
                a.chosen().aggregate_bps().to_bits(),
                b.chosen().aggregate_bps().to_bits()
            );
        }
    }
}

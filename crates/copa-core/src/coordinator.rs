//! The ITS coordination protocol, end to end.
//!
//! [`exchange`] carries the section 3.1 message flow between two AP
//! objects: the Leader's ITS INIT, the Follower's ITS REQ carrying its
//! *compressed* CSI, and the ITS ACK announcing the Leader's decision
//! (with the Follower's precoding matrices when it is concurrent). Every
//! frame is really encoded to bytes, CRC-protected, and decoded on the
//! other side under the fault plan.
//!
//! The exchange is transport only. Its caller evaluates the estimates the
//! REQ carries once, and that evaluation is both the decision the ACK
//! announces and what the cells serve. The decision uses the uncompressed
//! estimates; codec loss sets the REQ's bytes and airtime, and a payload
//! that fails to decompress is retransmitted. [`Coordinator`] wraps the
//! exchange for callers without an evaluation of their own.

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
    bulk_frame_us, control_frame_us, CW_MAX, CW_MIN, DIFS_US, SIFS_US, SLOT_US, TXOP_US,
};

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
    /// The caller's evaluation the decision was taken from.
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
        /// The caller's evaluation (its CSMA outcome is what the cells
        /// actually run).
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

    /// The INIT / REQ / ACK chain under the fault plan. Any error here is
    /// terminal for the exchange: the shared retry budget is spent.
    fn carry(
        &mut self,
        est: &[[FreqChannel; 2]; 2],
        decision: Strategy,
        leader: usize,
        coherence_us: f64,
    ) -> Result<(), CopaError> {
        let follower = 1 - leader;
        let ap = [Addr::from_id(1), Addr::from_id(2)];
        let client = [Addr::from_id(11), Addr::from_id(12)];

        // Step 2: ITS INIT from the Leader.
        let init = ItsFrame::Init {
            leader: ap[leader],
            client: client[leader],
            airtime_us: TXOP_US as u32,
        };
        let (init_leader, init_client) =
            match self.send("ITS INIT", &init.encode(), control_frame_us)? {
                ItsFrame::Init { leader, client, .. } => (leader, client),
                // invariant: decode of an encoded INIT preserves the tag
                _ => unreachable!("encoded an INIT"),
            };

        // Step 3: ITS REQ from the Follower, carrying compressed CSI from
        // the Follower to both clients. Stale CSI forces a re-measurement
        // before sending; a REQ whose CSI payload fails to decompress is
        // retransmitted like any other garbled frame.
        let req = ItsFrame::Req {
            leader: init_leader,
            follower: ap[follower],
            client1: init_client,
            client2: client[follower],
            csi_to_client1: compress_csi(&est[follower][leader]),
            csi_to_client2: compress_csi(&est[follower][follower]),
            airtime_us: TXOP_US as u32,
        }
        .encode();
        loop {
            if self.faults.csi_is_stale() {
                self.retry(CopaError::StaleCsi {
                    age_us: 2.0 * coherence_us,
                    coherence_us,
                })?;
                continue;
            }
            let (blob1, blob2) = match self.send("ITS REQ", &req, bulk_frame_us)? {
                ItsFrame::Req {
                    csi_to_client1,
                    csi_to_client2,
                    ..
                } => (csi_to_client1, csi_to_client2),
                // invariant: decode of an encoded REQ preserves the tag
                _ => unreachable!("encoded a REQ"),
            };
            match decompress_csi(&blob1).and_then(|_| decompress_csi(&blob2)) {
                Ok(_) => break,
                Err(e) => self.retry(CopaError::CodecError {
                    stage: "ITS REQ CSI payload",
                    kind: WireFault::Csi(e),
                })?,
            }
        }

        // Step 5: ITS ACK with the decision the caller's evaluation made
        // (step 4) and, when concurrent, the Follower's precoding matrices
        // -- compressed with the same codec.
        let decision = if decision.is_concurrent() {
            let own = &est[follower][follower];
            let pre = copa_precoding::beamforming::beamform(own, own.rx().min(own.tx()));
            Decision::Concurrent {
                precoder: compress_csi(&FreqChannel::from_matrices(pre.precoder)),
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
            airtime_us: TXOP_US as u32,
        };
        self.send("ITS ACK", &ack.encode(), bulk_frame_us)?;
        Ok(())
    }
}

/// Runs one ITS exchange with AP `leader` as Leader over the medium
/// described by `plan`, announcing the caller's `evaluation` of `est`.
/// Never runs the engine.
///
/// The REQ carries `est`'s Follower rows through the CSI codec; the ACK
/// carries `evaluation.copa_fair.strategy`. Every frame is retried with
/// DCF-style backoff out of a shared budget (`plan.max_retries`); stale
/// CSI (older than `coherence_us`) forces a re-measurement that also costs
/// a retry. When the budget runs out the exchange does what the real
/// protocol must: both cells give up on coordination for this coherence
/// interval and run stock CSMA, reported as [`ExchangeOutcome::Degraded`]
/// (carrying `evaluation` for its CSMA outcome) rather than an error.
///
/// `exchange_id` salts the fault stream, so a `(plan.seed, exchange_id)`
/// pair replays bit-identically regardless of which thread runs it. The
/// batch runners pass their flat topology index; the daemon passes
/// [`FaultPlan::epoch_exchange_id`] of its `(cell, epoch)` key.
///
/// With `obs`, records ITS frames sent / retried / lost, the exchange
/// verdict, and the control airtime histogram. All samples derive from
/// *simulated* protocol time and the deterministic fault stream, so the
/// results are bit-identical with or without observation.
pub fn exchange(
    est: &[[FreqChannel; 2]; 2],
    evaluation: Evaluation,
    leader: usize,
    coherence_us: f64,
    plan: &FaultPlan,
    exchange_id: u64,
    obs: Option<&ExchangeObs<'_>>,
) -> ExchangeOutcome {
    assert!(leader < 2); // allowlisted: caller-side API contract
    let mut air = Airwave::new(plan.for_exchange(exchange_id));
    let decision = evaluation.copa_fair.strategy;
    let carried = air.carry(est, decision, leader, coherence_us);
    if let Some(o) = obs {
        let m = &o.metrics;
        let verdict = match carried {
            Ok(()) => m.exchanges_completed,
            Err(_) => m.exchanges_degraded,
        };
        let delivered = air.frames.len() as u32;
        o.sink.add(verdict, 1);
        o.sink.add(m.frames_sent, u64::from(air.attempts));
        o.sink.add(m.frames_retried, u64::from(air.retries_used));
        o.sink.add(
            m.frames_lost,
            u64::from(air.attempts.saturating_sub(delivered)),
        );
        o.sink.record(m.airtime_us, air.airtime_us.max(0.0) as u64);
    }
    match carried {
        Ok(()) => ExchangeOutcome::Coordinated(ExchangeTrace {
            frames: air.frames,
            control_airtime_us: air.airtime_us,
            attempts: air.attempts,
            retries: air.retries_used,
            decision,
            evaluation,
        }),
        Err(last) => ExchangeOutcome::Degraded {
            evaluation,
            attempts: air.attempts,
            retries: air.retries_used,
            control_airtime_us: air.airtime_us,
            reason: CopaError::ExchangeFailed {
                attempts: air.attempts,
                retries: air.retries_used,
                last: Box::new(last),
            },
        },
    }
}

/// Runs ITS exchanges for callers without an evaluation of their own: it
/// estimates a topology's CSI, evaluates it once, and carries that
/// decision through [`exchange`].
pub struct Coordinator {
    engine: Engine,
}

impl Coordinator {
    /// Wraps a strategy engine.
    pub fn new(engine: Engine) -> Self {
        Self { engine }
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

    /// Runs one ITS exchange over the medium described by `plan`: prepares
    /// `topology`'s CSI with the engine's params, evaluates it once, and
    /// runs [`exchange`] on that evaluation. Fails only when the evaluation
    /// does; a spent retry budget is an [`ExchangeOutcome::Degraded`].
    pub fn run_exchange_with_faults(
        &self,
        topology: &Topology,
        leader: usize,
        plan: &FaultPlan,
        exchange_id: u64,
    ) -> Result<ExchangeOutcome, CopaError> {
        let params = self.engine.params();
        let est = prepare(topology, params);
        let evaluation = self
            .engine
            .run(&mut EvalRequest::estimates(topology, &est))?;
        Ok(exchange(
            &est,
            evaluation,
            leader,
            params.coherence_us,
            plan,
            exchange_id,
            None,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioParams;
    use copa_channel::{AntennaConfig, TopologySampler};

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
    fn ack_announces_the_engines_decision() {
        // The ACK carries the decision of one evaluation on the estimates
        // the REQ carries: on this topology a concurrent one, so the ACK
        // holds the Follower's precoder and outweighs a 34-byte sequential
        // ACK.
        let topo = TopologySampler::default()
            .suite(7, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let params = ScenarioParams::default();
        let direct = Engine::new(params)
            .run(&mut EvalRequest::topology(&topo))
            .expect("valid topology");
        let trace = Coordinator::new(Engine::new(params))
            .run_exchange(&topo, 0)
            .expect("clean medium");
        assert_eq!(trace.decision, direct.copa_fair.strategy);
        assert!(trace.decision.is_concurrent(), "{}", trace.decision);
        assert!(trace.frames[2].wire_bytes > 34, "concurrent ACK");
    }

    #[test]
    fn spent_budget_serves_the_callers_csma_outcome() {
        let topo = TopologySampler::default()
            .suite(57, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0);
        let params = ScenarioParams::default();
        let est = prepare(&topo, &params);
        let ev = Engine::new(params)
            .run(&mut EvalRequest::estimates(&topo, &est))
            .expect("valid topology");
        let plan = FaultPlan::lossy(3, 1.0);
        let outcome = exchange(&est, ev, 1, params.coherence_us, &plan, 0, None);
        assert!(outcome.is_degraded());
        assert_eq!(
            outcome.chosen().aggregate_bps().to_bits(),
            ev.csma.aggregate_bps().to_bits()
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

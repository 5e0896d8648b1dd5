//! Concurrent two-AP power allocation (the paper's Figure 6 iteration).
//!
//! When two APs transmit at once, each AP's allocation changes the
//! interference the other's client sees, which changes the other AP's best
//! allocation, and so on -- the paper's section 3.2.1 example. COPA's
//! heuristic: allocate every stream independently assuming the peer splits
//! power equally, then recompute the cross-stream interference from the
//! solution, feed it back, and iterate to a fixed point or an iteration cap,
//! remembering the best solution seen (the iteration "may occasionally
//! regress from the best solution, in which case we choose the best solution
//! previously found").
//!
//! The rounds are Gauss–Seidel: AP 0 responds to AP 1's powers of the
//! previous round, then AP 1 responds to AP 0's powers of the *same* round.
//! So only AP 0's first response assumes the equal split; under a Jacobi
//! update AP 1 would always answer a stale AP 0, and the game would rarely
//! settle before the cap. The cap is [`MAX_ITERATIONS`] = 3 rounds. More
//! rounds are not free in quality either: the kept round is the best
//! *predicted* one, and the prediction (scalar cross gains on estimated CSI)
//! is not the exact evaluation, so every extra round is one more chance to
//! keep a round the prediction overrates.
//!
//! [`allocate_ap_into`] is the one per-AP stream loop: each round of the
//! game calls it against the peer's interference, and the sequential
//! strategies call it with none.

use crate::stream::{equi_sinr_into, mercury_best_into, AllocScratch, StreamProblem};
use copa_phy::link::ThroughputModel;
use copa_phy::ofdm::DATA_SUBCARRIERS;
use copa_precoding::{reshape_rows, TxPowers};

/// Which per-stream allocator the iteration uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocatorKind {
    /// Equi-SINR (the practical COPA allocator).
    EquiSinr,
    /// Iterated mercury/waterfilling (the impractical-but-better COPA+).
    Mercury,
}

/// The coupled two-AP allocation problem, expressed through scalar gains
/// borrowed from the caller (the engine points straight at the precoders'
/// `stream_gains` buffers).
///
/// Gains come from the precoders computed on estimated CSI:
/// `own_gains[i][k][s]` is `|H_ii w_k|^2` (AP i's stream k toward its own
/// client), and `cross_gains[i][k][s]` is the *residual* per-unit-power
/// interference AP i's stream k causes at the other client (tiny when
/// nulling, large when merely beamforming).
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentProblem<'a> {
    /// Own-link effective gains, `[ap][stream][subcarrier]`.
    pub own_gains: [&'a [[f64; DATA_SUBCARRIERS]]; 2],
    /// Cross-link leakage gains, `[ap][stream][subcarrier]`.
    pub cross_gains: [&'a [[f64; DATA_SUBCARRIERS]]; 2],
    /// Per-subcarrier noise, mW.
    pub noise_mw: f64,
    /// Per-AP total power budgets, mW.
    pub budgets_mw: [f64; 2],
}

/// The outcome of the concurrent iteration.
#[derive(Clone, Debug, Default)]
pub struct ConcurrentSolution {
    /// Final power allocations for both APs.
    pub powers: [TxPowers; 2],
    /// The allocator's own per-AP throughput prediction, bits/s (the
    /// strategy engine re-evaluates exactly; this guides iteration only).
    pub predicted_bps: [f64; 2],
    /// Iterations actually executed.
    pub iterations: usize,
    /// The round (1-based) whose prediction was kept as the best.
    pub best_round: usize,
    /// Constellation solves the Mercury allocator ran over the whole game
    /// (0 for Equi-SINR; see [`mercury_best_into`]).
    pub mercury_solves: usize,
    /// Whether the loop reached a fixed point before the cap.
    pub converged: bool,
}

/// Maximum Figure 6 rounds before giving up (see the module docs).
pub const MAX_ITERATIONS: usize = 3;
/// Relative power-vector change defining convergence.
const CONVERGENCE_TOL: f64 = 1e-3;

impl ConcurrentProblem<'_> {
    /// Streams of AP `i`.
    pub fn streams(&self, ap: usize) -> usize {
        self.own_gains[ap].len()
    }

    /// Interference at AP `i`'s client on each subcarrier, given the peer's
    /// current powers.
    fn interference(&self, ap: usize, peer_powers: &TxPowers) -> [f64; DATA_SUBCARRIERS] {
        let peer = 1 - ap;
        let mut out = [0.0; DATA_SUBCARRIERS];
        for (k, row) in peer_powers.powers.iter().enumerate() {
            for (s, &q) in row.iter().enumerate() {
                out[s] += q * self.cross_gains[peer][k][s];
            }
        }
        out
    }
}

/// Allocates every stream of one AP: splits `budget_mw` equally across the
/// streams of `gains` (`[stream][subcarrier]`) and runs `kind` on each
/// against `interference` (per subcarrier; `None` for an AP transmitting
/// alone), writing the powers into `out`. Returns the predicted aggregate
/// goodput and the Mercury constellation solves run (0 for Equi-SINR).
/// Allocation-free once `scratch` and `out` are warm.
#[allow(clippy::too_many_arguments)]
pub fn allocate_ap_into(
    gains: &[[f64; DATA_SUBCARRIERS]],
    noise_mw: f64,
    budget_mw: f64,
    interference: Option<&[f64]>,
    kind: AllocatorKind,
    model: &ThroughputModel,
    airtime: f64,
    scratch: &mut AllocScratch,
    out: &mut TxPowers,
) -> (f64, usize) {
    let streams = gains.len();
    let per_stream_budget = budget_mw / streams as f64;
    reshape_rows(&mut out.powers, streams, 0.0);
    let mut stream_out = core::mem::take(&mut scratch.stream_out);
    let mut predicted = 0.0;
    let mut solves = 0;
    for (k, row) in gains.iter().enumerate() {
        let problem = StreamProblem {
            gains: row,
            noise_mw,
            interference_mw: interference,
            budget_mw: per_stream_budget,
        };
        match kind {
            AllocatorKind::EquiSinr => {
                equi_sinr_into(&problem, model, airtime, scratch, &mut stream_out)
            }
            AllocatorKind::Mercury => {
                solves += mercury_best_into(&problem, model, airtime, scratch, &mut stream_out)
            }
        }
        predicted += stream_out.throughput_bps;
        out.powers[k].copy_from_slice(&stream_out.powers);
    }
    scratch.stream_out = stream_out;
    (predicted, solves)
}

/// Runs the Figure 6 iteration and returns the best solution found.
pub fn allocate_concurrent(
    problem: &ConcurrentProblem<'_>,
    kind: AllocatorKind,
    model: &ThroughputModel,
    airtime: f64,
) -> ConcurrentSolution {
    let mut scratch = AllocScratch::default();
    let mut out = ConcurrentSolution::default();
    allocate_concurrent_into(problem, kind, model, airtime, &mut scratch, &mut out);
    out
}

/// Zero-allocation Figure 6 iteration (see [`allocate_concurrent`]): writes
/// the best solution found into `out`, reusing `scratch` and `out` buffers.
///
/// Each round, both APs respond through [`allocate_ap_into`] in turn (a
/// Gauss–Seidel update): AP 0 to AP 1's powers of the previous round, then
/// AP 1 to AP 0's powers of this round. Only AP 0's first response assumes
/// the peer's equal split. The round with the best predicted aggregate is
/// kept, so the kept pair always holds AP 1's best response to AP 0's kept
/// powers.
pub fn allocate_concurrent_into(
    problem: &ConcurrentProblem<'_>,
    kind: AllocatorKind,
    model: &ThroughputModel,
    airtime: f64,
    scratch: &mut AllocScratch,
    out: &mut ConcurrentSolution,
) {
    let mut current = core::mem::take(&mut scratch.current);
    let mut next = core::mem::take(&mut scratch.next);
    // AP `ap`'s best response to the peer's powers, written into `powers`.
    let mut respond = |ap: usize, peer: &TxPowers, powers: &mut TxPowers| {
        let interference = problem.interference(ap, peer);
        allocate_ap_into(
            problem.own_gains[ap],
            problem.noise_mw,
            problem.budgets_mw[ap],
            Some(&interference),
            kind,
            model,
            airtime,
            scratch,
            powers,
        )
    };
    // Round 0 baseline: the peer splits power equally (the paper's stated
    // initialization). AP 1's half of it only feeds the first convergence
    // test: AP 1 first responds to AP 0's round-1 powers.
    current[0].set_equal(problem.streams(0), problem.budgets_mw[0]);
    current[1].set_equal(problem.streams(1), problem.budgets_mw[1]);
    let mut best: Option<[f64; 2]> = None;
    let mut converged = false;
    let mut iterations = 0;
    let mut best_round = 0;
    let mut solves = 0;

    for _ in 0..MAX_ITERATIONS {
        iterations += 1;
        let [next0, next1] = &mut next;
        let (t0, s0) = respond(0, &current[1], next0);
        let (t1, s1) = respond(1, next0, next1);
        solves += s0 + s1;

        // Track the best aggregate prediction (iteration can regress).
        let total = t0 + t1;
        if best.as_ref().map(|t| total > t[0] + t[1]).unwrap_or(true) {
            out.powers[0].copy_from(&next[0]);
            out.powers[1].copy_from(&next[1]);
            best = Some([t0, t1]);
            best_round = iterations;
        }

        if powers_close(&current, &next) {
            converged = true;
            break;
        }
        // `current = next`; the stale buffers left in `next` are fully
        // overwritten by the next round's responses.
        core::mem::swap(&mut current, &mut next);
    }
    scratch.current = current;
    scratch.next = next;

    out.predicted_bps = best.expect("at least one iteration ran");
    out.iterations = iterations;
    out.best_round = best_round;
    out.mercury_solves = solves;
    out.converged = converged;
}

fn powers_close(a: &[TxPowers; 2], b: &[TxPowers; 2]) -> bool {
    for i in 0..2 {
        let ta = a[i].total_mw().max(1e-18);
        for (ra, rb) in a[i].powers.iter().zip(&b[i].powers) {
            for (&x, &y) in ra.iter().zip(rb) {
                if (x - y).abs() > CONVERGENCE_TOL * ta {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::SimRng;

    const NOISE: f64 = 1e-9 / 52.0;

    /// Owned gains for the tests to build and edit; [`Gains::problem`]
    /// lends them to the allocator.
    struct Gains {
        own: [Vec<[f64; DATA_SUBCARRIERS]>; 2],
        cross: [Vec<[f64; DATA_SUBCARRIERS]>; 2],
    }

    impl Gains {
        fn problem(&self) -> ConcurrentProblem<'_> {
            ConcurrentProblem {
                own_gains: [&self.own[0], &self.own[1]],
                cross_gains: [&self.cross[0], &self.cross[1]],
                noise_mw: NOISE,
                budgets_mw: [31.6, 31.6],
            }
        }
    }

    fn fading(rng: &mut SimRng, mean: f64) -> [f64; DATA_SUBCARRIERS] {
        core::array::from_fn(|_| -rng.uniform().max(1e-12).ln() * mean)
    }

    fn symmetric_gains(seed: u64, cross_db_below: f64) -> Gains {
        let mut rng = SimRng::seed_from(seed);
        let own = 3e-8;
        let cross = own * copa_num::special::db_to_lin(-cross_db_below);
        Gains {
            own: [
                vec![fading(&mut rng, own), fading(&mut rng, own)],
                vec![fading(&mut rng, own), fading(&mut rng, own)],
            ],
            cross: [
                vec![fading(&mut rng, cross), fading(&mut rng, cross)],
                vec![fading(&mut rng, cross), fading(&mut rng, cross)],
            ],
        }
    }

    fn power_bits(p: &TxPowers) -> Vec<u64> {
        p.powers.iter().flatten().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn budgets_respected() {
        let g = symmetric_gains(1, 25.0);
        let p = g.problem();
        let sol = allocate_concurrent(
            &p,
            AllocatorKind::EquiSinr,
            &ThroughputModel::default(),
            1.0,
        );
        for i in 0..2 {
            assert!(
                sol.powers[i].total_mw() <= p.budgets_mw[i] * (1.0 + 1e-6),
                "AP {i} over budget: {}",
                sol.powers[i].total_mw()
            );
        }
        assert!(sol.iterations >= 1 && sol.iterations <= MAX_ITERATIONS);
    }

    #[test]
    fn weak_cross_interference_converges_fast() {
        // With nulled (tiny) cross gains the coupling is negligible and the
        // fixed point is reached almost immediately.
        let g = symmetric_gains(2, 60.0);
        let sol = allocate_concurrent(
            &g.problem(),
            AllocatorKind::EquiSinr,
            &ThroughputModel::default(),
            1.0,
        );
        assert!(sol.converged, "weakly coupled problem should converge");
        assert!(sol.predicted_bps[0] > 0.0 && sol.predicted_bps[1] > 0.0);
    }

    #[test]
    fn uncoupled_game_is_the_sequential_allocation() {
        // With every cross gain zero no AP's powers reach the other client,
        // so each round repeats the per-AP allocation with no interference:
        // the game stops after round 2, and both APs keep exactly what the
        // sequential strategies' call computes.
        let model = ThroughputModel::default();
        let mut scratch = AllocScratch::default();
        for kind in [AllocatorKind::EquiSinr, AllocatorKind::Mercury] {
            for seed in [7u64, 8, 9] {
                let mut g = symmetric_gains(seed, 30.0);
                for row in g.cross.iter_mut().flatten() {
                    *row = [0.0; DATA_SUBCARRIERS];
                }
                let p = g.problem();
                let sol = allocate_concurrent(&p, kind, &model, 0.88);
                let ctx = format!("{kind:?}, seed {seed}");
                assert!(sol.converged, "{ctx}");
                assert_eq!(sol.iterations, 2, "{ctx}");
                for ap in 0..2 {
                    let mut alone = TxPowers::default();
                    let (bps, _) = allocate_ap_into(
                        p.own_gains[ap],
                        p.noise_mw,
                        p.budgets_mw[ap],
                        None,
                        kind,
                        &model,
                        0.88,
                        &mut scratch,
                        &mut alone,
                    );
                    assert_eq!(
                        sol.predicted_bps[ap].to_bits(),
                        bps.to_bits(),
                        "{ctx}, ap {ap}"
                    );
                    assert_eq!(
                        power_bits(&sol.powers[ap]),
                        power_bits(&alone),
                        "{ctx}, ap {ap}"
                    );
                }
            }
        }
    }

    #[test]
    fn kept_round_pairs_ap1_best_response_with_ap0_powers() {
        // Gauss–Seidel: within a round AP 1 answers AP 0's powers of that
        // same round, so whichever round is kept, AP 1's half of it is AP 1's
        // best response to AP 0's half, bit for bit.
        let model = ThroughputModel::default();
        let mut scratch = AllocScratch::default();
        for kind in [AllocatorKind::EquiSinr, AllocatorKind::Mercury] {
            for seed in [1u64, 6, 9, 11] {
                for db in [15.0, 25.0, 45.0] {
                    let g = symmetric_gains(seed, db);
                    let p = g.problem();
                    let sol = allocate_concurrent(&p, kind, &model, 1.0);
                    let mut reply = TxPowers::default();
                    let (bps, _) = allocate_ap_into(
                        p.own_gains[1],
                        p.noise_mw,
                        p.budgets_mw[1],
                        Some(&p.interference(1, &sol.powers[0])),
                        kind,
                        &model,
                        1.0,
                        &mut scratch,
                        &mut reply,
                    );
                    let ctx = format!(
                        "{kind:?}, seed {seed}, {db} dB: {} rounds, kept round {}",
                        sol.iterations, sol.best_round
                    );
                    assert_eq!(sol.predicted_bps[1].to_bits(), bps.to_bits(), "{ctx}");
                    assert_eq!(power_bits(&sol.powers[1]), power_bits(&reply), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn strong_interference_lowers_prediction() {
        let weak = symmetric_gains(3, 50.0);
        let mut strong = symmetric_gains(3, 50.0);
        // Same channels, but cross gains x1000 (20 dB below signal).
        for row in strong.cross.iter_mut().flatten() {
            for g in row {
                *g *= 1000.0;
            }
        }
        let model = ThroughputModel::default();
        let sw = allocate_concurrent(&weak.problem(), AllocatorKind::EquiSinr, &model, 1.0);
        let ss = allocate_concurrent(&strong.problem(), AllocatorKind::EquiSinr, &model, 1.0);
        let total = |s: &ConcurrentSolution| s.predicted_bps[0] + s.predicted_bps[1];
        assert!(
            total(&ss) < total(&sw),
            "stronger interference should predict lower aggregate: {} vs {}",
            total(&ss),
            total(&sw)
        );
    }

    #[test]
    fn mercury_variant_runs_and_respects_budget() {
        let g = symmetric_gains(4, 30.0);
        let p = g.problem();
        let sol = allocate_concurrent(&p, AllocatorKind::Mercury, &ThroughputModel::default(), 1.0);
        for i in 0..2 {
            assert!(sol.powers[i].total_mw() <= p.budgets_mw[i] * (1.0 + 1e-6));
        }
    }

    #[test]
    fn asymmetric_streams_supported() {
        // Leader sends 2 streams, follower 1 (the SDA configuration).
        let mut rng = SimRng::seed_from(5);
        let g = Gains {
            own: [
                vec![fading(&mut rng, 3e-8), fading(&mut rng, 3e-8)],
                vec![fading(&mut rng, 3e-8)],
            ],
            cross: [
                vec![fading(&mut rng, 3e-11), fading(&mut rng, 3e-11)],
                vec![fading(&mut rng, 3e-11)],
            ],
        };
        let sol = allocate_concurrent(
            &g.problem(),
            AllocatorKind::EquiSinr,
            &ThroughputModel::default(),
            1.0,
        );
        assert_eq!(sol.powers[0].streams(), 2);
        assert_eq!(sol.powers[1].streams(), 1);
    }

    #[test]
    fn pooled_reuse_is_bit_identical() {
        // One warm scratch reused across very different problems must give
        // exactly the fresh-scratch answer.
        let model = ThroughputModel::default();
        let mut scratch = AllocScratch::default();
        let mut out = ConcurrentSolution::default();
        for seed in [1u64, 6, 9] {
            for &db in &[20.0, 45.0] {
                let g = symmetric_gains(seed, db);
                let p = g.problem();
                let fresh = allocate_concurrent(&p, AllocatorKind::EquiSinr, &model, 1.0);
                allocate_concurrent_into(
                    &p,
                    AllocatorKind::EquiSinr,
                    &model,
                    1.0,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(out.iterations, fresh.iterations);
                assert_eq!(out.converged, fresh.converged);
                for i in 0..2 {
                    assert_eq!(
                        out.predicted_bps[i].to_bits(),
                        fresh.predicted_bps[i].to_bits(),
                        "seed {seed} db {db} ap {i}"
                    );
                    assert_eq!(out.powers[i], fresh.powers[i], "seed {seed} db {db} ap {i}");
                }
            }
        }
    }

    #[test]
    fn interference_accounting_points_the_right_way() {
        // cross_gains[0] describes what AP0 does to client 1; check that
        // interference(1, powers_of_ap0) uses it.
        let g = symmetric_gains(6, 20.0);
        let p = g.problem();
        let peer0 = TxPowers::equal(2, 31.6);
        let inter1 = p.interference(1, &peer0);
        let expected: f64 = (0..2)
            .map(|k| peer0.powers[k][0] * p.cross_gains[0][k][0])
            .sum();
        assert!((inter1[0] - expected).abs() < 1e-18);
    }
}

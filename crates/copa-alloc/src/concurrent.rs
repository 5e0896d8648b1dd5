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

use crate::stream::{
    equi_sinr_into, mercury_best_into, AllocScratch, StreamAllocation, StreamProblemRef,
};
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

/// The coupled two-AP allocation problem, expressed through scalar gains.
///
/// Gains come from the precoders computed on estimated CSI:
/// `own_gains[i][k][s]` is `|H_ii w_k|^2` (AP i's stream k toward its own
/// client), and `cross_gains[i][k][s]` is the *residual* per-unit-power
/// interference AP i's stream k causes at the other client (tiny when
/// nulling, large when merely beamforming).
#[derive(Clone, Debug)]
pub struct ConcurrentProblem {
    /// Own-link effective gains, `[ap][stream][subcarrier]`.
    pub own_gains: [Vec<[f64; DATA_SUBCARRIERS]>; 2],
    /// Cross-link leakage gains, `[ap][stream][subcarrier]`.
    pub cross_gains: [Vec<[f64; DATA_SUBCARRIERS]>; 2],
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

/// Maximum Figure 6 iterations before giving up.
pub const MAX_ITERATIONS: usize = 8;
/// Relative power-vector change defining convergence.
const CONVERGENCE_TOL: f64 = 1e-3;

impl ConcurrentProblem {
    /// Streams of AP `i`.
    pub fn streams(&self, ap: usize) -> usize {
        self.own_gains[ap].len()
    }

    /// Interference at AP `i`'s client on each subcarrier, given the peer's
    /// current powers.
    #[cfg(test)]
    fn interference_at(&self, ap: usize, peer_powers: &TxPowers) -> [f64; DATA_SUBCARRIERS] {
        ConcurrentProblemRef::from_problem(self).interference(ap, peer_powers)
    }
}

/// Borrowed view of a [`ConcurrentProblem`]: the zero-allocation entry point
/// ([`allocate_concurrent_into`]) takes this so the engine can point straight
/// at the precoders' `stream_gains` buffers instead of cloning them.
#[derive(Clone, Copy, Debug)]
pub struct ConcurrentProblemRef<'a> {
    /// Own-link effective gains, `[ap][stream][subcarrier]`.
    pub own_gains: [&'a [[f64; DATA_SUBCARRIERS]]; 2],
    /// Cross-link leakage gains, `[ap][stream][subcarrier]`.
    pub cross_gains: [&'a [[f64; DATA_SUBCARRIERS]]; 2],
    /// Per-subcarrier noise, mW.
    pub noise_mw: f64,
    /// Per-AP total power budgets, mW.
    pub budgets_mw: [f64; 2],
}

impl<'a> ConcurrentProblemRef<'a> {
    /// Borrows an owned problem.
    pub fn from_problem(p: &'a ConcurrentProblem) -> Self {
        Self {
            own_gains: [&p.own_gains[0], &p.own_gains[1]],
            cross_gains: [&p.cross_gains[0], &p.cross_gains[1]],
            noise_mw: p.noise_mw,
            budgets_mw: p.budgets_mw,
        }
    }

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

/// Reusable scratch for [`allocate_concurrent_into`]: grows to the largest
/// problem shape once, then steady-state allocation-free with either
/// allocator (Mercury reads the process-wide MMSE curve table and keeps
/// its buffers in the shared [`AllocScratch`]).
#[derive(Clone, Debug, Default)]
pub struct ConcurrentScratch {
    alloc: AllocScratch,
    stream_out: StreamAllocation,
    current: [TxPowers; 2],
    next: [TxPowers; 2],
}

/// Allocates all streams of AP `ap` given the peer's powers; returns the
/// predicted aggregate goodput and the Mercury constellation solves run.
/// Pooled counterpart of the old `ConcurrentProblem::allocate_ap`, same op
/// sequence.
#[allow(clippy::too_many_arguments)]
fn allocate_ap_into(
    problem: &ConcurrentProblemRef<'_>,
    ap: usize,
    peer_powers: &TxPowers,
    kind: AllocatorKind,
    model: &ThroughputModel,
    airtime: f64,
    alloc: &mut AllocScratch,
    stream_out: &mut StreamAllocation,
    out_powers: &mut TxPowers,
) -> (f64, usize) {
    let streams = problem.streams(ap);
    let interference = problem.interference(ap, peer_powers);
    let per_stream_budget = problem.budgets_mw[ap] / streams as f64;
    reshape_rows(&mut out_powers.powers, streams, 0.0);
    let mut predicted = 0.0;
    let mut solves = 0;
    for k in 0..streams {
        let stream_problem = StreamProblemRef {
            gains: &problem.own_gains[ap][k],
            noise_mw: problem.noise_mw,
            interference_mw: Some(&interference),
            budget_mw: per_stream_budget,
        };
        match kind {
            AllocatorKind::EquiSinr => {
                equi_sinr_into(&stream_problem, model, airtime, alloc, stream_out)
            }
            AllocatorKind::Mercury => {
                solves += mercury_best_into(&stream_problem, model, airtime, alloc, stream_out)
            }
        }
        predicted += stream_out.throughput_bps;
        out_powers.powers[k].copy_from_slice(&stream_out.powers);
    }
    (predicted, solves)
}

/// Runs the Figure 6 iteration and returns the best solution found.
pub fn allocate_concurrent(
    problem: &ConcurrentProblem,
    kind: AllocatorKind,
    model: &ThroughputModel,
    airtime: f64,
) -> ConcurrentSolution {
    let mut scratch = ConcurrentScratch::default();
    let mut out = ConcurrentSolution::default();
    allocate_concurrent_into(
        &ConcurrentProblemRef::from_problem(problem),
        kind,
        model,
        airtime,
        &mut scratch,
        &mut out,
    );
    out
}

/// Zero-allocation Figure 6 iteration (see [`allocate_concurrent`]): writes
/// the best solution found into `out`, reusing `scratch` and `out` buffers.
/// Identical op sequence to the owned entry point, so results are
/// bit-identical.
pub fn allocate_concurrent_into(
    problem: &ConcurrentProblemRef<'_>,
    kind: AllocatorKind,
    model: &ThroughputModel,
    airtime: f64,
    scratch: &mut ConcurrentScratch,
    out: &mut ConcurrentSolution,
) {
    let ConcurrentScratch {
        alloc,
        stream_out,
        current,
        next,
    } = scratch;
    // Round 0 baseline: the peer splits power equally (the paper's stated
    // initialization).
    current[0].set_equal(problem.streams(0), problem.budgets_mw[0]);
    current[1].set_equal(problem.streams(1), problem.budgets_mw[1]);
    let mut best: Option<[f64; 2]> = None;
    let mut converged = false;
    let mut iterations = 0;
    let mut best_round = 0;
    let mut solves = 0;

    for _ in 0..MAX_ITERATIONS {
        iterations += 1;
        let (t0, s0) = allocate_ap_into(
            problem,
            0,
            &current[1],
            kind,
            model,
            airtime,
            alloc,
            stream_out,
            &mut next[0],
        );
        let (t1, s1) = allocate_ap_into(
            problem,
            1,
            &current[0],
            kind,
            model,
            airtime,
            alloc,
            stream_out,
            &mut next[1],
        );
        solves += s0 + s1;

        // Track the best aggregate prediction (iteration can regress).
        let total = t0 + t1;
        if best.as_ref().map(|t| total > t[0] + t[1]).unwrap_or(true) {
            out.powers[0].copy_from(&next[0]);
            out.powers[1].copy_from(&next[1]);
            best = Some([t0, t1]);
            best_round = iterations;
        }

        if powers_close(current, next) {
            converged = true;
            break;
        }
        // `current = next`; the stale buffers left in `next` are fully
        // overwritten by the next round's `allocate_ap_into`.
        core::mem::swap(&mut current[0], &mut next[0]);
        core::mem::swap(&mut current[1], &mut next[1]);
    }

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

    fn fading(rng: &mut SimRng, mean: f64) -> [f64; DATA_SUBCARRIERS] {
        core::array::from_fn(|_| -rng.uniform().max(1e-12).ln() * mean)
    }

    fn symmetric_problem(seed: u64, cross_db_below: f64) -> ConcurrentProblem {
        let mut rng = SimRng::seed_from(seed);
        let own = 3e-8;
        let cross = own * copa_num::special::db_to_lin(-cross_db_below);
        ConcurrentProblem {
            own_gains: [
                vec![fading(&mut rng, own), fading(&mut rng, own)],
                vec![fading(&mut rng, own), fading(&mut rng, own)],
            ],
            cross_gains: [
                vec![fading(&mut rng, cross), fading(&mut rng, cross)],
                vec![fading(&mut rng, cross), fading(&mut rng, cross)],
            ],
            noise_mw: NOISE,
            budgets_mw: [31.6, 31.6],
        }
    }

    #[test]
    fn budgets_respected() {
        let p = symmetric_problem(1, 25.0);
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
        let p = symmetric_problem(2, 60.0);
        let sol = allocate_concurrent(
            &p,
            AllocatorKind::EquiSinr,
            &ThroughputModel::default(),
            1.0,
        );
        assert!(sol.converged, "weakly coupled problem should converge");
        assert!(sol.predicted_bps[0] > 0.0 && sol.predicted_bps[1] > 0.0);
    }

    #[test]
    fn strong_interference_lowers_prediction() {
        let weak = symmetric_problem(3, 50.0);
        let strong = {
            let mut p = symmetric_problem(3, 50.0);
            // Same channels, but cross gains x1000 (20 dB below signal).
            for ap in 0..2 {
                for k in 0..2 {
                    for s in 0..DATA_SUBCARRIERS {
                        p.cross_gains[ap][k][s] *= 1000.0;
                    }
                }
            }
            p
        };
        let model = ThroughputModel::default();
        let sw = allocate_concurrent(&weak, AllocatorKind::EquiSinr, &model, 1.0);
        let ss = allocate_concurrent(&strong, AllocatorKind::EquiSinr, &model, 1.0);
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
        let p = symmetric_problem(4, 30.0);
        let sol = allocate_concurrent(&p, AllocatorKind::Mercury, &ThroughputModel::default(), 1.0);
        for i in 0..2 {
            assert!(sol.powers[i].total_mw() <= p.budgets_mw[i] * (1.0 + 1e-6));
        }
    }

    #[test]
    fn asymmetric_streams_supported() {
        // Leader sends 2 streams, follower 1 (the SDA configuration).
        let mut rng = SimRng::seed_from(5);
        let p = ConcurrentProblem {
            own_gains: [
                vec![fading(&mut rng, 3e-8), fading(&mut rng, 3e-8)],
                vec![fading(&mut rng, 3e-8)],
            ],
            cross_gains: [
                vec![fading(&mut rng, 3e-11), fading(&mut rng, 3e-11)],
                vec![fading(&mut rng, 3e-11)],
            ],
            noise_mw: NOISE,
            budgets_mw: [31.6, 31.6],
        };
        let sol = allocate_concurrent(
            &p,
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
        // exactly the fresh-scratch (owned entry point) answer.
        let model = ThroughputModel::default();
        let mut scratch = ConcurrentScratch::default();
        let mut out = ConcurrentSolution::default();
        for seed in [1u64, 6, 9] {
            for &db in &[20.0, 45.0] {
                let p = symmetric_problem(seed, db);
                let fresh = allocate_concurrent(&p, AllocatorKind::EquiSinr, &model, 1.0);
                allocate_concurrent_into(
                    &ConcurrentProblemRef::from_problem(&p),
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
        // interference_at(1, powers_of_ap0) uses it.
        let p = symmetric_problem(6, 20.0);
        let peer0 = TxPowers::equal(2, 31.6);
        let inter1 = p.interference_at(1, &peer0);
        let expected: f64 = (0..2)
            .map(|k| peer0.powers[k][0] * p.cross_gains[0][k][0])
            .sum();
        assert!((inter1[0] - expected).abs() < 1e-18);
    }
}

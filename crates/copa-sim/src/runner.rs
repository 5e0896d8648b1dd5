//! Parallel evaluation of topology suites.
//!
//! Every CDF in the paper is "across topologies", so the basic operation is
//! mapping the strategy engine over a suite. Evaluations are independent
//! and run on the crate's one worker pool ([`crate::pool`]): workers claim
//! topologies one at a time and each owns one reusable engine workspace.

use crate::pool;
use copa_channel::Topology;
use copa_core::{CopaError, Engine, EngineWorkspace, EvalRequest, Evaluation, ScenarioParams};

/// The per-topology params seed: distinct and deterministic per suite
/// index, so results are byte-identical regardless of thread count or which
/// worker claims which topology. Shared with the degraded-suite runner so
/// zero-fault degraded runs are bit-identical to plain evaluation.
pub(crate) fn seed_for(params: &ScenarioParams, idx: usize) -> u64 {
    pool::item_seed(params.seed, idx)
}

/// Evaluates `suite` in parallel with `threads` workers (results in suite
/// order), propagating the first failure (in suite order) instead of
/// panicking. A failed topology does not poison the pool: every worker
/// records its `Result` and keeps claiming topologies. Spawns at most
/// `suite.len()` workers; an empty suite returns `Ok(vec![])` without
/// spawning anything.
pub fn try_evaluate_parallel(
    params: &ScenarioParams,
    suite: &[Topology],
    threads: usize,
) -> Result<Vec<Evaluation>, CopaError> {
    // One reusable workspace per worker: buffers grow to the largest
    // topology shape, then evaluation is alloc-free.
    pool::map(suite, threads, EngineWorkspace::new, |ws, idx, topology| {
        let mut p = *params;
        p.seed = seed_for(params, idx);
        Engine::new(p).run(&mut EvalRequest::topology(topology).workspace(ws))
    })
    .into_iter()
    .collect()
}

/// Infallible convenience wrapper over [`try_evaluate_parallel`] for suites
/// of engine-prepared topologies (which cannot fail validation).
pub fn evaluate_parallel(
    params: &ScenarioParams,
    suite: &[Topology],
    threads: usize,
) -> Vec<Evaluation> {
    try_evaluate_parallel(params, suite, threads).expect("infallible: engine-prepared CSI")
    // allowlisted legacy wrapper
}

/// Sequential fallback used by tests and tiny suites.
pub fn evaluate_serial(params: &ScenarioParams, suite: &[Topology]) -> Vec<Evaluation> {
    evaluate_parallel(params, suite, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::{AntennaConfig, TopologySampler};

    #[test]
    fn parallel_matches_serial() {
        let suite = TopologySampler::default().suite(60, 4, AntennaConfig::SINGLE);
        let params = ScenarioParams::default();
        let serial = evaluate_serial(&params, &suite);
        let parallel = evaluate_parallel(&params, &suite, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.copa.aggregate_bps(), b.copa.aggregate_bps());
            assert_eq!(a.csma.aggregate_bps(), b.csma.aggregate_bps());
        }
    }

    #[test]
    fn more_threads_than_topologies() {
        // Requesting far more workers than there is work must not panic,
        // must not leave holes, and must match the serial result exactly.
        let suite = TopologySampler::default().suite(62, 3, AntennaConfig::SINGLE);
        let params = ScenarioParams::default();
        let serial = evaluate_serial(&params, &suite);
        let wide = evaluate_parallel(&params, &suite, 64);
        assert_eq!(wide.len(), suite.len());
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(
                a.copa.aggregate_bps().to_bits(),
                b.copa.aggregate_bps().to_bits()
            );
        }
    }

    #[test]
    fn empty_suite_is_fine() {
        let params = ScenarioParams::default();
        for threads in [1, 2, 8] {
            assert!(evaluate_parallel(&params, &[], threads).is_empty());
        }
    }

    #[test]
    fn per_topology_seeds_differ() {
        // Two identical topologies at different indices should still get
        // different CSI noise (different seeds).
        let one = TopologySampler::default().suite(61, 1, AntennaConfig::SINGLE);
        let twice = vec![one[0].clone(), one[0].clone()];
        let evals = evaluate_serial(&ScenarioParams::default(), &twice);
        // Outcomes differ slightly because the estimation noise differs.
        let a = evals[0].copa.aggregate_bps();
        let b = evals[1].copa.aggregate_bps();
        assert!(a > 0.0 && b > 0.0);
        assert_ne!(a, b);
    }
}

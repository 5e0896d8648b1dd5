//! The N-cell campus suite: cluster scheduling over the supervised pool.
//!
//! `run_campus_suite` is the city-scale entry point the ROADMAP's
//! millions-of-users story needs: sample an N-cell [`Campus`], build its
//! thresholded [`InterferenceGraph`], carve it into coordination clusters
//! with [`cluster_greedy`], and evaluate **one supervised work item per
//! cluster** over the crate's one worker pool -- panic isolation,
//! deadlines, checkpoint/resume and telemetry all work unchanged because
//! the cluster units *are* suite topologies.
//!
//! Cluster semantics:
//!
//! * **Pair cluster `{i, j}`** -- the native unit. The two cells run the
//!   full COPA machinery on their materialized pair topology; every
//!   out-of-cluster AP is folded into the noise floor by power scaling
//!   (see [`Campus::external_noise_scale`]). The evaluation call is
//!   *identical* to the plain suite runner's (same per-index seeds, same
//!   request shape), so an N=2 campus whose single cluster covers both
//!   cells reproduces `run_suite_journaled` byte for byte.
//! * **Singleton `{i}`** -- no coordination partner. The cell is backed
//!   by a pair topology with its strongest interferer, but only the
//!   *sequential* outcomes are read: CSMA and COPA-SEQ never exercise the
//!   cross-links, so client 0's half-airtime rate doubled is exactly the
//!   solo full-airtime rate under the residual-noise floor.
//! * **Multi cluster (3+)** -- leader-rotation pairwise scheduling
//!   ([`rotate_leaders`]): every member leads one round, picks the
//!   fair-aggregate-best follower (or transmits solo if that wins), and
//!   rounds share airtime equally. The ITS airtime field makes the other
//!   members defer (NAV), so each round is the two-AP problem.
//!
//! The [`CampusScheme::AllCsma`] variant evaluates the *same* partition
//! and units but reads the CSMA outcome everywhere -- the baseline the
//! figure regression compares clustered COPA against.

use crate::json::{Obj, ToJson};
use crate::runner::seed_for;
use crate::supervisor::{self, Journal, SuiteConfig, SuiteReport, TopologyOutcome};
use crate::telemetry::SuiteTelemetry;
use copa_channel::campus::{Campus, CampusSampler};
use copa_channel::{AntennaConfig, Topology};
use copa_core::cluster::{cluster_greedy, greedy_coloring, ClusterStats, InterferenceGraph};
use copa_core::{
    CopaError, Engine, EngineWorkspace, EvalRequest, Evaluation, ScenarioParams, Strategy,
};
use std::path::Path;

/// Parameters of one campus scenario: how the plane is sampled and how
/// the interference graph is carved into coordination clusters.
#[derive(Clone, Copy, Debug)]
pub struct CampusParams {
    /// Number of AP/client cells.
    pub cells: usize,
    /// Campus seed: positions, shadowing, and every link channel.
    pub campus_seed: u64,
    /// Plane/propagation generator.
    pub sampler: CampusSampler,
    /// Antenna configuration every cell shares.
    pub config: AntennaConfig,
    /// Interference-graph edge threshold, dB over the noise floor: pairs
    /// whose stronger directed INR is below this never coordinate.
    pub edge_threshold_db: f64,
    /// Coordination cluster size cap; 2 is the paper's pair engine.
    pub max_cluster_size: usize,
}

impl CampusParams {
    /// The "dense campus" scenario family (50-500 APs at office density):
    /// default sampler, 6 dB INR edges, pair-sized clusters.
    pub fn dense(cells: usize, campus_seed: u64, config: AntennaConfig) -> Self {
        Self {
            cells,
            campus_seed,
            sampler: CampusSampler::default(),
            config,
            edge_threshold_db: 6.0,
            max_cluster_size: 2,
        }
    }
}

/// Which outcome each cluster unit reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CampusScheme {
    /// Clustered COPA: the fair cooperative outcome inside clusters.
    Copa,
    /// Everyone contends: the CSMA outcome everywhere, same partition and
    /// residual-noise model -- the baseline COPA's gain is measured over.
    AllCsma,
}

impl CampusScheme {
    fn label(&self) -> &'static str {
        match self {
            CampusScheme::Copa => "copa",
            CampusScheme::AllCsma => "all-csma",
        }
    }
}

/// One supervised work item: a coordination cluster and the pair topology
/// backing its evaluation.
#[derive(Clone, Debug)]
pub struct ClusterUnit {
    /// Member cells, ascending.
    pub members: Vec<usize>,
    /// For singletons: the strongest external interferer backing the
    /// degenerate pair topology. `None` for real clusters.
    pub partner: Option<usize>,
    /// Per-member residual-noise power scale `f = N / (N + R)`, aligned
    /// with `members`. `1.0` means nothing is external.
    pub noise_scale: Vec<f64>,
    /// The materialized (and residual-scaled) pair topology the
    /// supervisor hands to workers. For multi clusters this is the
    /// representative first pair; the evaluator materializes the rest.
    pub topology: Topology,
}

/// The deterministic pre-supervision plan: campus, graph, clustering, and
/// one evaluable unit per cluster.
pub struct CampusPlan {
    /// The sampled campus.
    pub campus: Campus,
    /// The thresholded interference graph.
    pub graph: InterferenceGraph,
    /// Cluster partition (clusters ordered by smallest member).
    pub clusters: Vec<Vec<usize>>,
    /// Greedy coloring of the interference graph (schedule hint; the
    /// number of distinct colors bounds the cross-cluster schedule).
    pub colors: Vec<u32>,
    /// Mergeable partition statistics.
    pub stats: ClusterStats,
    /// One unit per cluster, in cluster order.
    pub units: Vec<ClusterUnit>,
}

impl CampusPlan {
    /// The suite the supervisor runs: each unit's backing topology.
    pub fn unit_topologies(&self) -> Vec<Topology> {
        self.units.iter().map(|u| u.topology.clone()).collect()
    }
}

/// Builds the full deterministic plan for `cp`: a pure function of the
/// params, so journaled runs, resumed runs, and every thread count agree
/// on what unit index `k` means.
pub fn plan_campus(cp: &CampusParams) -> CampusPlan {
    let campus = cp.sampler.sample(cp.campus_seed, cp.cells, cp.config);
    let graph = InterferenceGraph::from_campus(&campus, cp.edge_threshold_db);
    let clustering = cluster_greedy(&graph, cp.max_cluster_size);
    let colors = greedy_coloring(&graph);
    let stats = ClusterStats::from_clustering(&clustering);
    let units = clustering
        .clusters()
        .iter()
        .map(|members| build_unit(&campus, members))
        .collect();
    CampusPlan {
        campus,
        graph,
        clusters: clustering.clusters().to_vec(),
        colors,
        stats,
        units,
    }
}

fn build_unit(campus: &Campus, members: &[usize]) -> ClusterUnit {
    let noise_scale: Vec<f64> = members
        .iter()
        .map(|&m| campus.external_noise_scale(m, members))
        .collect();
    let (partner, topology) = match members {
        [solo] => {
            let p = campus.strongest_interferer(*solo);
            // Only client 0's sequential outcomes are read, but the
            // residual scaling still applies to its own link; the
            // partner's side is left as materialized.
            (
                Some(p),
                campus.pair_topology_scaled(*solo, p, noise_scale[0], 1.0),
            )
        }
        [i, j, ..] => (
            None,
            campus.pair_topology_scaled(*i, *j, noise_scale[0], noise_scale[1]),
        ),
        [] => unreachable!("clusters are never empty"),
    };
    ClusterUnit {
        members: members.to_vec(),
        partner,
        noise_scale,
        topology,
    }
}

/// Evaluates one topology of unit `idx` with the plain suite runner's
/// per-index seed and request shape, so pair clusters match it call for
/// call.
fn run_unit(
    params: &ScenarioParams,
    idx: usize,
    topo: &Topology,
    ws: &mut EngineWorkspace,
    tel: Option<&SuiteTelemetry>,
) -> Result<Evaluation, CopaError> {
    let mut p = *params;
    p.seed = seed_for(params, idx);
    let mut req = EvalRequest::topology(topo).workspace(ws);
    if let Some(t) = tel {
        req = req.observe(t.engine_obs(idx as u32));
    }
    Engine::new(p).run(&mut req)
}

/// Evaluates one cluster unit on a worker: the function the supervised
/// pool runs per suite index, public so the hotpath bench can pin its
/// allocation count against the bare engine path.
///
/// For pair clusters this is call-for-call identical to the plain suite
/// runner's evaluation (same per-index seed derivation, same request
/// shape, same observation wiring) -- the degenerate-case byte-identity
/// guarantee lives here. Clusters of three or more run
/// [`rotate_leaders`].
pub fn evaluate_cluster(
    params: &ScenarioParams,
    scheme: CampusScheme,
    idx: usize,
    unit: &ClusterUnit,
    campus: &Campus,
    ws: &mut EngineWorkspace,
    tel: Option<&SuiteTelemetry>,
) -> Result<(f64, Strategy), CopaError> {
    match unit.members.len() {
        1 => {
            // Sequential strategies never touch the cross-links, so the
            // backing pair's client-0 half-airtime rate doubled is the
            // cell's solo rate under the residual-noise floor.
            let ev = run_unit(params, idx, &unit.topology, ws, tel)?;
            let out = match scheme {
                CampusScheme::Copa => &ev.copa_seq,
                CampusScheme::AllCsma => &ev.csma,
            };
            Ok((2.0 * out.per_client_bps[0] / 1e6, out.strategy))
        }
        2 => {
            let ev = run_unit(params, idx, &unit.topology, ws, tel)?;
            match scheme {
                CampusScheme::Copa => Ok((ev.copa_fair.aggregate_mbps(), ev.copa_fair.strategy)),
                CampusScheme::AllCsma => Ok((ev.csma.aggregate_mbps(), ev.csma.strategy)),
            }
        }
        _ => {
            let r = rotate_leaders(params, idx, unit, campus, ws, tel)?;
            match scheme {
                CampusScheme::Copa => Ok((r.copa_mbps, r.picks[0].1)),
                CampusScheme::AllCsma => Ok((r.csma_mbps, Strategy::Csma)),
            }
        }
    }
}

/// One leader rotation over a cluster, as [`rotate_leaders`] schedules
/// it. Positions index [`ClusterUnit::members`].
#[derive(Clone, Debug)]
pub struct Rotation {
    /// One entry per round; round `r` is led by position `r`: the
    /// follower it paired with (`None` when it transmitted solo) and the
    /// strategy the round ran (`CopaSeq` when solo).
    pub picks: Vec<(Option<usize>, Strategy)>,
    /// Per-member long-run COPA rate, Mbps: what each client received
    /// across the rounds' equal airtime shares.
    pub member_mbps: Vec<f64>,
    /// Per-member CSMA share, Mbps: the member's solo CSMA rate over a
    /// k-way airtime split.
    pub csma_share_mbps: Vec<f64>,
    /// Cluster COPA rate, Mbps: [`CampusScheme::Copa`]'s report.
    pub copa_mbps: f64,
    /// Cluster CSMA rate, Mbps: [`CampusScheme::AllCsma`]'s report.
    pub csma_mbps: f64,
}

/// Schedules a cluster by leader rotation (the paper's section 3.1
/// future work). Every member pair is materialized with the residual
/// excluding the whole cluster, since intra-cluster peers defer while a
/// pair transmits. Each member then leads one round: it pairs with the
/// follower whose COPA-fair aggregate is best, or transmits solo when no
/// pairing beats its solo rate. Rounds share airtime equally, as DCF
/// does among backlogged stations in the long run. Fails on clusters of
/// fewer than two cells, which have no one to rotate with.
pub fn rotate_leaders(
    params: &ScenarioParams,
    idx: usize,
    unit: &ClusterUnit,
    campus: &Campus,
    ws: &mut EngineWorkspace,
    tel: Option<&SuiteTelemetry>,
) -> Result<Rotation, CopaError> {
    let members = &unit.members;
    let k = members.len();
    if k < 2 {
        return Err(CopaError::InfeasibleStrategy {
            context: "rotate_leaders",
            strategy: "leader rotation over fewer than two cells",
        });
    }
    let mut evals: Vec<Option<Evaluation>> = Vec::new();
    evals.resize_with(k * k, || None);
    for a in 0..k {
        for b in (a + 1)..k {
            let t = campus.pair_topology_scaled(
                members[a],
                members[b],
                unit.noise_scale[a],
                unit.noise_scale[b],
            );
            evals[a * k + b] = Some(run_unit(params, idx, &t, ws, tel)?);
        }
    }
    let pair_ev = |a: usize, b: usize| -> &Evaluation {
        let (lo, hi) = (a.min(b), a.max(b));
        // invariant: filled for every lo < hi above
        evals[lo * k + hi].as_ref().expect("pair evaluated")
    };
    // Solo rate of member position `m`, bps (full airtime, residual
    // noise): doubled sequential half-airtime rate, read from the pair
    // with its lowest-indexed peer.
    let solo = |m: usize, scheme: CampusScheme| -> f64 {
        let peer = if m == 0 { 1 } else { 0 };
        let ev = pair_ev(m, peer);
        let pos = usize::from(m > peer);
        let out = match scheme {
            CampusScheme::Copa => &ev.copa_seq,
            CampusScheme::AllCsma => &ev.csma,
        };
        2.0 * out.per_client_bps[pos]
    };

    // Everyone contends: a k-way airtime split of the solo CSMA rates.
    let total: f64 = (0..k).map(|m| solo(m, CampusScheme::AllCsma)).sum();
    let csma_share_mbps = (0..k)
        .map(|m| solo(m, CampusScheme::AllCsma) / k as f64 / 1e6)
        .collect();

    // One round per leader; rounds share airtime equally.
    let mut credit_bps = 0.0;
    let mut member_bps = vec![0.0; k];
    let mut picks = Vec::with_capacity(k);
    for leader in 0..k {
        let mut best_bps = solo(leader, CampusScheme::Copa);
        let mut pick = (None, Strategy::CopaSeq);
        for follower in 0..k {
            if follower == leader {
                continue;
            }
            let ev = pair_ev(leader, follower);
            let agg = ev.copa_fair.aggregate_bps();
            if agg > best_bps {
                best_bps = agg;
                pick = (Some(follower), ev.copa_fair.strategy);
            }
        }
        credit_bps += best_bps;
        match pick.0 {
            Some(f) => {
                let per = pair_ev(leader, f).copa_fair.per_client_bps;
                let lead = usize::from(leader > f);
                member_bps[leader] += per[lead];
                member_bps[f] += per[1 - lead];
            }
            None => member_bps[leader] += best_bps,
        }
        picks.push(pick);
    }
    Ok(Rotation {
        picks,
        member_mbps: member_bps.iter().map(|b| b / k as f64 / 1e6).collect(),
        csma_share_mbps,
        copa_mbps: credit_bps / k as f64 / 1e6,
        csma_mbps: total / k as f64 / 1e6,
    })
}

fn campus_eval<'p>(
    plan: &'p CampusPlan,
    params: &'p ScenarioParams,
    scheme: CampusScheme,
    tel: Option<&'p SuiteTelemetry>,
) -> impl Fn(usize, &Topology, &mut EngineWorkspace) -> Result<(f64, Strategy), CopaError> + Sync + 'p
{
    move |idx, _topo, ws| {
        evaluate_cluster(params, scheme, idx, &plan.units[idx], &plan.campus, ws, tel)
    }
}

/// Records the plan-level campus metrics once, before supervision, so the
/// registry is thread-count invariant by construction.
fn record_plan_telemetry(plan: &CampusPlan, tel: &SuiteTelemetry) {
    let c = &tel.campus;
    tel.count(c.cells, plan.campus.cells() as u64);
    tel.count(c.graph_edges, plan.graph.edges().len() as u64);
    tel.count(c.clusters, plan.stats.clusters);
    tel.count(c.singletons, plan.stats.singletons);
    tel.count(c.pairs, plan.stats.pairs);
    tel.count(c.multis, plan.stats.multis);
    for cluster in &plan.clusters {
        tel.sample(c.cluster_size, cluster.len() as u64);
    }
    for unit in &plan.units {
        for f in &unit.noise_scale {
            // Residual interference over noise, dB, clamped at 0: the
            // histogram shows how hot cluster boundaries run.
            let r_over_n = (1.0 - f) / f.max(f64::MIN_POSITIVE);
            let db = 10.0 * (r_over_n.max(1e-12)).log10();
            tel.sample(c.residual_inr_db, db.max(0.0) as u64);
        }
    }
}

/// The campus report: the partition, its stats, the supervised suite
/// report (one record per cluster), and the headline mean per-cell rate.
pub struct CampusReport {
    /// Number of cells.
    pub cells: usize,
    /// Which outcome the units reported.
    pub scheme: CampusScheme,
    /// Interference-graph edge threshold, dB.
    pub edge_threshold_db: f64,
    /// Above-threshold edges in the graph.
    pub graph_edges: usize,
    /// The cluster partition.
    pub clusters: Vec<Vec<usize>>,
    /// Greedy coloring of the interference graph (one color per cell).
    pub colors: Vec<u32>,
    /// Mergeable partition statistics.
    pub stats: ClusterStats,
    /// Sum of completed cluster rates divided by the cell count: the
    /// figure-regression headline.
    pub mean_per_cell_mbps: f64,
    /// The supervised per-cluster suite report.
    pub suite: SuiteReport,
}

impl ToJson for CampusReport {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("cells", &self.cells)
            .field("scheme", &self.scheme.label())
            .field("edge_threshold_db", &self.edge_threshold_db)
            .field("graph_edges", &self.graph_edges)
            .field("clusters", &self.clusters)
            .field("colors", &self.colors)
            .field("stats", &self.stats)
            .field("mean_per_cell_mbps", &self.mean_per_cell_mbps)
            .field("suite", &self.suite)
            .finish();
    }
}

fn finish_report(
    cp: &CampusParams,
    scheme: CampusScheme,
    plan: CampusPlan,
    suite: SuiteReport,
) -> CampusReport {
    let done_mbps: f64 = suite
        .records
        .iter()
        .map(|r| match r.outcome {
            TopologyOutcome::Done { mbps, .. } => mbps,
            _ => 0.0,
        })
        .sum();
    CampusReport {
        cells: cp.cells,
        scheme,
        edge_threshold_db: cp.edge_threshold_db,
        graph_edges: plan.graph.edges().len(),
        clusters: plan.clusters,
        colors: plan.colors,
        stats: plan.stats,
        mean_per_cell_mbps: done_mbps / cp.cells as f64,
        suite,
    }
}

/// The one body behind the three campus entry points: plan, record the
/// plan telemetry, then supervise one work item per cluster.
fn run_campus(
    cp: &CampusParams,
    params: &ScenarioParams,
    scheme: CampusScheme,
    cfg: &SuiteConfig<'_>,
    journal: Journal<'_>,
) -> Result<CampusReport, CopaError> {
    let plan = plan_campus(cp);
    if let Some(t) = cfg.telemetry {
        record_plan_telemetry(&plan, t);
    }
    let suite = plan.unit_topologies();
    let report = supervisor::run(
        params.seed,
        &suite,
        cfg,
        journal,
        &campus_eval(&plan, params, scheme, cfg.telemetry),
    )?;
    Ok(finish_report(cp, scheme, plan, report))
}

/// Runs the campus under supervision without checkpointing.
pub fn run_campus_suite(
    cp: &CampusParams,
    params: &ScenarioParams,
    scheme: CampusScheme,
    cfg: &SuiteConfig<'_>,
) -> CampusReport {
    run_campus(cp, params, scheme, cfg, Journal::Off)
        // invariant: only journal IO can fail, and there is none
        .expect("journal-free supervision cannot fail")
}

/// Runs the campus under supervision, checkpointing every cluster record
/// to the journal at `prefix` (any previous journal there is wiped
/// first). The journal is keyed by `params.seed`, exactly like the pair
/// suite's [`crate::supervisor::run_suite_journaled`].
pub fn run_campus_suite_journaled(
    cp: &CampusParams,
    params: &ScenarioParams,
    scheme: CampusScheme,
    cfg: &SuiteConfig<'_>,
    prefix: &Path,
) -> Result<CampusReport, CopaError> {
    run_campus(cp, params, scheme, cfg, Journal::Fresh(prefix))
}

/// Resumes an interrupted journaled campus run from `prefix`: replayed
/// cluster records are skipped, the remainder supervised, and the
/// combined report is byte-identical (as JSON) to the uninterrupted run.
pub fn run_campus_suite_resumed(
    cp: &CampusParams,
    params: &ScenarioParams,
    scheme: CampusScheme,
    cfg: &SuiteConfig<'_>,
    prefix: &Path,
) -> Result<CampusReport, CopaError> {
    run_campus(cp, params, scheme, cfg, Journal::Resume(prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampusParams {
        CampusParams::dense(8, 0xCA_01, AntennaConfig::SINGLE)
    }

    #[test]
    fn plan_is_a_partition_with_one_unit_per_cluster() {
        let plan = plan_campus(&tiny());
        assert_eq!(plan.units.len(), plan.clusters.len());
        let mut seen = vec![false; 8];
        for c in &plan.clusters {
            for &m in c {
                assert!(!seen[m], "cell {m} in two clusters");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(plan.stats.cells, 8);
    }

    #[test]
    fn plan_is_deterministic() {
        let a = plan_campus(&tiny());
        let b = plan_campus(&tiny());
        assert_eq!(a.clusters, b.clusters);
        assert_eq!(a.colors, b.colors);
        for (x, y) in a.units.iter().zip(&b.units) {
            assert_eq!(x.members, y.members);
            for (f, g) in x.noise_scale.iter().zip(&y.noise_scale) {
                assert_eq!(f.to_bits(), g.to_bits());
            }
        }
    }

    #[test]
    fn campus_suite_completes_and_reports() {
        let cp = tiny();
        let params = ScenarioParams::default();
        let cfg = SuiteConfig {
            threads: 2,
            ..Default::default()
        };
        let report = run_campus_suite(&cp, &params, CampusScheme::Copa, &cfg);
        assert_eq!(
            report.suite.health.completed as usize,
            report.clusters.len()
        );
        assert_eq!(report.suite.health.panicked, 0);
        assert!(report.mean_per_cell_mbps > 0.0);
        let json = report.to_json();
        let doc = copa_obs::json::parse(&json).expect("report JSON re-parses");
        assert_eq!(doc.get("cells").and_then(|v| v.as_u64()), Some(8), "{json}");
        assert_eq!(doc.get("scheme").and_then(|v| v.as_str()), Some("copa"));
    }

    #[test]
    fn all_csma_baseline_uses_csma_everywhere() {
        let cp = tiny();
        let params = ScenarioParams::default();
        let cfg = SuiteConfig {
            threads: 2,
            ..Default::default()
        };
        let report = run_campus_suite(&cp, &params, CampusScheme::AllCsma, &cfg);
        for r in &report.suite.records {
            match &r.outcome {
                TopologyOutcome::Done { strategy, .. } => {
                    assert_eq!(*strategy, Strategy::Csma, "cluster {}", r.index)
                }
                other => panic!("cluster {} did not complete: {other:?}", r.index),
            }
        }
    }

    #[test]
    fn multi_cluster_path_is_deterministic_and_positive() {
        let cp = CampusParams {
            max_cluster_size: 4,
            ..CampusParams::dense(10, 0xCA_02, AntennaConfig::SINGLE)
        };
        let plan = plan_campus(&cp);
        let params = ScenarioParams::default();
        let idx = plan
            .units
            .iter()
            .position(|u| u.members.len() >= 3)
            .expect("dense 10-cell campus forms a 3+ cluster at cap 4");
        let mut ws = EngineWorkspace::new();
        let a = evaluate_cluster(
            &params,
            CampusScheme::Copa,
            idx,
            &plan.units[idx],
            &plan.campus,
            &mut ws,
            None,
        )
        .expect("multi cluster evaluates");
        let b = evaluate_cluster(
            &params,
            CampusScheme::Copa,
            idx,
            &plan.units[idx],
            &plan.campus,
            &mut ws,
            None,
        )
        .expect("multi cluster evaluates");
        assert!(a.0 > 0.0);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn three_cell_rotation_pairs_best_followers_and_beats_csma() {
        let cp = CampusParams {
            edge_threshold_db: f64::NEG_INFINITY,
            max_cluster_size: 3,
            ..CampusParams::dense(3, 0x3A9, AntennaConfig::CONSTRAINED_4X2)
        };
        let plan = plan_campus(&cp);
        assert_eq!(plan.clusters, vec![vec![0, 1, 2]]);
        let unit = &plan.units[0];
        let params = ScenarioParams::default();
        let mut ws = EngineWorkspace::new();
        let r = rotate_leaders(&params, 0, unit, &plan.campus, &mut ws, None).expect("rotation");

        assert!(
            r.copa_mbps >= 0.99 * r.csma_mbps,
            "cell COPA {:.1} vs CSMA {:.1}",
            r.copa_mbps,
            r.csma_mbps
        );

        // Every paired leader chose the peer with the best fair aggregate.
        let fair_agg = |a: usize, b: usize| {
            let (lo, hi) = (a.min(b), a.max(b));
            let t = plan.campus.pair_topology_scaled(
                unit.members[lo],
                unit.members[hi],
                unit.noise_scale[lo],
                unit.noise_scale[hi],
            );
            let ev = run_unit(&params, 0, &t, &mut EngineWorkspace::new(), None).expect("pair");
            ev.copa_fair.aggregate_bps()
        };
        assert!(r.picks.iter().any(|p| p.0.is_some()), "someone pairs");
        for (leader, &(follower, _)) in r.picks.iter().enumerate() {
            let Some(f) = follower else { continue };
            for peer in (0..3).filter(|&p| p != leader) {
                assert!(
                    fair_agg(leader, f) >= fair_agg(leader, peer),
                    "leader {leader} paired with {f} over better peer {peer}"
                );
            }
        }

        let sum: f64 = r.member_mbps.iter().sum();
        assert!((sum - r.copa_mbps).abs() <= 1e-9 * r.copa_mbps);

        let (mbps, _) = evaluate_cluster(
            &params,
            CampusScheme::Copa,
            0,
            unit,
            &plan.campus,
            &mut ws,
            None,
        )
        .expect("cluster evaluates");
        assert_eq!(mbps.to_bits(), r.copa_mbps.to_bits());
    }
}

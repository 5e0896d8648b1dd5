//! Hot-path benchmark: per-subcarrier kernel cost, allocations per
//! evaluation, and whole-suite throughput through the parallel runner.
//!
//! Every figure in the paper is a CDF over topology suites, so wall-clock
//! is dominated by the kernel chain (nullspace projection -> SVD
//! beamforming -> MMSE SINR -> rate) repeated 52 subcarriers x strategies
//! x topologies. This bench pins that cost down with three views:
//!
//! 1. kernel timings (`svd_*`, `beamform_*`, `null_*`, `sinr_grid_*`) --
//!    the per-subcarrier chain; the precoders run one `svd_into` per
//!    subcarrier, the SINR grid one stack-array Cholesky per subcarrier
//!    and stream;
//! 2. engine timings (`evaluate_*`) -- one full topology evaluation;
//! 3. runner throughput (`suite_*`) -- a heterogeneous suite through
//!    `evaluate_parallel`, reported as topologies/second.
//!
//! A counting global allocator additionally reports **allocations per
//! evaluation** as `{"type":"alloc",...}` JSON lines, so the
//! allocation-free-hot-path guarantee is a measured number, not a claim.
//! All JSON lines use the in-repo harness format; `scripts/check.sh
//! --bench-smoke` captures them into `BENCH_hotpath.json` to build a
//! trajectory across PRs.

use copa_bench::harness::{black_box, Criterion};
use copa_channel::{
    AntennaConfig, ChannelScratch, FreqChannel, MultipathProfile, Topology, TopologySampler,
};
use copa_core::{Engine, EngineMetrics, EngineObs, EngineWorkspace, EvalRequest, ScenarioParams};
use copa_num::{svd, CMat, SimRng};
use copa_obs::{FrozenClock, NoopSink, Telemetry, WallClock};
use copa_precoding::{
    beamform, beamform_with, mmse_sinr_grid, null_toward_with, LinkPrecoding, PrecodeScratch,
    TxPowers, TxSide,
};
use copa_sim::json::{Obj, ToJson};
use copa_sim::{
    evaluate_cluster, evaluate_guarded, evaluate_parallel, plan_campus, run_daemon, CampusParams,
    CampusScheme, DaemonConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global allocator wrapper that counts every heap allocation, so the
/// bench can report allocations-per-evaluation alongside wall time.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    f();
    ALLOC_COUNT.load(Ordering::Relaxed) - before
}

/// Allocations of one evaluation of `topo` on `ws`, after the same
/// evaluation has warmed it.
fn warm_allocs(engine: &Engine, topo: &Topology, ws: &mut EngineWorkspace) -> u64 {
    let _ = engine.run(&mut EvalRequest::topology(topo).workspace(ws));
    count_allocs(|| {
        let _ = black_box(engine.run(&mut EvalRequest::topology(topo).workspace(ws)));
    })
}

/// One `{"type":"alloc",...}` JSON line (same spirit as the bench lines).
struct AllocReport {
    name: String,
    allocs: u64,
}

impl ToJson for AllocReport {
    fn write_json(&self, out: &mut String) {
        Obj::new(out)
            .field("type", &"alloc")
            .field("name", &self.name)
            .field("allocs", &self.allocs)
            .finish();
    }
}

fn report_allocs(name: &str, allocs: u64) {
    let r = AllocReport {
        name: name.to_string(),
        allocs,
    };
    println!("alloc {:<32} {:>10} allocations", r.name, r.allocs);
    println!("{}", r.to_json());
}

/// A deliberately heterogeneous suite: mixed antenna configs so topology
/// costs differ and a static chunking of the suite would idle workers.
fn mixed_suite(per_config: usize) -> Vec<Topology> {
    let sampler = TopologySampler::default();
    let mut suite = sampler.suite(0xB0_07, per_config, AntennaConfig::CONSTRAINED_4X2);
    suite.extend(sampler.suite(0xB0_08, per_config, AntennaConfig::SINGLE));
    suite.extend(sampler.suite(0xB0_09, per_config, AntennaConfig::OVERCONSTRAINED_3X2));
    suite
}

fn main() {
    let mut c = Criterion::default().configure_from_args();
    let params = ScenarioParams::default();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // --- 1. per-subcarrier kernels --------------------------------------
    let mut rng = SimRng::seed_from(0xFEED);
    let m24 = CMat::from_fn(2, 4, |_, _| rng.randc());
    c.bench_function("svd_2x4", |b| b.iter(|| svd(black_box(&m24))));

    let profile = MultipathProfile::default();
    let own = FreqChannel::random(&mut rng, 2, 4, 1e-6, &profile);
    let cross = FreqChannel::random(&mut rng, 2, 4, 1e-7, &profile);

    // Channel guard: a warmed 4x2 draw plus one Gauss-Markov step on the
    // same scratch (the daemon's per-block truth update) allocates nothing.
    let mut draw_rng = SimRng::seed_from(0xD7A3);
    let mut draw_scratch = ChannelScratch::new();
    let mut drawn = FreqChannel::empty();
    let mut draw = || {
        let rng = &mut draw_rng;
        FreqChannel::random_into(rng, 2, 4, 1e-6, &profile, &mut draw_scratch, &mut drawn);
        drawn.evolve_in_place(rng, 0.5, &profile, &mut draw_scratch);
    };
    draw();
    let allocs_draw = count_allocs(&mut draw);
    report_allocs("channel_draw_warm", allocs_draw);
    assert_eq!(
        allocs_draw, 0,
        "a warmed channel draw must be allocation-free (got {allocs_draw})"
    );

    let imp = copa_channel::Impairments::default();
    // Warm precoders on one reused scratch and output slot, as the engine
    // runs them.
    let mut pws = PrecodeScratch::new();
    let mut slot = LinkPrecoding::empty();
    c.bench_function("beamform_4x2", |b| {
        b.iter(|| beamform_with(black_box(&own), 2, &mut pws, &mut slot))
    });
    c.bench_function("null_4x2", |b| {
        b.iter(|| null_toward_with(black_box(&own), &cross, 2, &mut pws, &mut slot))
    });
    let pre = beamform(&own, 2);
    let int_pre = beamform(&cross, 2);
    let powers = TxPowers::equal(2, 31.6);
    c.bench_function("sinr_grid_4x2_interf", |b| {
        b.iter(|| {
            let own_side = TxSide {
                channel: &own,
                precoding: &pre,
                powers: &powers,
                budget_mw: 31.6,
            };
            let int_side = TxSide {
                channel: &cross,
                precoding: &int_pre,
                powers: &powers,
                budget_mw: 31.6,
            };
            mmse_sinr_grid(black_box(&own_side), Some(&int_side), 1e-9, &imp)
        })
    });

    // --- 2. one full topology evaluation --------------------------------
    let t4x2 = TopologySampler::default()
        .suite(0xE0, 1, AntennaConfig::CONSTRAINED_4X2)
        .remove(0);
    let engine = Engine::new(params);
    c.bench_function("evaluate_4x2", |b| {
        b.iter(|| {
            engine
                .run(&mut EvalRequest::topology(black_box(&t4x2)))
                .expect("valid topology")
        })
    });
    let plus_engine = Engine::new(ScenarioParams {
        include_mercury: true,
        ..params
    });
    c.bench_function("evaluate_4x2_copa_plus", |b| {
        b.iter(|| {
            plus_engine
                .run(&mut EvalRequest::topology(black_box(&t4x2)))
                .expect("valid topology")
        })
    });

    // Allocations for one evaluation (median-free single shot is stable:
    // the count is deterministic). Warm up once so one-time lazy init is
    // excluded. Two views: a bare `EvalRequest` creates a fresh workspace
    // per call (the convenience API); `.workspace(..)` reuses a warmed one,
    // which is what the suite runner does per worker -- that number is the
    // allocation-free-kernel canary.
    let _ = engine.run(&mut EvalRequest::topology(&t4x2));
    let allocs = count_allocs(|| {
        let _ = black_box(engine.run(&mut EvalRequest::topology(&t4x2)));
    });
    report_allocs("evaluate_4x2", allocs);

    let mut ws = EngineWorkspace::new();
    let allocs_warm = warm_allocs(&engine, &t4x2, &mut ws);
    report_allocs("evaluate_4x2_warm_ws", allocs_warm);

    // The same guard on COPA+ (the pooled Mercury kernel), on 1x1, whose
    // evaluations take the shut-down-antenna (SDA) path with one antenna,
    // and on 3x2, whose SDA setups switch between one and two streams:
    // each warmed evaluation must be allocation-free as well.
    let t1x1 = TopologySampler::default()
        .suite(0xE0, 1, AntennaConfig::SINGLE)
        .remove(0);
    let t3x2 = TopologySampler::default()
        .suite(0xE0, 1, AntennaConfig::OVERCONSTRAINED_3X2)
        .remove(0);
    for (name, eng, topo) in [
        ("evaluate_4x2_copa_plus_warm_ws", &plus_engine, &t4x2),
        ("evaluate_1x1_warm_ws", &engine, &t1x1),
        ("evaluate_1x1_copa_plus_warm_ws", &plus_engine, &t1x1),
        ("evaluate_3x2_warm_ws", &engine, &t3x2),
        ("evaluate_3x2_copa_plus_warm_ws", &plus_engine, &t3x2),
    ] {
        let allocs = warm_allocs(eng, topo, &mut EngineWorkspace::new());
        report_allocs(name, allocs);
        assert_eq!(
            allocs, 0,
            "{name}: a warmed evaluation must be allocation-free (got {allocs})"
        );
    }

    // Supervision guard: the supervisor's per-topology `catch_unwind`
    // wrapper must be free -- same warmed workspace, same topology, and
    // exactly as many allocations as the bare engine call. A regression
    // here means panic isolation started taxing the hot path.
    let _ = evaluate_guarded(&engine, 0, &t4x2, &mut ws);
    let allocs_guarded = count_allocs(|| {
        let _ = black_box(evaluate_guarded(&engine, 0, &t4x2, &mut ws));
    });
    report_allocs("evaluate_4x2_guarded", allocs_guarded);
    assert_eq!(
        allocs_guarded, allocs_warm,
        "evaluate_guarded must add zero allocations over the bare warmed path"
    );

    // Telemetry guard, noop sink: an observed request with a NoopSink must
    // be strictly pay-for-what-you-use -- zero added allocations over the
    // warmed path (and no clock reads, but that is a unit-test concern).
    let mut registry = Telemetry::new();
    let metrics = EngineMetrics::register(&mut registry);
    let frozen = FrozenClock(0);
    let noop_obs = EngineObs::new(&NoopSink, &frozen, metrics);
    let _ = engine.run(
        &mut EvalRequest::topology(&t4x2)
            .workspace(&mut ws)
            .observe(noop_obs),
    );
    let allocs_noop = count_allocs(|| {
        let _ = black_box(
            engine.run(
                &mut EvalRequest::topology(&t4x2)
                    .workspace(&mut ws)
                    .observe(noop_obs),
            ),
        );
    });
    report_allocs("evaluate_4x2_noop_obs", allocs_noop);
    assert_eq!(
        allocs_noop, allocs_warm,
        "a NoopSink-observed evaluation must add zero allocations over the warmed path"
    );

    // Telemetry guard, live sink (tracing off): counters and histograms
    // are preallocated atomics, so even live recording stays alloc-free.
    let live_obs = EngineObs::new(&registry, &frozen, metrics);
    let _ = engine.run(
        &mut EvalRequest::topology(&t4x2)
            .workspace(&mut ws)
            .observe(live_obs),
    );
    let allocs_live = count_allocs(|| {
        let _ = black_box(
            engine.run(
                &mut EvalRequest::topology(&t4x2)
                    .workspace(&mut ws)
                    .observe(live_obs),
            ),
        );
    });
    report_allocs("evaluate_4x2_live_obs", allocs_live);
    assert_eq!(
        allocs_live, allocs_warm,
        "a live-telemetry evaluation (tracing off) must stay allocation-free"
    );

    // Campus guard: a warmed pair-cluster evaluation must cost exactly as
    // much as the bare warmed engine call -- the N-cell layer's per-unit
    // work (seed derivation, scheme dispatch, outcome read) adds zero
    // allocations over the pair engine it wraps.
    let campus_cp = CampusParams::dense(8, 0xCA_BE, AntennaConfig::CONSTRAINED_4X2);
    let plan = plan_campus(&campus_cp);
    let pair_idx = plan
        .units
        .iter()
        .position(|u| u.members.len() == 2)
        .expect("a dense 8-cell campus forms at least one pair cluster");
    let unit = &plan.units[pair_idx];
    // The reference: the bare engine on the unit's own topology with the
    // cluster layer's derived per-index seed (allocation counts are
    // topology- and search-path-dependent, so the baseline must be the
    // exact same evaluation, not the 4x2 canary above).
    let mut pc = params;
    pc.seed = params
        .seed
        .wrapping_add(pair_idx as u64)
        .wrapping_mul(0x9E37_79B9);
    let cluster_engine = Engine::new(pc);
    let _ = cluster_engine.run(&mut EvalRequest::topology(&unit.topology).workspace(&mut ws));
    let allocs_unit_bare = count_allocs(|| {
        let _ = black_box(
            cluster_engine.run(&mut EvalRequest::topology(&unit.topology).workspace(&mut ws)),
        );
    });
    let allocs_cluster = count_allocs(|| {
        let _ = black_box(evaluate_cluster(
            &params,
            CampusScheme::Copa,
            pair_idx,
            unit,
            &plan.campus,
            &mut ws,
            None,
        ));
    });
    report_allocs("evaluate_pair_cluster_warm", allocs_cluster);
    assert_eq!(
        allocs_cluster, allocs_unit_bare,
        "a warmed pair-cluster evaluation must add zero allocations over the bare engine call"
    );

    // Hard gate: the warmed steady state is *zero* allocations, not merely
    // "stable". Every guard above pinned its variant to `allocs_warm`; this
    // pins `allocs_warm` itself (and the campus baseline) to 0, which is
    // what `scripts/check.sh --bench-smoke` greps out of BENCH_hotpath.json.
    assert_eq!(
        allocs_warm, 0,
        "warmed-workspace evaluation must be allocation-free (got {allocs_warm})"
    );
    assert_eq!(
        allocs_unit_bare, 0,
        "warmed cluster-unit evaluation must be allocation-free (got {allocs_unit_bare})"
    );

    // --- 3. per-phase medians (copa-obs spans over a live registry) ------
    // Re-run the warmed 4x2 evaluation under live telemetry with a real
    // clock and report the median per-phase span, so BENCH_hotpath.json
    // records *where* the evaluation budget goes, not just its total.
    let mut phase_registry = Telemetry::new();
    let phase_metrics = EngineMetrics::register(&mut phase_registry);
    let wall = WallClock::default();
    let phase_obs = EngineObs::new(&phase_registry, &wall, phase_metrics);
    for _ in 0..32 {
        let _ = engine.run(
            &mut EvalRequest::topology(&t4x2)
                .workspace(&mut ws)
                .observe(phase_obs),
        );
    }
    for (phase, id) in [
        ("csi_prep", phase_metrics.csi_prep_us),
        ("precoding", phase_metrics.precoding_us),
        ("allocation", phase_metrics.allocation_us),
        ("sinr", phase_metrics.sinr_us),
    ] {
        let h = phase_registry.histogram_ref(id);
        let median_us = h.approx_quantile(0.5).unwrap_or(0);
        let mut out = String::new();
        Obj::new(&mut out)
            .field("type", &"phase")
            .field("name", &phase)
            .field("median_us", &median_us)
            .field("total_us", &h.sum())
            .field("spans", &h.count())
            .finish();
        println!(
            "phase {phase:<32} median {median_us:>6} us over {} spans",
            h.count()
        );
        println!("{out}");
    }

    // --- 4. suite throughput through the parallel runner -----------------
    let suite = mixed_suite(4);
    let bench = "suite_mixed_12";
    c.bench_function(bench, |b| {
        b.iter(|| evaluate_parallel(black_box(&params), &suite, threads))
    });
    let mut suite_tps = 0.0;
    if let Some(r) = c.reports().iter().find(|r| r.name == bench) {
        suite_tps = suite.len() as f64 / (r.median_ns / 1e9);
        let mut out = String::new();
        Obj::new(&mut out)
            .field("type", &"throughput")
            .field("name", &bench)
            .field("topologies_per_sec", &suite_tps)
            .field("threads", &threads)
            .finish();
        println!("thrpt {bench:<32} {suite_tps:.2} topologies/s");
        println!("{out}");
    }

    // Hard gate: >= 5x the pre-SoA 108 topologies/s baseline. Absolute so a
    // regression anywhere in the chain (kernels, allocator, runner) fails
    // the bench rather than silently eroding the figure-suite turnaround.
    const MIN_TOPOS_PER_SEC: f64 = 540.0;
    assert!(
        suite_tps >= MIN_TOPOS_PER_SEC,
        "suite throughput gate: {suite_tps:.2} topologies/s < {MIN_TOPOS_PER_SEC} \
         (5x the 108/s scalar-AoS baseline)"
    );

    // --- 5. daemon: warmed-epoch allocations + epoch throughput ----------
    // Two full single-threaded daemon runs that differ only in length: the
    // first covers every one-time allocation (session warmup, evolution
    // scratch, workspace growth, re-exchanges, block crossings), so the
    // second run's extra epochs are all steady-state. Their difference is
    // the allocations charged to warmed epochs, and the gate is zero.
    let daemon_suite = TopologySampler::default().suite(0xDAE_0, 4, AntennaConfig::CONSTRAINED_4X2);
    let warm_cfg = DaemonConfig {
        epochs: 300,
        force_active: true,
        checkpoint_every: 100_000,
        ..DaemonConfig::default()
    };
    let long_cfg = DaemonConfig {
        epochs: 600,
        ..warm_cfg
    };
    // Throwaway run first so process-global lazy init is paid before the
    // baseline is measured (otherwise the baseline over-counts).
    let _ = run_daemon(&params, &daemon_suite, &warm_cfg);
    let allocs_daemon_base = count_allocs(|| {
        let _ = black_box(run_daemon(&params, &daemon_suite, &warm_cfg));
    });
    let allocs_daemon_long = count_allocs(|| {
        let _ = black_box(run_daemon(&params, &daemon_suite, &long_cfg));
    });
    assert!(
        allocs_daemon_long >= allocs_daemon_base,
        "a longer daemon run cannot allocate less than its own prefix \
         ({allocs_daemon_long} < {allocs_daemon_base})"
    );
    let allocs_daemon_warm = allocs_daemon_long - allocs_daemon_base;
    report_allocs("daemon_warm_epochs", allocs_daemon_warm);
    assert_eq!(
        allocs_daemon_warm, 0,
        "warmed daemon epochs must be allocation-free (300 extra epochs \
         cost {allocs_daemon_warm} allocations)"
    );

    // Epoch throughput: a trace-driven (not force-active) run, so the
    // number reflects the amortized steady state the daemon is for --
    // cached allocations reused, the engine re-run only on staleness,
    // churn or coherence-block advance.
    let thr_cfg = DaemonConfig {
        epochs: 1_000,
        checkpoint_every: 100_000,
        ..DaemonConfig::default()
    };
    c.bench_function("daemon_1k_epochs", |b| {
        b.iter(|| run_daemon(black_box(&params), &daemon_suite, &thr_cfg))
    });
    if let Some(r) = c.reports().iter().find(|r| r.name == "daemon_1k_epochs") {
        let epochs_per_sec = thr_cfg.epochs as f64 / (r.median_ns / 1e9);
        let mut out = String::new();
        Obj::new(&mut out)
            .field("type", &"throughput")
            .field("name", &"daemon_epochs")
            .field("epochs_per_sec", &epochs_per_sec)
            .field("cells", &daemon_suite.len())
            .field("epoch_us", &thr_cfg.epoch_us)
            .finish();
        println!("thrpt daemon_epochs                   {epochs_per_sec:.0} epochs/s");
        println!("{out}");
    }

    c.final_summary();
}

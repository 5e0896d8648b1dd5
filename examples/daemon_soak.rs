//! Daemon soak: ten minutes of simulated time through the event-driven
//! coordination loop, end to end.
//!
//! ```sh
//! cargo run --release --example daemon_soak            # quiet campus
//! cargo run --release --example daemon_soak -- --chaos # lossy + churning
//! ```
//!
//! The default mode exercises four properties of the long-lived service,
//! each behind its own `ok:` line so `scripts/check.sh --daemon-smoke`
//! can grep them individually:
//!
//! 1. **Amortization.** Over a 10-minute trace-driven run the engine
//!    re-runs only on CSI staleness, churn or coherence-block advance, so
//!    evaluations and exchanges both sit far below cell-epochs.
//! 2. **Bounded journal growth.** Checkpoints are fixed-size records, so
//!    on-disk journal bytes are linear in checkpoint count with a small
//!    constant — independent of how much simulated time each round spans.
//! 3. **Kill-and-resume.** A run killed mid-round and resumed from its
//!    last checkpoint replays to a byte-identical report.
//! 4. **Zero warmed-epoch allocations.** Two runs differing only in
//!    length pin the steady-state epoch loop to exactly zero heap
//!    allocations, measured by a counting global allocator.
//!
//! `--chaos` re-runs the same ten minutes on a hostile campus — every ITS
//! exchange through the real wire protocol at 20% frame loss, plus a
//! seeded membership process joining and leaving cells — and asserts the
//! failure model end to end (`scripts/check.sh --chaos-smoke`): sessions
//! degrade to CSMA and all of them recover, every engine run is one daemon
//! evaluation (an exchange evaluates once and carries that decision), churn
//! tears down and cold-starts sessions, a kill-and-resume replays
//! byte-identically, and warmed epochs between exchanges still allocate
//! nothing.
//!
//! The merged telemetry registry and the final report are printed as
//! single JSON lines for the smoke harness (and the EXPERIMENTS.md
//! walkthrough) to capture.

use copa::channel::{AntennaConfig, FaultPlan, TopologySampler};
use copa::core::ScenarioParams;
use copa::obs::json::parse;
use copa::sim::churn::{ChurnConfig, ChurnEvent, ChurnKind, ChurnSource};
use copa::sim::journal::wipe_journal;
use copa::sim::json::ToJson;
use copa::sim::{
    exported_counter as counter, run_daemon, run_daemon_journaled, run_daemon_resumed,
    DaemonConfig, SuiteTelemetry,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global allocator wrapper counting every heap allocation, so the
/// zero-allocation warmed-epoch claim is a measured number.
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

fn count_allocs(mut f: impl FnMut()) -> u64 {
    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    f();
    ALLOC_COUNT.load(Ordering::Relaxed) - before
}

/// Total on-disk bytes of the journal at `prefix` (sealed segments plus
/// the active part), and how many files that is.
fn journal_disk_bytes(prefix: &std::path::Path) -> (u64, u64) {
    fn file_len(p: &std::path::Path) -> Option<u64> {
        std::fs::metadata(p).ok().map(|m| m.len())
    }
    let mut bytes = 0;
    let mut files = 0;
    let mut name = prefix.as_os_str().to_os_string();
    name.push(".part");
    if let Some(n) = file_len(std::path::Path::new(&name)) {
        bytes += n;
        files += 1;
    }
    for i in 0..10_000u32 {
        let mut name = prefix.as_os_str().to_os_string();
        name.push(format!(".seg{i:04}"));
        match file_len(std::path::Path::new(&name)) {
            Some(n) => {
                bytes += n;
                files += 1;
            }
            None => break,
        }
    }
    (bytes, files)
}

/// The `--chaos` soak: the same ten simulated minutes with real faulted
/// ITS exchanges (20% frame loss) and a seeded membership process.
fn chaos_soak() {
    let params = ScenarioParams::default();
    let suite = TopologySampler::default().suite(0x50_A4, 6, AntennaConfig::CONSTRAINED_4X2);
    let tmp = std::env::temp_dir();
    let pid = std::process::id();

    let cfg = DaemonConfig {
        epoch_us: 10_000,
        epochs: 60_000,
        staleness_us: 1_000_000,
        coherence_us: 1_000_000,
        checkpoint_every: 1_000,
        faults: Some(FaultPlan::lossy(params.seed, 0.2)),
        churn: Some(ChurnSource::Process(ChurnConfig {
            mean_gap_epochs: 4_000,
            ..ChurnConfig::default()
        })),
        ..DaemonConfig::default()
    };

    // --- 1. the hostile reference run: journaled, telemetry on -----------
    let tel = SuiteTelemetry::new();
    let obs_cfg = DaemonConfig {
        telemetry: Some(&tel),
        ..cfg
    };
    let prefix = tmp.join(format!("copa-daemon-chaos-{pid}"));
    let report = run_daemon_journaled(&params, &suite, &obs_cfg, &prefix).expect("chaos run");
    wipe_journal(&prefix).expect("journal cleanup");
    let want = report.to_json();
    assert_eq!(report.sim_time_us, 600_000_000, "ten simulated minutes");

    // Degradation and recovery actually happened, and nothing stays
    // pinned: every bout that started also ended in a re-exchange.
    assert!(
        report.degraded_cell_epochs > 0,
        "20% frame loss over {} exchanges must degrade some",
        report.exchanges
    );
    assert!(report.recoveries > 0, "degraded sessions must recover");
    let still_degraded = report.per_cell.iter().filter(|c| c.degraded).count();
    assert_eq!(still_degraded, 0, "all sessions eventually recover");
    let registry = tel.to_json();
    let doc = parse(&registry).expect("registry JSON must re-parse");
    assert_eq!(
        counter(&doc, "daemon.degraded_epochs"),
        report.degraded_cell_epochs,
        "delta-flushed degradation counter matches the report"
    );
    assert_eq!(
        counter(&doc, "daemon.recovery_attempts"),
        report.per_cell.iter().map(|c| c.recovery_attempts).sum(),
        "delta-flushed recovery counter matches the report"
    );
    println!(
        "chaos: {} exchanges, {} degraded cell-epochs, {} recoveries across {} attempts",
        report.exchanges,
        report.degraded_cell_epochs,
        report.recoveries,
        report
            .per_cell
            .iter()
            .map(|c| c.recovery_attempts)
            .sum::<u64>(),
    );
    println!("{registry}");
    println!("{want}");
    println!("ok: chaos degradations observed and recovered");

    // Each exchange evaluates once and carries that decision, so every
    // engine run is a daemon evaluation, observed exactly once.
    assert_eq!(
        counter(&doc, "engine.evaluations"),
        counter(&doc, "daemon.evals"),
        "engine runs and daemon evaluations must agree"
    );
    assert_eq!(counter(&doc, "daemon.evals"), report.evals);
    println!("ok: every daemon evaluation observed once");

    // --- 2. membership churn exercised ------------------------------------
    assert!(report.churn_events > 0, "the membership process must fire");
    assert_eq!(
        counter(&doc, "daemon.churn_events"),
        report.churn_events,
        "delta-flushed churn counter matches the report"
    );
    assert!(
        report.live_cells >= 1 && report.live_cells <= suite.len() as u64,
        "population stays within [min_live, cells]"
    );
    println!(
        "churn: {} events, {} of {} cells live at the end",
        report.churn_events,
        report.live_cells,
        suite.len()
    );
    println!("ok: chaos churn events exercised");

    // --- 3. kill-and-resume under fire ------------------------------------
    let prefix_kr = tmp.join(format!("copa-daemon-chaos-kr-{pid}"));
    let killed_cfg = DaemonConfig {
        stop_after: Some(41_750),
        ..cfg
    };
    let killed =
        run_daemon_journaled(&params, &suite, &killed_cfg, &prefix_kr).expect("killed run");
    assert_eq!(killed.epochs, 41_750, "killed mid-round");
    assert!(
        killed.degraded_cell_epochs > 0,
        "the kill lands after degradations have happened"
    );
    let resumed = run_daemon_resumed(&params, &suite, &cfg, &prefix_kr).expect("resumed run");
    wipe_journal(&prefix_kr).expect("journal cleanup");
    assert_eq!(
        resumed.to_json(),
        want,
        "a resumed chaos daemon must replay to the uninterrupted report"
    );
    println!("ok: chaos kill-and-resume byte-identical");

    // --- 4. zero warmed-epoch allocations under a fault plan --------------
    // Same warm-vs-long methodology as the quiet soak, with the chaos
    // machinery live: a scripted membership script and every exchange
    // through the faulted wire protocol. Staleness past the horizon and
    // churn scripted inside the warm window pin every exchange (the one
    // allocating epoch kind) into the prefix both runs share, so the
    // 2000 extra epochs — engine re-evaluations, noise refolds, block
    // drift and all — must allocate nothing.
    let script = [
        ChurnEvent {
            epoch: 300,
            cell: 2,
            kind: ChurnKind::Leave,
        },
        ChurnEvent {
            epoch: 700,
            cell: 2,
            kind: ChurnKind::Join,
        },
    ];
    let warm_cfg = DaemonConfig {
        epochs: 2_000,
        staleness_us: u64::MAX / 2,
        force_active: true,
        checkpoint_every: 100_000,
        faults: Some(FaultPlan::lossy(params.seed, 0.2)),
        churn: Some(ChurnSource::Scripted(&script)),
        ..DaemonConfig::default()
    };
    let long_cfg = DaemonConfig {
        epochs: 4_000,
        ..warm_cfg
    };
    let _ = run_daemon(&params, &suite, &warm_cfg); // pay process-global lazy init
    let base = count_allocs(|| {
        let _ = run_daemon(&params, &suite, &warm_cfg);
    });
    let long = count_allocs(|| {
        let _ = run_daemon(&params, &suite, &long_cfg);
    });
    assert!(
        long >= base,
        "a longer run cannot allocate less than its own prefix ({long} < {base})"
    );
    let warmed = long - base;
    assert_eq!(
        warmed, 0,
        "2000 extra warmed chaos epochs must allocate nothing (got {warmed})"
    );
    println!("allocs: {warmed} across 2000 warmed chaos epochs ({base} during warmup)");
    println!("ok: warmed chaos epochs allocation-free");

    println!("ok: daemon chaos soak validated end to end");
}

fn main() {
    if std::env::args().any(|a| a == "--chaos") {
        chaos_soak();
        return;
    }
    let params = ScenarioParams::default();
    let suite = TopologySampler::default().suite(0x50_A4, 6, AntennaConfig::CONSTRAINED_4X2);
    let tmp = std::env::temp_dir();
    let pid = std::process::id();

    // Ten minutes of simulated time in 10 ms epochs; a checkpoint every
    // 10 s of simulated time.
    let cfg = DaemonConfig {
        epoch_us: 10_000,
        epochs: 60_000,
        checkpoint_every: 1_000,
        ..DaemonConfig::default()
    };

    // --- 1. the reference soak: journaled, telemetry on ------------------
    let tel = SuiteTelemetry::new();
    let obs_cfg = DaemonConfig {
        telemetry: Some(&tel),
        ..cfg
    };
    let prefix = tmp.join(format!("copa-daemon-soak-{pid}"));
    let report = run_daemon_journaled(&params, &suite, &obs_cfg, &prefix).expect("soak run");
    let want = report.to_json();
    assert_eq!(report.sim_time_us, 600_000_000, "ten simulated minutes");
    let cell_epochs = report.epochs * suite.len() as u64;
    assert!(
        report.exchanges * 20 < cell_epochs,
        "exchanges ({}) must amortize far below cell-epochs ({cell_epochs})",
        report.exchanges
    );
    assert!(
        report.evals * 5 < cell_epochs,
        "evals ({}) must amortize far below cell-epochs ({cell_epochs})",
        report.evals
    );

    let registry = tel.to_json();
    let doc = parse(&registry).expect("registry JSON must re-parse");
    assert_eq!(counter(&doc, "daemon.epochs"), cell_epochs, "daemon layer");
    assert_eq!(counter(&doc, "daemon.evals"), report.evals);
    assert_eq!(counter(&doc, "daemon.exchanges"), report.exchanges);
    assert_eq!(counter(&doc, "daemon.checkpoints"), 60, "one per round");
    assert_eq!(
        counter(&doc, "journal.records_appended"),
        60,
        "journal layer sees exactly the checkpoint stream"
    );
    println!(
        "soak: {} cells x {} epochs ({} s simulated): {} exchanges, {} evals, \
         {} active cell-epochs",
        report.cells,
        report.epochs,
        report.sim_time_us / 1_000_000,
        report.exchanges,
        report.evals,
        report.active_cell_epochs
    );
    println!("{registry}");
    println!("{want}");

    // --- 2. bounded journal growth ---------------------------------------
    // 6 cells checkpoint in ~300 payload bytes + fixed framing; segments
    // add a ~25-byte header each. Budget 512 bytes per checkpoint and 64
    // per file: growth is linear in checkpoints, not in simulated time.
    let (bytes, files) = journal_disk_bytes(&prefix);
    wipe_journal(&prefix).expect("journal cleanup");
    assert!(bytes > 0, "the journal must exist on disk");
    assert!(
        bytes <= 60 * 512 + files * 64,
        "journal grew past its per-checkpoint budget: {bytes} bytes in {files} files"
    );
    println!("journal: {bytes} bytes across {files} files for 60 checkpoints");
    println!("ok: daemon soak journal growth bounded");

    // --- 3. kill-and-resume ----------------------------------------------
    // Kill at an epoch that is not a checkpoint multiple, resume from the
    // journal, and require the final report byte-for-byte.
    let prefix_kr = tmp.join(format!("copa-daemon-soak-kr-{pid}"));
    let killed_cfg = DaemonConfig {
        stop_after: Some(41_750),
        ..cfg
    };
    let killed =
        run_daemon_journaled(&params, &suite, &killed_cfg, &prefix_kr).expect("killed run");
    assert_eq!(killed.epochs, 41_750, "killed mid-round");
    let resumed = run_daemon_resumed(&params, &suite, &cfg, &prefix_kr).expect("resumed run");
    wipe_journal(&prefix_kr).expect("journal cleanup");
    assert_eq!(
        resumed.to_json(),
        want,
        "a resumed daemon must replay to the uninterrupted report"
    );
    println!("ok: daemon kill-and-resume byte-identical");

    // --- 4. zero warmed-epoch allocations --------------------------------
    // Two single-threaded runs differing only in length: the short one
    // covers every one-time allocation (sessions, scratch, workspaces,
    // block crossings, re-exchanges), so the long one's extra epochs are
    // all steady state. Their difference is the warmed-epoch cost.
    let warm_cfg = DaemonConfig {
        epochs: 2_000,
        force_active: true,
        checkpoint_every: 100_000,
        ..DaemonConfig::default()
    };
    let long_cfg = DaemonConfig {
        epochs: 4_000,
        ..warm_cfg
    };
    let _ = run_daemon(&params, &suite, &warm_cfg); // pay process-global lazy init
    let base = count_allocs(|| {
        let _ = run_daemon(&params, &suite, &warm_cfg);
    });
    let long = count_allocs(|| {
        let _ = run_daemon(&params, &suite, &long_cfg);
    });
    assert!(
        long >= base,
        "a longer run cannot allocate less than its own prefix ({long} < {base})"
    );
    let warmed = long - base;
    assert_eq!(
        warmed, 0,
        "2000 extra warmed epochs must allocate nothing (got {warmed})"
    );
    println!("allocs: {warmed} across 2000 warmed epochs ({base} during warmup)");
    println!("ok: warmed daemon epochs allocation-free");

    println!("ok: daemon soak validated end to end");
}

//! Extension benches: experiments beyond the paper's own figures --
//! PAPR of subcarrier dropping (the section 4.1 aside), OFDMA-style
//! subcarrier reuse (section 4.2), CSI refresh policy on a drifting
//! channel (the daemon's staleness loop), and cells of three APs
//! (section 3.1 future work).

use copa_bench::harness::{black_box, Criterion};
use copa_bench::threads;
use copa_channel::{AntennaConfig, TopologySampler};
use copa_core::{EngineWorkspace, ScenarioParams};
use copa_phy::modulation::Modulation;
use copa_phy::papr::measure_papr;
use copa_sim::reuse::reuse_summary;
use copa_sim::{plan_campus, rotate_leaders, run_daemon, CampusParams, DaemonConfig};

fn print_reproduction() {
    println!("== Extension: PAPR vs dropped subcarriers (section 4.1 aside) ==");
    println!(
        "{:>8} {:>11} {:>10} {:>10}",
        "dropped", "scrambled", "mean dB", "p99 dB"
    );
    for dropped in [0usize, 4, 8, 16] {
        let s = measure_papr(Modulation::Qam64, dropped, true, 400, 0xAA);
        println!(
            "{:>8} {:>11} {:>10.1} {:>10.1}",
            s.dropped, "yes", s.mean_db, s.p99_db
        );
    }
    let unscrambled = measure_papr(Modulation::Qpsk, 8, false, 400, 0xAB);
    println!(
        "{:>8} {:>11} {:>10.1} {:>10.1}   <- why 802.11 scrambles",
        unscrambled.dropped, "no", unscrambled.mean_db, unscrambled.p99_db
    );
    println!("(paper: dropping a few subcarriers does not cause PAPR problems)\n");

    println!("== Extension: subcarrier reuse in 1x1 concurrent solutions (4.2) ==");
    let params = ScenarioParams::default();
    for (label, delta) in [("testbed interference", 0.0), ("interference -15 dB", 15.0)] {
        let suite: Vec<_> = TopologySampler::default()
            .suite(0x0F5E, 12, AntennaConfig::SINGLE)
            .iter()
            .map(|t| t.with_weaker_interference(delta))
            .collect();
        let s = reuse_summary(&suite, &params);
        println!(
            "  {label}: exclusive {:.0}%, shared {:.0}%, unused {:.0}% \
             (sharing in {} of 12 topologies)",
            s.mean_exclusive * 100.0,
            s.mean_shared * 100.0,
            s.mean_unused * 100.0,
            s.topologies_with_sharing
        );
    }
    println!("(paper: \"COPA has selected a form of OFDMA\"; true same-subcarrier\n concurrency appears in a few topologies)\n");

    println!("== Extension: CSI refresh policy on a drifting channel (daemon) ==");
    let suite = TopologySampler::default().suite(0xE9, 8, AntennaConfig::CONSTRAINED_4X2);
    for (label, staleness_us) in [
        ("refresh every coherence time", 30_000),
        ("refresh 10x too rarely", 300_000),
    ] {
        let cfg = DaemonConfig {
            epoch_us: 4_400,
            epochs: 600,
            coherence_us: 30_000,
            staleness_us,
            force_active: true,
            threads: threads(),
            ..DaemonConfig::default()
        };
        let r = run_daemon(&params, &suite, &cfg).expect("daemon run");
        // Mbps x microseconds = bits, so bits over active microseconds is Mbps.
        let bits: f64 = r.per_cell.iter().map(|c| c.phy_bits).sum();
        let active_us: u64 = r.per_cell.iter().map(|c| c.active_epochs).sum::<u64>() * cfg.epoch_us;
        println!(
            "  {label}: COPA fair {:.1} Mbps per cell, {} exchanges, {} evaluations",
            bits / active_us as f64,
            r.exchanges,
            r.evals
        );
    }
    println!();

    println!("== Extension: three-AP cell (pairwise ITS, section 3.1 future work) ==");
    let cp = CampusParams {
        edge_threshold_db: f64::NEG_INFINITY,
        max_cluster_size: 3,
        ..CampusParams::dense(3, 0x3A9, AntennaConfig::CONSTRAINED_4X2)
    };
    let plan = plan_campus(&cp);
    let mut ws = EngineWorkspace::new();
    let r = rotate_leaders(&params, 0, &plan.units[0], &plan.campus, &mut ws, None)
        .expect("three-cell cluster evaluates");
    let sum: f64 = r.member_mbps.iter().sum();
    let sum_sq: f64 = r.member_mbps.iter().map(|x| x * x).sum();
    println!(
        "  COPA cell {:.1} Mbps vs CSMA 1/3-share {:.1} Mbps ({:+.0}%), Jain {:.3}",
        r.copa_mbps,
        r.csma_mbps,
        (r.copa_mbps / r.csma_mbps - 1.0) * 100.0,
        sum * sum / (r.member_mbps.len() as f64 * sum_sq)
    );
    println!();
}

fn main() {
    print_reproduction();
    let mut c = Criterion::default().configure_from_args().sample_size(10);
    c.bench_function("papr_400_symbols", |b| {
        b.iter(|| black_box(measure_papr(Modulation::Qam64, 8, true, 400, 1)))
    });
    c.final_summary();
}

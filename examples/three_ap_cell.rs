//! Three interfering networks: pairwise ITS coordination in a larger cell.
//!
//! ```sh
//! cargo run --release --example three_ap_cell
//! ```
//!
//! The paper evaluates two senders and leaves cells of more senders to
//! future work, noting the ITS airtime field already makes third parties
//! defer. This example runs that extension: a three-AP campus clustered
//! into one coordination cluster, leaders rotating per round (as DCF does
//! in the long run), each leader pairing with whichever neighbor yields
//! the best incentive-compatible coordinated transmission -- or going
//! solo when nobody is worth pairing with.

use copa::channel::AntennaConfig;
use copa::core::{CopaError, EngineWorkspace, ScenarioParams};
use copa::sim::{plan_campus, rotate_leaders, CampusParams};

fn main() -> Result<(), CopaError> {
    // Every pair interferes above the (disabled) edge threshold, so the
    // three cells form one cluster.
    let cp = CampusParams {
        edge_threshold_db: f64::NEG_INFINITY,
        max_cluster_size: 3,
        ..CampusParams::dense(3, 0x3A9, AntennaConfig::CONSTRAINED_4X2)
    };
    let plan = plan_campus(&cp);
    assert_eq!(plan.clusters, vec![vec![0, 1, 2]], "one three-cell cluster");
    println!("Three 4-antenna APs, each serving a 2-antenna client, in one cluster.");

    let mut ws = EngineWorkspace::new();
    let r = rotate_leaders(
        &ScenarioParams::default(),
        0,
        &plan.units[0],
        &plan.campus,
        &mut ws,
        None,
    )?;

    println!("\nPer-round decisions (leader rotates):");
    for (leader, (follower, strategy)) in r.picks.iter().enumerate() {
        match follower {
            Some(f) => println!(
                "  round {leader}: AP{} pairs with AP{} using {strategy}",
                leader + 1,
                f + 1
            ),
            None => println!("  round {leader}: AP{} transmits solo", leader + 1),
        }
    }

    println!("\nLong-run throughput (Mbps):");
    for (i, (copa, csma)) in r.member_mbps.iter().zip(&r.csma_share_mbps).enumerate() {
        println!(
            "  client {}: COPA cell {copa:>6.1}   CSMA 1/3-share {csma:>6.1}",
            i + 1
        );
    }
    let sum: f64 = r.member_mbps.iter().sum();
    let sum_sq: f64 = r.member_mbps.iter().map(|x| x * x).sum();
    let jain = sum * sum / (r.member_mbps.len() as f64 * sum_sq);
    println!(
        "  aggregate: COPA cell {:.1} vs CSMA {:.1} ({:+.0}%), Jain fairness {jain:.3}",
        r.copa_mbps,
        r.csma_mbps,
        (r.copa_mbps / r.csma_mbps - 1.0) * 100.0,
    );
    println!(
        "\nNote: pairwise incentive compatibility does not guarantee cell-wide\n\
         fairness -- a client whose AP is rarely chosen as follower can fall\n\
         below its CSMA share. This is exactly the multi-sender fairness\n\
         question the paper defers to future work (section 3.1)."
    );
    Ok(())
}

//! The ITS coordination protocol on the wire.
//!
//! ```sh
//! cargo run --release --example its_protocol
//! ```
//!
//! Runs a real ITS INIT / REQ / ACK exchange between two APs: every frame is
//! encoded to bytes (CRC and all), the REQ carries genuinely compressed CSI,
//! and the ACK announces the Leader's decision, one evaluation of the
//! estimates the REQ carries. Also demonstrates the garbled-frame
//! (collision) path.

use copa::channel::{AntennaConfig, TopologySampler};
use copa::core::coordinator::Coordinator;
use copa::core::{Engine, ScenarioParams};
use copa::mac::csi_codec::{compress_csi, raw_csi_bytes};
use copa::mac::frames::{Addr, FrameError, ItsFrame};

fn main() {
    let topology = TopologySampler::default()
        .suite(7, 1, AntennaConfig::CONSTRAINED_4X2)
        .remove(0);

    // CSI compression at a glance.
    let raw = raw_csi_bytes(2, 4);
    let compressed = compress_csi(&topology.links[0][0]).len();
    println!(
        "CSI compression: {raw} B raw -> {compressed} B ({:.1}x; paper reports ~2x)",
        raw as f64 / compressed as f64
    );

    // A full exchange, AP1 leading.
    let coordinator = Coordinator::new(Engine::new(ScenarioParams::default()));
    let trace = coordinator
        .run_exchange(&topology, 0)
        .expect("clean channel");

    println!("\nITS exchange (AP1 leads):");
    for f in &trace.frames {
        println!(
            "  {:<9} {:>5} bytes  {:>6.1} us on air",
            f.name, f.wire_bytes, f.airtime_us
        );
    }
    println!(
        "  total control airtime {:.1} us (vs the 4000 us data TXOP it buys)",
        trace.control_airtime_us
    );
    println!(
        "\nLeader decision: {} -> {:.1} Mbps aggregate ({:.1} / {:.1} per client)",
        trace.decision,
        trace.evaluation.copa_fair.aggregate_mbps(),
        trace.evaluation.copa_fair.per_client_bps[0] / 1e6,
        trace.evaluation.copa_fair.per_client_bps[1] / 1e6,
    );

    // Collision handling: a garbled frame fails CRC and is rejected, which
    // over the air triggers the standard backoff-and-retry.
    let init = ItsFrame::Init {
        leader: Addr::from_id(1),
        client: Addr::from_id(11),
        airtime_us: 4210,
    };
    let mut wire = init.encode().to_vec();
    wire[3] ^= 0x10; // one flipped bit, as a collision would cause
    match ItsFrame::decode(&wire) {
        Err(FrameError::BadCrc) => {
            println!("\nGarbled INIT rejected by CRC -> sender backs off and retries (per 3.1)")
        }
        other => println!("\nunexpected: {other:?}"),
    }
}

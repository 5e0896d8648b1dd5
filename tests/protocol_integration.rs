//! Integration tests of the coordination protocol path: ITS frames, CSI
//! compression, the coordinator, CSI aging, and failure injection.

use copa::channel::{AntennaConfig, MultipathProfile, TopologySampler};
use copa::core::coordinator::Coordinator;
use copa::core::{prepare, CsiAgeState, DecoderMode, Engine, EvalRequest, ScenarioParams};
use copa::mac::csi_codec::{compress_csi, decompress_csi, raw_csi_bytes};
use copa::mac::frames::{Addr, FrameError, ItsFrame};
use copa::num::SimRng;

#[test]
fn exchange_works_for_all_antenna_configs() {
    for (cfg, seed) in [
        (AntennaConfig::SINGLE, 1u64),
        (AntennaConfig::CONSTRAINED_4X2, 2),
        (AntennaConfig::OVERCONSTRAINED_3X2, 3),
    ] {
        let topo = TopologySampler::default().suite(seed, 1, cfg).remove(0);
        let coord = Coordinator::new(Engine::new(ScenarioParams::default()));
        for leader in 0..2 {
            let trace = coord.run_exchange(&topo, leader).expect("clean exchange");
            assert_eq!(trace.frames.len(), 3);
            assert!(trace.control_airtime_us > 50.0 && trace.control_airtime_us < 1500.0);
        }
    }
}

#[test]
fn csi_compression_ratio_across_many_channels() {
    // The paper reports a compression ratio of 2 on average for its
    // testbed channels; check the population average over our channels.
    let mut rng = SimRng::seed_from(99);
    let mut total_raw = 0usize;
    let mut total_comp = 0usize;
    for i in 0..30 {
        let ch = copa::channel::FreqChannel::random(
            &mut rng.fork(i),
            2,
            4,
            1e-6,
            &MultipathProfile::default(),
        );
        total_raw += raw_csi_bytes(2, 4);
        total_comp += compress_csi(&ch).len();
    }
    let ratio = total_raw as f64 / total_comp as f64;
    assert!(
        ratio > 1.5 && ratio < 3.0,
        "population compression ratio {ratio:.2} should be ~2"
    );
}

#[test]
fn decisions_from_compressed_csi_stay_useful() {
    // Push every link of a scenario through the compression pipeline and
    // verify the engine still reaches a sane decision.
    let topo = TopologySampler::default()
        .suite(5, 1, AntennaConfig::CONSTRAINED_4X2)
        .remove(0);
    let params = ScenarioParams::default();
    let engine = Engine::new(params);
    let est = prepare(&topo, &params);
    let mut squeezed = est.clone();
    for a in 0..2 {
        for c in 0..2 {
            squeezed[a][c] =
                decompress_csi(&compress_csi(&est[a][c])).expect("own encoding decodes");
        }
    }
    let direct = engine
        .run(&mut EvalRequest::estimates(&topo, &est).mode(DecoderMode::Single))
        .expect("prepared estimates are valid");
    let lossy = engine
        .run(&mut EvalRequest::estimates(&topo, &squeezed).mode(DecoderMode::Single))
        .expect("quantized CSI is still well-formed");
    let ratio = lossy.copa_fair.aggregate_bps() / direct.copa_fair.aggregate_bps();
    assert!(
        ratio > 0.6,
        "quantized CSI should not destroy performance: ratio {ratio:.2}"
    );
}

#[test]
fn stale_csi_hurts_nulling() {
    // Failure injection: the channel evolves past the coherence time
    // between CSI measurement and transmission. Precoders computed on the
    // old channel null poorly on the new one.
    let topo = TopologySampler::default()
        .suite(6, 1, AntennaConfig::CONSTRAINED_4X2)
        .remove(0);
    let params = ScenarioParams::default();
    let engine = Engine::new(params);
    let est = prepare(&topo, &params);

    // Fresh decision.
    let fresh = engine
        .run(&mut EvalRequest::estimates(&topo, &est).mode(DecoderMode::Single))
        .expect("prepared estimates are valid");
    let fresh_null = fresh.vanilla_null.unwrap().aggregate_bps();

    // Let the true channels decorrelate (rho = 0.5: past coherence).
    let mut rng = SimRng::seed_from(1234);
    let profile = MultipathProfile::default();
    let mut aged = topo.clone();
    for a in 0..2 {
        for c in 0..2 {
            aged.links[a][c] = aged.links[a][c].evolve(&mut rng, 0.5, &profile);
        }
    }
    let stale = engine
        .run(&mut EvalRequest::estimates(&aged, &est).mode(DecoderMode::Single))
        .expect("aged scenario is still well-formed");
    let stale_null = stale.vanilla_null.unwrap().aggregate_bps();
    assert!(
        stale_null < fresh_null * 0.9,
        "stale CSI should materially hurt nulling: {:.1} vs {:.1} Mbps",
        stale_null / 1e6,
        fresh_null / 1e6
    );
    // ...but the engine remains safe: COPA still has its sequential
    // fallback available and never panics.
    assert!(stale.copa_fair.aggregate_bps() > 0.0);
}

#[test]
fn csi_cache_expiry_matches_coherence_budget() {
    let mut age = CsiAgeState::new();
    // Learned at t = 0, coherence 30 ms: fresh at 29 ms, stale at 31 ms.
    age.mark_exchanged(0);
    assert!(!age.needs_exchange(29_000, 30_000, false));
    assert!(age.needs_exchange(31_000, 30_000, false));
}

#[test]
fn every_corrupted_exchange_frame_is_caught() {
    let topo = TopologySampler::default()
        .suite(9, 1, AntennaConfig::CONSTRAINED_4X2)
        .remove(0);
    let params = ScenarioParams::default();
    let est = prepare(&topo, &params);
    let frames = vec![
        ItsFrame::Init {
            leader: Addr::from_id(1),
            client: Addr::from_id(11),
            airtime_us: 4210,
        },
        ItsFrame::Req {
            leader: Addr::from_id(1),
            follower: Addr::from_id(2),
            client1: Addr::from_id(11),
            client2: Addr::from_id(12),
            csi_to_client1: compress_csi(&est[1][0]),
            csi_to_client2: compress_csi(&est[1][1]),
            airtime_us: 4210,
        },
    ];
    for f in frames {
        let wire = f.encode().to_vec();
        // Flip a bit at several positions including inside the CSI payload.
        for pos in [0, wire.len() / 3, wire.len() / 2, wire.len() - 5] {
            let mut bad = wire.clone();
            bad[pos] ^= 0x08;
            assert!(
                matches!(ItsFrame::decode(&bad), Err(FrameError::BadCrc)),
                "corruption at byte {pos} went undetected"
            );
        }
    }
}

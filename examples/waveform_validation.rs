//! Waveform validation smoke: the bit-true time-domain path vs the
//! analytic FER model, end to end.
//!
//! ```sh
//! cargo run --release --example waveform_validation
//! ```
//!
//! Five properties, each behind its own `ok:` line so
//! `scripts/check.sh --waveform-smoke` can grep them individually:
//!
//! 1. **Machine-readable output.** The Monte-Carlo grid (MCS x SNR) is
//!    printed as one JSON line and re-parsed with the in-repo reader;
//!    every point must round-trip with its counters intact.
//! 2. **Thread invariance.** The same grid run with 1 and 4 workers
//!    serializes to byte-identical JSON.
//! 3. **Model agreement.** At each MCS's operating SNR the measured
//!    waveform FER (IFFT/CP framing, tapped-delay convolution, sync,
//!    equalization, Viterbi) sits within 0.25 absolute FER of the
//!    analytic union bound computed from the same channel realizations.
//! 4. **Zero warmed-frame allocations.** After a warm-up frame, every
//!    further Monte-Carlo frame through the full transmit/channel/
//!    receive pipeline allocates nothing, measured by a counting global
//!    allocator.
//! 5. **Zero warmed multi-stream allocations.** The same holds for the
//!    bit-true chain at two spatial streams: a warmed round of
//!    `transmit_into`, a 2x2 channel with noise, `zero_force_into` and
//!    `receive_soft_into` decodes its payload and allocates nothing.

use copa::num::matrix::CMat;
use copa::num::SimRng;
use copa::obs::json::parse;
use copa::phy::baseband::{zero_force_into, Chain, ChainScratch, FlatSymbols, ZfScratch};
use copa::phy::mcs::Mcs;
use copa::phy::ofdm::DATA_SUBCARRIERS;
use copa::phy::waveform::WaveformImpairments;
use copa::sim::json::ToJson;
use copa::sim::{run_waveform_grid, WaveformGridConfig, WaveformSim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global allocator wrapper counting every heap allocation, so the
/// zero-allocation warmed-frame claim is a measured number.
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

fn grid_json(points: &[copa::sim::WaveformPoint]) -> String {
    let mut s = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&p.to_json());
    }
    s.push(']');
    s
}

fn main() {
    // Per-MCS operating points: each class two SNRs around the knee of
    // its FER curve, the same seeded grid the golden regression locks.
    let cfg = WaveformGridConfig {
        mcs_indices: vec![0, 3, 7],
        snr_db: vec![4.0, 8.0, 12.0, 16.0, 24.0, 28.0],
        frames: 40,
        symbols_per_frame: 4,
        ..Default::default()
    };

    // --- 1. machine-readable grid -----------------------------------------
    let grid = run_waveform_grid(&cfg, 4);
    let json = grid_json(&grid);
    println!("{json}");
    let doc = parse(&json).expect("grid JSON must re-parse");
    let arr = doc.as_arr().expect("grid JSON is an array");
    assert_eq!(arr.len(), cfg.mcs_indices.len() * cfg.snr_db.len());
    for (v, p) in arr.iter().zip(&grid) {
        assert_eq!(v.get("frames").and_then(|x| x.as_u64()), Some(40));
        assert_eq!(
            v.get("frame_errors").and_then(|x| x.as_u64()),
            Some(p.frame_errors as u64),
            "re-parsed counters must match the in-memory point"
        );
        assert_eq!(
            v.get("mcs_index").and_then(|x| x.as_u64()),
            Some(p.mcs_index as u64)
        );
        let fer = v.get("measured_fer").and_then(|x| x.as_f64());
        assert_eq!(fer, Some(p.measured_fer));
    }
    println!("ok: waveform grid JSON re-parses");

    // --- 2. thread invariance ---------------------------------------------
    let serial = grid_json(&run_waveform_grid(&cfg, 1));
    assert_eq!(
        serial, json,
        "1-thread and 4-thread grids must serialize identically"
    );
    println!("ok: waveform grid byte-identical across thread counts");

    // --- 3. model agreement at the per-MCS operating points ----------------
    // Only each MCS's own SNR neighborhood is in-band (MCS7 at 4 dB is
    // simply FER 1 on both sides and proves nothing).
    let operating = [(0usize, 4.0, 8.0), (3, 12.0, 16.0), (7, 24.0, 28.0)];
    let mut checked = 0;
    let mut worst: f64 = 0.0;
    for p in &grid {
        let in_band = operating
            .iter()
            .any(|&(m, lo, hi)| p.mcs_index == m && (p.snr_db == lo || p.snr_db == hi));
        if !in_band {
            continue;
        }
        let gap = (p.measured_fer - p.analytic_fer).abs();
        worst = worst.max(gap);
        assert!(
            gap <= 0.25,
            "{} @ {} dB: measured FER {:.3} strayed {gap:.3} from analytic {:.3}",
            p.mcs,
            p.snr_db,
            p.measured_fer,
            p.analytic_fer
        );
        checked += 1;
    }
    assert_eq!(checked, 6, "every operating point must be band-checked");
    println!("band: worst measured-vs-analytic FER gap {worst:.3} over {checked} operating points");
    println!("ok: waveform FER tracks the analytic union bound");

    // --- 4. zero warmed-frame allocations ----------------------------------
    // One frame warms every pooled buffer (waveform, channel, Viterbi
    // trellis, equalizer output); each further frame through the complete
    // pipeline -- including sync and CFO correction -- must allocate nothing.
    let mut sim = WaveformSim::new(
        Mcs::TABLE[3],
        16.0,
        4,
        Default::default(),
        WaveformImpairments::clean(),
        0x3A5E_57A7,
    );
    let _ = sim.run_frame();
    let frames = 16;
    let allocs = count_allocs(|| {
        for _ in 0..frames {
            let _ = sim.run_frame();
        }
    });
    assert_eq!(
        allocs, 0,
        "{frames} warmed waveform frames must allocate nothing (got {allocs})"
    );
    println!("allocs: {allocs} across {frames} warmed waveform frames");
    println!("ok: warmed waveform frames allocation-free");

    // --- 5. zero warmed multi-stream allocations ---------------------------
    let chain = Chain::new(Mcs::TABLE[3], 2);
    let mut rng = SimRng::seed_from(0x2_57E4);
    let payload: Vec<u8> = (0..chain.payload_capacity(4))
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();
    let effective: Vec<CMat> = (0..DATA_SUBCARRIERS)
        .map(|_| CMat::from_fn(2, 2, |_, _| rng.randc()))
        .collect();
    let noise_var: f64 = 1e-4;
    let (mut scratch, mut zf) = (ChainScratch::new(), ZfScratch::new());
    let (mut tx, mut observations) = (FlatSymbols::new(), Vec::new());
    let (mut symbols, mut post_noise, mut decoded) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = || {
        chain.transmit_into(&payload, &mut scratch, &mut tx);
        // Antenna r of symbol t, subcarrier s hears sum_k Q_s[r][k] x_k + n.
        observations.clear();
        for t in 0..tx.n_symbols() {
            for (s, q) in effective.iter().enumerate() {
                for r in 0..2 {
                    let mut y = rng.randc().scale(noise_var.sqrt());
                    for k in 0..2 {
                        y += q[(r, k)] * tx.as_slice()[(t * 2 + k) * DATA_SUBCARRIERS + s];
                    }
                    observations.push(y);
                }
            }
        }
        zero_force_into(
            &observations,
            &effective,
            noise_var,
            &mut zf,
            &mut symbols,
            &mut post_noise,
        );
        chain.receive_soft_into(
            &symbols,
            &post_noise,
            payload.len(),
            &mut scratch,
            &mut decoded,
        );
        assert_eq!(decoded, payload, "the 2-stream round must decode cleanly");
    };
    round();
    let rounds = 8;
    let allocs = count_allocs(|| {
        for _ in 0..rounds {
            round();
        }
    });
    assert_eq!(
        allocs, 0,
        "{rounds} warmed 2-stream chain rounds must allocate nothing (got {allocs})"
    );
    println!("allocs: {allocs} across {rounds} warmed 2-stream chain rounds");
    println!("ok: warmed 2-stream chain rounds allocation-free");

    println!("ok: waveform validation smoke passed");
}

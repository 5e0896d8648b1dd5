//! `waveform_fer`: `run_waveform_grid` on the golden per-MCS operating
//! points, as `examples/waveform_validation` runs it. The only workload
//! that reaches `copa_phy::waveform`, `copa_num::fft`, Viterbi and
//! `TimeChannel`; it runs no engine.

use crate::ledger::{quantile, Ledger};
use crate::{
    derive, overhead_layers, pool_layers, pool_map, quantile_layers, runner_seed, time_setup,
    timed_passes, wall, Args, EndToEnd, Layers, OutDir, Traced,
};
use copa::num::fft::fft_into;
use copa::num::{SimRng, C64};
use copa::phy::mcs::Mcs;
use copa::sim::validation::WaveformSim;
use copa::sim::{run_waveform_grid, WaveformGridConfig, WaveformPoint};

/// The golden operating points: (MCS index, low SNR dB, high SNR dB).
const POINTS: [(usize, f64, f64); 3] = [(0, 4.0, 8.0), (3, 12.0, 16.0), (7, 24.0, 28.0)];
const FRAMES: usize = 1_000;
const SYMBOLS_PER_FRAME: usize = 4;
/// Batches of `FFT_PER_BATCH` 64-point transforms in the FFT probe.
const FFT_BATCHES: usize = 256;
const FFT_PER_BATCH: usize = 64;

fn inputs(seed: u64) -> Vec<WaveformGridConfig> {
    let cfgs: Vec<WaveformGridConfig> = POINTS
        .iter()
        .map(|&(m, lo, hi)| WaveformGridConfig {
            mcs_indices: vec![m],
            snr_db: vec![lo, hi],
            frames: FRAMES,
            symbols_per_frame: SYMBOLS_PER_FRAME,
            seed: derive(seed, 40 + m as u64),
            ..Default::default()
        })
        .collect();
    // Warm-up: build every point's simulator and run its first frame, so
    // per-point set-up and lazily built tables are paid before timing.
    for cfg in &cfgs {
        for local in 0..cfg.snr_db.len() {
            std::hint::black_box(simulator(cfg, local).run_frame());
        }
    }
    cfgs
}

/// Grid point `local` of `cfg`, seeded the way `run_waveform_grid` seeds
/// it.
fn simulator(cfg: &WaveformGridConfig, local: usize) -> WaveformSim {
    WaveformSim::new(
        Mcs::TABLE[cfg.mcs_indices[0]],
        cfg.snr_db[local],
        cfg.symbols_per_frame,
        cfg.profile,
        cfg.impairments,
        runner_seed(cfg.seed, local),
    )
}

/// The per-point facts both runs must agree on.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Point {
    mcs_index: usize,
    snr_db: f64,
    frames: usize,
    frame_errors: usize,
    bit_errors: usize,
    analytic_fer: f64,
}

impl From<&WaveformPoint> for Point {
    fn from(p: &WaveformPoint) -> Self {
        Self {
            mcs_index: p.mcs_index,
            snr_db: p.snr_db,
            frames: p.frames,
            frame_errors: p.frame_errors,
            bit_errors: p.bit_errors,
            analytic_fer: p.analytic_fer,
        }
    }
}

/// The golden band: measured FER within 0.25 of the analytic union bound,
/// and within [0.3x, 1.7x] of it wherever it exceeds 0.05.
fn check(points: &[Point]) -> Result<(), String> {
    if points.len() != 2 * POINTS.len() {
        return Err(format!(
            "{} grid points, expected {}",
            points.len(),
            2 * POINTS.len()
        ));
    }
    for p in points {
        let measured = p.frame_errors as f64 / p.frames as f64;
        let analytic = p.analytic_fer;
        let ratio = measured / analytic;
        if p.frames != FRAMES
            || (measured - analytic).abs() > 0.25
            || (analytic > 0.05 && !(0.3..=1.7).contains(&ratio))
        {
            return Err(format!(
                "MCS{} @ {} dB: measured FER {measured:.3} outside the band around analytic \
                 {analytic:.3} ({} frames)",
                p.mcs_index, p.snr_db, p.frames
            ));
        }
    }
    Ok(())
}

fn pass(cfgs: &[WaveformGridConfig]) -> Result<Vec<Point>, String> {
    let points: Vec<Point> = cfgs
        .iter()
        .flat_map(|c| run_waveform_grid(c, crate::threads()))
        .map(|p| Point::from(&p))
        .collect();
    check(&points)?;
    Ok(points)
}

/// Mean over grid points of the MCS's PHY rate times the measured frame
/// delivery ratio, Mbps.
fn goodput_mbps(points: &[Point]) -> f64 {
    let sum: f64 = points
        .iter()
        .map(|p| {
            let delivered = 1.0 - p.frame_errors as f64 / p.frames as f64;
            Mcs::TABLE[p.mcs_index].phy_rate_bps() * delivered / 1e6
        })
        .sum();
    sum / points.len() as f64
}

fn frames_per_pass() -> u64 {
    (2 * POINTS.len() * FRAMES) as u64
}

pub fn end_to_end(args: &Args) -> Result<EndToEnd, String> {
    let (cfgs, setup_s) = time_setup(|| inputs(args.seed));
    let timed = timed_passes(args.seconds, || pass(&cfgs))?;
    let first = &timed.outputs[0];
    if timed.outputs.iter().any(|p| p != first) {
        return Err("passes over the same grid disagree".into());
    }
    let passes = timed.outputs.len() as u64;
    let rate = timed.rate(frames_per_pass());
    Ok(EndToEnd {
        setup_s,
        items_per_s: rate,
        attempted: first.len() as u64 * passes,
        failed: 0,
        goodput_mbps: goodput_mbps(first),
        notes: vec![format!(
            "waveform_fer: frames_per_s {rate:.1} frames/s, failed_share 0/{} grid points",
            first.len() as u64 * passes
        )],
    })
}

/// One grid point through `WaveformSim::run_frame` with a span per frame.
fn traced_point(
    cfg: &WaveformGridConfig,
    local: usize,
    key: u64,
    tid: u32,
    ledger: &Ledger,
) -> Point {
    let mut sim = simulator(cfg, local);
    let (mut frame_errors, mut bit_errors, mut analytic) = (0, 0, 0.0);
    for _ in 0..cfg.frames {
        let o = ledger.time("waveform.run_frame", key, tid, || sim.run_frame());
        frame_errors += usize::from(o.frame_error);
        bit_errors += o.bit_errors;
        analytic += o.analytic_fer;
    }
    Point {
        mcs_index: cfg.mcs_indices[0],
        snr_db: cfg.snr_db[local],
        frames: cfg.frames,
        frame_errors,
        bit_errors,
        analytic_fer: analytic / cfg.frames as f64,
    }
}

pub fn traced(args: &Args, out: &OutDir) -> Result<Traced, String> {
    let (cfgs, _) = time_setup(|| inputs(args.seed));
    // The first untraced pass pays first-use costs and is the reference
    // output; the overhead compares the traced pass with a later one.
    let untraced = pass(&cfgs)?;

    let ledger = Ledger::new();
    let (traced, traced_s) = wall(|| {
        pool_map(
            2 * POINTS.len(),
            || (),
            |_, idx, tid| traced_point(&cfgs[idx / 2], idx % 2, idx as u64, tid, &ledger),
        )
    });
    if traced != untraced {
        return Err(format!(
            "traced grid differs from the untraced one: {traced:?} vs {untraced:?}"
        ));
    }
    let (again, untraced_s) = wall(|| pass(&cfgs));
    if again? != untraced {
        return Err("untraced passes over the same grid disagree".into());
    }

    // Probe: 64-point FFTs on unit-power noise, the OFDM symbol shape.
    let mut rng = SimRng::seed_from(derive(args.seed, 49));
    let x: Vec<C64> = (0..64).map(|_| rng.randc()).collect();
    let mut y = Vec::new();
    let batches = ledger.probe("probe.fft_batch", FFT_BATCHES, |_| {
        for _ in 0..FFT_PER_BATCH {
            fft_into(std::hint::black_box(&x), &mut y);
        }
    });

    let busy_ms = ledger.total_ms("waveform.run_frame");
    let mut layers = Layers::new();
    layers.insert("num.fft_ns", quantile(&batches, 0.5) / FFT_PER_BATCH as f64);
    layers.insert("num.fft_samples", batches.len() as f64);
    pool_layers(&mut layers, busy_ms, traced_s);
    quantile_layers(
        &mut layers,
        "waveform.frames",
        &[
            ("waveform.frame_us_p50", 0.5),
            ("waveform.frame_us_p99", 0.99),
        ],
        &ledger.durations_ns("waveform.run_frame"),
    );
    layers.insert(
        "waveform.frame_errors",
        traced.iter().map(|p| p.frame_errors).sum::<usize>() as f64,
    );
    overhead_layers(&mut layers, untraced_s, traced_s);

    let mut notes = crate::write_traces(out, args, &ledger, None)?;
    notes.insert(
        0,
        format!(
            "shares: run_frame spans {:.3} of pool capacity; median frame {:.1} us, \
             64-point FFT {:.0} ns",
            layers["pool.busy_share"], layers["waveform.frame_us_p50"], layers["num.fft_ns"]
        ),
    );
    Ok(Traced {
        attempted: traced.len() as u64,
        failed: 0,
        layers,
        notes,
    })
}

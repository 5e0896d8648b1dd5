//! Seeded end-to-end and per-layer benchmark of the COPA workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures_copa_plus --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Four closed batch loops, each mirroring an entry point users already
//! run: `figures_copa_plus` (the `reproduce` Fig 10-13 path with COPA+),
//! `campus_500` (`examples/dense_campus`), `daemon_chaos`
//! (`examples/daemon_soak --chaos`) and `waveform_fer`
//! (`examples/waveform_validation`). Every input derives from `--seed`;
//! each pass's output is checked before any number is reported.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! work untraced, traced (telemetry registry, spans from this benchmark's
//! own code) and untraced again, checks the outputs agree, runs direct
//! layer probes, and prints the per-layer metrics. The last stdout line is always one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod campus;
mod daemon;
mod figures;
mod ledger;
mod waveform;

use copa::obs::TraceBuffer;
use copa::sim::SuiteTelemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Seed the benchmark uses when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 4] = [
    "figures_copa_plus",
    "campus_500",
    "daemon_chaos",
    "waveform_fer",
];

/// Times each workload's input generation is repeated; `setup_s` is the
/// median.
const SETUP_REPS: usize = 9;

/// Every per-layer metric a traced run prints, with its unit. A workload
/// that does not reach a layer reports 0 for it (and 0 samples for its
/// percentiles).
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.new_calls", "count"),
    ("engine.new_ms", "ms"),
    ("engine.new_us_mercury", "us"),
    ("engine.new_us_plain", "us"),
    ("engine.evals", "count"),
    ("engine.eval_samples", "count"),
    ("engine.eval_us_p50", "us"),
    ("engine.eval_us_p90", "us"),
    ("engine.csi_prep_ms", "ms"),
    ("engine.precoding_ms", "ms"),
    ("engine.allocation_ms", "ms"),
    ("engine.sinr_ms", "ms"),
    ("num.svd_batch_us", "us"),
    ("num.svd_batch_samples", "count"),
    ("num.fft_ns", "ns"),
    ("num.fft_samples", "count"),
    ("pool.busy_share", "ratio"),
    ("pool.wait_ms", "ms"),
    ("suite.requeues", "count"),
    ("suite.deadline_misses", "count"),
    ("daemon.thread_scaling", "ratio"),
    ("campus.plan_ms", "ms"),
    ("campus.clusters", "count"),
    ("campus.pairs", "count"),
    ("campus.graph_edges", "count"),
    ("exchange.samples", "count"),
    ("exchange.us_p50", "us"),
    ("exchange.us_p90", "us"),
    ("its.frames_sent", "count"),
    ("its.frames_retried", "count"),
    ("its.frames_lost", "count"),
    ("its.exchanges_degraded", "count"),
    ("daemon.exchanges", "count"),
    ("daemon.evals", "count"),
    ("daemon.active_cell_epochs", "count"),
    ("daemon.degraded_share", "ratio"),
    ("daemon.evals_per_active_epoch", "ratio"),
    ("channel.advance_samples", "count"),
    ("channel.advance_us", "us"),
    ("journal.records_appended", "count"),
    ("journal.bytes_written", "B"),
    ("journal.segments_sealed", "count"),
    ("journal.replay_ms", "ms"),
    ("waveform.frames", "count"),
    ("waveform.frame_errors", "count"),
    ("waveform.frame_us_p50", "us"),
    ("waveform.frame_us_p99", "us"),
    ("obs.overhead_share", "ratio"),
    ("trace.wall_ms", "ms"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Derives an independent 64-bit input seed from the command-line seed
/// and a per-input salt (splitmix64 finalizer).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker threads every pool in the benchmark uses.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` [`SETUP_REPS`] times; returns the last result and the median
/// wall time of one repetition, seconds.
pub fn time_setup<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut out = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        out = Some(std::hint::black_box(f()));
        times.push(t.elapsed().as_secs_f64());
    }
    (out.expect("SETUP_REPS is positive"), ledger::median(&times))
}

/// What one workload's timed loop did.
pub struct Timed<T> {
    /// Each pass's output, in order.
    pub outputs: Vec<T>,
    /// Each pass's wall time, seconds.
    pub walls: Vec<f64>,
}

impl<T> Timed<T> {
    /// Work items per second of the median pass.
    pub fn rate(&self, items_per_pass: u64) -> f64 {
        items_per_pass as f64 / ledger::median(&self.walls)
    }
}

/// Runs `pass` back to back while the next pass is predicted to end
/// within `seconds` (always at least once): a closed loop whose next
/// batch starts only when the previous one finished.
pub fn timed_passes<T>(
    seconds: f64,
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<Timed<T>, String> {
    let start = Instant::now();
    let mut outputs = Vec::new();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        outputs.push(pass()?);
        walls.push(t.elapsed().as_secs_f64());
        let longest = walls.iter().copied().fold(0.0, f64::max);
        if start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    Ok(Timed { outputs, walls })
}

/// Wall seconds of one call.
pub fn wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Work-stealing map over `0..n` with [`threads`] workers, each owning
/// state built by `init`: the same shape as the workspace's runners.
/// Results come back in index order.
pub fn pool_map<S, T: Send>(
    n: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, u32) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let workers = threads().min(n.max(1));
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (next, init, f) = (&next, &init, &f);
                scope.spawn(move || {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, f(&mut state, i, w as u32)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, t) in h.join().expect("benchmark pool worker panicked") {
                out[i] = Some(t);
            }
        }
    });
    out.into_iter()
        .map(|t| t.expect("every index is claimed exactly once"))
        .collect()
}

/// The per-index seed the workspace's runners derive for work item `idx`
/// (`copa_sim::runner`; the daemon's cells and the waveform grid points
/// use it too), so the traced re-runs match the untraced ones bit for
/// bit.
pub fn runner_seed(base: u64, idx: usize) -> u64 {
    base.wrapping_add(idx as u64).wrapping_mul(0x9E37_79B9)
}

/// Per-layer metric values of one traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Records the engine's exported evaluation counter and phase totals.
pub fn engine_layers(layers: &mut Layers, tel: &SuiteTelemetry) {
    let reg = tel.registry();
    let m = &tel.engine;
    let ms = |id| reg.histogram_ref(id).sum() as f64 / 1e3;
    layers.insert("engine.evals", reg.counter_value(m.evaluations) as f64);
    layers.insert("engine.csi_prep_ms", ms(m.csi_prep_us));
    layers.insert("engine.precoding_ms", ms(m.precoding_us));
    layers.insert("engine.allocation_ms", ms(m.allocation_us));
    layers.insert("engine.sinr_ms", ms(m.sinr_us));
}

/// Summed engine phase time recorded by [`engine_layers`], ms.
pub fn engine_phase_ms(layers: &Layers) -> f64 {
    [
        "engine.csi_prep_ms",
        "engine.precoding_ms",
        "engine.allocation_ms",
        "engine.sinr_ms",
    ]
    .iter()
    .map(|k| layers[k])
    .sum()
}

/// Records registry counters under their exported names.
pub fn counter_layers(layers: &mut Layers, tel: &SuiteTelemetry, names: &[&'static str]) {
    for &name in names {
        let value = tel.registry().counter_by_name(name).unwrap_or(0);
        layers.insert(name, value as f64);
    }
}

/// Records a sample count and nearest-rank quantiles, in microseconds,
/// of ascending nanosecond durations.
pub fn quantile_layers(
    layers: &mut Layers,
    count: &'static str,
    quantiles: &[(&'static str, f64)],
    sorted_ns: &[u64],
) {
    layers.insert(count, sorted_ns.len() as f64);
    for &(name, q) in quantiles {
        layers.insert(name, ledger::quantile(sorted_ns, q) / 1e3);
    }
}

/// Records how busy a pool of [`threads`] workers was over `wall_s`:
/// busy share of its capacity and the worker time left idle.
pub fn pool_layers(layers: &mut Layers, busy_ms: f64, wall_s: f64) {
    let capacity_ms = wall_s * 1e3 * threads() as f64;
    layers.insert("pool.busy_share", busy_ms / capacity_ms);
    layers.insert("pool.wait_ms", capacity_ms - busy_ms);
}

/// Records the traced pass's wall time and its overhead over the
/// untraced pass of the same work.
pub fn overhead_layers(layers: &mut Layers, untraced_s: f64, traced_s: f64) {
    layers.insert("obs.overhead_share", traced_s / untraced_s - 1.0);
    layers.insert("trace.wall_ms", traced_s * 1e3);
}

/// The untraced run's outcome, common to every workload.
pub struct EndToEnd {
    /// Median input-generation time, seconds.
    pub setup_s: f64,
    /// Work items per second of the median timed pass.
    pub items_per_s: f64,
    /// Work items attempted and those that produced no result.
    pub attempted: u64,
    pub failed: u64,
    /// The workload's deterministic goodput figure, Mbps.
    pub goodput_mbps: f64,
    /// Human-readable lines naming the workload-specific figures.
    pub notes: Vec<String>,
}

/// The traced run's outcome.
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
    /// Human-readable lines: layer shares, trace files written.
    pub notes: Vec<String>,
}

/// Per-run scratch directory inside the benchmark's own folder (journals
/// and trace files); removed again before exit, except for traces.
pub struct OutDir {
    pub root: PathBuf,
    pub scratch: PathBuf,
}

impl OutDir {
    fn create(workload: &str) -> Result<Self, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let scratch = root.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        Ok(Self { root, scratch })
    }

    /// Journal prefix `name` inside the scratch directory.
    pub fn journal(&self, name: &str) -> PathBuf {
        self.scratch.join(name)
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// Writes the traced run's spans (this benchmark's ledger) and, when
/// given, the registry's own chrome trace into the output folder; returns
/// a note naming the files.
pub fn write_traces(
    out: &OutDir,
    args: &Args,
    ledger: &ledger::Ledger,
    registry: Option<&TraceBuffer>,
) -> Result<Vec<String>, String> {
    let base = format!("trace-{}-seed{}", args.workload, args.seed);
    let spans = out.root.join(format!("{base}.spans.json"));
    ledger
        .write_chrome(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let mut note = format!("spans: {}", spans.display());
    if let Some(buffer) = registry {
        let program = out.root.join(format!("{base}.registry.json"));
        std::fs::write(&program, buffer.to_chrome_json())
            .map_err(|e| format!("{}: {e}", program.display()))?;
        note.push_str(&format!(", registry trace: {}", program.display()));
    }
    Ok(vec![note])
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
    ));
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

fn run(args: &Args, out: &OutDir) -> Result<(u64, u64, String), String> {
    let mut metrics = String::from("{");
    if !args.trace {
        let e = match args.workload.as_str() {
            "figures_copa_plus" => figures::end_to_end(args)?,
            "campus_500" => campus::end_to_end(args, out)?,
            "daemon_chaos" => daemon::end_to_end(args, out)?,
            "waveform_fer" => waveform::end_to_end(args)?,
            w => unreachable!("parse_args rejected workload {w}"),
        };
        for n in &e.notes {
            println!("{n}");
        }
        for (name, value, unit) in [
            ("items_per_s", e.items_per_s, "items/s"),
            ("goodput_mbps", e.goodput_mbps, "Mbps"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("setup_s", e.setup_s, "s"),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(format!(
                    "{name} measured {value}, expected a positive number"
                ));
            }
            json_metric(&mut metrics, name, value, unit);
        }
        metrics.push('}');
        return Ok((e.attempted, e.failed, metrics));
    }
    let t = match args.workload.as_str() {
        "figures_copa_plus" => figures::traced(args, out)?,
        "campus_500" => campus::traced(args, out)?,
        "daemon_chaos" => daemon::traced(args, out)?,
        "waveform_fer" => waveform::traced(args, out)?,
        w => unreachable!("parse_args rejected workload {w}"),
    };
    for n in &t.notes {
        println!("{n}");
    }
    for name in t.layers.keys() {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            return Err(format!("layer metric {name} is not declared"));
        }
    }
    for &(name, unit) in PER_LAYER {
        let value = t.layers.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            return Err(format!("{name} measured {value}"));
        }
        json_metric(&mut metrics, name, value, unit);
    }
    metrics.push('}');
    Ok((t.attempted, t.failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match OutDir::create(&args.workload) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A panicking layer is a failed check, reported like any other.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&args, &out)))
        .unwrap_or_else(|_| Err("a layer panicked".into()));
    match result {
        Ok((attempted, failed, metrics)) => {
            println!("{}", result_line(true, attempted, failed, &metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            println!("{}", result_line(false, 1, 1, "{}"));
            drop(out);
            std::process::exit(1);
        }
    }
}

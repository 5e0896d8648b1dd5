//! The traced run's span ledger: spans recorded from the benchmark's own
//! code around its calls into each layer, kept in memory and written as a
//! chrome trace when the run ends.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call the span wraps, e.g. `"engine.run"`.
    pub name: &'static str,
    /// Work item the call served: topology, cluster, cell or grid point.
    pub key: u64,
    /// Pool worker (or 0 for serial code).
    pub tid: u32,
    /// Start, nanoseconds since the ledger was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// A thread-safe, in-memory span recorder.
pub struct Ledger {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` for work item `key`.
    pub fn time<R>(&self, name: &'static str, key: u64, tid: u32, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span ledger lock poisoned by a panicking worker")
            .push(Span {
                name,
                key,
                tid,
                start_ns,
                dur_ns,
            });
        out
    }

    /// A direct layer probe: times `reps` serial calls of `f` as spans
    /// named `name` keyed by repetition, and returns their durations in
    /// nanoseconds, ascending.
    pub fn probe<R>(
        &self,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut(usize) -> R,
    ) -> Vec<u64> {
        let mut d: Vec<u64> = (0..reps)
            .map(|i| {
                let start = Instant::now();
                std::hint::black_box(self.time(name, i as u64, 0, || f(i)));
                start.elapsed().as_nanos() as u64
            })
            .collect();
        d.sort_unstable();
        d
    }

    /// Durations of every span named `name`, sorted ascending.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("span ledger lock poisoned");
        let mut d: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Summed duration of every span named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e6
    }

    /// Writes every span as a chrome-trace document (`chrome://tracing`,
    /// Perfetto); the work-item key rides in each event's `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span ledger lock poisoned");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"item\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.tid,
                s.key
            ));
        }
        out.push_str("]}");
        std::fs::write(path, out)
    }
}

/// Nearest-rank quantile `q` of an ascending sample, 0 when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of an unsorted sample of floats, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

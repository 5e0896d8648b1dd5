//! Telemetry wiring for the engine and the ITS coordinator.
//!
//! `copa-obs` provides the primitives (counters, histograms, spans); this
//! module names the metrics the core layer records and bundles them with
//! a sink and a clock into an [`EngineObs`] context that callers attach
//! to an [`crate::EvalRequest`] (or pass to the coordinator's observed
//! entry points).
//!
//! Everything is strictly pay-for-what-you-use: recording sites receive
//! `Option<&EngineObs>` / a `&dyn Sink`, and with `None` (or the
//! [`copa_obs::NoopSink`]) they perform no clock reads, no allocation,
//! and no work at all -- results are bit-identical with telemetry on or
//! off.

use copa_obs::{CounterId, HistogramId, ObsClock, Sink, Telemetry};

/// Handles to the engine's well-known metrics on a shared registry.
///
/// Phase histograms record microseconds per phase *per strategy
/// evaluation* (so one topology contributes several samples to each).
#[derive(Clone, Copy, Debug)]
pub struct EngineMetrics {
    /// Completed `Engine::run` calls.
    pub evaluations: CounterId,
    /// CSI preparation (channel estimation from the raw topology).
    pub csi_prep_us: HistogramId,
    /// Precoder construction (beamforming / nulling across subcarriers).
    pub precoding_us: HistogramId,
    /// Power allocation (equi-SINR / mercury, incl. the concurrent game).
    pub allocation_us: HistogramId,
    /// Ground-truth MMSE SINR evaluation at the clients.
    pub sinr_us: HistogramId,
    /// Per-stream Mercury allocations (COPA+ only).
    pub mercury_streams: CounterId,
    /// Constellation bisections those allocations ran (1 to 4 each).
    pub mercury_solves: CounterId,
    /// Rounds each Figure 6 concurrent-allocation game ran.
    pub fig6_rounds: HistogramId,
    /// The round (1-based) whose prediction each Figure 6 game kept.
    pub fig6_best_round: HistogramId,
    /// Per Figure 6 game, |predicted - exact| aggregate goodput of the kept
    /// round, kbps: the allocator's prediction against the engine's exact
    /// evaluation of the same powers.
    pub fig6_pred_error_kbps: HistogramId,
    /// Figure 6 games whose predicted aggregate exceeded the exact one.
    pub fig6_overpredicted: CounterId,
}

impl EngineMetrics {
    /// Registers the engine metric names on `tel` (idempotent).
    pub fn register(tel: &mut Telemetry) -> Self {
        Self {
            evaluations: tel.counter("engine.evaluations"),
            csi_prep_us: tel.histogram("engine.csi_prep_us"),
            precoding_us: tel.histogram("engine.precoding_us"),
            allocation_us: tel.histogram("engine.allocation_us"),
            sinr_us: tel.histogram("engine.sinr_us"),
            mercury_streams: tel.counter("engine.mercury_streams"),
            mercury_solves: tel.counter("engine.mercury_solves"),
            fig6_rounds: tel.histogram("engine.fig6_rounds"),
            fig6_best_round: tel.histogram("engine.fig6_best_round"),
            fig6_pred_error_kbps: tel.histogram("engine.fig6_pred_error_kbps"),
            fig6_overpredicted: tel.counter("engine.fig6_overpredicted"),
        }
    }
}

/// Handles to the ITS exchange metrics on a shared registry.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeMetrics {
    /// ITS frames put on the air (including every retry attempt).
    pub frames_sent: CounterId,
    /// Frames that needed at least one retry slot.
    pub frames_retried: CounterId,
    /// Attempts lost to the channel (sent but never decoded).
    pub frames_lost: CounterId,
    /// Exchanges that completed with a coordinated plan.
    pub exchanges_completed: CounterId,
    /// Exchanges abandoned to the CSMA fallback.
    pub exchanges_degraded: CounterId,
    /// Total exchange airtime per outcome, microseconds.
    pub airtime_us: HistogramId,
}

impl ExchangeMetrics {
    /// Registers the exchange metric names on `tel` (idempotent).
    pub fn register(tel: &mut Telemetry) -> Self {
        Self {
            frames_sent: tel.counter("its.frames_sent"),
            frames_retried: tel.counter("its.frames_retried"),
            frames_lost: tel.counter("its.frames_lost"),
            exchanges_completed: tel.counter("its.exchanges_completed"),
            exchanges_degraded: tel.counter("its.exchanges_degraded"),
            airtime_us: tel.histogram("its.airtime_us"),
        }
    }
}

/// Borrowed observation context for one engine evaluation: a sink, the
/// clock spans are timed against, the metric handles, and a logical
/// track id (worker or topology index) for trace events.
#[derive(Clone, Copy)]
pub struct EngineObs<'a> {
    /// Where events go ([`copa_obs::Telemetry`] or [`copa_obs::NoopSink`]).
    pub sink: &'a dyn Sink,
    /// The injectable clock spans read; never the wall clock directly.
    pub clock: &'a dyn ObsClock,
    /// Handles registered via [`EngineMetrics::register`].
    pub metrics: EngineMetrics,
    /// Logical trace track (e.g. worker index).
    pub tid: u32,
}

impl<'a> EngineObs<'a> {
    /// Bundles a sink, clock, and registered metrics; track id 0.
    pub fn new(sink: &'a dyn Sink, clock: &'a dyn ObsClock, metrics: EngineMetrics) -> Self {
        Self {
            sink,
            clock,
            metrics,
            tid: 0,
        }
    }

    /// Sets the logical trace track id.
    pub fn tid(mut self, tid: u32) -> Self {
        self.tid = tid;
        self
    }
}

/// Borrowed observation context for ITS exchanges. No clock: exchange
/// airtime is *simulated* time accounted by the protocol itself, so the
/// histogram samples are deterministic regardless of threading.
#[derive(Clone, Copy)]
pub struct ExchangeObs<'a> {
    /// Where events go.
    pub sink: &'a dyn Sink,
    /// Handles registered via [`ExchangeMetrics::register`].
    pub metrics: ExchangeMetrics,
}

impl<'a> ExchangeObs<'a> {
    /// Bundles a sink with registered exchange metrics.
    pub fn new(sink: &'a dyn Sink, metrics: ExchangeMetrics) -> Self {
        Self { sink, metrics }
    }
}

/// Times `f` as an engine phase span when an observation context is
/// present and its sink is enabled; otherwise calls `f` directly with no
/// clock reads.
#[inline]
pub(crate) fn phase_span<R>(
    obs: Option<&EngineObs<'_>>,
    select: impl FnOnce(&EngineMetrics) -> HistogramId,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match obs {
        Some(o) => copa_obs::time_span(
            o.sink,
            o.clock,
            select(&o.metrics),
            name,
            "engine",
            o.tid,
            f,
        ),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_obs::FrozenClock;

    #[test]
    fn registration_is_idempotent() {
        let mut tel = Telemetry::new();
        let a = EngineMetrics::register(&mut tel);
        let b = EngineMetrics::register(&mut tel);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.sinr_us, b.sinr_us);
        let x = ExchangeMetrics::register(&mut tel);
        let y = ExchangeMetrics::register(&mut tel);
        assert_eq!(x.airtime_us, y.airtime_us);
    }

    #[test]
    fn phase_span_records_when_observed() {
        let mut tel = Telemetry::new();
        let metrics = EngineMetrics::register(&mut tel);
        let clock = FrozenClock(0);
        let obs = EngineObs::new(&tel, &clock, metrics).tid(3);
        let out = phase_span(Some(&obs), |m| m.sinr_us, "sinr", || 42);
        assert_eq!(out, 42);
        assert_eq!(tel.histogram_ref(metrics.sinr_us).count(), 1);
        let out = phase_span(None, |m: &EngineMetrics| m.sinr_us, "sinr", || 7);
        assert_eq!(out, 7);
    }
}

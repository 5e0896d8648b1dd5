//! Bit-true time-domain waveform path: framing, sync, and front-end
//! impairments.
//!
//! Everything else in this crate works at the per-subcarrier symbol level,
//! where the channel is a complex gain and sync is assumed perfect. This
//! module builds the actual 20 MHz sample stream -- IFFT + cyclic prefix per
//! OFDM symbol behind a known preamble -- and the receiver machinery a real
//! front end needs before any of the symbol-level model applies:
//!
//! * a two-repetition preamble (`2 x 80` samples) for detection;
//! * coarse timing + CFO estimation from the repeated-symbol
//!   autocorrelation at lag 80 (unambiguous to +-125 kHz);
//! * fine timing from a normalized matched filter against the known
//!   preamble, locking to the *earliest* offset within 90% of the peak so
//!   multipath pulls timing toward the first strong tap, not the strongest;
//! * least-squares channel estimation from the preamble and zero-forcing
//!   equalization, with optional CP-based residual phase tracking.
//!
//! Injectable impairments -- timing offset, residual sync error, CFO, SFO --
//! are exactly the effects the analytic FER chain in [`crate::link`] cannot
//! see; `copa-sim`'s waveform validator measures what they cost.
//!
//! All per-frame entry points are `_into` variants over caller-owned
//! scratch: a warmed Monte-Carlo loop never touches the allocator.

use crate::baseband::CP_SAMPLES;
use crate::ofdm::{BANDWIDTH_HZ, DATA_BINS, DATA_SUBCARRIERS, FFT_SIZE};
use copa_num::complex::{C64, ZERO};
use copa_num::fft::{fft_in_place, ifft_in_place};
use copa_num::SimRng;
use std::f64::consts::PI;

/// Samples per OFDM symbol including the cyclic prefix.
pub const SYMBOL_SAMPLES: usize = FFT_SIZE + CP_SAMPLES;

/// Identical preamble repetitions (the autocorrelation sync needs >= 2).
pub const PREAMBLE_REPEATS: usize = 2;

/// Total preamble length in samples.
pub const PREAMBLE_SAMPLES: usize = PREAMBLE_REPEATS * SYMBOL_SAMPLES;

/// Sample period at the 20 MHz channel bandwidth, in seconds.
pub const SAMPLE_PERIOD_S: f64 = 1.0 / BANDWIDTH_HZ;

/// Largest CFO the lag-80 autocorrelation estimator resolves unambiguously
/// (`1 / (2 * 80 * Ts)` = 125 kHz; ~52 ppm at 2.4 GHz, beyond any sane
/// oscillator pair).
pub fn max_cfo_hz() -> f64 {
    1.0 / (2.0 * SYMBOL_SAMPLES as f64 * SAMPLE_PERIOD_S)
}

/// The known sync preamble: a fixed QPSK loading of the 52 data subcarriers,
/// transmitted as [`PREAMBLE_REPEATS`] identical CP'd OFDM symbols.
#[derive(Clone, Debug)]
pub struct Preamble {
    /// Per-data-subcarrier QPSK symbols (unit energy each).
    freq: Vec<C64>,
    /// The full time-domain preamble ([`PREAMBLE_SAMPLES`] samples).
    time: Vec<C64>,
    /// Energy of `time` (cached for the normalized matched filter).
    energy: f64,
}

impl Preamble {
    /// The fixed preamble every transmitter in the simulation uses.
    pub fn standard() -> Self {
        Self::from_seed(0x11AD_C0FA)
    }

    /// A deterministic QPSK preamble drawn from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let a = std::f64::consts::FRAC_1_SQRT_2;
        let freq: Vec<C64> = (0..DATA_SUBCARRIERS)
            .map(|_| {
                let b = rng.next_u64();
                C64::new(
                    if b & 1 == 1 { a } else { -a },
                    if b & 2 == 2 { a } else { -a },
                )
            })
            .collect();
        let mut grid = vec![ZERO; FFT_SIZE];
        for (&bin, &x) in DATA_BINS.iter().zip(&freq) {
            grid[bin] = x;
        }
        ifft_in_place(&mut grid);
        let mut time = Vec::with_capacity(PREAMBLE_SAMPLES);
        for _ in 0..PREAMBLE_REPEATS {
            time.extend_from_slice(&grid[FFT_SIZE - CP_SAMPLES..]);
            time.extend_from_slice(&grid);
        }
        let energy = time.iter().map(|z| z.norm_sqr()).sum();
        Self { freq, time, energy }
    }

    /// The per-data-subcarrier loading.
    pub fn freq(&self) -> &[C64] {
        &self.freq
    }

    /// The time-domain samples.
    pub fn time(&self) -> &[C64] {
        &self.time
    }
}

/// Front-end impairment and receiver-behavior knobs for one waveform run.
#[derive(Clone, Copy, Debug)]
pub struct WaveformImpairments {
    /// True frame start: samples of leading silence before the preamble.
    pub timing_offset: usize,
    /// Sync search window in samples; must cover `timing_offset`.
    pub search: usize,
    /// Samples added to the detected start (residual sync error; positive
    /// = late, eating into the next symbol's samples).
    pub residual_timing: i64,
    /// Carrier frequency offset between the oscillators, Hz.
    pub cfo_hz: f64,
    /// Sampling-clock offset, parts per million.
    pub sfo_ppm: f64,
    /// Run the autocorrelation CFO estimator and de-rotate before demod.
    pub correct_cfo: bool,
    /// Track residual per-symbol common phase from the cyclic prefix.
    pub track_phase: bool,
    /// Skip sync entirely and use the true timing (equivalence tests).
    pub oracle_timing: bool,
}

impl WaveformImpairments {
    /// A benign receiver: unknown-but-recoverable timing, no oscillator
    /// offsets, estimators on.
    pub fn clean() -> Self {
        Self {
            timing_offset: 12,
            search: 48,
            residual_timing: 0,
            cfo_hz: 0.0,
            sfo_ppm: 0.0,
            correct_cfo: true,
            track_phase: false,
            oracle_timing: false,
        }
    }
}

/// Reusable working buffers for the waveform kernels: one scratch serves
/// modulation, channel estimation, and demodulation, allocation-free once
/// warmed.
#[derive(Clone, Debug, Default)]
pub struct WaveformScratch {
    /// 64-point FFT working grid.
    grid: Vec<C64>,
}

impl WaveformScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Result of [`synchronize`].
#[derive(Clone, Copy, Debug)]
pub struct SyncResult {
    /// Detected frame start (index of the first preamble sample).
    pub start: usize,
    /// Estimated CFO in Hz (zero when estimation is disabled).
    pub cfo_hz: f64,
    /// Peak normalized matched-filter metric (1.0 = perfect match).
    pub metric: f64,
}

// alloc-free: begin waveform_frame (kernel -- caller-owned scratch)
/// Builds the time-domain frame: preamble followed by one CP'd IFFT symbol
/// per 52-subcarrier group of `symbols` (flat, as produced by
/// `Chain::transmit_into`). Clears and fills `out`
/// (`PREAMBLE_SAMPLES + n_symbols * SYMBOL_SAMPLES` samples).
pub fn modulate_frame_into(
    preamble: &Preamble,
    symbols: &[C64],
    scratch: &mut WaveformScratch,
    out: &mut Vec<C64>,
) {
    assert_eq!(symbols.len() % DATA_SUBCARRIERS, 0, "need whole symbols");
    out.clear();
    out.extend_from_slice(&preamble.time);
    for sym in symbols.chunks(DATA_SUBCARRIERS) {
        scratch.grid.clear();
        scratch.grid.resize(FFT_SIZE, ZERO);
        for (&bin, &x) in DATA_BINS.iter().zip(sym) {
            scratch.grid[bin] = x;
        }
        ifft_in_place(&mut scratch.grid);
        out.extend_from_slice(&scratch.grid[FFT_SIZE - CP_SAMPLES..]);
        out.extend_from_slice(&scratch.grid);
    }
}

/// Rotates the stream by a carrier frequency offset of `cfo_hz`
/// (`x[n] *= e^{j 2 pi f n Ts}`), in place.
pub fn apply_cfo(samples: &mut [C64], cfo_hz: f64) {
    if cfo_hz == 0.0 {
        return;
    }
    let step = C64::cis(2.0 * PI * cfo_hz * SAMPLE_PERIOD_S);
    let mut rot = C64::real(1.0);
    for v in samples.iter_mut() {
        *v = *v * rot;
        rot *= step;
    }
}

/// Resamples the stream as a receiver whose ADC runs `sfo_ppm` ppm fast
/// would see it (linear interpolation at instants `n * (1 + ppm * 1e-6)`).
/// The output is one or two samples shorter than the input.
pub fn resample_sfo_into(samples: &[C64], sfo_ppm: f64, out: &mut Vec<C64>) {
    out.clear();
    if sfo_ppm == 0.0 {
        out.extend_from_slice(samples);
        return;
    }
    let ratio = 1.0 + sfo_ppm * 1e-6;
    let n = samples.len();
    let mut i = 0usize;
    loop {
        let t = i as f64 * ratio;
        let k = t as usize;
        if k + 1 >= n {
            break;
        }
        let frac = t - k as f64;
        out.push(samples[k].scale(1.0 - frac) + samples[k + 1].scale(frac));
        i += 1;
    }
}

/// Timing + CFO acquisition. Searches frame starts `0..=search`, estimates
/// the CFO from the lag-80 autocorrelation at the coarse peak, writes the
/// de-rotated stream into `corrected`, then fine-tunes timing with the
/// normalized matched filter (earliest offset within 90% of the peak).
///
/// At zero noise over a flat channel the returned `start` equals the true
/// offset exactly and `metric` is 1 (Cauchy-Schwarz equality).
///
/// # Panics
/// Panics if `rx` is shorter than `search + PREAMBLE_SAMPLES`.
pub fn synchronize(
    rx: &[C64],
    preamble: &Preamble,
    search: usize,
    correct_cfo: bool,
    corrected: &mut Vec<C64>,
) -> SyncResult {
    assert!(
        rx.len() >= search + PREAMBLE_SAMPLES,
        "rx shorter than the sync search window"
    );
    // Coarse: the two preamble repetitions make the lag-80 autocorrelation
    // peak at the frame start, CFO-invariant in magnitude.
    let mut best_acc = ZERO;
    let mut best_metric = -1.0;
    for d in 0..=search {
        let mut acc = ZERO;
        let mut energy = 0.0;
        for n in 0..SYMBOL_SAMPLES {
            acc += rx[d + n].conj() * rx[d + SYMBOL_SAMPLES + n];
        }
        for n in 0..PREAMBLE_SAMPLES {
            energy += rx[d + n].norm_sqr();
        }
        if energy <= 0.0 {
            continue;
        }
        let metric = acc.norm_sqr() / (energy * energy);
        if metric > best_metric {
            best_metric = metric;
            best_acc = acc;
        }
    }
    // The repetition phase advance is `2 pi f * 80 Ts`.
    let cfo_hz = if correct_cfo {
        best_acc.arg() / (2.0 * PI * SYMBOL_SAMPLES as f64 * SAMPLE_PERIOD_S)
    } else {
        0.0
    };
    corrected.clear();
    corrected.extend_from_slice(rx);
    if cfo_hz != 0.0 {
        let step = C64::cis(-2.0 * PI * cfo_hz * SAMPLE_PERIOD_S);
        let mut rot = C64::real(1.0);
        for v in corrected.iter_mut() {
            *v = *v * rot;
            rot *= step;
        }
    }
    // Fine: normalized cross-correlation against the known preamble.
    let fine = |d: usize| {
        let mut acc = ZERO;
        let mut energy = 0.0;
        for (n, &p) in preamble.time.iter().enumerate() {
            let r = corrected[d + n];
            acc += p.conj() * r;
            energy += r.norm_sqr();
        }
        if energy <= 0.0 {
            0.0
        } else {
            acc.norm_sqr() / (energy * preamble.energy)
        }
    };
    let mut peak = -1.0;
    for d in 0..=search {
        let m = fine(d);
        if m > peak {
            peak = m;
        }
    }
    let mut start = 0usize;
    for d in 0..=search {
        if fine(d) >= 0.9 * peak {
            start = d;
            break;
        }
    }
    SyncResult {
        start,
        cfo_hz,
        metric: peak,
    }
}

/// Least-squares channel estimate from the preamble repetitions: FFTs each
/// repetition at the detected timing, averages, divides by the known
/// loading. Fills `h_est` with the 52 per-data-subcarrier gains.
///
/// # Panics
/// Panics if a preamble window falls outside `rc`.
pub fn estimate_channel_into(
    rc: &[C64],
    start: usize,
    preamble: &Preamble,
    scratch: &mut WaveformScratch,
    h_est: &mut Vec<C64>,
) {
    h_est.clear();
    h_est.resize(DATA_SUBCARRIERS, ZERO);
    for rep in 0..PREAMBLE_REPEATS {
        let w = start + rep * SYMBOL_SAMPLES + CP_SAMPLES;
        assert!(w + FFT_SIZE <= rc.len(), "preamble window out of bounds");
        scratch.grid.clear();
        scratch.grid.extend_from_slice(&rc[w..w + FFT_SIZE]);
        fft_in_place(&mut scratch.grid);
        for (h, &bin) in h_est.iter_mut().zip(&DATA_BINS) {
            *h += scratch.grid[bin];
        }
    }
    let inv = 1.0 / PREAMBLE_REPEATS as f64;
    for (h, &p) in h_est.iter_mut().zip(&preamble.freq) {
        *h = h.scale(inv) / p;
    }
}

/// Demodulates and zero-forcing-equalizes `n_symbols` data symbols that
/// follow the preamble at `start`, appending 52 equalized symbols each to
/// `out` (cleared first). With `track_phase`, the common phase drift of
/// each symbol (CP-vs-tail correlation, e.g. residual CFO) is removed
/// relative to the preamble's phase reference.
///
/// # Panics
/// Panics if a data window falls outside `rc`.
pub fn demodulate_data_into(
    rc: &[C64],
    start: usize,
    n_symbols: usize,
    h_est: &[C64],
    track_phase: bool,
    scratch: &mut WaveformScratch,
    out: &mut Vec<C64>,
) {
    assert_eq!(h_est.len(), DATA_SUBCARRIERS, "need all subcarrier gains");
    out.clear();
    // Phase reference: midpoint of the two preamble FFT-window centers.
    let ref_center =
        start as f64 + CP_SAMPLES as f64 + FFT_SIZE as f64 / 2.0 + SYMBOL_SAMPLES as f64 / 2.0;
    for t in 0..n_symbols {
        let ws = start + PREAMBLE_SAMPLES + t * SYMBOL_SAMPLES;
        let w = ws + CP_SAMPLES;
        assert!(w + FFT_SIZE <= rc.len(), "data window out of bounds");
        let derot = if track_phase {
            // The CP repeats the symbol tail FFT_SIZE samples later: their
            // correlation angle is the per-64-sample common phase drift.
            let mut acc = ZERO;
            for n in 0..CP_SAMPLES {
                acc += rc[ws + n].conj() * rc[ws + FFT_SIZE + n];
            }
            let per_sample = acc.arg() / FFT_SIZE as f64;
            let center = w as f64 + FFT_SIZE as f64 / 2.0;
            C64::cis(-per_sample * (center - ref_center))
        } else {
            C64::real(1.0)
        };
        scratch.grid.clear();
        scratch.grid.extend_from_slice(&rc[w..w + FFT_SIZE]);
        fft_in_place(&mut scratch.grid);
        for (k, &bin) in DATA_BINS.iter().enumerate() {
            out.push(scratch.grid[bin] / h_est[k] * derot);
        }
    }
}
// alloc-free: end waveform_frame

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseband::ofdm_modulate;

    #[test]
    fn preamble_is_periodic_and_energetic() {
        let p = Preamble::standard();
        assert_eq!(p.time().len(), PREAMBLE_SAMPLES);
        for n in 0..SYMBOL_SAMPLES {
            let a = p.time()[n];
            let b = p.time()[n + SYMBOL_SAMPLES];
            assert!((a - b).abs() < 1e-15, "preamble halves differ at {n}");
        }
        // 52 unit-energy subcarriers spread over 64 samples, twice, with CP.
        let expect = 2.0
            * (DATA_SUBCARRIERS as f64 / FFT_SIZE as f64)
            * (SYMBOL_SAMPLES as f64 / FFT_SIZE as f64);
        assert!(
            (p.energy / expect - 1.0).abs() < 0.35,
            "preamble energy {} vs {expect}",
            p.energy
        );
    }

    #[test]
    fn modulate_frame_matches_per_symbol_modulator() {
        let mut rng = SimRng::seed_from(11);
        let p = Preamble::standard();
        let n_sym = 3;
        let symbols: Vec<C64> = (0..n_sym * DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let mut scratch = WaveformScratch::new();
        let mut frame = Vec::new();
        modulate_frame_into(&p, &symbols, &mut scratch, &mut frame);
        assert_eq!(frame.len(), PREAMBLE_SAMPLES + n_sym * SYMBOL_SAMPLES);
        assert_eq!(&frame[..PREAMBLE_SAMPLES], p.time());
        for t in 0..n_sym {
            let per = ofdm_modulate(&symbols[t * DATA_SUBCARRIERS..(t + 1) * DATA_SUBCARRIERS]);
            let got = &frame[PREAMBLE_SAMPLES + t * SYMBOL_SAMPLES..][..SYMBOL_SAMPLES];
            for (a, b) in per.iter().zip(got) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn sync_recovers_offset_and_cfo_at_zero_noise() {
        let mut rng = SimRng::seed_from(12);
        let p = Preamble::standard();
        let symbols: Vec<C64> = (0..2 * DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let mut scratch = WaveformScratch::new();
        let mut frame = Vec::new();
        modulate_frame_into(&p, &symbols, &mut scratch, &mut frame);
        for &(offset, cfo) in &[(0usize, 0.0), (5, 0.0), (17, 9.3e3), (40, -21.7e3)] {
            let mut rx = vec![ZERO; offset];
            rx.extend_from_slice(&frame);
            rx.extend(std::iter::repeat_n(ZERO, 48));
            apply_cfo(&mut rx, cfo);
            let mut corrected = Vec::new();
            let res = synchronize(&rx, &p, 48, true, &mut corrected);
            assert_eq!(res.start, offset, "offset {offset} cfo {cfo}");
            assert!(
                (res.cfo_hz - cfo).abs() < 1.0,
                "cfo {cfo}: estimated {}",
                res.cfo_hz
            );
            assert!(res.metric > 0.999, "metric {}", res.metric);
        }
    }

    #[test]
    fn flat_channel_round_trip_through_sync_and_equalization() {
        let mut rng = SimRng::seed_from(13);
        let p = Preamble::standard();
        let n_sym = 4;
        let symbols: Vec<C64> = (0..n_sym * DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let mut scratch = WaveformScratch::new();
        let mut frame = Vec::new();
        modulate_frame_into(&p, &symbols, &mut scratch, &mut frame);
        // Complex flat gain + timing offset + CFO.
        let gain = C64::new(0.6, -0.8);
        let offset = 23;
        let mut rx = vec![ZERO; offset];
        rx.extend(frame.iter().map(|&x| gain * x));
        rx.extend(std::iter::repeat_n(ZERO, 64));
        apply_cfo(&mut rx, 4.2e3);
        let mut corrected = Vec::new();
        let res = synchronize(&rx, &p, 48, true, &mut corrected);
        assert_eq!(res.start, offset);
        let mut h = Vec::new();
        estimate_channel_into(&corrected, res.start, &p, &mut scratch, &mut h);
        let mut eq = Vec::new();
        demodulate_data_into(
            &corrected,
            res.start,
            n_sym,
            &h,
            true,
            &mut scratch,
            &mut eq,
        );
        for (a, b) in symbols.iter().zip(&eq) {
            assert!((*a - *b).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn sfo_resampler_is_identity_at_zero_and_shrinks_otherwise() {
        let mut rng = SimRng::seed_from(14);
        let x: Vec<C64> = (0..400).map(|_| rng.randc()).collect();
        let mut y = Vec::new();
        resample_sfo_into(&x, 0.0, &mut y);
        assert_eq!(x.len(), y.len());
        for (a, b) in x.iter().zip(&y) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
        }
        resample_sfo_into(&x, 200.0, &mut y);
        assert!(y.len() <= x.len() && y.len() >= x.len() - 2);
        // Small SFO keeps samples close to the originals early in the
        // stream and drifts later.
        let early = (y[5] - x[5]).abs();
        let late = (y[350] - x[350]).abs();
        assert!(
            early < late,
            "resampler drift not growing: {early} vs {late}"
        );
    }
}

//! Time-domain tapped-delay channel: convolve the actual sample stream.
//!
//! [`crate::multipath`] hands the link simulations a per-subcarrier
//! frequency response -- valid only under the OFDM contract (perfect sync,
//! delay spread inside the cyclic prefix). The waveform validation path
//! needs the channel *before* that contract is assumed: a [`TimeChannel`]
//! holds the tapped-delay impulse responses and applies them by linear
//! convolution to the transmitted waveform.
//!
//! This is the one channel draw: [`TimeChannel::random_into`] is the only
//! tap draw and [`TimeChannel::freq_response_into`] the only taps-to-
//! subcarrier transform, and [`FreqChannel::random_into`] is exactly those
//! two steps. Whatever the analytic model predicts from a `FreqChannel`,
//! the waveform path experiences through the taps it came from.

use crate::multipath::{ChannelScratch, FreqChannel, MultipathProfile};
use copa_num::complex::{C64, ZERO};
use copa_num::fft::fft_in_place;
use copa_num::matrix::CMat;
use copa_num::rng::SimRng;
use copa_phy::ofdm::{DATA_BINS, DATA_SUBCARRIERS, FFT_SIZE};

/// A MIMO tapped-delay channel: per (rx, tx) antenna pair, `taps` complex
/// impulse-response coefficients at 50 ns spacing.
#[derive(Clone, Debug, Default)]
pub struct TimeChannel {
    rx: usize,
    tx: usize,
    taps: usize,
    /// Flat `[r][t][l]` impulse responses.
    imp: Vec<C64>,
    /// Reusable tap-power buffer for the pooled draw.
    tap_powers: Vec<f64>,
}

impl TimeChannel {
    /// An empty channel, used as a reusable output slot for
    /// [`TimeChannel::random_into`].
    pub fn empty() -> Self {
        Self::default()
    }

    /// Draws a random channel with `E|H_ij|^2 = path_gain`; its
    /// [`TimeChannel::freq_response`] is [`FreqChannel::random`] from the
    /// same RNG state.
    pub fn random(
        rng: &mut SimRng,
        rx: usize,
        tx: usize,
        path_gain: f64,
        profile: &MultipathProfile,
    ) -> Self {
        let mut out = Self::empty();
        Self::random_into(rng, rx, tx, path_gain, profile, &mut out);
        out
    }

    // alloc-free: begin time_channel_into (kernel -- pooled output slot)
    /// Pooled [`TimeChannel::random`]: same draw, reused buffers. Per
    /// antenna pair, i.i.d. complex Gaussian taps under the profile's
    /// power-delay law; the first tap adds a Rician line-of-sight component
    /// with a common random phase and a fixed per-pair geometric offset.
    pub fn random_into(
        rng: &mut SimRng,
        rx: usize,
        tx: usize,
        path_gain: f64,
        profile: &MultipathProfile,
        out: &mut TimeChannel,
    ) {
        assert!(rx >= 1 && tx >= 1);
        assert!(path_gain >= 0.0);
        assert!(
            profile.taps <= FFT_SIZE,
            "delay spread beyond the OFDM FFT window"
        );
        profile.tap_powers_into(&mut out.tap_powers);
        let amp = path_gain.sqrt();
        // LoS fraction of the first tap's power.
        let k = profile.rician_k;
        let los_frac = k / (k + 1.0);
        out.rx = rx;
        out.tx = tx;
        out.taps = profile.taps;
        out.imp.clear();
        out.imp.resize(rx * tx * profile.taps, ZERO);
        let los_phase = rng.uniform_range(0.0, std::f64::consts::TAU);
        for r in 0..rx {
            for t in 0..tx {
                let base = (r * tx + t) * profile.taps;
                for (l, &p) in out.tap_powers.iter().enumerate() {
                    let mut tap = rng
                        .randc()
                        .scale((p * if l == 0 { 1.0 - los_frac } else { 1.0 }).sqrt());
                    if l == 0 && los_frac > 0.0 {
                        // Deterministic LoS component with antenna-dependent
                        // phase (half-wavelength spacing approximated by a
                        // random but fixed per-pair offset).
                        let pair_phase =
                            los_phase + std::f64::consts::PI * (r as f64 * 0.73 + t as f64 * 1.31);
                        tap += C64::cis(pair_phase).scale((p * los_frac).sqrt());
                    }
                    out.imp[base + l] = tap.scale(amp);
                }
            }
        }
    }

    /// Number of receive antennas.
    pub fn rx(&self) -> usize {
        self.rx
    }

    /// Number of transmit antennas.
    pub fn tx(&self) -> usize {
        self.tx
    }

    /// Taps per impulse response.
    pub fn taps(&self) -> usize {
        self.taps
    }

    /// Longest channel delay in samples (`taps - 1`); must stay below the
    /// cyclic prefix for the OFDM contract to hold.
    pub fn max_delay(&self) -> usize {
        self.taps - 1
    }

    /// The impulse response of antenna pair `(r, t)`.
    pub fn impulse(&self, r: usize, t: usize) -> &[C64] {
        let base = (r * self.tx + t) * self.taps;
        &self.imp[base..base + self.taps]
    }

    /// Adds the linear convolution of waveform `x` (one transmit antenna)
    /// with the `(r, t)` impulse into `out`, which must hold at least
    /// `x.len() + max_delay()` samples. Callers accumulate across transmit
    /// antennas onto a zeroed buffer for MIMO.
    pub fn convolve_pair_add(&self, r: usize, t: usize, x: &[C64], out: &mut [C64]) {
        assert!(
            out.len() >= x.len() + self.taps - 1,
            "output buffer too short for the convolution tail"
        );
        for (l, &h) in self.impulse(r, t).iter().enumerate() {
            if h.re == 0.0 && h.im == 0.0 {
                continue;
            }
            for (n, &xv) in x.iter().enumerate() {
                out[n + l] += h * xv;
            }
        }
    }

    /// SISO convenience: clears `out`, sizes it to `x.len() + max_delay()`,
    /// and convolves with the `(0, 0)` impulse.
    pub fn convolve_into(&self, x: &[C64], out: &mut Vec<C64>) {
        out.clear();
        out.resize(x.len() + self.taps - 1, ZERO);
        self.convolve_pair_add(0, 0, x, out);
    }

    /// Pooled [`TimeChannel::freq_response`]: zero-pads each impulse to the
    /// 64-point grid, FFTs it in `scratch`, and picks the data bins into
    /// `out`'s reused buffers.
    pub fn freq_response_into(&self, scratch: &mut ChannelScratch, out: &mut FreqChannel) {
        out.rx = self.rx;
        out.tx = self.tx;
        out.subcarriers.truncate(DATA_SUBCARRIERS);
        out.subcarriers.resize_with(DATA_SUBCARRIERS, CMat::default);
        for m in &mut out.subcarriers {
            m.reset(self.rx, self.tx);
        }
        let grid = &mut scratch.grid;
        for r in 0..self.rx {
            for t in 0..self.tx {
                grid.clear();
                grid.resize(FFT_SIZE, ZERO);
                grid[..self.taps].copy_from_slice(self.impulse(r, t));
                fft_in_place(grid);
                for (m, &b) in out.subcarriers.iter_mut().zip(&DATA_BINS) {
                    m[(r, t)] = grid[b];
                }
            }
        }
    }
    // alloc-free: end time_channel_into

    /// The per-subcarrier frequency response this channel presents to a
    /// perfectly synchronized OFDM receiver.
    pub fn freq_response(&self) -> FreqChannel {
        let mut scratch = ChannelScratch::new();
        let mut out = FreqChannel::empty();
        self.freq_response_into(&mut scratch, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_input_reproduces_impulse() {
        let profile = MultipathProfile::default();
        let ch = TimeChannel::random(&mut SimRng::seed_from(41), 1, 1, 1.0, &profile);
        let delta = [C64::real(1.0)];
        let mut out = Vec::new();
        ch.convolve_into(&delta, &mut out);
        assert_eq!(out.len(), profile.taps);
        for (a, b) in out.iter().zip(ch.impulse(0, 0)) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn convolution_is_linear_and_shift_invariant() {
        let profile = MultipathProfile::default();
        let ch = TimeChannel::random(&mut SimRng::seed_from(42), 1, 1, 1.0, &profile);
        let mut rng = SimRng::seed_from(43);
        let x: Vec<C64> = (0..50).map(|_| rng.randc()).collect();
        let mut y = Vec::new();
        ch.convolve_into(&x, &mut y);
        // Shift the input by 7 samples: output shifts by 7.
        let mut shifted = vec![ZERO; 7];
        shifted.extend_from_slice(&x);
        let mut ys = Vec::new();
        ch.convolve_into(&shifted, &mut ys);
        for (n, v) in y.iter().enumerate() {
            assert!((ys[n + 7] - *v).abs() < 1e-14);
        }
    }

    #[test]
    fn mimo_pairs_accumulate() {
        let profile = MultipathProfile::default();
        let ch = TimeChannel::random(&mut SimRng::seed_from(44), 2, 2, 1.0, &profile);
        let mut rng = SimRng::seed_from(45);
        let x0: Vec<C64> = (0..30).map(|_| rng.randc()).collect();
        let x1: Vec<C64> = (0..30).map(|_| rng.randc()).collect();
        // rx antenna 0 hears tx 0 and tx 1 superposed.
        let mut acc = vec![ZERO; 30 + ch.max_delay()];
        ch.convolve_pair_add(0, 0, &x0, &mut acc);
        ch.convolve_pair_add(0, 1, &x1, &mut acc);
        let mut a = Vec::new();
        let mut b = Vec::new();
        ch.convolve_into(&x0, &mut a); // (0,0)
        let mut only1 = vec![ZERO; 30 + ch.max_delay()];
        ch.convolve_pair_add(0, 1, &x1, &mut only1);
        b.extend_from_slice(&only1);
        for n in 0..acc.len() {
            assert!((acc[n] - (a[n] + b[n])).abs() < 1e-14);
        }
    }

    #[test]
    fn pooled_random_reuses_buffers_bitwise() {
        let profile = MultipathProfile::default();
        let owned = TimeChannel::random(&mut SimRng::seed_from(46), 2, 2, 1e-3, &profile);
        let mut slot = TimeChannel::empty();
        // Warm the slot with a different shape first.
        TimeChannel::random_into(&mut SimRng::seed_from(1), 3, 1, 1.0, &profile, &mut slot);
        TimeChannel::random_into(&mut SimRng::seed_from(46), 2, 2, 1e-3, &profile, &mut slot);
        for r in 0..2 {
            for t in 0..2 {
                for (a, b) in owned.impulse(r, t).iter().zip(slot.impulse(r, t)) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits());
                    assert_eq!(a.im.to_bits(), b.im.to_bits());
                }
            }
        }
    }
}

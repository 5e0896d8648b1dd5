//! 802.11n 20 MHz OFDM channelization constants.
//!
//! COPA operates per subcarrier, so everything downstream is indexed by the
//! 52 data subcarriers of the 20 MHz 802.11n channel (platform limitations
//! confined the paper to 20 MHz; we adopt the same).

/// OFDM FFT size for a 20 MHz 802.11n channel.
pub const FFT_SIZE: usize = 64;

/// Number of occupied (non-null) subcarriers: -28..=28 minus DC in 802.11n HT.
pub const OCCUPIED_SUBCARRIERS: usize = 56;

/// Number of *data* subcarriers (occupied minus 4 pilots).
pub const DATA_SUBCARRIERS: usize = 52;

/// Pilot subcarrier logical indices (within -28..=28): +-7 and +-21.
pub const PILOT_OFFSETS: [i32; 4] = [-21, -7, 7, 21];

/// OFDM symbol duration with the 800 ns guard interval, in seconds.
pub const SYMBOL_DURATION_S: f64 = 4.0e-6;

/// Cyclic prefix (guard interval) duration, in seconds. Concurrent
/// transmissions must be synchronized within this window (paper section 3.1).
pub const CYCLIC_PREFIX_S: f64 = 0.8e-6;

/// Channel bandwidth in Hz.
pub const BANDWIDTH_HZ: f64 = 20.0e6;

/// Carrier frequency used in the paper's testbed (2.4 GHz band), in Hz.
pub const CARRIER_HZ: f64 = 2.437e9;

/// Carrier wavelength in meters (`c / f`).
pub fn carrier_wavelength_m() -> f64 {
    299_792_458.0 / CARRIER_HZ
}

/// Thermal noise floor over the 20 MHz channel in dBm
/// (`-174 dBm/Hz + 10 log10(2e7) = -101 dBm`) plus a typical receiver noise
/// figure of 6 dB, giving -95 dBm.
pub const NOISE_FLOOR_DBM: f64 = -95.0;

/// Maximum transmit power used in the paper's experiments (WARP v2), dBm.
pub const MAX_TX_POWER_DBM: f64 = 15.0;

/// FFT bin of each data subcarrier, in subcarrier order.
///
/// Occupied bins are -28..=28 excluding DC (0); pilots at +-7 and +-21 are
/// excluded. Negative frequencies map to FFT bins `FFT_SIZE + k`.
pub const DATA_BINS: [usize; DATA_SUBCARRIERS] = [
    36, 37, 38, 39, 40, 41, 42, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 58, 59, 60, 61,
    62, 63, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25, 26,
    27, 28,
];

/// Coherence time `t_c = m * lambda / v` for a host moving at `speed_mps`,
/// with environment parameter `m` (the paper uses the conservative 0.25).
pub fn coherence_time_s(speed_mps: f64, m: f64) -> f64 {
    assert!(speed_mps > 0.0, "coherence time needs a positive speed");
    m * carrier_wavelength_m() / speed_mps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcarrier_counts() {
        // The table is the logical order -28..=28 minus DC and the pilots.
        let logical: Vec<usize> = (-28i32..=28)
            .filter(|k| *k != 0 && !PILOT_OFFSETS.contains(k))
            .map(|k| (k + FFT_SIZE as i32) as usize % FFT_SIZE)
            .collect();
        assert_eq!(logical, DATA_BINS);
        // All bins valid and unique.
        let mut sorted = DATA_BINS;
        sorted.sort_unstable();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        assert!(DATA_BINS.iter().all(|&b| b < FFT_SIZE));
        // DC (bin 0) and pilots excluded.
        for b in [0, 7, 21, FFT_SIZE - 7, FFT_SIZE - 21] {
            assert!(!DATA_BINS.contains(&b), "bin {b}");
        }
    }

    #[test]
    fn coherence_times_match_paper() {
        // Paper section 3.1: m = 0.25 gives ~28 ms at 4 km/h, ~112 ms at 1 km/h.
        let t4 = coherence_time_s(4.0 / 3.6, 0.25);
        let t1 = coherence_time_s(1.0 / 3.6, 0.25);
        assert!(
            (t4 * 1e3 - 27.7).abs() < 1.0,
            "4 km/h -> {:.1} ms",
            t4 * 1e3
        );
        assert!(
            (t1 * 1e3 - 110.7).abs() < 4.0,
            "1 km/h -> {:.1} ms",
            t1 * 1e3
        );
    }

    #[test]
    fn wavelength_is_about_12cm() {
        // The paper notes fading decorrelates over one wavelength (~12.5 cm).
        let lambda = carrier_wavelength_m();
        assert!((0.12..0.13).contains(&lambda), "lambda = {lambda}");
    }

    #[test]
    fn noise_floor_sane() {
        assert!(NOISE_FLOOR_DBM < -90.0 && NOISE_FLOOR_DBM > -100.0);
    }
}

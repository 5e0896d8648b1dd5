//! CSI compression: adaptive delta modulation + LZSS.
//!
//! Section 3.1: "COPA compresses CSI information and precoding matrices
//! using adaptive delta modulation across subcarriers' amplitude and phase
//! (separately), and compressing the result using a lossless variant
//! Lempel-Ziv data compression algorithm. This yields a compression ratio of
//! two on average".
//!
//! Pipeline: per (rx, tx) antenna pair, the 52 subcarrier gains are split
//! into log-amplitude and phase tracks, each quantized to 8 bits; the tracks
//! are delta-modulated with an adaptive step (adjacent subcarriers are
//! highly correlated, so deltas are small), and the delta stream is packed
//! by a lossless LZSS coder.

use copa_channel::FreqChannel;
use copa_num::complex::C64;
use copa_phy::ofdm::DATA_SUBCARRIERS;

/// Amplitude quantization: dB relative to the link mean, clamped.
const AMP_RANGE_DB: f64 = 48.0; // +-48 dB around the mean
/// Bits per quantized sample.
const QUANT_LEVELS: f64 = 255.0;

/// Largest antenna count a CSI report may declare. Corrupted headers would
/// otherwise ask the decoder to materialize absurd track tables.
const MAX_ANTENNAS: usize = 8;

/// Decode failure in the CSI compression pipeline: the payload was garbled
/// (collision, fault injection) or truncated in flight. Every malformed
/// input maps to one of these variants -- the decoder never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsiCodecError {
    /// Fewer bytes than the declared structure requires.
    Truncated {
        /// Bytes the structure needed.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The header declares an impossible antenna geometry.
    BadDimensions {
        /// Declared receive antennas.
        rx: usize,
        /// Declared transmit antennas.
        tx: usize,
    },
    /// An LZSS back-reference points before the start of the output.
    BadBackref {
        /// Output position at which the reference was found.
        position: usize,
        /// The (invalid) backwards offset.
        offset: usize,
    },
    /// A header field decoded to a nonsensical value (e.g. NaN mean gain).
    CorruptField {
        /// Which field was corrupt.
        field: &'static str,
    },
}

impl std::fmt::Display for CsiCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsiCodecError::Truncated { needed, got } => {
                write!(f, "CSI payload truncated: needed {needed} bytes, got {got}")
            }
            CsiCodecError::BadDimensions { rx, tx } => {
                write!(f, "CSI header declares impossible dimensions {rx}x{tx}")
            }
            CsiCodecError::BadBackref { position, offset } => write!(
                f,
                "LZSS back-reference at output position {position} reaches {offset} bytes back"
            ),
            CsiCodecError::CorruptField { field } => {
                write!(f, "CSI header field `{field}` is corrupt")
            }
        }
    }
}

impl std::error::Error for CsiCodecError {}

/// Quantized CSI for one link: per antenna pair, 52 amplitude bytes and
/// 52 phase bytes, plus the reference mean gain.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedCsi {
    /// Receive antennas.
    pub rx: usize,
    /// Transmit antennas.
    pub tx: usize,
    /// Mean per-entry gain (linear), the amplitude reference.
    pub mean_gain: f64,
    /// `tracks[pair]` = (amplitude bytes, phase bytes), pair = r * tx + t.
    pub tracks: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Quantizes a channel into byte tracks.
pub fn quantize(ch: &FreqChannel) -> QuantizedCsi {
    let mean_gain = ch.mean_gain().max(1e-300);
    let mut tracks = Vec::with_capacity(ch.rx() * ch.tx());
    for r in 0..ch.rx() {
        for t in 0..ch.tx() {
            let mut amps = Vec::with_capacity(DATA_SUBCARRIERS);
            let mut phases = Vec::with_capacity(DATA_SUBCARRIERS);
            for s in 0..DATA_SUBCARRIERS {
                let h = ch.at(s)[(r, t)];
                let rel_db = 10.0 * (h.norm_sqr() / mean_gain).max(1e-30).log10();
                let a = ((rel_db + AMP_RANGE_DB) / (2.0 * AMP_RANGE_DB) * QUANT_LEVELS)
                    .clamp(0.0, QUANT_LEVELS);
                amps.push(a.round() as u8);
                let p = (h.arg() + std::f64::consts::PI) / std::f64::consts::TAU * QUANT_LEVELS;
                phases.push(p.round().clamp(0.0, QUANT_LEVELS) as u8);
            }
            tracks.push((amps, phases));
        }
    }
    QuantizedCsi {
        rx: ch.rx(),
        tx: ch.tx(),
        mean_gain,
        tracks,
    }
}

/// Reconstructs a channel from quantized tracks (inverse of [`quantize`] up
/// to quantization error).
pub fn dequantize(q: &QuantizedCsi) -> FreqChannel {
    let mats = (0..DATA_SUBCARRIERS)
        .map(|s| {
            copa_num::matrix::CMat::from_fn(q.rx, q.tx, |r, t| {
                let (amps, phases) = &q.tracks[r * q.tx + t];
                let rel_db = amps[s] as f64 / QUANT_LEVELS * 2.0 * AMP_RANGE_DB - AMP_RANGE_DB;
                let mag = (q.mean_gain * 10f64.powf(rel_db / 10.0)).sqrt();
                let arg =
                    phases[s] as f64 / QUANT_LEVELS * std::f64::consts::TAU - std::f64::consts::PI;
                C64::from_polar(mag, arg)
            })
        })
        .collect();
    FreqChannel::from_matrices(mats)
}

/// Adaptive (coarse) delta modulation: quantizes each delta to a 4-bit code
/// with a step size that adapts to the signal, halving the track size at the
/// cost of bounded reconstruction error. Returns (codes packed 2-per-byte,
/// first sample).
pub fn adm_encode(track: &[u8]) -> (Vec<u8>, u8) {
    if track.is_empty() {
        return (Vec::new(), 0);
    }
    let first = track[0];
    let mut codes = Vec::with_capacity(track.len() / 2 + 1);
    let mut recon = first as f64;
    let mut step = 2.0f64;
    let mut nibble: Option<u8> = None;
    for &b in &track[1..] {
        let err = b as f64 - recon;
        // 4-bit code: sign + 3-bit magnitude in units of the current step.
        let mag = ((err.abs() / step).round() as i64).min(7) as u8;
        let code = if err < 0.0 { 0x8 | mag } else { mag };
        recon += if err < 0.0 {
            -(mag as f64) * step
        } else {
            mag as f64 * step
        };
        recon = recon.clamp(0.0, 255.0);
        // Adapt: big codes grow the step, small ones shrink it.
        if mag >= 6 {
            step = (step * 1.5).min(32.0);
        } else if mag <= 1 {
            step = (step * 0.75).max(1.0);
        }
        match nibble.take() {
            None => nibble = Some(code),
            Some(hi) => codes.push((hi << 4) | code),
        }
    }
    if let Some(hi) = nibble {
        codes.push(hi << 4);
    }
    (codes, first)
}

/// Decodes an ADM stream back to an approximate track of length `len`.
pub fn adm_decode(codes: &[u8], first: u8, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    if len == 0 {
        return out;
    }
    out.push(first);
    let mut recon = first as f64;
    let mut step = 2.0f64;
    let mut produced = 1;
    'outer: for &byte in codes {
        for shift in [4u8, 0u8] {
            if produced >= len {
                break 'outer;
            }
            let code = (byte >> shift) & 0xF;
            let mag = (code & 0x7) as f64;
            let neg = code & 0x8 != 0;
            recon += if neg { -mag * step } else { mag * step };
            recon = recon.clamp(0.0, 255.0);
            if mag >= 6.0 {
                step = (step * 1.5).min(32.0);
            } else if mag <= 1.0 {
                step = (step * 0.75).max(1.0);
            }
            out.push(recon.round() as u8);
            produced += 1;
        }
    }
    while out.len() < len {
        out.push(recon.round() as u8);
    }
    out
}

/// LZSS compression: 4 KiB window, 3..=18-byte matches, flag-byte framing.
/// Lossless; decompress with [`lzss_decode`].
pub fn lzss_encode(data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 4096;
    const MIN_MATCH: usize = 3;
    const MAX_MATCH: usize = 18;
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut i = 0;
    let mut flags_pos = 0usize;
    let mut flag_bits = 0u8;
    let mut flag_count = 0u8;

    let mut push_unit = |out: &mut Vec<u8>, literal: Option<u8>, pair: Option<(u16, u8)>| {
        if flag_count == 0 {
            flags_pos = out.len();
            out.push(0);
        }
        match (literal, pair) {
            (Some(b), None) => {
                flag_bits |= 1 << flag_count;
                out.push(b);
            }
            (None, Some((off, len))) => {
                out.push((off >> 4) as u8);
                out.push((((off & 0xF) as u8) << 4) | (len - MIN_MATCH as u8));
            }
            _ => unreachable!(),
        }
        flag_count += 1;
        if flag_count == 8 {
            out[flags_pos] = flag_bits;
            flag_bits = 0;
            flag_count = 0;
        }
    };

    while i < data.len() {
        // Greedy longest match in the window.
        let start = i.saturating_sub(WINDOW);
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        let max_len = MAX_MATCH.min(data.len() - i);
        if max_len >= MIN_MATCH {
            for j in start..i {
                let mut l = 0;
                while l < max_len && data[j + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - j;
                    if l == max_len {
                        break;
                    }
                }
            }
        }
        if best_len >= MIN_MATCH {
            push_unit(&mut out, None, Some((best_off as u16, best_len as u8)));
            i += best_len;
        } else {
            push_unit(&mut out, Some(data[i]), None);
            i += 1;
        }
    }
    if flag_count > 0 {
        out[flags_pos] = flag_bits;
    }
    out
}

/// Decompresses an [`lzss_encode`] stream. Fails (instead of panicking) on
/// corrupted input whose back-references reach before the output start.
pub fn lzss_decode(data: &[u8]) -> Result<Vec<u8>, CsiCodecError> {
    const MIN_MATCH: usize = 3;
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                out.push(data[i]);
                i += 1;
            } else {
                if i + 1 >= data.len() {
                    break;
                }
                let off = ((data[i] as usize) << 4) | (data[i + 1] as usize >> 4);
                let len = (data[i + 1] & 0xF) as usize + MIN_MATCH;
                i += 2;
                if off == 0 || off > out.len() {
                    return Err(CsiCodecError::BadBackref {
                        position: out.len(),
                        offset: off,
                    });
                }
                let from = out.len() - off;
                for k in 0..len {
                    out.push(out[from + k]);
                }
            }
        }
    }
    Ok(out)
}

/// Bytes an ADM-coded track occupies (first sample + packed nibbles).
const ADM_TRACK_BYTES: usize = 1 + DATA_SUBCARRIERS / 2; // 51 codes -> 26 bytes

/// Full CSI compression, the paper's pipeline: quantize -> adaptive delta
/// modulation per track -> lossless LZSS. ADM is the (bounded) lossy stage;
/// everything after it round-trips exactly.
pub fn compress_csi(ch: &FreqChannel) -> Vec<u8> {
    let q = quantize(ch);
    let mut raw = Vec::new();
    raw.push(q.rx as u8);
    raw.push(q.tx as u8);
    raw.extend_from_slice(&q.mean_gain.to_le_bytes());
    for (amps, phases) in &q.tracks {
        for track in [amps, phases] {
            let (codes, first) = adm_encode(track);
            raw.push(first);
            debug_assert_eq!(codes.len(), ADM_TRACK_BYTES - 1);
            raw.extend(codes);
        }
    }
    lzss_encode(&raw)
}

/// Inverse of [`compress_csi`] (up to the documented ADM/quantization
/// error). Any malformed or garbled input decodes to a [`CsiCodecError`]
/// rather than panicking -- this is the wire boundary where fault-injected
/// corruption lands.
pub fn decompress_csi(data: &[u8]) -> Result<FreqChannel, CsiCodecError> {
    let raw = lzss_decode(data)?;
    if raw.len() < 10 {
        return Err(CsiCodecError::Truncated {
            needed: 10,
            got: raw.len(),
        });
    }
    let rx = raw[0] as usize;
    let tx = raw[1] as usize;
    if rx == 0 || tx == 0 || rx > MAX_ANTENNAS || tx > MAX_ANTENNAS {
        return Err(CsiCodecError::BadDimensions { rx, tx });
    }
    // invariant: raw[2..10] is 8 bytes -- length checked above.
    let mean_gain = f64::from_le_bytes(raw[2..10].try_into().expect("8 header bytes"));
    if !mean_gain.is_finite() || mean_gain <= 0.0 {
        return Err(CsiCodecError::CorruptField { field: "mean_gain" });
    }
    let needed = 10 + rx * tx * 2 * ADM_TRACK_BYTES;
    if raw.len() < needed {
        return Err(CsiCodecError::Truncated {
            needed,
            got: raw.len(),
        });
    }
    let mut tracks = Vec::with_capacity(rx * tx);
    let mut pos = 10;
    let take_track = |pos: &mut usize| {
        let first = raw[*pos];
        let codes = &raw[*pos + 1..*pos + ADM_TRACK_BYTES];
        *pos += ADM_TRACK_BYTES;
        adm_decode(codes, first, DATA_SUBCARRIERS)
    };
    for _ in 0..rx * tx {
        let amps = take_track(&mut pos);
        let phases = take_track(&mut pos);
        tracks.push((amps, phases));
    }
    Ok(dequantize(&QuantizedCsi {
        rx,
        tx,
        mean_gain,
        tracks,
    }))
}

/// Raw (uncompressed, quantized) CSI size in bytes for a link.
pub fn raw_csi_bytes(rx: usize, tx: usize) -> usize {
    10 + rx * tx * DATA_SUBCARRIERS * 2
}

/// Estimated compressed CSI size: the paper reports a compression ratio of
/// two on average for its testbed channels; ours land in the same range.
pub fn estimated_compressed_csi_bytes(rx: usize, tx: usize) -> usize {
    raw_csi_bytes(rx, tx) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::MultipathProfile;
    use copa_num::SimRng;

    fn ch(seed: u64, rx: usize, tx: usize) -> FreqChannel {
        FreqChannel::random(
            &mut SimRng::seed_from(seed),
            rx,
            tx,
            1e-6,
            &MultipathProfile::default(),
        )
    }

    #[test]
    fn lzss_round_trips_arbitrary_data() {
        let mut rng = SimRng::seed_from(1);
        for len in [0usize, 1, 2, 3, 17, 100, 1000] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(lzss_decode(&lzss_encode(&data)), Ok(data), "len={len}");
        }
    }

    #[test]
    fn lzss_bad_backref_is_an_error_not_a_panic() {
        // A pair unit whose offset reaches before the output start.
        let corrupt = [0x00u8, 0xFF, 0xF0];
        assert!(matches!(
            lzss_decode(&corrupt),
            Err(CsiCodecError::BadBackref { .. })
        ));
    }

    #[test]
    fn lzss_compresses_repetitive_data() {
        // Max match length is 18, so 1000 identical bytes cost ~56 pairs
        // (2 bytes each) plus flag bytes: well under 1/7 of the input.
        let data = vec![42u8; 1000];
        let enc = lzss_encode(&data);
        assert!(
            enc.len() < 150,
            "runs should compress well, got {}",
            enc.len()
        );
        assert_eq!(lzss_decode(&enc), Ok(data));
    }

    #[test]
    fn quantize_dequantize_bounded_error() {
        let c = ch(2, 2, 4);
        let back = dequantize(&quantize(&c));
        for s in 0..DATA_SUBCARRIERS {
            for r in 0..2 {
                for t in 0..4 {
                    let a = c.at(s)[(r, t)];
                    let b = back.at(s)[(r, t)];
                    // Amplitude within ~1 dB, phase within ~2 degrees.
                    let db_err = (10.0 * (a.norm_sqr() / b.norm_sqr().max(1e-300)).log10()).abs();
                    assert!(db_err < 1.0, "amp error {db_err} dB at s={s}");
                    let mut ph_err = (a.arg() - b.arg()).abs();
                    if ph_err > std::f64::consts::PI {
                        ph_err = std::f64::consts::TAU - ph_err;
                    }
                    assert!(ph_err < 0.05, "phase error {ph_err} rad");
                }
            }
        }
    }

    #[test]
    fn csi_compression_ratio_is_about_two() {
        // The paper reports a compression ratio of two on average.
        let c = ch(3, 2, 4);
        let compressed = compress_csi(&c);
        let raw = raw_csi_bytes(2, 4);
        let ratio = raw as f64 / compressed.len() as f64;
        assert!(
            ratio > 1.6,
            "expected ~2x compression, got ratio {ratio:.2} ({} -> {})",
            raw,
            compressed.len()
        );
    }

    #[test]
    fn csi_compression_round_trip_error_is_bounded() {
        let c = ch(3, 2, 4);
        let back = decompress_csi(&compress_csi(&c)).expect("own encoding decodes");
        assert_eq!(back.rx(), 2);
        assert_eq!(back.tx(), 4);
        // ADM is the lossy stage: track error bounded, mean error small.
        let q1 = quantize(&c);
        let q2 = quantize(&back);
        let mut total_amp_err = 0i64;
        let mut count = 0i64;
        for (t1, t2) in q1.tracks.iter().zip(&q2.tracks) {
            for (a, b) in t1.0.iter().zip(&t2.0) {
                let e = (*a as i64 - *b as i64).abs();
                assert!(e <= 60, "amplitude track error too large: {e} levels");
                total_amp_err += e;
                count += 1;
            }
        }
        let mean_levels = total_amp_err as f64 / count as f64;
        // 1 level ~ 0.38 dB; require mean error under ~3 dB.
        assert!(
            mean_levels < 8.0,
            "mean amplitude error {mean_levels:.1} levels"
        );
    }

    #[test]
    fn adm_halves_size_with_bounded_error() {
        let c = ch(4, 1, 1);
        let q = quantize(&c);
        let (amps, _) = &q.tracks[0];
        let (codes, first) = adm_encode(amps);
        assert!(codes.len() <= amps.len() / 2 + 1);
        let back = adm_decode(&codes, first, amps.len());
        assert_eq!(back.len(), amps.len());
        let max_err = amps
            .iter()
            .zip(&back)
            .map(|(a, b)| (*a as i32 - *b as i32).abs())
            .max()
            .unwrap();
        // 8-bit track spans 96 dB; error of ~24 levels is ~9 dB worst case,
        // typical errors far smaller thanks to subcarrier correlation.
        assert!(
            max_err < 40,
            "ADM reconstruction error too large: {max_err}"
        );
    }

    #[test]
    fn adm_empty_and_single() {
        let (codes, first) = adm_encode(&[]);
        assert!(codes.is_empty());
        assert_eq!(adm_decode(&codes, first, 0), Vec::<u8>::new());
        let (codes, first) = adm_encode(&[123]);
        assert_eq!(adm_decode(&codes, first, 1), vec![123]);
    }

    #[test]
    fn size_estimates_consistent() {
        assert_eq!(raw_csi_bytes(2, 4), 10 + 8 * 52 * 2);
        assert!(estimated_compressed_csi_bytes(2, 4) < raw_csi_bytes(2, 4));
    }
}

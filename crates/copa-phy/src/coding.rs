//! 802.11 convolutional coding: encoder, puncturing, Viterbi decoder, and
//! the union-bound coded-BER model.
//!
//! The paper's throughput predictor turns measured SINR into uncoded BER and
//! then into coded BER "for 802.11n's different coding rates" using the
//! standard convolutional-code analysis (Tse & Viswanath). We implement the
//! same union bound, plus a real K=7 (133, 171) encoder and one Viterbi
//! decoder over hard or soft bit LLRs, so tests can validate the analytic
//! model bit-by-bit.

/// 802.11 convolutional code rates (mother code K=7, generators 133/171
/// octal; higher rates by puncturing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeRate {
    /// Rate 1/2 (unpunctured mother code).
    R12,
    /// Rate 2/3.
    R23,
    /// Rate 3/4.
    R34,
    /// Rate 5/6.
    R56,
}

impl CodeRate {
    /// All rates, most to least robust.
    pub const ALL: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];

    /// The code rate as a fraction.
    pub fn fraction(self) -> f64 {
        match self {
            CodeRate::R12 => 0.5,
            CodeRate::R23 => 2.0 / 3.0,
            CodeRate::R34 => 0.75,
            CodeRate::R56 => 5.0 / 6.0,
        }
    }

    /// `(numerator, denominator)` of the rate.
    pub fn ratio(self) -> (usize, usize) {
        match self {
            CodeRate::R12 => (1, 2),
            CodeRate::R23 => (2, 3),
            CodeRate::R34 => (3, 4),
            CodeRate::R56 => (5, 6),
        }
    }

    /// Puncturing pattern pairs `(keep_a, keep_b)` per input bit, cycling.
    /// `a` is the output of generator 133, `b` of generator 171.
    fn puncture_pattern(self) -> &'static [(bool, bool)] {
        match self {
            CodeRate::R12 => &[(true, true)],
            CodeRate::R23 => &[(true, true), (true, false)],
            CodeRate::R34 => &[(true, true), (false, true), (true, false)],
            CodeRate::R56 => &[
                (true, true),
                (false, true),
                (true, false),
                (false, true),
                (true, false),
            ],
        }
    }

    /// Free distance and information-bit-error weight spectrum `(d, c_d)` of
    /// the punctured K=7 codes (standard tables used throughout the 802.11
    /// literature, e.g. Haccoun & Begin 1989).
    pub fn weight_spectrum(self) -> &'static [(u32, f64)] {
        match self {
            CodeRate::R12 => &[
                (10, 36.0),
                (12, 211.0),
                (14, 1404.0),
                (16, 11633.0),
                (18, 77433.0),
            ],
            CodeRate::R23 => &[
                (6, 3.0),
                (7, 70.0),
                (8, 285.0),
                (9, 1276.0),
                (10, 6160.0),
                (11, 27128.0),
            ],
            CodeRate::R34 => &[
                (5, 42.0),
                (6, 201.0),
                (7, 1492.0),
                (8, 10469.0),
                (9, 62935.0),
                (10, 379546.0),
            ],
            CodeRate::R56 => &[
                (4, 92.0),
                (5, 528.0),
                (6, 8694.0),
                (7, 79453.0),
                (8, 792114.0),
            ],
        }
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, d) = self.ratio();
        write!(f, "{n}/{d}")
    }
}

/// Constraint length of the 802.11 mother code.
pub const CONSTRAINT_LENGTH: usize = 7;
/// Generator polynomial 133 (octal).
const G0: u32 = 0o133;
/// Generator polynomial 171 (octal).
const G1: u32 = 0o171;
const STATES: usize = 1 << (CONSTRAINT_LENGTH - 1); // 64

/// Generator outputs `(a, b)` (133, 171) of every shift-register value
/// `(state << 1) | input`.
const OUTPUTS: [(usize, usize); 2 * STATES] = {
    let mut t = [(0, 0); 2 * STATES];
    let mut reg = 0;
    while reg < t.len() {
        let r = reg as u32;
        t[reg] = (
            ((r & G0).count_ones() & 1) as usize,
            ((r & G1).count_ones() & 1) as usize,
        );
        reg += 1;
    }
    t
};

/// Encodes `bits` with the K=7 (133,171) code at `rate`, appending
/// `CONSTRAINT_LENGTH - 1` zero tail bits to terminate the trellis.
///
/// Punctured positions are simply omitted from the output, as transmitted on
/// air. The output length is therefore
/// `ceil((bits.len() + 6) * 2 * kept / (2 * pattern_len))` give or take the
/// cycle phase.
pub fn encode(bits: &[u8], rate: CodeRate) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len() * 2);
    encode_append(bits, rate, &mut out);
    out
}

/// Number of coded (on-air) bits [`encode`] produces for `info_len`
/// information bits at `rate`: walks the puncture pattern arithmetically,
/// so the receiver can size/truncate buffers without a throwaway encode.
pub fn coded_len(info_len: usize, rate: CodeRate) -> usize {
    let pattern = rate.puncture_pattern();
    let per_cycle: usize = pattern.iter().map(|&(a, b)| a as usize + b as usize).sum();
    let steps = info_len + CONSTRAINT_LENGTH - 1;
    let mut n = (steps / pattern.len()) * per_cycle;
    for &(a, b) in &pattern[..steps % pattern.len()] {
        n += a as usize + b as usize;
    }
    n
}

// alloc-free: begin encode_append (kernel -- caller-owned output buffer)
/// [`encode`] appending to a caller-owned buffer (bit-identical output;
/// no allocation once `out` has capacity).
pub fn encode_append(bits: &[u8], rate: CodeRate, out: &mut Vec<u8>) {
    let pattern = rate.puncture_pattern();
    let mut state = 0usize;
    for (i, &bit) in bits
        .iter()
        .chain(std::iter::repeat(&0u8).take(CONSTRAINT_LENGTH - 1))
        .enumerate()
    {
        debug_assert!(bit <= 1);
        let reg = (state << 1) | bit as usize;
        let (a, b) = OUTPUTS[reg];
        let (keep_a, keep_b) = pattern[i % pattern.len()];
        if keep_a {
            out.push(a as u8);
        }
        if keep_b {
            out.push(b as u8);
        }
        state = reg & (STATES - 1);
    }
}
// alloc-free: end encode_append

/// Hard-decision Viterbi decoding of on-air coded bits: each bit enters
/// [`viterbi_decode_into`] as a unit LLR (`+1` for a 0, `-1` for a 1).
/// Returns the decoded information bits (tail removed).
///
/// # Panics
/// Panics if `coded` is shorter than the encoder would have produced for
/// `info_len` bits.
pub fn viterbi_decode(coded: &[u8], info_len: usize, rate: CodeRate) -> Vec<u8> {
    let llrs: Vec<f64> = coded.iter().map(|&b| hard_llr(b)).collect();
    let mut out = Vec::with_capacity(info_len);
    viterbi_decode_into(&llrs, info_len, rate, &mut ViterbiScratch::new(), &mut out);
    out
}

/// A hard bit as a unit log-likelihood ratio: `+1` for a 0, `-1` for a 1.
pub(crate) fn hard_llr(bit: u8) -> f64 {
    if bit == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Reusable state for [`viterbi_decode_into`]: the full predecessor matrix.
/// It grows to the longest frame decoded, then the warmed Monte-Carlo loop
/// never touches the allocator.
#[derive(Clone, Debug, Default)]
pub struct ViterbiScratch {
    /// Flat `total_steps x STATES` predecessor matrix.
    pred: Vec<u8>,
}

impl ViterbiScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Branch costs `[cost if the coded bit is 0, cost if it is 1]` of one
/// received LLR (positive favours 0): the hypothesis the LLR disfavours
/// pays its magnitude.
fn branch_costs(llr: f64) -> [f64; 2] {
    [(-llr).max(0.0), llr.max(0.0)]
}

// alloc-free: begin viterbi_decode_into (kernel -- caller-owned scratch)
/// The Viterbi decoder matching [`encode`] (same rate, same termination),
/// over one LLR per *transmitted* coded bit (punctured positions absent),
/// `llr = log P(bit=0 | y) - log P(bit=1 | y)`. Writes the decoded
/// information bits into `out`, with all working state in `scratch`.
///
/// One trellis serves hard and soft decoding. Path metrics accumulate as
/// `(metric + cost_a) + cost_b`; a punctured position costs `+0.0`, which
/// leaves a (never negative-zero) metric unchanged. On unit LLRs (`±1`)
/// every metric is a small integer, exact in `f64`, so hard decoding makes
/// the Hamming-distance decisions. Ties keep the lower-numbered
/// predecessor.
///
/// # Panics
/// Panics if `llrs` is shorter than the encoder would have produced for
/// `info_len` bits.
pub fn viterbi_decode_into(
    llrs: &[f64],
    info_len: usize,
    rate: CodeRate,
    scratch: &mut ViterbiScratch,
    out: &mut Vec<u8>,
) {
    assert!(
        llrs.len() >= coded_len(info_len, rate),
        "coded sequence too short"
    );
    let pattern = rate.puncture_pattern();
    let total_steps = info_len + CONSTRAINT_LENGTH - 1;

    const INF: f64 = f64::MAX / 4.0;
    let mut metric = [INF; STATES];
    metric[0] = 0.0;
    let mut next = [INF; STATES];
    scratch.pred.clear();
    scratch.pred.resize(total_steps * STATES, 0);

    let mut idx = 0usize;
    let mut take = |keep: bool| {
        if keep {
            idx += 1;
            branch_costs(llrs[idx - 1])
        } else {
            [0.0; 2]
        }
    };
    for (i, choice) in scratch.pred.chunks_exact_mut(STATES).enumerate() {
        let (keep_a, keep_b) = pattern[i % pattern.len()];
        let cost_a = take(keep_a);
        let cost_b = take(keep_b);
        next.fill(INF);
        for (s, &from) in metric.iter().enumerate() {
            if from >= INF {
                continue;
            }
            for bit in 0..2 {
                let reg = (s << 1) | bit;
                let (a, b) = OUTPUTS[reg];
                let ns = reg & (STATES - 1);
                let m = (from + cost_a[a]) + cost_b[b];
                if m < next[ns] {
                    next[ns] = m;
                    // Predecessor state fits in u8 for K=7 (64 states).
                    choice[ns] = s as u8;
                }
            }
        }
        std::mem::swap(&mut metric, &mut next);
    }

    // Terminated trellis: trace back from state 0.
    let mut state = 0usize;
    out.clear();
    out.resize(total_steps, 0);
    for i in (0..total_steps).rev() {
        let prev = scratch.pred[i * STATES + state] as usize;
        // state = ((prev << 1) | bit) & mask, so the input bit is state's LSB.
        out[i] = (state & 1) as u8;
        state = prev;
    }
    out.truncate(info_len);
}
// alloc-free: end viterbi_decode_into

/// `p^k` / `q^k` for every exponent the union bound touches, each entry the
/// exact `powi` the direct expression evaluated (`p^k` needs `k <= d`,
/// `q^(d-k)` only `d - k <= d/2`). One `coded_ber` call shares a single
/// crossover probability across all weights, so hoisting the tables
/// replaces ~80 `powi` evaluations with 29 without changing a bit.
fn power_tables(p: f64, q: f64) -> ([f64; MAX_WEIGHT + 1], [f64; MAX_WEIGHT / 2 + 1]) {
    let mut pk = [0.0f64; MAX_WEIGHT + 1];
    let mut qk = [0.0f64; MAX_WEIGHT / 2 + 1];
    for (k, cell) in pk.iter_mut().enumerate() {
        *cell = p.powi(k as i32);
    }
    for (k, cell) in qk.iter_mut().enumerate() {
        *cell = q.powi(k as i32);
    }
    (pk, qk)
}

/// Pairwise error probability of a weight-`d` error event on a binary
/// symmetric channel (hard-decision Viterbi), reading the hoisted power
/// tables (same op sequence as the direct per-term expression).
fn pairwise_error_tab(d: u32, pk: &[f64], qk: &[f64]) -> f64 {
    let d = d as i64;
    let mut sum = 0.0;
    if d % 2 == 0 {
        let k = d / 2;
        sum += 0.5 * binom(d, k) * pk[k as usize] * qk[(d - k) as usize];
        for k in (d / 2 + 1)..=d {
            sum += binom(d, k) * pk[k as usize] * qk[(d - k) as usize];
        }
    } else {
        for k in ((d + 1) / 2)..=d {
            sum += binom(d, k) * pk[k as usize] * qk[(d - k) as usize];
        }
    }
    sum.min(1.0)
}

/// Largest error-event weight in any [`CodeRate::weight_spectrum`], bounding
/// the binomial table below.
const MAX_WEIGHT: usize = 18;

/// `C(n, k)` for the small arguments the union bound needs, from a table
/// computed once by [`binom_compute`] -- the rate predictor evaluates
/// `pairwise_error` inside the equi-SINR drop loop, so these coefficients
/// are read millions of times per suite. Values are the exact f64s the
/// direct computation produces (same op sequence at fill time), so tabling
/// them is bit-identical.
fn binom(n: i64, k: i64) -> f64 {
    static TABLE: std::sync::OnceLock<[[f64; MAX_WEIGHT + 1]; MAX_WEIGHT + 1]> =
        std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [[0.0; MAX_WEIGHT + 1]; MAX_WEIGHT + 1];
        for (n, row) in t.iter_mut().enumerate() {
            for (k, cell) in row.iter_mut().enumerate().take(n + 1) {
                *cell = binom_compute(n as i64, k as i64);
            }
        }
        t
    });
    debug_assert!((0..=n).contains(&k));
    match table.get(n as usize).and_then(|row| row.get(k as usize)) {
        Some(&v) => v,
        None => binom_compute(n, k),
    }
}

fn binom_compute(n: i64, k: i64) -> f64 {
    let k = k.min(n - k);
    let mut r = 1.0f64;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

/// Coded BER after Viterbi decoding, from the channel (uncoded) BER `p`, via
/// the union bound with the code's weight spectrum. Clamped to `[0, 0.5]`.
pub fn coded_ber(p: f64, rate: CodeRate) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    let (k_num, _) = rate.ratio();
    // Same clamp `pairwise_error` applies per term, hoisted with the power
    // tables (every term sees the same crossover probability).
    let pc = p.min(0.5);
    let (pk, qk) = power_tables(pc, 1.0 - pc);
    let sum: f64 = rate
        .weight_spectrum()
        .iter()
        .map(|&(d, c)| c * pairwise_error_tab(d, &pk, &qk))
        .sum();
    (sum / k_num as f64).clamp(0.0, 0.5)
}

/// Frame error rate of an `len_bytes`-byte MPDU at coded BER `pb`:
/// `1 - (1 - pb)^(8 * len_bytes)`.
pub fn frame_error_rate(pb: f64, len_bytes: usize) -> f64 {
    frame_error_rate_bits(pb, len_bytes * 8)
}

/// [`frame_error_rate`] for a payload measured in bits rather than whole
/// bytes (the waveform validator's frames are sized by OFDM symbol count,
/// so their payloads are not byte multiples).
pub fn frame_error_rate_bits(pb: f64, len_bits: usize) -> f64 {
    let bits = len_bits as f64;
    if pb <= 0.0 {
        return 0.0;
    }
    if pb >= 1.0 {
        return 1.0;
    }
    // ln1p for numerical accuracy at tiny pb.
    1.0 - (bits * (-pb).ln_1p()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::SimRng;

    #[test]
    fn encode_rate_half_length() {
        let bits = vec![1, 0, 1, 1, 0, 0, 1, 0];
        let coded = encode(&bits, CodeRate::R12);
        assert_eq!(coded.len(), (bits.len() + 6) * 2);
    }

    #[test]
    fn punctured_lengths() {
        // 60 info bits + 6 tail = 66 steps.
        let bits = vec![0u8; 60];
        // R23: per 2 steps keep 3 -> 66/2*3 = 99.
        assert_eq!(encode(&bits, CodeRate::R23).len(), 99);
        // R34: per 3 steps keep 4 -> 66/3*4 = 88.
        assert_eq!(encode(&bits, CodeRate::R34).len(), 88);
        // R56: per 5 steps keep 6 -> 66 = 13*5+1; 13*6 + 2(first step keeps both) = 80.
        assert_eq!(encode(&bits, CodeRate::R56).len(), 80);
    }

    #[test]
    fn viterbi_decodes_clean_channel() {
        let mut rng = SimRng::seed_from(4);
        for rate in CodeRate::ALL {
            let bits: Vec<u8> = (0..120).map(|_| (rng.next_u64() & 1) as u8).collect();
            let coded = encode(&bits, rate);
            let decoded = viterbi_decode(&coded, bits.len(), rate);
            assert_eq!(decoded, bits, "clean decode failed at rate {rate}");
        }
    }

    #[test]
    fn viterbi_corrects_errors_at_rate_half() {
        // Rate 1/2, dfree = 10: up to 4 well-separated bit flips correctable.
        let mut rng = SimRng::seed_from(5);
        let bits: Vec<u8> = (0..200).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut coded = encode(&bits, CodeRate::R12);
        for &pos in &[10usize, 100, 200, 300] {
            coded[pos] ^= 1;
        }
        let decoded = viterbi_decode(&coded, bits.len(), CodeRate::R12);
        assert_eq!(decoded, bits);
    }

    #[test]
    fn viterbi_beats_uncoded_on_noisy_channel() {
        // Empirical check that the decoder actually corrects: BSC with p=0.02,
        // rate 1/2 should decode with far fewer errors than 2%.
        let mut rng = SimRng::seed_from(6);
        let n = 2000;
        let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut coded = encode(&bits, CodeRate::R12);
        let mut flips = 0;
        for b in coded.iter_mut() {
            if rng.uniform() < 0.02 {
                *b ^= 1;
                flips += 1;
            }
        }
        assert!(flips > 0);
        let decoded = viterbi_decode(&coded, n, CodeRate::R12);
        let errs = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        assert!(
            (errs as f64 / n as f64) < 0.002,
            "decoder left {errs}/{n} errors"
        );
    }

    #[test]
    fn coded_ber_ordering_and_limits() {
        // More redundancy -> lower coded BER at the same channel BER.
        for &p in &[1e-3, 5e-3, 1e-2] {
            let bers: Vec<f64> = CodeRate::ALL.iter().map(|&r| coded_ber(p, r)).collect();
            for w in bers.windows(2) {
                assert!(w[0] <= w[1], "rate ordering violated at p={p}: {bers:?}");
            }
        }
        assert_eq!(coded_ber(0.0, CodeRate::R12), 0.0);
        assert!(coded_ber(0.4, CodeRate::R12) <= 0.5);
    }

    #[test]
    fn coded_ber_monotone_in_channel_ber() {
        for rate in CodeRate::ALL {
            let mut prev = 0.0;
            for i in 0..60 {
                let p = 10f64.powf(-6.0 + i as f64 * 0.1);
                let c = coded_ber(p, rate);
                assert!(c >= prev - 1e-18, "not monotone at p={p}, rate {rate}");
                prev = c;
            }
        }
    }

    #[test]
    fn union_bound_tracks_simulation() {
        // At channel BER 1%, rate 1/2: simulate and compare order of magnitude.
        let p = 0.01;
        let predicted = coded_ber(p, CodeRate::R12);
        let mut rng = SimRng::seed_from(77);
        let n = 40_000;
        let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
        let mut coded = encode(&bits, CodeRate::R12);
        for b in coded.iter_mut() {
            if rng.uniform() < p {
                *b ^= 1;
            }
        }
        let decoded = viterbi_decode(&coded, n, CodeRate::R12);
        let errs = decoded.iter().zip(&bits).filter(|(a, b)| a != b).count();
        let sim = errs as f64 / n as f64;
        // Union bound is an upper bound; it should not be below the simulation
        // by much, nor absurdly far above.
        assert!(
            predicted >= sim * 0.3 && predicted <= sim * 50.0 + 1e-6,
            "union bound {predicted:e} vs simulated {sim:e}"
        );
    }

    #[test]
    fn fer_properties() {
        assert_eq!(frame_error_rate(0.0, 1500), 0.0);
        assert_eq!(frame_error_rate(1.0, 1500), 1.0);
        let f1 = frame_error_rate(1e-6, 1500);
        let f2 = frame_error_rate(1e-5, 1500);
        assert!(f1 < f2 && f2 < 1.0);
        // ~ bits * pb for tiny pb.
        assert!((f1 / (12000.0 * 1e-6) - 1.0).abs() < 0.01);
    }

    #[test]
    fn coded_len_matches_encode() {
        for rate in CodeRate::ALL {
            for info in [1usize, 7, 60, 100, 731] {
                assert_eq!(
                    coded_len(info, rate),
                    encode(&vec![0u8; info], rate).len(),
                    "rate {rate}, {info} info bits"
                );
            }
        }
    }

    #[test]
    fn pooled_viterbi_is_bit_identical_and_reusable() {
        let mut rng = SimRng::seed_from(17);
        let mut scratch = ViterbiScratch::new();
        let mut out = Vec::new();
        // Reuse scratch across rates and frame lengths, with injected errors.
        for rate in CodeRate::ALL {
            for info in [40usize, 173] {
                let bits: Vec<u8> = (0..info).map(|_| (rng.next_u64() & 1) as u8).collect();
                let mut coded = encode(&bits, rate);
                for b in coded.iter_mut() {
                    if rng.uniform() < 0.02 {
                        *b ^= 1;
                    }
                }
                let owned = viterbi_decode(&coded, info, rate);
                let llrs: Vec<f64> = coded.iter().map(|&b| hard_llr(b)).collect();
                viterbi_decode_into(&llrs, info, rate, &mut scratch, &mut out);
                assert_eq!(owned, out, "rate {rate}, {info} info bits");
            }
        }
    }

    fn confident_llrs(coded: &[u8], confidence: f64) -> Vec<f64> {
        coded.iter().map(|&b| hard_llr(b) * confidence).collect()
    }

    fn decode_llrs(llrs: &[f64], info_len: usize, rate: CodeRate) -> Vec<u8> {
        let mut out = Vec::new();
        viterbi_decode_into(llrs, info_len, rate, &mut ViterbiScratch::new(), &mut out);
        out
    }

    #[test]
    fn soft_decoder_inverts_encoder_with_confident_llrs() {
        let mut rng = SimRng::seed_from(1);
        for rate in CodeRate::ALL {
            let bits: Vec<u8> = (0..150).map(|_| (rng.next_u64() & 1) as u8).collect();
            let coded = encode(&bits, rate);
            let decoded = decode_llrs(&confident_llrs(&coded, 4.0), bits.len(), rate);
            assert_eq!(decoded, bits, "rate {rate}");
        }
    }

    #[test]
    fn weak_llrs_are_overruled_by_strong_ones() {
        // Flip a few bits but mark them low-confidence: the decoder still
        // recovers the payload.
        let mut rng = SimRng::seed_from(2);
        let bits: Vec<u8> = (0..200).map(|_| (rng.next_u64() & 1) as u8).collect();
        let coded = encode(&bits, CodeRate::R12);
        let mut llrs = confident_llrs(&coded, 4.0);
        for &pos in &[5usize, 50, 100, 150, 200, 250] {
            llrs[pos] = -llrs[pos] * 0.1; // wrong, but weak
        }
        assert_eq!(decode_llrs(&llrs, bits.len(), CodeRate::R12), bits);
    }

    #[test]
    fn soft_beats_hard_on_noisy_channel() {
        // The classic ~2 dB soft-decision gain: at an SNR where hard
        // decoding leaves errors, soft decoding leaves fewer.
        use crate::mapper::Mapper;
        use crate::modulation::Modulation;
        let mut rng = SimRng::seed_from(4);
        let mapper = Mapper::new(Modulation::Qpsk);
        let rate = CodeRate::R12;
        let n = 3000;
        let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
        let coded = encode(&bits, rate);
        let snr = copa_num::special::db_to_lin(1.5);
        let sigma = (1.0 / snr).sqrt();
        let mut hard = Vec::new();
        let mut llrs = Vec::new();
        // Map coded bits to QPSK symbols (the odd tail bit padded with 0).
        for pair in coded.chunks(2) {
            let group = [pair[0], pair.get(1).copied().unwrap_or(0)];
            let y = mapper.map_symbol(&group) + rng.randc().scale(sigma);
            mapper.demap_symbol(y, &mut hard);
            mapper.demap_soft(y, 1.0 / snr, &mut llrs);
        }
        let hard_errs = viterbi_decode(&hard[..coded.len()], n, rate)
            .iter()
            .zip(&bits)
            .filter(|(a, b)| a != b)
            .count();
        let soft_errs = decode_llrs(&llrs[..coded.len()], n, rate)
            .iter()
            .zip(&bits)
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            soft_errs < hard_errs,
            "soft ({soft_errs}) should beat hard ({hard_errs}) at 1.5 dB"
        );
    }

    #[test]
    fn frame_error_rate_bits_consistent_with_bytes() {
        for pb in [1e-7, 1e-4, 0.02] {
            assert_eq!(
                frame_error_rate(pb, 1500),
                frame_error_rate_bits(pb, 1500 * 8)
            );
        }
        assert_eq!(frame_error_rate_bits(0.0, 999), 0.0);
        assert_eq!(frame_error_rate_bits(1.0, 999), 1.0);
    }

    #[test]
    fn spectra_start_at_free_distance() {
        assert_eq!(CodeRate::R12.weight_spectrum()[0].0, 10);
        assert_eq!(CodeRate::R23.weight_spectrum()[0].0, 6);
        assert_eq!(CodeRate::R34.weight_spectrum()[0].0, 5);
        assert_eq!(CodeRate::R56.weight_spectrum()[0].0, 4);
    }
}

//! Symbol-level OFDM baseband: the full 802.11n bit pipeline, for one to
//! four spatial streams.
//!
//! `scramble -> convolutional encode (punctured) -> stream parse and
//! interleave per OFDM symbol -> Gray-map -> subcarriers` and the exact
//! reverse, with hard- or soft-decision demapping into one Viterbi trellis,
//! plus the zero-forcing stage that separates spatial streams at a
//! multi-antenna receiver. The analytic BER/throughput models in
//! [`crate::link`] are validated against this bit-true chain by Monte-Carlo
//! tests in `copa-sim`.
//!
//! A time-domain OFDM modulator (64-point IFFT + 16-sample cyclic prefix at
//! 20 MHz) is included for completeness; over a CP-contained multipath
//! channel it is equivalent to per-subcarrier complex multiplication, which
//! is what the link simulations use.

use crate::coding::{
    coded_len, encode_append, viterbi_decode_into, ViterbiScratch, CONSTRAINT_LENGTH,
};
use crate::interleaver::Interleaver;
use crate::mapper::Mapper;
use crate::mcs::Mcs;
use crate::ofdm::{DATA_BINS, DATA_SUBCARRIERS, FFT_SIZE};
use crate::scrambler::Scrambler;
use copa_num::complex::{C64, ZERO};
use copa_num::fft::{fft, ifft};
use copa_num::matrix::CMat;
use copa_num::solve::{inverse_loaded_into, LuScratch};

/// Cyclic prefix length in samples (800 ns at 20 MHz).
pub const CP_SAMPLES: usize = 16;

/// A frame of per-subcarrier symbols in one flat buffer, reusable across
/// frames without reallocation. With `S` spatial streams, stream `k` of OFDM
/// symbol `t` on data subcarrier `s` is `data[(t * S + k) * 52 + s]`; at one
/// stream that is `data[t * 52 + s]`. Unit average energy per subcarrier.
#[derive(Clone, Debug, Default)]
pub struct FlatSymbols {
    data: Vec<C64>,
    n_symbols: usize,
    payload_bits: usize,
}

impl FlatSymbols {
    /// An empty buffer; grows on first use and is then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of OFDM symbols held.
    pub fn n_symbols(&self) -> usize {
        self.n_symbols
    }

    /// Payload bits carried (before padding).
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// All symbols, flat.
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }
}

/// Reusable working buffers for [`Chain::transmit_into`] and the receive
/// paths: one scratch serves any MCS and stream count, growing to the
/// largest frame seen and allocation-free thereafter.
#[derive(Clone, Debug, Default)]
pub struct ChainScratch {
    bits: Vec<u8>,
    coded: Vec<u8>,
    /// One OFDM symbol's coded bits in subcarrier order (transmit).
    window: Vec<u8>,
    /// One OFDM symbol's LLRs in subcarrier order (receive).
    slots: Vec<f64>,
    /// The frame's LLRs in coded order (receive).
    llrs: Vec<f64>,
    viterbi: ViterbiScratch,
}

impl ChainScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The 802.11n transmit/receive bit pipeline for one MCS, with equal
/// modulation on 1 to 4 spatial streams.
#[derive(Clone, Debug)]
pub struct Chain {
    mcs: Mcs,
    streams: usize,
    mapper: Mapper,
    /// The stream parser composed with every stream's interleaver: coded
    /// bit `i` of an OFDM symbol's `streams x N_CBPS` window goes to slot
    /// `perm[i]`, which is bit `perm[i] % N_CBPS` of stream
    /// `perm[i] / N_CBPS`'s subcarrier-ordered block.
    perm: Vec<usize>,
    scrambler_seed: u8,
}

impl Chain {
    /// Builds the pipeline for an MCS on `streams` spatial streams
    /// (scrambler seed fixed for reproducibility; any nonzero value works).
    ///
    /// The 802.11n round-robin stream parser (22.3.10.6, equal modulation)
    /// deals `max(N_BPSC / 2, 1)`-bit groups of each OFDM symbol's window to
    /// streams 0, 1, ... in turn; each stream then interleaves its
    /// `N_CBPS` bits. `N_CBPS` is a multiple of the group size and padding
    /// fills whole windows, so dealing per window equals dealing the whole
    /// frame. At one stream `perm` is the interleaver's own permutation.
    ///
    /// # Panics
    /// Panics unless `1 <= streams <= 4`.
    pub fn new(mcs: Mcs, streams: usize) -> Self {
        assert!(
            (1..=4).contains(&streams),
            "802.11n carries 1 to 4 spatial streams, not {streams}"
        );
        let interleaver = Interleaver::new(mcs.modulation);
        let forward = interleaver.permutation();
        let n_cbps = interleaver.block_len();
        let group = (mcs.modulation.bits_per_symbol() as usize / 2).max(1);
        let perm = (0..streams * n_cbps)
            .map(|i| {
                let g = i / group;
                let (stream, round) = (g % streams, g / streams);
                stream * n_cbps + forward[round * group + i % group]
            })
            .collect();
        Self {
            mcs,
            streams,
            mapper: Mapper::new(mcs.modulation),
            perm,
            scrambler_seed: 0x5D,
        }
    }

    /// The MCS this chain implements.
    pub fn mcs(&self) -> Mcs {
        self.mcs
    }

    /// Payload bits that fit in `n_symbols` OFDM symbols across all streams
    /// (ignoring tail rounding; useful for sizing test frames).
    pub fn payload_capacity(&self, n_symbols: usize) -> usize {
        let coded = n_symbols * self.perm.len();
        let (k, n) = self.mcs.rate.ratio();
        (coded * k / n).saturating_sub(CONSTRAINT_LENGTH - 1)
    }

    // alloc-free: begin chain_into (kernel -- caller-owned scratch)
    /// Encodes payload bits into per-stream, per-subcarrier symbols
    /// ([`FlatSymbols`] order), with no allocation once the scratch and
    /// `out` have grown to the frame size.
    pub fn transmit_into(&self, payload: &[u8], scratch: &mut ChainScratch, out: &mut FlatSymbols) {
        scratch.bits.clear();
        scratch.bits.extend_from_slice(payload);
        Scrambler::new(self.scrambler_seed).process(&mut scratch.bits);
        scratch.coded.clear();
        encode_append(&scratch.bits, self.mcs.rate, &mut scratch.coded);
        // Pad so every stream fills whole OFDM symbols, equally.
        let window = self.perm.len();
        let padded = scratch.coded.len().div_ceil(window) * window;
        scratch.coded.resize(padded, 0);
        out.data.clear();
        out.n_symbols = padded / window;
        out.payload_bits = payload.len();
        scratch.window.resize(window, 0);
        for chunk in scratch.coded.chunks_exact(window) {
            for (&bit, &slot) in chunk.iter().zip(&self.perm) {
                scratch.window[slot] = bit;
            }
            for group in scratch.window.chunks_exact(self.mapper.bits_per_symbol()) {
                out.data.push(self.mapper.map_symbol(group));
            }
        }
    }

    /// Hard-decision receive: decodes equalized symbols in [`FlatSymbols`]
    /// order back to `payload_bits` payload bits, allocation-free once
    /// warmed. Each hard decision enters the trellis as a unit LLR.
    pub fn receive_into(
        &self,
        symbols: &[C64],
        payload_bits: usize,
        scratch: &mut ChainScratch,
        out: &mut Vec<u8>,
    ) {
        self.receive_llrs(symbols, None, payload_bits, scratch, out);
    }

    /// Soft-decision receive: per-subcarrier max-log LLR demapping into the
    /// same trellis (the ~2 dB-better path real receivers use).
    ///
    /// `noise_var[i]` is the post-equalization complex noise variance of
    /// `symbols[i]` (for zero-forcing this is `noise / |h|^2`, or the
    /// post-ZF variance [`zero_force_into`] writes, so faded subcarriers
    /// contribute weak LLRs -- exactly the per-subcarrier reliability
    /// information hard decisions throw away).
    pub fn receive_soft_into(
        &self,
        symbols: &[C64],
        noise_var: &[f64],
        payload_bits: usize,
        scratch: &mut ChainScratch,
        out: &mut Vec<u8>,
    ) {
        assert_eq!(
            symbols.len(),
            noise_var.len(),
            "one noise variance per symbol"
        );
        self.receive_llrs(symbols, Some(noise_var), payload_bits, scratch, out);
    }

    /// The one receive body: demap each OFDM symbol's window, gather it
    /// into coded order, trim the padding, decode, descramble.
    fn receive_llrs(
        &self,
        symbols: &[C64],
        noise_var: Option<&[f64]>,
        payload_bits: usize,
        scratch: &mut ChainScratch,
        out: &mut Vec<u8>,
    ) {
        let window = self.streams * DATA_SUBCARRIERS;
        assert_eq!(symbols.len() % window, 0, "need whole OFDM symbols");
        scratch.llrs.clear();
        for (t, syms) in symbols.chunks_exact(window).enumerate() {
            scratch.slots.clear();
            for (j, &y) in syms.iter().enumerate() {
                match noise_var {
                    None => self.mapper.demap_hard_llr(y, &mut scratch.slots),
                    Some(nv) => self
                        .mapper
                        .demap_soft(y, nv[t * window + j], &mut scratch.slots),
                }
            }
            scratch
                .llrs
                .extend(self.perm.iter().map(|&slot| scratch.slots[slot]));
        }
        scratch
            .llrs
            .truncate(coded_len(payload_bits, self.mcs.rate));
        viterbi_decode_into(
            &scratch.llrs,
            payload_bits,
            self.mcs.rate,
            &mut scratch.viterbi,
            out,
        );
        Scrambler::new(self.scrambler_seed).process(out);
    }
    // alloc-free: end chain_into
}

/// Reusable working matrices for [`zero_force_into`].
#[derive(Clone, Debug, Default)]
pub struct ZfScratch {
    herm: CMat,
    gram: CMat,
    gram_inv: CMat,
    pinv: CMat,
    y: CMat,
    xhat: CMat,
    lu: LuScratch,
}

impl ZfScratch {
    /// An empty scratch; matrices grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

// alloc-free: begin zero_force_into (kernel -- caller-owned scratch)
/// Zero-forcing stream separation at a multi-antenna receiver.
///
/// `observations[(t * 52 + s) * rx + r]` is rx antenna `r`'s sample on OFDM
/// symbol `t`, data subcarrier `s`; `effective[s]` is the `rx x streams`
/// effective channel `H_s P_s diag(sqrt(p))`; `noise_var` the per-antenna
/// complex noise variance. Per subcarrier it applies the loaded
/// pseudo-inverse `(Q^H Q + eps I)^{-1} Q^H`, writing the stream estimates
/// to `symbols` in [`FlatSymbols`] order and each one's post-ZF noise
/// variance `noise_var * [(Q^H Q + eps I)^{-1}]_kk` to `post_noise`, ready
/// for [`Chain::receive_soft_into`]. Allocation-free once warmed.
pub fn zero_force_into(
    observations: &[C64],
    effective: &[CMat],
    noise_var: f64,
    scratch: &mut ZfScratch,
    symbols: &mut Vec<C64>,
    post_noise: &mut Vec<f64>,
) {
    assert_eq!(
        effective.len(),
        DATA_SUBCARRIERS,
        "one channel per data subcarrier"
    );
    let (rx, streams) = (effective[0].rows(), effective[0].cols());
    assert_eq!(
        observations.len() % (DATA_SUBCARRIERS * rx),
        0,
        "need whole OFDM symbols"
    );
    let n_symbols = observations.len() / (DATA_SUBCARRIERS * rx);
    let len = n_symbols * streams * DATA_SUBCARRIERS;
    symbols.clear();
    symbols.resize(len, ZERO);
    post_noise.clear();
    post_noise.resize(len, 0.0);
    let eps = noise_var.max(1e-18) * 1e-6;
    for (s, q) in effective.iter().enumerate() {
        assert_eq!(
            (q.rows(), q.cols()),
            (rx, streams),
            "one shape for every subcarrier"
        );
        q.hermitian_into(&mut scratch.herm);
        scratch.herm.mul_into(q, &mut scratch.gram);
        inverse_loaded_into(&scratch.gram, eps, &mut scratch.lu, &mut scratch.gram_inv);
        scratch.gram_inv.mul_into(&scratch.herm, &mut scratch.pinv);
        for t in 0..n_symbols {
            scratch.y.reset(rx, 1);
            let at = (t * DATA_SUBCARRIERS + s) * rx;
            scratch
                .y
                .as_mut_slice()
                .copy_from_slice(&observations[at..at + rx]);
            scratch.pinv.mul_into(&scratch.y, &mut scratch.xhat);
            for k in 0..streams {
                let slot = (t * streams + k) * DATA_SUBCARRIERS + s;
                symbols[slot] = scratch.xhat[(k, 0)];
                post_noise[slot] = noise_var * scratch.gram_inv[(k, k)].re.max(1e-30);
            }
        }
    }
}
// alloc-free: end zero_force_into

/// Time-domain OFDM modulation of one symbol: places the 52 data symbols on
/// their FFT bins, IFFTs, and prepends the cyclic prefix
/// (returns `FFT_SIZE + CP_SAMPLES` samples).
pub fn ofdm_modulate(data: &[C64]) -> Vec<C64> {
    assert_eq!(data.len(), DATA_SUBCARRIERS);
    let mut freq = vec![ZERO; FFT_SIZE];
    for (&bin, &x) in DATA_BINS.iter().zip(data) {
        freq[bin] = x;
    }
    let time = ifft(&freq);
    let mut out = Vec::with_capacity(FFT_SIZE + CP_SAMPLES);
    out.extend_from_slice(&time[FFT_SIZE - CP_SAMPLES..]);
    out.extend_from_slice(&time);
    out
}

/// Inverse of [`ofdm_modulate`]: strips the CP, FFTs, extracts data bins.
pub fn ofdm_demodulate(samples: &[C64]) -> Vec<C64> {
    assert_eq!(samples.len(), FFT_SIZE + CP_SAMPLES);
    let freq = fft(&samples[CP_SAMPLES..]);
    DATA_BINS.iter().map(|&b| freq[b]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::SimRng;

    fn random_bits(rng: &mut SimRng, n: usize) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    fn transmit(chain: &Chain, payload: &[u8]) -> FlatSymbols {
        let mut out = FlatSymbols::new();
        chain.transmit_into(payload, &mut ChainScratch::new(), &mut out);
        out
    }

    fn receive(chain: &Chain, symbols: &[C64], payload_bits: usize) -> Vec<u8> {
        let mut out = Vec::new();
        chain.receive_into(symbols, payload_bits, &mut ChainScratch::new(), &mut out);
        out
    }

    fn receive_soft(chain: &Chain, symbols: &[C64], noise_var: &[f64], bits: usize) -> Vec<u8> {
        let mut out = Vec::new();
        chain.receive_soft_into(symbols, noise_var, bits, &mut ChainScratch::new(), &mut out);
        out
    }

    fn awgn(rng: &mut SimRng, symbols: &[C64], sigma: f64) -> Vec<C64> {
        symbols
            .iter()
            .map(|&x| x + rng.randc().scale(sigma))
            .collect()
    }

    fn bit_errors(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    #[test]
    fn clean_channel_round_trip_all_mcs_and_streams() {
        let mut rng = SimRng::seed_from(1);
        for streams in 1..=4 {
            for mcs in Mcs::TABLE {
                let chain = Chain::new(mcs, streams);
                let payload = random_bits(&mut rng, chain.payload_capacity(6));
                let frame = transmit(&chain, &payload);
                assert_eq!(frame.as_slice().len(), frame.n_symbols() * streams * 52);
                let decoded = receive(&chain, frame.as_slice(), payload.len());
                assert_eq!(decoded, payload, "{mcs} x{streams}");
            }
        }
    }

    #[test]
    fn survives_additive_noise_within_margin() {
        // MCS0 (BPSK 1/2) at 10 dB SNR decodes error-free with
        // overwhelming probability.
        let mut rng = SimRng::seed_from(2);
        let chain = Chain::new(Mcs::TABLE[0], 1);
        let payload = random_bits(&mut rng, chain.payload_capacity(10));
        let frame = transmit(&chain, &payload);
        let sigma = copa_num::special::db_to_lin(-10.0).sqrt();
        let noisy = awgn(&mut rng, frame.as_slice(), sigma);
        assert_eq!(receive(&chain, &noisy, payload.len()), payload);
    }

    #[test]
    fn high_mcs_fails_at_low_snr() {
        // MCS7 (64-QAM 5/6) at 8 dB must produce bit errors -- the chain is
        // honest about its limits.
        let mut rng = SimRng::seed_from(3);
        let chain = Chain::new(Mcs::TABLE[7], 1);
        let payload = random_bits(&mut rng, chain.payload_capacity(10));
        let frame = transmit(&chain, &payload);
        let sigma = copa_num::special::db_to_lin(-8.0).sqrt();
        let noisy = awgn(&mut rng, frame.as_slice(), sigma);
        let decoded = receive(&chain, &noisy, payload.len());
        assert!(
            bit_errors(&decoded, &payload) > 0,
            "MCS7 at 8 dB should not decode cleanly"
        );
    }

    #[test]
    fn soft_receive_round_trips_cleanly() {
        let mut rng = SimRng::seed_from(7);
        for mcs in [Mcs::TABLE[0], Mcs::TABLE[4], Mcs::TABLE[7]] {
            let chain = Chain::new(mcs, 1);
            let payload = random_bits(&mut rng, chain.payload_capacity(5));
            let frame = transmit(&chain, &payload);
            let nv = vec![1e-4; frame.as_slice().len()];
            let decoded = receive_soft(&chain, frame.as_slice(), &nv, payload.len());
            assert_eq!(decoded, payload, "{mcs}");
        }
    }

    #[test]
    fn soft_receive_beats_hard_at_marginal_snr() {
        // MCS3 (16-QAM 1/2) near its sensitivity threshold: soft decoding
        // should leave fewer bit errors than hard decoding on the same
        // received symbols, aggregated over several frames.
        let mut rng = SimRng::seed_from(8);
        let chain = Chain::new(Mcs::TABLE[3], 1);
        let snr_db = 7.0;
        let sigma2 = copa_num::special::db_to_lin(-snr_db);
        let mut hard_errs = 0usize;
        let mut soft_errs = 0usize;
        for _ in 0..8 {
            let payload = random_bits(&mut rng, chain.payload_capacity(6));
            let frame = transmit(&chain, &payload);
            let noisy = awgn(&mut rng, frame.as_slice(), sigma2.sqrt());
            let hard = receive(&chain, &noisy, payload.len());
            let nv = vec![sigma2; noisy.len()];
            let soft = receive_soft(&chain, &noisy, &nv, payload.len());
            hard_errs += bit_errors(&hard, &payload);
            soft_errs += bit_errors(&soft, &payload);
        }
        assert!(
            soft_errs < hard_errs,
            "soft ({soft_errs}) should beat hard ({hard_errs}) at {snr_db} dB"
        );
    }

    #[test]
    fn reused_scratch_decodes_like_a_fresh_one() {
        // One scratch carried across every MCS and the stream counts
        // 2 -> 1 -> 3, hard and soft, through noise: it must transmit and
        // decode exactly what a fresh scratch does.
        let mut rng = SimRng::seed_from(9);
        let mut scratch = ChainScratch::new();
        let mut flat = FlatSymbols::new();
        let mut decoded = Vec::new();
        for streams in [2, 1, 3] {
            for mcs in Mcs::TABLE {
                let chain = Chain::new(mcs, streams);
                let payload = random_bits(&mut rng, chain.payload_capacity(5));
                chain.transmit_into(&payload, &mut scratch, &mut flat);
                let fresh = transmit(&chain, &payload);
                assert_eq!(flat.n_symbols(), fresh.n_symbols(), "{mcs} x{streams}");
                assert_eq!(flat.payload_bits(), payload.len());
                for (a, b) in flat.as_slice().iter().zip(fresh.as_slice()) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "{mcs} x{streams}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "{mcs} x{streams}");
                }
                let noisy = awgn(&mut rng, flat.as_slice(), 0.15);
                chain.receive_into(&noisy, payload.len(), &mut scratch, &mut decoded);
                assert_eq!(decoded, receive(&chain, &noisy, payload.len()), "{mcs}");
                let nv: Vec<f64> = noisy.iter().map(|_| 0.01 + rng.uniform()).collect();
                chain.receive_soft_into(&noisy, &nv, payload.len(), &mut scratch, &mut decoded);
                assert_eq!(decoded, receive_soft(&chain, &noisy, &nv, payload.len()));
            }
        }
    }

    #[test]
    fn payload_capacity_consistent() {
        for streams in 1..=4 {
            for mcs in Mcs::TABLE {
                let chain = Chain::new(mcs, streams);
                let frame = transmit(&chain, &vec![0u8; chain.payload_capacity(8)]);
                assert!(
                    frame.n_symbols() <= 8,
                    "{mcs} x{streams}: {} symbols for capacity payload",
                    frame.n_symbols()
                );
            }
        }
    }

    #[test]
    fn two_streams_carry_twice_one() {
        let chain1 = Chain::new(Mcs::TABLE[3], 1);
        let chain2 = Chain::new(Mcs::TABLE[3], 2);
        let c1 = chain1.payload_capacity(6) as f64;
        let c2 = chain2.payload_capacity(6) as f64;
        assert!(
            (c2 / c1 - 2.0).abs() < 0.05,
            "2 streams should ~double capacity"
        );
    }

    #[test]
    #[should_panic(expected = "1 to 4 spatial streams")]
    fn five_streams_are_rejected() {
        let _ = Chain::new(Mcs::TABLE[0], 5);
    }

    #[test]
    fn ofdm_time_domain_round_trip() {
        let mut rng = SimRng::seed_from(4);
        let data: Vec<C64> = (0..DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let time = ofdm_modulate(&data);
        assert_eq!(time.len(), 80);
        let back = ofdm_demodulate(&time);
        for (a, b) in data.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn cyclic_prefix_is_a_copy_of_the_tail() {
        let mut rng = SimRng::seed_from(5);
        let data: Vec<C64> = (0..DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let time = ofdm_modulate(&data);
        for i in 0..CP_SAMPLES {
            assert!((time[i] - time[FFT_SIZE + i]).abs() < 1e-12);
        }
    }

    #[test]
    fn cp_absorbs_channel_delay() {
        // A two-tap channel (delay < CP) applied in the time domain equals
        // per-subcarrier multiplication by the channel's frequency response.
        let mut rng = SimRng::seed_from(6);
        let data: Vec<C64> = (0..DATA_SUBCARRIERS).map(|_| rng.randc()).collect();
        let time = ofdm_modulate(&data);
        let h0 = C64::new(0.8, 0.1);
        let h3 = C64::new(-0.3, 0.4);
        // Convolve (circularly valid thanks to the CP; ignore the first
        // CP samples which carry inter-symbol junk in a real stream).
        let mut rx = vec![ZERO; time.len()];
        for (i, &x) in time.iter().enumerate() {
            rx[i] += h0 * x;
            if i + 3 < time.len() {
                rx[i + 3] += h3 * x;
            }
        }
        let received = ofdm_demodulate(&rx);
        // Expected: H[k] * data[k] with H from the tapped delay line.
        let resp = copa_num::fft::tapped_delay_response(&[(0, h0), (3, h3)], FFT_SIZE);
        for ((r, &bin), d) in received.iter().zip(&DATA_BINS).zip(&data) {
            let expect = resp[bin] * *d;
            assert!(
                (*r - expect).abs() < 1e-9,
                "subcarrier at bin {bin}: {r:?} vs {expect:?}"
            );
        }
    }
}

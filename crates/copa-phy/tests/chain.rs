//! The bit-true 802.11n chain end to end: a fingerprint that pins its bits,
//! and multi-stream links through zero-forcing receivers.

use copa_num::complex::C64;
use copa_num::matrix::CMat;
use copa_num::SimRng;
use copa_phy::baseband::{zero_force_into, Chain, ChainScratch, FlatSymbols, ZfScratch};
use copa_phy::mcs::Mcs;
use copa_phy::ofdm::DATA_SUBCARRIERS;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn c64(&mut self, z: C64) {
        self.bytes(&z.re.to_bits().to_le_bytes());
        self.bytes(&z.im.to_bits().to_le_bytes());
    }
}

fn random_bits(rng: &mut SimRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
}

fn bit_errors(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

fn capacity(mcs: Mcs, streams: usize, n_symbols: usize) -> usize {
    Chain::new(mcs, streams).payload_capacity(n_symbols)
}

fn transmit(mcs: Mcs, streams: usize, payload: &[u8]) -> Vec<C64> {
    let mut out = FlatSymbols::new();
    Chain::new(mcs, streams).transmit_into(payload, &mut ChainScratch::new(), &mut out);
    out.as_slice().to_vec()
}

fn receive_hard(mcs: Mcs, symbols: &[C64], payload_bits: usize) -> Vec<u8> {
    let mut out = Vec::new();
    Chain::new(mcs, 1).receive_into(symbols, payload_bits, &mut ChainScratch::new(), &mut out);
    out
}

fn receive_soft(mcs: Mcs, streams: usize, symbols: &[C64], nv: &[f64], bits: usize) -> Vec<u8> {
    let mut out = Vec::new();
    let chain = Chain::new(mcs, streams);
    chain.receive_soft_into(symbols, nv, bits, &mut ChainScratch::new(), &mut out);
    out
}

/// Zero-forcing then soft decoding of `observations[(t * 52 + s) * rx + r]`.
fn receive_zf_soft(
    mcs: Mcs,
    streams: usize,
    observations: &[C64],
    effective: &[CMat],
    noise_var: f64,
    payload_bits: usize,
) -> Vec<u8> {
    let (mut symbols, mut post_noise) = (Vec::new(), Vec::new());
    let mut zf = ZfScratch::new();
    zero_force_into(
        observations,
        effective,
        noise_var,
        &mut zf,
        &mut symbols,
        &mut post_noise,
    );
    receive_soft(mcs, streams, &symbols, &post_noise, payload_bits)
}

/// Well-conditioned effective channels: unit-norm columns, so per-stream
/// SNR is about `1 / noise`.
fn random_effective(rng: &mut SimRng, rx: usize, streams: usize) -> Vec<CMat> {
    (0..DATA_SUBCARRIERS)
        .map(|_| {
            let a = CMat::from_fn(rx, streams, |_, _| rng.randc());
            CMat::from_fn(rx, streams, |i, j| {
                let n: f64 = (0..rx).map(|r| a[(r, j)].norm_sqr()).sum::<f64>().sqrt();
                a[(i, j)].scale(1.0 / n.max(1e-12))
            })
        })
        .collect()
}

/// Sends flat per-stream symbols through per-subcarrier effective channels
/// with AWGN; returns the antenna observations.
fn through_channel(
    symbols: &[C64],
    streams: usize,
    effective: &[CMat],
    noise_var: f64,
    rng: &mut SimRng,
) -> Vec<C64> {
    let n_sym = symbols.len() / (streams * DATA_SUBCARRIERS);
    let mut out = Vec::new();
    for t in 0..n_sym {
        for (s, q) in effective.iter().enumerate() {
            let x = CMat::from_fn(streams, 1, |k, _| {
                symbols[(t * streams + k) * DATA_SUBCARRIERS + s]
            });
            let y = q.matmul(&x);
            for r in 0..q.rows() {
                out.push(y[(r, 0)] + rng.randc().scale(noise_var.sqrt()));
            }
        }
    }
    out
}

const AWGN_SNR_DB: [f64; 8] = [-1.0, 2.5, 5.5, 8.5, 11.5, 15.0, 16.5, 18.0];
const SOFT_SNR_DB: [f64; 8] = [-1.0, 0.5, 4.0, 7.0, 10.0, 14.0, 15.5, 17.0];
const ZF2X2_SNR_DB: [f64; 8] = [0.0, 4.5, 7.5, 10.5, 13.5, 17.0, 18.5, 20.0];
const ZF4X3_SNR_DB: [f64; 8] = [1.0, 3.0, 8.0, 10.0, 14.0, 18.5, 20.0, 21.5];

/// Pins every bit the chain produces. The constants were taken by running
/// this harness against the two chains it replaced (the single-stream
/// chain for one stream, the multi-stream chain for two and three); the
/// SNRs sit on each MCS's waterfall, so every decoding part has errors to
/// correct and any change in a symbol or an LLR moves a hash.
#[test]
fn chain_bits_match_the_pinned_fingerprint() {
    let mut rng = SimRng::seed_from(0xF1E6_E4A1);

    // 1. Transmitted symbols: 1..=3 streams, all MCS, full and short payloads.
    let mut h = Fnv::new();
    for streams in 1..=3 {
        for mcs in Mcs::TABLE {
            for len in [capacity(mcs, streams, 3), 37] {
                let payload = random_bits(&mut rng, len);
                for z in transmit(mcs, streams, &payload) {
                    h.c64(z);
                }
            }
        }
    }
    assert_eq!(h.0, 0x3173_8659_7715_f051, "transmitted symbols");

    // 2. Hard decoding over AWGN, one stream.
    let mut h = Fnv::new();
    for (i, mcs) in Mcs::TABLE.into_iter().enumerate() {
        let sigma = copa_num::special::db_to_lin(-AWGN_SNR_DB[i]).sqrt();
        let mut errors = 0;
        for _ in 0..3 {
            let payload = random_bits(&mut rng, capacity(mcs, 1, 4));
            let noisy: Vec<C64> = transmit(mcs, 1, &payload)
                .into_iter()
                .map(|x| x + rng.randc().scale(sigma))
                .collect();
            let decoded = receive_hard(mcs, &noisy, payload.len());
            errors += bit_errors(&decoded, &payload);
            h.bytes(&decoded);
        }
        assert!(errors > 0, "{mcs}: hard part must exercise the decoder");
    }
    assert_eq!(h.0, 0xf4ae_f425_5d7f_4707, "hard decoding");

    // 3. Soft decoding with per-subcarrier noise variance, one stream.
    let mut h = Fnv::new();
    for (i, mcs) in Mcs::TABLE.into_iter().enumerate() {
        let base = copa_num::special::db_to_lin(-SOFT_SNR_DB[i]);
        for _ in 0..3 {
            let payload = random_bits(&mut rng, capacity(mcs, 1, 4));
            let tx = transmit(mcs, 1, &payload);
            let nv: Vec<f64> = tx
                .iter()
                .map(|_| base * (0.2 + 2.0 * rng.uniform()))
                .collect();
            let noisy: Vec<C64> = tx
                .iter()
                .zip(&nv)
                .map(|(&x, &v)| x + rng.randc().scale(v.sqrt()))
                .collect();
            h.bytes(&receive_soft(mcs, 1, &noisy, &nv, payload.len()));
        }
    }
    assert_eq!(h.0, 0x7c8d_c8ef_1934_fe46, "soft decoding");

    // 4. Zero-forcing + soft decoding at 2x2 and 4x3.
    let pinned = [0xc8b1_b972_2c5c_782d_u64, 0x48d4_2a34_b8ff_941e];
    for ((rx, streams, snr_db), want) in [(2, 2, ZF2X2_SNR_DB), (4, 3, ZF4X3_SNR_DB)]
        .into_iter()
        .zip(pinned)
    {
        let mut h = Fnv::new();
        for (i, mcs) in Mcs::TABLE.into_iter().enumerate() {
            let noise = copa_num::special::db_to_lin(-snr_db[i]);
            for _ in 0..2 {
                let payload = random_bits(&mut rng, capacity(mcs, streams, 3));
                let tx = transmit(mcs, streams, &payload);
                let eff = random_effective(&mut rng, rx, streams);
                let obs = through_channel(&tx, streams, &eff, noise, &mut rng);
                h.bytes(&receive_zf_soft(
                    mcs,
                    streams,
                    &obs,
                    &eff,
                    noise,
                    payload.len(),
                ));
            }
        }
        assert_eq!(h.0, want, "zero-forcing {rx}x{streams}");
    }
}

#[test]
fn two_streams_round_trip_cleanly() {
    let mut rng = SimRng::seed_from(1);
    for mcs in [Mcs::TABLE[0], Mcs::TABLE[4]] {
        let payload = random_bits(&mut rng, capacity(mcs, 2, 4));
        let tx = transmit(mcs, 2, &payload);
        let eff = random_effective(&mut rng, 2, 2);
        let obs = through_channel(&tx, 2, &eff, 1e-6, &mut rng);
        let decoded = receive_zf_soft(mcs, 2, &obs, &eff, 1e-6, payload.len());
        assert_eq!(decoded, payload, "{mcs} x2 streams");
    }
}

#[test]
fn four_rx_antennas_are_no_worse_than_two() {
    // 2 streams into 2 rx antennas at moderate noise struggle more than 2
    // streams into 4 rx antennas (diversity + better ZF conditioning),
    // aggregated over frames.
    let mut rng = SimRng::seed_from(5);
    let mcs = Mcs::TABLE[4];
    let noise = copa_num::special::db_to_lin(-11.0);
    let mut errs2 = 0usize;
    let mut errs4 = 0usize;
    for _ in 0..6 {
        let payload = random_bits(&mut rng, capacity(mcs, 2, 4));
        let tx = transmit(mcs, 2, &payload);
        for (rx, errs) in [(2, &mut errs2), (4, &mut errs4)] {
            let eff = random_effective(&mut rng, rx, 2);
            let obs = through_channel(&tx, 2, &eff, noise, &mut rng);
            let decoded = receive_zf_soft(mcs, 2, &obs, &eff, noise, payload.len());
            *errs += bit_errors(&decoded, &payload);
        }
    }
    assert!(
        errs4 <= errs2,
        "more rx antennas should not hurt: {errs4} vs {errs2}"
    );
}

#[test]
fn beamformed_2x4_link_decodes_end_to_end() {
    // Bits through a beamformed 2x4 MIMO channel: SVD beamforming per
    // subcarrier, two streams, zero-forcing and soft decoding.
    use copa_num::svd::svd;
    let mut rng = SimRng::seed_from(9);
    let mcs = Mcs::TABLE[3];
    let payload = random_bits(&mut rng, capacity(mcs, 2, 4));
    let tx = transmit(mcs, 2, &payload);
    let effective: Vec<CMat> = (0..DATA_SUBCARRIERS)
        .map(|_| {
            let h = CMat::from_fn(2, 4, |_, _| rng.randc());
            let v2 = svd(&h).v.select_columns(&[0, 1]);
            h.matmul(&v2) // rx x streams
        })
        .collect();
    let noise = 1e-4;
    let obs = through_channel(&tx, 2, &effective, noise, &mut rng);
    let decoded = receive_zf_soft(mcs, 2, &obs, &effective, noise, payload.len());
    assert_eq!(
        decoded, payload,
        "beamformed MIMO link should decode cleanly"
    );
}

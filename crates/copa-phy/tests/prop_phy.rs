//! Property-based tests for the PHY models, on the in-repo
//! [`copa_num::prop`] harness.

use copa_num::complex::{C64, ZERO};
use copa_num::prop::{check, Gen};
use copa_num::{prop_assert, prop_assert_eq};
use copa_phy::baseband::{Chain, ChainScratch, FlatSymbols, CP_SAMPLES};
use copa_phy::coding::{coded_ber, encode, frame_error_rate, viterbi_decode, CodeRate};
use copa_phy::link::ThroughputModel;
use copa_phy::mcs::Mcs;
use copa_phy::modulation::Modulation;
use copa_phy::ofdm::{DATA_SUBCARRIERS, FFT_SIZE};
use copa_phy::waveform::{
    apply_cfo, max_cfo_hz, modulate_frame_into, synchronize, Preamble, WaveformScratch,
    PREAMBLE_SAMPLES, SYMBOL_SAMPLES,
};

const CASES: usize = 48;

const MODULATIONS: [Modulation; 4] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
];

const CODE_RATES: [CodeRate; 4] = [CodeRate::R12, CodeRate::R23, CodeRate::R34, CodeRate::R56];

fn modulation(g: &mut Gen) -> Modulation {
    *g.pick(&MODULATIONS)
}

fn code_rate(g: &mut Gen) -> CodeRate {
    *g.pick(&CODE_RATES)
}

#[test]
fn uncoded_ber_in_range_and_monotone() {
    check("uncoded_ber_in_range_and_monotone", CASES, |g| {
        let m = modulation(g);
        let db = g.f64_in(-20.0, 50.0);
        let g1 = copa_num::special::db_to_lin(db);
        let g2 = copa_num::special::db_to_lin(db + 1.0);
        let b1 = m.uncoded_ber(g1);
        let b2 = m.uncoded_ber(g2);
        prop_assert!((0.0..=0.5).contains(&b1));
        prop_assert!(b2 <= b1 + 1e-15, "BER must not increase with SNR");
        Ok(())
    });
}

#[test]
fn coded_ber_bounded_and_monotone() {
    check("coded_ber_bounded_and_monotone", CASES, |g| {
        let r = code_rate(g);
        let p = g.f64_in(0.0, 0.4);
        let c1 = coded_ber(p, r);
        let c2 = coded_ber(p * 1.1, r);
        prop_assert!((0.0..=0.5).contains(&c1));
        prop_assert!(c2 >= c1 - 1e-18);
        // Coding helps at low channel BER.
        if p < 1e-3 {
            prop_assert!(
                c1 <= p,
                "coding should not amplify rare errors: {c1} vs {p}"
            );
        }
        Ok(())
    });
}

#[test]
fn viterbi_inverts_encoder() {
    check("viterbi_inverts_encoder", CASES, |g| {
        let n = g.usize_in(1, 200);
        let bits: Vec<u8> = (0..n).map(|_| g.u8() & 1).collect();
        let r = code_rate(g);
        let coded = encode(&bits, r);
        let decoded = viterbi_decode(&coded, bits.len(), r);
        prop_assert_eq!(decoded, bits);
        Ok(())
    });
}

#[test]
fn clean_chain_round_trip_is_the_identity() {
    // Any MCS, 1 to 4 spatial streams, any payload up to six OFDM symbols:
    // the stream parser, interleavers and mapper invert exactly.
    check("clean_chain_round_trip_is_the_identity", CASES, |g| {
        let mcs = *g.pick(&Mcs::TABLE);
        let streams = g.usize_in(1, 5);
        let chain = Chain::new(mcs, streams);
        let len = g.usize_in(1, chain.payload_capacity(6) + 1);
        let payload: Vec<u8> = (0..len).map(|_| g.u8() & 1).collect();
        let mut scratch = ChainScratch::new();
        let mut symbols = FlatSymbols::new();
        chain.transmit_into(&payload, &mut scratch, &mut symbols);
        prop_assert!(symbols.n_symbols() <= 6, "{mcs} x{streams}, {len} bits");
        let mut decoded = Vec::new();
        chain.receive_into(symbols.as_slice(), len, &mut scratch, &mut decoded);
        prop_assert_eq!(decoded, payload, "{mcs} x{streams}, {len} bits");
        Ok(())
    });
}

#[test]
fn fer_is_probability_and_monotone() {
    check("fer_is_probability_and_monotone", CASES, |g| {
        let pb = g.f64_in(0.0, 1.0);
        let len = g.usize_in(1, 4000);
        let f = frame_error_rate(pb, len);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(frame_error_rate(pb, len + 1) >= f - 1e-15);
        if pb > 0.0 {
            prop_assert!(frame_error_rate((pb * 1.5).min(1.0), len) >= f - 1e-15);
        }
        Ok(())
    });
}

#[test]
fn goodput_never_exceeds_phy_rate() {
    check("goodput_never_exceeds_phy_rate", CASES, |g| {
        let sinrs_db = g.vec_f64(-10.0, 45.0, 1, 104);
        let eff = g.f64_in(0.1, 1.0);
        let sinrs: Vec<f64> = sinrs_db
            .iter()
            .map(|&d| copa_num::special::db_to_lin(d))
            .collect();
        let model = ThroughputModel::default();
        let choice = model.best(&sinrs, eff);
        let cap = choice.mcs.phy_rate_bps_with(sinrs.len()) * eff;
        prop_assert!(choice.goodput_bps <= cap + 1.0);
        prop_assert!(choice.goodput_bps >= 0.0);
        prop_assert!((0.0..=1.0).contains(&choice.fer));
        Ok(())
    });
}

#[test]
fn best_mcs_dominates_all_alternatives() {
    check("best_mcs_dominates_all_alternatives", CASES, |g| {
        let sinrs_db = g.vec_f64(0.0, 40.0, 10, 60);
        let sinrs: Vec<f64> = sinrs_db
            .iter()
            .map(|&d| copa_num::special::db_to_lin(d))
            .collect();
        let model = ThroughputModel::default();
        let best = model.best(&sinrs, 1.0);
        for &mcs in &Mcs::TABLE {
            let alt = model.evaluate(mcs, &sinrs, 1.0);
            prop_assert!(best.goodput_bps >= alt.goodput_bps - 1e-9);
        }
        Ok(())
    });
}

#[test]
fn multi_decoder_at_least_single() {
    check("multi_decoder_at_least_single", CASES, |g| {
        let sinrs_db = g.vec_f64(-5.0, 40.0, 10, 104);
        let sinrs: Vec<f64> = sinrs_db
            .iter()
            .map(|&d| copa_num::special::db_to_lin(d))
            .collect();
        let model = ThroughputModel::default();
        let single = model.best(&sinrs, 1.0).goodput_bps;
        let multi = model.multi_decoder_goodput(&sinrs, 1.0);
        // Per-subcarrier adaptation upper-bounds the single-MCS rate up to
        // the FER model's frame-level coupling; allow a small slack.
        prop_assert!(multi >= single * 0.98, "multi {multi} < single {single}");
        Ok(())
    });
}

fn random_symbols(g: &mut Gen, n_symbols: usize) -> Vec<C64> {
    (0..n_symbols * DATA_SUBCARRIERS)
        .map(|_| C64::new(g.f64_in(-1.0, 1.0), g.f64_in(-1.0, 1.0)))
        .collect()
}

#[test]
fn cp_add_then_strip_is_the_identity() {
    // Modulating prepends a copy of each symbol's tail; the demodulation
    // window strips it. The CP must be an exact (bitwise) copy, and the
    // FFT of the stripped window must return the loaded subcarriers to
    // round-trip precision.
    check("cp_add_then_strip_is_the_identity", CASES, |g| {
        let p = Preamble::standard();
        let n_sym = g.usize_in(1, 6);
        let symbols = random_symbols(g, n_sym);
        let mut scratch = WaveformScratch::new();
        let mut frame = Vec::new();
        modulate_frame_into(&p, &symbols, &mut scratch, &mut frame);
        prop_assert_eq!(frame.len(), PREAMBLE_SAMPLES + n_sym * SYMBOL_SAMPLES);
        for t in 0..n_sym {
            let sym = &frame[PREAMBLE_SAMPLES + t * SYMBOL_SAMPLES..][..SYMBOL_SAMPLES];
            // CP == tail, bit for bit.
            for i in 0..CP_SAMPLES {
                prop_assert_eq!(sym[i].re.to_bits(), sym[FFT_SIZE + i].re.to_bits());
                prop_assert_eq!(sym[i].im.to_bits(), sym[FFT_SIZE + i].im.to_bits());
            }
            // Stripping the CP and demodulating recovers the symbols.
            let back = copa_phy::baseband::ofdm_demodulate(sym);
            for (a, b) in symbols[t * DATA_SUBCARRIERS..(t + 1) * DATA_SUBCARRIERS]
                .iter()
                .zip(&back)
            {
                prop_assert!((*a - *b).abs() <= 1e-12, "{a:?} vs {b:?}");
            }
        }
        Ok(())
    });
}

#[test]
fn sync_recovers_timing_offset_exactly_at_zero_noise() {
    check(
        "sync_recovers_timing_offset_exactly_at_zero_noise",
        CASES,
        |g| {
            let p = Preamble::standard();
            let search = 48;
            let offset = g.usize_in(0, search);
            let n_sym = g.usize_in(1, 4);
            let symbols = random_symbols(g, n_sym);
            let mut scratch = WaveformScratch::new();
            let mut frame = Vec::new();
            modulate_frame_into(&p, &symbols, &mut scratch, &mut frame);
            let mut rx = vec![ZERO; offset];
            rx.extend_from_slice(&frame);
            rx.extend(std::iter::repeat_n(ZERO, search + SYMBOL_SAMPLES));
            // A CFO well inside the estimator's unambiguous range must not
            // break exact timing recovery.
            let cfo = g.f64_in(-0.6, 0.6) * max_cfo_hz();
            apply_cfo(&mut rx, cfo);
            let mut corrected = Vec::new();
            let res = synchronize(&rx, &p, search, true, &mut corrected);
            prop_assert_eq!(res.start, offset, "cfo {cfo:.0} Hz");
            prop_assert!(
                (res.cfo_hz - cfo).abs() < 1e-3 * max_cfo_hz().max(1.0),
                "cfo {cfo} estimated {0}",
                res.cfo_hz
            );
            prop_assert!(res.metric > 0.999);
            Ok(())
        },
    );
}

#[test]
fn dropping_subcarriers_scales_rate() {
    check("dropping_subcarriers_scales_rate", CASES, |g| {
        let m = g.usize_in(0, 8);
        let active = g.usize_in(1, 52);
        let mcs = Mcs::TABLE[m];
        let full = mcs.phy_rate_bps();
        let partial = mcs.phy_rate_bps_with(active);
        prop_assert!((partial - full * active as f64 / 52.0).abs() < 1e-6);
        Ok(())
    });
}

//! Bit-true 802.11 link: actual bits through the simulated channel.
//!
//! ```sh
//! cargo run --release --example bit_level_link
//! ```
//!
//! Everything the analytic models abstract away, done for real: scramble,
//! K=7 convolutional-encode (punctured), interleave across subcarriers,
//! Gray-map to QAM, push through a frequency-selective channel with AWGN,
//! zero-forcing equalize, hard-demap, deinterleave, Viterbi-decode,
//! descramble -- then compare the measured error rates against the
//! analytic chain the strategy engine uses.

use copa::channel::{FreqChannel, MultipathProfile};
use copa::num::special::db_to_lin;
use copa::num::SimRng;
use copa::phy::baseband::{Chain, ChainScratch, FlatSymbols};
use copa::phy::coding::coded_ber;
use copa::phy::Mcs;
use copa::sim::validation::validate_coded_chain;

fn main() {
    // One frame, narrated.
    let mcs = Mcs::TABLE[4]; // 16-QAM 3/4
    let chain = Chain::new(mcs, 1);
    let mut rng = SimRng::seed_from(0xB17);
    let payload: Vec<u8> = (0..chain.payload_capacity(8))
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();

    println!("Transmitting {} payload bits at {mcs}", payload.len());
    let mut scratch = ChainScratch::new();
    let mut frame = FlatSymbols::new();
    chain.transmit_into(&payload, &mut scratch, &mut frame);
    println!(
        "  -> {} OFDM symbols x 52 subcarriers of Gray-mapped {} symbols",
        frame.n_symbols(),
        mcs.modulation
    );

    // A frequency-selective channel at 18 dB mean SNR.
    let snr_db = 18.0;
    let ch = FreqChannel::random(
        &mut rng,
        1,
        1,
        db_to_lin(snr_db),
        &MultipathProfile::default(),
    );
    let received: Vec<_> = frame
        .as_slice()
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let h = ch.at(i % 52)[(0, 0)];
            (h * x + rng.randc()) / h
        })
        .collect();
    let mut decoded = Vec::new();
    chain.receive_into(&received, payload.len(), &mut scratch, &mut decoded);
    let errors = decoded.iter().zip(&payload).filter(|(a, b)| a != b).count();
    println!(
        "  <- decoded with {errors} bit errors out of {} at {snr_db:.0} dB mean SNR",
        payload.len()
    );

    // Analytic prediction for the same channel.
    let raw: f64 = ch
        .iter()
        .map(|m| mcs.modulation.uncoded_ber(m[(0, 0)].norm_sqr()))
        .sum::<f64>()
        / 52.0;
    println!(
        "  analytic: raw BER {raw:.2e} -> coded BER {:.2e} (union bound)",
        coded_ber(raw, mcs.rate)
    );

    // Monte-Carlo comparison at a stressed operating point.
    println!("\nMonte-Carlo (40 frames per point, fresh channel each):");
    println!(
        "{:<28} {:>7} {:>13} {:>13} {:>8}",
        "mcs", "SNR dB", "analytic BER", "sim BER", "sim FER"
    );
    for (m, snr) in [
        (Mcs::TABLE[1], 6.0),
        (Mcs::TABLE[4], 14.0),
        (Mcs::TABLE[7], 24.0),
    ] {
        let p = validate_coded_chain(m, snr, 40, 4, 0xE0);
        println!(
            "{:<28} {:>7.1} {:>13.2e} {:>13.2e} {:>8.2}",
            p.mcs, p.mean_snr_db, p.analytic_ber, p.simulated_ber, p.simulated_fer
        );
    }
}

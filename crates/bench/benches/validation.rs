//! Model-validation bench: analytic BER chain vs the bit-true 802.11
//! baseband pipeline (Monte-Carlo), plus throughput of the bit pipeline.

use copa_bench::harness::{black_box, Criterion};
use copa_phy::baseband::{Chain, ChainScratch, FlatSymbols};
use copa_phy::mcs::Mcs;
use copa_phy::modulation::Modulation;
use copa_sim::validation::{validate_coded_chain, validate_uncoded_ber};

fn print_reproduction() {
    println!("== Validation: analytic uncoded BER vs bit-true simulation (AWGN) ==");
    println!(
        "{:<8} {:>7} {:>12} {:>12}",
        "mod", "SNR dB", "analytic", "simulated"
    );
    let points = [
        (Modulation::Bpsk, 4.0),
        (Modulation::Bpsk, 7.0),
        (Modulation::Qpsk, 7.0),
        (Modulation::Qpsk, 10.0),
        (Modulation::Qam16, 13.0),
        (Modulation::Qam16, 16.0),
        (Modulation::Qam64, 19.0),
        (Modulation::Qam64, 22.0),
    ];
    for p in validate_uncoded_ber(&points, 300_000, 0xD0) {
        println!(
            "{:<8} {:>7.1} {:>12.3e} {:>12.3e}",
            p.modulation, p.snr_db, p.analytic, p.simulated
        );
    }

    println!("\n== Validation: coded chain (fselective channel, ZF equalizer) ==");
    println!(
        "{:<28} {:>8} {:>13} {:>13} {:>8}",
        "mcs", "SNR dB", "analytic BER", "sim BER", "sim FER"
    );
    for (mcs, snr) in [
        (Mcs::TABLE[0], 2.0),
        (Mcs::TABLE[1], 5.0),
        (Mcs::TABLE[3], 10.0),
        (Mcs::TABLE[5], 16.0),
    ] {
        let p = validate_coded_chain(mcs, snr, 40, 4, 0xD1);
        println!(
            "{:<28} {:>8.1} {:>13.3e} {:>13.3e} {:>8.2}",
            p.mcs, p.mean_snr_db, p.analytic_ber, p.simulated_ber, p.simulated_fer
        );
    }
    println!("(the analytic chain is the paper's prediction methodology; agreement\n within an order of magnitude over the operating range validates it)\n");
}

fn main() {
    print_reproduction();
    let mut c = Criterion::default().configure_from_args().sample_size(20);
    c.bench_function("bit_true_tx_rx_mcs7_8symbols", |b| {
        let chain = Chain::new(Mcs::TABLE[7], 1);
        let payload = vec![1u8; chain.payload_capacity(8)];
        let mut scratch = ChainScratch::new();
        let mut frame = FlatSymbols::new();
        let mut decoded = Vec::new();
        b.iter(|| {
            chain.transmit_into(&payload, &mut scratch, &mut frame);
            chain.receive_into(frame.as_slice(), payload.len(), &mut scratch, &mut decoded);
            black_box(decoded.len())
        })
    });
    c.final_summary();
}

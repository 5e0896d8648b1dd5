//! Property-based tests for precoding and SINR evaluation, on the in-repo
//! [`copa_num::prop`] harness.

use copa_channel::{FreqChannel, Impairments, MultipathProfile};
use copa_num::prop::check;
use copa_num::SimRng;
use copa_num::{prop_assert, prop_assert_eq};
use copa_phy::ofdm::DATA_SUBCARRIERS;
use copa_precoding::beamforming::beamform;
use copa_precoding::nulling::null_toward;
use copa_precoding::sinr::{
    mmse_sinr_grid, mmse_sinr_grid_into, mmse_sinr_grid_reference, TxSide, SINR_MAX_DIM,
};
use copa_precoding::TxPowers;

const CASES: usize = 24;

fn channel(seed: u64, rx: usize, tx: usize) -> FreqChannel {
    FreqChannel::random(
        &mut SimRng::seed_from(seed),
        rx,
        tx,
        1e-6,
        &MultipathProfile::default(),
    )
}

#[test]
fn beamform_columns_always_unit_norm() {
    check("beamform_columns_always_unit_norm", CASES, |g| {
        let seed = g.u64();
        let rx = g.usize_in(1, 3);
        let tx = g.usize_in(1, 5);
        let streams_max = rx.min(tx);
        let ch = channel(seed, rx, tx);
        for k in 1..=streams_max {
            let pre = beamform(&ch, k);
            prop_assert!(pre.columns_are_unit_norm(1e-8));
            prop_assert_eq!(pre.streams(), k);
            // Gains non-negative and sorted per subcarrier.
            for s in 0..DATA_SUBCARRIERS {
                for j in 1..k {
                    prop_assert!(pre.stream_gains[j - 1][s] >= pre.stream_gains[j][s] - 1e-12);
                }
                prop_assert!(pre.stream_gains[k - 1][s] >= 0.0);
            }
        }
        Ok(())
    });
}

#[test]
fn nulling_annihilates_with_exact_csi() {
    check("nulling_annihilates_with_exact_csi", CASES, |g| {
        let seed = g.u64();
        let own = channel(seed ^ 1, 2, 4);
        let victim = channel(seed ^ 2, 2, 4);
        if let Some(pre) = null_toward(&own, &victim, 2) {
            prop_assert!(pre.columns_are_unit_norm(1e-8));
            for s in [0usize, 17, 38, 51] {
                let leak = victim.at(s).matmul(&pre.precoder[s]).max_abs();
                let scale = victim.at(s).max_abs().max(1e-12);
                prop_assert!(leak < 1e-6 * scale, "leak {leak} at s={s}");
            }
        } else {
            prop_assert!(false, "4x2 nulling must be feasible");
        }
        Ok(())
    });
}

#[test]
fn sinr_kernel_is_finite_nonnegative_and_within_bound_of_reference() {
    // Every shape the kernel's stack arrays hold: 1..=4 receive and
    // transmit antennas on both sides, 1..=tx streams (precoded on a fake
    // estimate with one row per stream, so streams may outnumber the
    // receive antennas), with and without an interferer, real and ideal
    // impairments, a dropped subcarrier and a zero-power cell. The bound
    // is the one tests/determinism.rs justifies on engine inputs.
    check(
        "sinr_kernel_is_finite_nonnegative_and_within_bound_of_reference",
        64,
        |g| {
            let seed = g.u64();
            let rx = g.usize_in(1, SINR_MAX_DIM + 1);
            let budget = g.f64_in(1.0, 40.0);
            let imp = *g.pick(&[Impairments::default(), Impairments::ideal()]);
            // (precoder, powers, channel to the receiver) per transmitter.
            let side = |g: &mut copa_num::prop::Gen, salt: u64| {
                let tx = g.usize_in(1, SINR_MAX_DIM + 1);
                let streams = g.usize_in(1, tx + 1);
                let pre = beamform(&channel(seed ^ salt, streams, tx), streams);
                let mut powers = TxPowers::equal(streams, budget);
                let dropped = g.usize_in(0, DATA_SUBCARRIERS);
                for row in &mut powers.powers {
                    row[dropped] = 0.0;
                }
                powers.powers[streams - 1][g.usize_in(0, DATA_SUBCARRIERS)] = 0.0;
                (pre, powers, channel(seed ^ salt ^ 1, rx, tx))
            };
            let (pre, powers, truth) = side(g, 20);
            let (int_pre, int_powers, cross) = side(g, 40);
            let own = TxSide {
                channel: &truth,
                precoding: &pre,
                powers: &powers,
                budget_mw: budget,
            };
            let int = TxSide {
                channel: &cross,
                precoding: &int_pre,
                powers: &int_powers,
                budget_mw: budget,
            };
            let interferer = g.bool().then_some(&int);
            let mut grid = Vec::new();
            mmse_sinr_grid_into(&own, interferer, 1e-9, &imp, &mut grid);
            let reference = mmse_sinr_grid_reference(&own, interferer, 1e-9, &imp);
            prop_assert_eq!(grid.len(), reference.len());
            for (k, (row, want_row)) in grid.iter().zip(&reference).enumerate() {
                for (s, (&got, &want)) in row.iter().zip(want_row).enumerate() {
                    prop_assert!(got.is_finite() && got >= 0.0, "k={k} s={s}: {got}");
                    let ok = if want == 0.0 {
                        got == 0.0
                    } else {
                        (got - want).abs() <= 1e-10 * want
                    };
                    prop_assert!(ok, "k={k} s={s}: {got:e} vs reference {want:e}");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn more_interferer_power_never_helps() {
    check("more_interferer_power_never_helps", CASES, |g| {
        let seed = g.u64();
        let truth = channel(seed ^ 6, 2, 4);
        let cross = channel(seed ^ 7, 2, 4);
        let pre = beamform(&truth, 2);
        let int_pre = beamform(&channel(seed ^ 8, 2, 4), 2);
        let powers = TxPowers::equal(2, 31.6);
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let imp = Impairments::ideal();

        let weak_powers = TxPowers::equal(2, 3.16);
        let strong_powers = TxPowers::equal(2, 31.6);
        let weak = TxSide {
            channel: &cross,
            precoding: &int_pre,
            powers: &weak_powers,
            budget_mw: 3.16,
        };
        let strong = TxSide {
            channel: &cross,
            precoding: &int_pre,
            powers: &strong_powers,
            budget_mw: 31.6,
        };
        let g_weak = mmse_sinr_grid(&own, Some(&weak), 1e-9, &imp);
        let g_strong = mmse_sinr_grid(&own, Some(&strong), 1e-9, &imp);
        for s in 0..DATA_SUBCARRIERS {
            for k in 0..2 {
                prop_assert!(
                    g_strong[k][s] <= g_weak[k][s] * (1.0 + 1e-9) + 1e-12,
                    "stronger interference increased SINR at s={s},k={k}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn scaling_tx_power_scales_interference_free_sinr() {
    check(
        "scaling_tx_power_scales_interference_free_sinr",
        CASES,
        |g| {
            let seed = g.u64();
            let factor = g.f64_in(1.1, 10.0);
            let truth = channel(seed ^ 9, 1, 2);
            let pre = beamform(&truth, 1);
            let p1 = TxPowers::equal(1, 10.0);
            let p2 = TxPowers::equal(1, 10.0 * factor);
            let imp = Impairments::ideal();
            let g1 = mmse_sinr_grid(
                &TxSide {
                    channel: &truth,
                    precoding: &pre,
                    powers: &p1,
                    budget_mw: 10.0,
                },
                None,
                1e-9,
                &imp,
            );
            let g2 = mmse_sinr_grid(
                &TxSide {
                    channel: &truth,
                    precoding: &pre,
                    powers: &p2,
                    budget_mw: 10.0 * factor,
                },
                None,
                1e-9,
                &imp,
            );
            for s in 0..DATA_SUBCARRIERS {
                if g1[0][s] > 1e-12 {
                    prop_assert!((g2[0][s] / g1[0][s] / factor - 1.0).abs() < 1e-6);
                }
            }
            Ok(())
        },
    );
}

//! Interference nulling via nullspace projection.
//!
//! "To send multiple streams, hosts use the singular value decomposition of
//! the channel and to null we project onto the appropriate nullspace"
//! (section 4.1). On each subcarrier the precoder is confined to the
//! nullspace of the *victim's* channel (the other AP's client), then SVD
//! beamformed toward the own client within that subspace. Computed from
//! estimated CSI, so against the true channel the null is imperfect --
//! exactly the residual-interference effect of section 2.2.

use crate::precoder::{LinkPrecoding, PrecodeScratch};
use copa_channel::FreqChannel;
use copa_num::svd::svd_into;

/// Relative singular-value threshold separating signal space from nullspace.
const NULL_TOL: f64 = 1e-9;

/// Degrees of freedom left for the own client after nulling toward a victim
/// with `victim_rx` antennas: `tx - victim_rx` (0 or negative means the
/// problem is overconstrained -- see section 3.4).
pub fn nulling_dof(tx: usize, victim_rx: usize) -> isize {
    tx as isize - victim_rx as isize
}

/// Builds a nulling precoder: `streams` streams toward the own client while
/// placing nulls at every antenna of the victim client.
///
/// Returns `None` when the problem is overconstrained
/// (`streams > tx - victim_rx`), e.g. two 3-antenna APs cannot send two
/// streams each while nulling at a 2-antenna client.
pub fn null_toward(
    est_own: &FreqChannel,
    est_victim: &FreqChannel,
    streams: usize,
) -> Option<LinkPrecoding> {
    let mut ws = PrecodeScratch::new();
    let mut out = LinkPrecoding::empty();
    null_toward_with(est_own, est_victim, streams, &mut ws, &mut out).then_some(out)
}

// alloc-free: begin null_toward_with (per-subcarrier kernel -- no Vec::new / vec!)
/// [`null_toward`] writing into caller-owned buffers. Returns `false` (with
/// `out` untouched beyond its shape) when the problem is overconstrained.
///
/// Each subcarrier takes its own nullspace: a subcarrier where the victim
/// channel is degenerate has a larger nullity there, and is beamformed
/// within that larger space.
pub fn null_toward_with(
    est_own: &FreqChannel,
    est_victim: &FreqChannel,
    streams: usize,
    ws: &mut PrecodeScratch,
    out: &mut LinkPrecoding,
) -> bool {
    assert_eq!(
        est_own.tx(),
        est_victim.tx(),
        "both channels share the AP's antennas"
    );
    let tx = est_own.tx();
    let dof = nulling_dof(tx, est_victim.rx());
    if dof < streams as isize || streams == 0 || streams > est_own.rx() {
        return false;
    }

    ws.cols.clear();
    ws.cols.extend(0..streams);
    out.reset_shape(est_own.iter().count(), streams);
    for (s, (h_own, h_vic)) in est_own.iter().zip(est_victim.iter()).enumerate() {
        // Orthonormal basis of null(H_victim): tx x dof.
        svd_into(h_vic, &mut ws.svd, &mut ws.vic_dec);
        ws.vic_dec.nullspace_into(NULL_TOL, &mut ws.v0);
        debug_assert!(ws.v0.cols() >= streams);
        // Beamform the projected channel H_own * V0 (rx_own x dof).
        h_own.mul_into(&ws.v0, &mut ws.h_eff);
        svd_into(&ws.h_eff, &mut ws.svd, &mut ws.dec);
        ws.dec.v.select_columns_into(&ws.cols, &mut ws.v1);
        ws.v0.mul_into(&ws.v1, &mut out.precoder[s]);
        for (k, gains) in out.stream_gains.iter_mut().enumerate() {
            gains[s] = ws.dec.s[k] * ws.dec.s[k];
        }
    }
    true
}
// alloc-free: end null_toward_with

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamforming::beamform;
    use copa_channel::MultipathProfile;
    use copa_num::{CMat, SimRng};
    use copa_phy::ofdm::DATA_SUBCARRIERS;

    fn ch(rng: &mut SimRng, rx: usize, tx: usize) -> FreqChannel {
        FreqChannel::random(rng, rx, tx, 1.0, &MultipathProfile::default())
    }

    #[test]
    fn dof_accounting() {
        assert_eq!(nulling_dof(4, 2), 2);
        assert_eq!(nulling_dof(3, 2), 1);
        assert_eq!(nulling_dof(1, 1), 0);
        assert_eq!(nulling_dof(2, 4), -2);
    }

    #[test]
    fn perfect_csi_gives_perfect_null() {
        let mut rng = SimRng::seed_from(60);
        let own = ch(&mut rng, 2, 4);
        let victim = ch(&mut rng, 2, 4);
        let pre = null_toward(&own, &victim, 2).expect("4x2 has enough DoF");
        assert!(pre.columns_are_unit_norm(1e-9));
        for s in 0..DATA_SUBCARRIERS {
            // Signal arriving at the victim through the *same* (estimated)
            // channel is exactly nulled.
            let at_victim = victim.at(s).matmul(&pre.precoder[s]);
            assert!(
                at_victim.max_abs() < 1e-8,
                "residual at victim on subcarrier {s}: {}",
                at_victim.max_abs()
            );
        }
    }

    #[test]
    fn imperfect_csi_leaves_residual() {
        // Nulling computed on a noisy estimate leaves ~csi_error_db residual
        // at the victim -- the core observation of section 2.2.
        use copa_channel::Impairments;
        let mut rng = SimRng::seed_from(61);
        let own_true = ch(&mut rng, 2, 4);
        let vic_true = ch(&mut rng, 2, 4);
        let imp = Impairments {
            csi_error_db: -25.0,
            ..Default::default()
        };
        let own_est = imp.estimate_channel(&mut rng, &own_true);
        let vic_est = imp.estimate_channel(&mut rng, &vic_true);
        let pre = null_toward(&own_est, &vic_est, 2).unwrap();
        // Average residual power at victim relative to un-precoded level.
        let mut residual = 0.0;
        let mut reference = 0.0;
        for s in 0..DATA_SUBCARRIERS {
            residual += vic_true.at(s).matmul(&pre.precoder[s]).frobenius_norm_sqr();
            reference += vic_true.at(s).frobenius_norm_sqr() / 4.0 * 2.0; // equal-power 2 streams
        }
        let ratio_db = 10.0 * (residual / reference).log10();
        assert!(
            (-35.0..=-12.0).contains(&ratio_db),
            "residual should be roughly the CSI error level, got {ratio_db:.1} dB"
        );
    }

    #[test]
    fn nulling_costs_own_gain() {
        // Collateral damage: gains within the nullspace are lower than
        // unconstrained beamforming gains.
        let mut rng = SimRng::seed_from(62);
        let own = ch(&mut rng, 2, 4);
        let victim = ch(&mut rng, 2, 4);
        let bf = beamform(&own, 2);
        let null = null_toward(&own, &victim, 2).unwrap();
        let sum_bf: f64 = bf.stream_gains.iter().flatten().sum();
        let sum_null: f64 = null.stream_gains.iter().flatten().sum();
        assert!(
            sum_null < sum_bf,
            "nulling should cost beamforming gain: {sum_null} vs {sum_bf}"
        );
        // But not everything: with 2 spare DoF the loss is a few dB, not 20.
        assert!(sum_null > sum_bf * 0.05);
    }

    #[test]
    fn overconstrained_returns_none() {
        let mut rng = SimRng::seed_from(63);
        let own = ch(&mut rng, 2, 3);
        let victim = ch(&mut rng, 2, 3);
        // 3 tx antennas - 2 victim antennas = 1 DoF: two streams impossible...
        assert!(null_toward(&own, &victim, 2).is_none());
        // ...but one stream is fine.
        assert!(null_toward(&own, &victim, 1).is_some());
        // Single-antenna APs cannot null at all.
        let own1 = ch(&mut rng, 1, 1);
        let vic1 = ch(&mut rng, 1, 1);
        assert!(null_toward(&own1, &vic1, 1).is_none());
    }

    #[test]
    fn dead_victim_subcarrier_beamforms_there_and_nulls_elsewhere() {
        // Where the victim channel is all zero its nullspace is the whole
        // transmit space, so nulling must fall back to plain beamforming on
        // that subcarrier while still nulling on every other one.
        let mut rng = SimRng::seed_from(64);
        let own = ch(&mut rng, 2, 4);
        let dead = 17;
        let victim = ch(&mut rng, 2, 4).map(|s, h| {
            if s == dead {
                CMat::zeros(h.rows(), h.cols())
            } else {
                h.clone()
            }
        });
        let pre = null_toward(&own, &victim, 2).expect("4x2 has enough DoF");
        assert!(pre.columns_are_unit_norm(1e-9));
        let bf = beamform(&own, 2);
        for k in 0..2 {
            let (got, want) = (pre.stream_gains[k][dead], bf.stream_gains[k][dead]);
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "stream {k} on the dead subcarrier: {got} vs beamforming {want}"
            );
        }
        for s in (0..DATA_SUBCARRIERS).filter(|&s| s != dead) {
            let at_victim = victim.at(s).matmul(&pre.precoder[s]);
            assert!(
                at_victim.max_abs() < 1e-8,
                "residual at victim on subcarrier {s}: {}",
                at_victim.max_abs()
            );
        }
    }

    #[test]
    fn nulled_gains_match_realized_power() {
        let mut rng = SimRng::seed_from(64);
        let own = ch(&mut rng, 2, 4);
        let victim = ch(&mut rng, 2, 4);
        let pre = null_toward(&own, &victim, 2).unwrap();
        for s in [0, 13, 51] {
            for k in 0..2 {
                let w = pre.precoder[s].column(k);
                let realized = own.at(s).matmul(&w).frobenius_norm_sqr();
                assert!((realized - pre.stream_gains[k][s]).abs() < 1e-9 * realized.max(1e-12));
            }
        }
    }
}

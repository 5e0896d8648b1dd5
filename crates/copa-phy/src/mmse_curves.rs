//! Constellation-constrained MMSE curves for mercury/waterfilling.
//!
//! Lozano, Tulino & Verdu's mercury/waterfilling (cited by the paper as the
//! optimal power allocation for discrete constellations) needs the function
//! `mmse_M(snr)`: the minimum mean-square error of estimating a unit-energy
//! constellation symbol from an AWGN observation at a given SNR. For square
//! QAM this reduces to the per-axis PAM MMSE at the same SNR, which we
//! evaluate by Gauss-Hermite quadrature and cache on a log-SNR grid.
//!
//! The four curves depend on nothing but the constellation, so the process
//! holds one table of them ([`MmseCurve::all`]), built on first use.

use crate::modulation::Modulation;
use copa_num::quadrature::GaussHermite;
use std::ops::Range;
use std::sync::OnceLock;

/// Number of Gauss-Hermite nodes for the conditional-mean integrals.
const GH_ORDER: usize = 48;
/// Log-spaced SNR grid for the cached curve.
const GRID_POINTS: usize = 240;
const SNR_MIN: f64 = 1e-4;
const SNR_MAX: f64 = 1e7;

/// A cached, monotone-interpolated `mmse(snr)` curve for one constellation.
#[derive(Clone, Debug)]
pub struct MmseCurve {
    modulation: Modulation,
    log_snr: Vec<f64>,
    mmse: Vec<f64>,
}

impl MmseCurve {
    /// The curves of all four constellations, in [`Modulation::ALL`] order.
    ///
    /// Built on the first call in the process (all four curves'
    /// quadrature, run by whichever thread gets there first while any
    /// others wait) and shared by every caller after that.
    pub fn all() -> &'static [MmseCurve; 4] {
        static TABLE: OnceLock<[MmseCurve; 4]> = OnceLock::new();
        TABLE.get_or_init(|| Modulation::ALL.map(MmseCurve::new))
    }

    /// Builds the curve for `modulation` (a few ms of quadrature, done once
    /// per process by [`Self::all`]).
    fn new(modulation: Modulation) -> Self {
        let gh = GaussHermite::new(GH_ORDER);
        let levels = unit_energy_pam(&modulation);
        let mut log_snr = Vec::with_capacity(GRID_POINTS);
        let mut mmse = Vec::with_capacity(GRID_POINTS);
        let l0 = SNR_MIN.ln();
        let l1 = SNR_MAX.ln();
        for i in 0..GRID_POINTS {
            let ls = l0 + (l1 - l0) * i as f64 / (GRID_POINTS - 1) as f64;
            log_snr.push(ls);
            mmse.push(pam_mmse(&gh, &levels, ls.exp()));
        }
        // Enforce strict monotonicity against quadrature jitter.
        for i in 1..mmse.len() {
            if mmse[i] >= mmse[i - 1] {
                mmse[i] = mmse[i - 1] * (1.0 - 1e-12);
            }
        }
        Self {
            modulation,
            log_snr,
            mmse,
        }
    }

    /// The constellation this curve describes.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// `mmse(snr)`: 1 at snr -> 0, decreasing to 0 as snr -> inf.
    pub fn mmse(&self, snr: f64) -> f64 {
        if snr <= SNR_MIN {
            // Near zero SNR the MMSE of a unit-energy constellation tends to
            // 1 - snr * ... ; just clamp to the grid edge.
            return self.mmse[0].max(1.0 - snr).min(1.0);
        }
        if snr >= SNR_MAX {
            return 0.0;
        }
        let ls = snr.ln();
        let i = self
            .log_snr
            .partition_point(|&x| x <= ls)
            .clamp(1, GRID_POINTS - 1);
        let (x0, x1) = (self.log_snr[i - 1], self.log_snr[i]);
        let t = (ls - x0) / (x1 - x0);
        self.mmse[i - 1] * (1.0 - t) + self.mmse[i] * t
    }

    /// The curve's `mmse` values at its log-SNR grid nodes, non-increasing.
    /// [`Self::mmse_inverse_within`] takes brackets of indices into it.
    pub fn mmse_nodes(&self) -> &[f64] {
        &self.mmse
    }

    /// Inverse function: the SNR at which `mmse(snr) == target`.
    /// Returns 0 for `target >= 1` and `SNR_MAX` for unattainably small
    /// targets.
    ///
    /// The cached grid is strictly decreasing, so the inverse is a direct
    /// binary search plus linear interpolation in log-SNR -- this sits in
    /// the innermost loop of mercury/waterfilling, so it must be cheap.
    pub fn mmse_inverse(&self, target: f64) -> f64 {
        self.mmse_inverse_within(target, 0..GRID_POINTS).0
    }

    /// [`Self::mmse_inverse`] with the binary search narrowed to `bracket`,
    /// which must contain `target`'s partition index: the number of
    /// [`Self::mmse_nodes`] that are `>= target`. Returns the inverse, bit
    /// for bit what [`Self::mmse_inverse`] returns, and that index.
    ///
    /// The index is non-increasing in `target`, so a caller that moves
    /// `target` monotonically can keep shrinking the bracket it passes.
    pub fn mmse_inverse_within(&self, target: f64, bracket: Range<usize>) -> (f64, usize) {
        // The grid is non-increasing, so the nodes before the bracket all
        // satisfy `m >= target` and the nodes after it none do.
        let at_or_above = |m: &f64| *m >= target;
        // invariant: the caller's bracket holds the partition index.
        debug_assert!(
            (bracket.start == 0 || at_or_above(&self.mmse[bracket.start - 1]))
                && (bracket.end == GRID_POINTS || !at_or_above(&self.mmse[bracket.end])),
            "bracket {bracket:?} misses the partition index of {target}"
        );
        let start = bracket.start;
        let p = start + self.mmse[bracket].partition_point(at_or_above);
        if target >= self.mmse(0.0) {
            return (0.0, p);
        }
        let last = *self.mmse.last().expect("non-empty grid");
        if target <= last {
            return (SNR_MAX, p);
        }
        // mmse is descending: `p` is the first index with mmse < target.
        let i = p.clamp(1, GRID_POINTS - 1);
        let (m0, m1) = (self.mmse[i - 1], self.mmse[i]);
        let t = if m0 > m1 {
            (m0 - target) / (m0 - m1)
        } else {
            0.0
        };
        let ls = self.log_snr[i - 1] * (1.0 - t) + self.log_snr[i] * t;
        (ls.exp(), p)
    }
}

/// Unit-energy PAM levels whose MMSE equals the constellation's complex
/// MMSE at the same SNR (square QAM factorizes into two half-energy PAMs).
fn unit_energy_pam(modulation: &Modulation) -> Vec<f64> {
    match modulation {
        Modulation::Bpsk => vec![-1.0, 1.0],
        _ => {
            // Rescale the half-energy per-axis levels to unit energy.
            let lv = modulation.pam_levels();
            let e: f64 = lv.iter().map(|x| x * x).sum::<f64>() / lv.len() as f64;
            let s = 1.0 / e.sqrt();
            lv.iter().map(|x| x * s).collect()
        }
    }
}

/// MMSE of a unit-energy real PAM at SNR `s`: `Y = sqrt(s) X + N(0,1)`.
fn pam_mmse(gh: &GaussHermite, levels: &[f64], s: f64) -> f64 {
    let m = levels.len() as f64;
    let rs = s.sqrt();
    // E[xhat^2], averaging over transmitted level and noise.
    let mut e_xhat2 = 0.0;
    for &x in levels {
        e_xhat2 += gh.gaussian_expectation(|n| {
            let y = rs * x + n;
            // Conditional mean E[X | Y = y].
            let mut num = 0.0;
            let mut den = 0.0;
            for &xi in levels {
                let d = y - rs * xi;
                let w = (-0.5 * d * d).exp();
                num += xi * w;
                den += w;
            }
            let xhat = if den > 0.0 { num / den } else { 0.0 };
            xhat * xhat
        }) / m;
    }
    (1.0 - e_xhat2).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmse_limits() {
        for m in Modulation::ALL {
            let c = MmseCurve::new(m);
            assert!(c.mmse(1e-6) > 0.99, "{m} mmse(0) should be ~1");
            assert!(c.mmse(1e6) < 1e-3, "{m} mmse(inf) should be ~0");
        }
    }

    #[test]
    fn mmse_strictly_decreasing() {
        let c = MmseCurve::new(Modulation::Qam16);
        let mut prev = 2.0;
        for i in 0..100 {
            let snr = 10f64.powf(-3.0 + i as f64 * 0.08);
            let v = c.mmse(snr);
            assert!(v <= prev, "increased at snr {snr}");
            // Strict decrease required while the curve is numerically alive.
            if prev > 1e-9 && prev < 1.0 {
                assert!(v < prev, "not strictly decreasing at snr {snr}");
            }
            prev = v;
        }
    }

    #[test]
    fn bpsk_mmse_matches_closed_form_small_snr() {
        // For any unit-energy input, mmse(snr) ~ 1 - snr as snr -> 0
        // (linear estimation regime).
        let c = MmseCurve::new(Modulation::Bpsk);
        let snr = 0.01;
        assert!((c.mmse(snr) - (1.0 - snr)).abs() < 2e-3);
    }

    #[test]
    fn bpsk_mmse_matches_gsv_identity() {
        // Guo-Shamai-Verdu closed form for BPSK:
        // mmse(snr) = 1 - E[tanh(snr + sqrt(snr) Z)], Z ~ N(0,1).
        let c = MmseCurve::new(Modulation::Bpsk);
        let gh = GaussHermite::new(64);
        for &snr in &[0.25f64, 1.0, 4.0, 10.0] {
            let reference = 1.0 - gh.gaussian_expectation(|z| (snr + snr.sqrt() * z).tanh());
            let v = c.mmse(snr);
            assert!(
                (v - reference).abs() < 2e-3,
                "mmse_BPSK({snr}) = {v}, GSV reference {reference}"
            );
        }
    }

    #[test]
    fn denser_constellations_have_larger_mmse_at_high_snr() {
        // At 10 dB BPSK is essentially resolved while 64-QAM is not.
        let snr = 10.0;
        let vals: Vec<f64> = Modulation::ALL
            .iter()
            .map(|&m| MmseCurve::new(m).mmse(snr))
            .collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "ordering at 10 dB: {vals:?}");
        }
    }

    #[test]
    fn all_is_one_table_in_modulation_order() {
        let table = MmseCurve::all();
        assert!(std::ptr::eq(table, MmseCurve::all()), "built once");
        for (curve, m) in table.iter().zip(Modulation::ALL) {
            assert_eq!(curve.modulation(), m);
            let fresh = MmseCurve::new(m);
            for (a, b) in curve.mmse_nodes().iter().zip(fresh.mmse_nodes()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{m}");
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        let c = MmseCurve::new(Modulation::Qam64);
        for &target in &[0.9, 0.5, 0.1, 0.01] {
            let snr = c.mmse_inverse(target);
            let back = c.mmse(snr);
            assert!(
                (back - target).abs() < 1e-6,
                "inverse({target}) -> {snr} -> {back}"
            );
        }
        assert_eq!(c.mmse_inverse(1.5), 0.0);
    }
}

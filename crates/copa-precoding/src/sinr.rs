//! Post-MMSE SINR evaluation at a receiver.
//!
//! "On the receiving side, hosts use a Minimum Mean Square Error filter to
//! maximize the received power without amplifying noise" (section 4.1).
//! Given the *true* channels (precoders were computed from noisy estimates),
//! this module computes the per-stream, per-subcarrier SINR each client
//! actually experiences, including transmit-EVM noise and the carrier
//! leakage of dropped subcarriers.

use crate::precoder::{reshape_rows, LinkPrecoding, TxPowers};
use copa_channel::{FreqChannel, Impairments};
use copa_num::complex::ZERO;
use copa_num::matrix::CMat;
use copa_num::solve::inverse_loaded;
use copa_num::C64;
use copa_phy::ofdm::DATA_SUBCARRIERS;

/// Capacity of [`mmse_sinr_grid_into`]'s stack arrays: the most receive
/// antennas a client may have, and the most streams its own AP may send.
/// Every antenna configuration in the workspace (1x1, 4x2, 3x2) fits;
/// `copa_core`'s topology validation rejects a client with more antennas
/// as a typed error before any kernel runs.
pub const SINR_MAX_DIM: usize = 4;

/// One entry per receive antenna.
type RxVec = [C64; SINR_MAX_DIM];
/// The lower triangle of a Hermitian `rx x rx` covariance (entries above
/// the diagonal are never read).
type Lower = [RxVec; SINR_MAX_DIM];

/// One transmitter as seen from a particular receiver: the true channel to
/// that receiver plus what the transmitter is sending.
pub struct TxSide<'a> {
    /// True channel from this AP to the receiver being evaluated.
    pub channel: &'a FreqChannel,
    /// The AP's precoder.
    pub precoding: &'a LinkPrecoding,
    /// The AP's power allocation.
    pub powers: &'a TxPowers,
    /// The AP's total power budget in mW (sets the leakage reference).
    pub budget_mw: f64,
}

impl<'a> TxSide<'a> {
    /// Carrier leakage per transmit antenna on subcarrier `s`, in mW: a
    /// dropped subcarrier still radiates `leakage_db` below the average
    /// per-subcarrier level, omnidirectionally (unprecoded); an active one
    /// radiates none.
    fn leakage_per_antenna_mw(&self, s: usize, imp: &Impairments) -> f64 {
        if !self.powers.is_dropped(s) {
            return 0.0;
        }
        imp.leakage_factor() * self.budget_mw / DATA_SUBCARRIERS as f64 / self.channel.tx() as f64
    }

    /// Effective transmitted matrix `P diag(sqrt(p))` on subcarrier `s`
    /// (tx x streams).
    fn tx_matrix(&self, s: usize) -> CMat {
        let p = &self.precoding.precoder[s];
        CMat::from_fn(p.rows(), p.cols(), |i, k| {
            p[(i, k)].scale(self.powers.powers[k][s].sqrt())
        })
    }

    /// Covariance contribution of this transmitter at the receiver on
    /// subcarrier `s`, *excluding* the desired-signal columns unless
    /// `include_signal` (excluded when this is the receiver's own AP), as
    /// a full `CMat`. The reference for the terms [`mmse_sinr_grid_into`]
    /// accumulates on its stack arrays.
    fn covariance(&self, s: usize, imp: &Impairments, include_signal: bool) -> CMat {
        let h = self.channel.at(s);
        let mut r = CMat::zeros(h.rows(), h.rows());
        let txm = self.tx_matrix(s);

        if include_signal {
            let b = h.matmul(&txm);
            r.add_in_place(&b.matmul(&b.hermitian()));
        }

        // Transmit EVM: unprecoded noise radiated per antenna.
        let evm = imp.evm_factor();
        if evm > 0.0 {
            let pant: Vec<f64> = (0..txm.rows())
                .map(|i| (0..txm.cols()).map(|k| txm[(i, k)].norm_sqr()).sum())
                .collect();
            if pant.iter().any(|&p| p > 0.0) {
                let diag: Vec<f64> = pant.iter().map(|&p| p * evm).collect();
                r.add_in_place(&h.matmul(&CMat::diag_real(&diag)).matmul(&h.hermitian()));
            }
        }

        let per_ant = self.leakage_per_antenna_mw(s, imp);
        if per_ant > 0.0 {
            let hhh = h.matmul(&h.hermitian());
            for (dst, src) in r.as_mut_slice().iter_mut().zip(hhh.as_slice()) {
                *dst = *dst + src.scale(per_ant);
            }
        }
        r
    }

    // alloc-free: begin sinr_terms (per-subcarrier kernel -- no Vec::new / vec!)
    /// Received signature `H P_k sqrt(p_k)` of stream `k` on subcarrier `s`.
    fn signature(&self, s: usize, k: usize) -> RxVec {
        let h = self.channel.at(s);
        let p = &self.precoding.precoder[s];
        let amp = self.powers.powers[k][s].sqrt();
        let mut v = [ZERO; SINR_MAX_DIM];
        for (m, vm) in v.iter_mut().enumerate().take(h.rows()) {
            for i in 0..h.cols() {
                *vm += h[(m, i)] * p[(i, k)];
            }
            *vm = vm.scale(amp);
        }
        v
    }

    /// Adds this transmitter's unprecoded noise on subcarrier `s` to `r`:
    /// per antenna `i` with channel column `h_i`, `w_i h_i h_i^H` where
    /// `w_i` is the antenna's transmitted power times the EVM factor (zero
    /// when the antenna is silent) plus the dropped-subcarrier leakage.
    fn add_noise(&self, s: usize, imp: &Impairments, r: &mut Lower) {
        let h = self.channel.at(s);
        let p = &self.precoding.precoder[s];
        let evm = imp.evm_factor();
        let leak = self.leakage_per_antenna_mw(s, imp);
        let mut col = [ZERO; SINR_MAX_DIM];
        for i in 0..h.cols() {
            let pant: f64 = (0..p.cols())
                .map(|k| p[(i, k)].norm_sqr() * self.powers.powers[k][s])
                .sum();
            let w = pant * evm + leak;
            if w > 0.0 {
                for (m, c) in col.iter_mut().enumerate().take(h.rows()) {
                    *c = h[(m, i)];
                }
                add_outer(r, &col, w, h.rows());
            }
        }
    }
    // alloc-free: end sinr_terms
}

/// Per-stream post-MMSE SINR grid (`[stream][subcarrier]`, linear) at the
/// receiver served by `own`, with optional concurrent `interferer`
/// (allocating convenience wrapper; see [`mmse_sinr_grid_into`]).
pub fn mmse_sinr_grid(
    own: &TxSide,
    interferer: Option<&TxSide>,
    noise_mw: f64,
    imp: &Impairments,
) -> Vec<[f64; DATA_SUBCARRIERS]> {
    let mut grid = Vec::new();
    mmse_sinr_grid_into(own, interferer, noise_mw, imp, &mut grid);
    grid
}

// alloc-free: begin mmse_sinr_grid_into (per-subcarrier kernel -- no Vec::new / vec!)
/// [`mmse_sinr_grid`] into a caller-owned grid, reshaped in place; it
/// needs no other buffer, so after warm-up it never allocates.
///
/// For each stream `k` with received signature `a_k = H P_k sqrt(p_k)`:
/// `SINR_k = a_k^H R_k^{-1} a_k`, the standard MMSE output SINR, where
/// `R_k` collects thermal noise `noise_mw * I`, a diagonal loading of
/// `noise_mw.max(1e-18) * 1e-9`, the other streams of the own AP
/// (`sum_{j != k} a_j a_j^H`), the interferer's streams, and both
/// transmitters' EVM and leakage noise. Per subcarrier the shared terms
/// are summed once, as rank-1 updates of a lower triangle on the stack;
/// each active stream then adds its co-streams, factors `R_k = L L^H` by
/// Cholesky and writes `|L^{-1} a_k|^2`. A cell whose power is zero keeps
/// its 0. Agrees with [`mmse_sinr_grid_reference`] to rounding.
///
/// # Panics
/// Panics if the receiver has more than [`SINR_MAX_DIM`] antennas, the own
/// AP sends more than [`SINR_MAX_DIM`] streams, or the interferer's
/// channel reaches a receiver with another antenna count.
pub fn mmse_sinr_grid_into(
    own: &TxSide,
    interferer: Option<&TxSide>,
    noise_mw: f64,
    imp: &Impairments,
    grid: &mut Vec<[f64; DATA_SUBCARRIERS]>,
) {
    let streams = own.precoding.streams();
    let rx = own.channel.rx();
    assert!(
        rx <= SINR_MAX_DIM && streams <= SINR_MAX_DIM,
        "SINR kernel holds at most {SINR_MAX_DIM} receive antennas and streams, got {rx} and {streams}"
    );
    if let Some(int) = interferer {
        assert_eq!(int.channel.rx(), rx, "interferer reaches another receiver");
    }
    reshape_rows(grid, streams, 0.0);
    let floor = noise_mw + noise_mw.max(1e-18) * 1e-9;

    let mut a = [[ZERO; SINR_MAX_DIM]; SINR_MAX_DIM];
    for s in 0..DATA_SUBCARRIERS {
        let mut base = [[ZERO; SINR_MAX_DIM]; SINR_MAX_DIM];
        for (i, row) in base.iter_mut().enumerate().take(rx) {
            row[i] = C64::real(floor);
        }
        own.add_noise(s, imp, &mut base);
        if let Some(int) = interferer {
            int.add_noise(s, imp, &mut base);
            for k in 0..int.precoding.streams() {
                if int.powers.powers[k][s] > 0.0 {
                    add_outer(&mut base, &int.signature(s, k), 1.0, rx);
                }
            }
        }

        for (k, ak) in a.iter_mut().enumerate().take(streams) {
            *ak = own.signature(s, k);
        }
        for k in 0..streams {
            if own.powers.powers[k][s] <= 0.0 {
                continue;
            }
            let mut rk = base;
            for (j, aj) in a.iter().enumerate().take(streams) {
                if j != k && own.powers.powers[j][s] > 0.0 {
                    add_outer(&mut rk, aj, 1.0, rx);
                }
            }
            grid[k][s] = quad_form(&mut rk, &a[k], rx, floor).max(0.0);
        }
    }
}

/// `r += w v v^H` on the lower triangle of the leading `n x n` block.
#[inline]
fn add_outer(r: &mut Lower, v: &RxVec, w: f64, n: usize) {
    for i in 0..n {
        let wv = v[i].scale(w);
        for j in 0..i {
            r[i][j] += wv * v[j].conj();
        }
        r[i][i].re += wv.re * v[i].re + wv.im * v[i].im;
    }
}

/// `a^H R^{-1} a` for the Hermitian `R` whose lower `n x n` triangle is
/// `r`, with `R - floor * I` positive semi-definite: factors `R = L L^H`
/// in place, row by row, and sums `|y_j|^2` for `L y = a` in the same pass.
/// Every pivot `L_jj^2` is at least `floor` in exact arithmetic; one that
/// rounding takes below it is raised back to it, so the result is finite
/// whenever `floor > 0`.
#[inline]
fn quad_form(r: &mut Lower, a: &RxVec, n: usize, floor: f64) -> f64 {
    let mut y = [ZERO; SINR_MAX_DIM];
    let mut inv_diag = [0.0; SINR_MAX_DIM];
    let mut q = 0.0;
    for j in 0..n {
        let mut d = r[j][j].re;
        let mut t = a[j];
        for c in 0..j {
            let mut l = r[j][c];
            for (ljm, lcm) in r[j][..c].iter().zip(&r[c][..c]) {
                l -= *ljm * lcm.conj();
            }
            l = l.scale(inv_diag[c]);
            r[j][c] = l;
            d -= l.norm_sqr();
            t -= l * y[c];
        }
        inv_diag[j] = 1.0 / d.max(floor).sqrt();
        y[j] = t.scale(inv_diag[j]);
        q += y[j].norm_sqr();
    }
    q
}
// alloc-free: end mmse_sinr_grid_into

/// The `CMat` reference for [`mmse_sinr_grid_into`]: the same SINR from
/// full covariance matrices, a diagonally loaded LU inverse and the matrix
/// product `a_k^H R_k^{-1} a_k`, allocating as it goes. The engine never
/// calls it; it stays public so tests can bound the kernel's deviation
/// from it.
pub fn mmse_sinr_grid_reference(
    own: &TxSide,
    interferer: Option<&TxSide>,
    noise_mw: f64,
    imp: &Impairments,
) -> Vec<[f64; DATA_SUBCARRIERS]> {
    let streams = own.precoding.streams();
    let rx = own.channel.rx();
    let mut grid = Vec::new();
    reshape_rows(&mut grid, streams, 0.0);

    for s in 0..DATA_SUBCARRIERS {
        // Base covariance: thermal noise + own EVM + interferer everything.
        let mut base = CMat::zeros(rx, rx);
        for i in 0..rx {
            base[(i, i)] = C64::real(noise_mw);
        }
        base.add_in_place(&own.covariance(s, imp, false));
        if let Some(int) = interferer {
            base.add_in_place(&int.covariance(s, imp, true));
        }

        let a = own.channel.at(s).matmul(&own.tx_matrix(s)); // rx x streams
        for k in 0..streams {
            if own.powers.powers[k][s] <= 0.0 {
                continue;
            }
            // R_k = base + sum_{j != k} a_j a_j^H.
            let mut rk = base.clone();
            for j in (0..streams).filter(|&j| j != k) {
                let aj = a.column(j);
                rk.add_in_place(&aj.matmul(&aj.hermitian()));
            }
            let ak = a.column(k);
            let rinv = inverse_loaded(&rk, noise_mw.max(1e-18) * 1e-9);
            grid[k][s] = ak.hermitian().matmul(&rinv).matmul(&ak)[(0, 0)].re.max(0.0);
        }
    }
    grid
}

/// Total received power (mW, summed over receive antennas) from a
/// transmitter on each subcarrier -- the paper's INR / signal-power
/// measurements (Figures 3 and 9).
pub fn received_power_per_subcarrier(tx: &TxSide, imp: &Impairments) -> Vec<f64> {
    (0..DATA_SUBCARRIERS)
        .map(|s| {
            let r = tx.covariance(s, imp, true);
            r.trace().re.max(0.0)
        })
        .collect()
}

/// Collects the SINRs of all active (stream, subcarrier) cells into the
/// flat vector the throughput model consumes.
pub fn active_cells(grid: &[[f64; DATA_SUBCARRIERS]], powers: &TxPowers) -> Vec<f64> {
    let mut out = Vec::new();
    active_cells_into(grid, powers, &mut out);
    out
}

/// [`active_cells`] appending into a caller-owned buffer (cleared first).
pub fn active_cells_into(grid: &[[f64; DATA_SUBCARRIERS]], powers: &TxPowers, out: &mut Vec<f64>) {
    out.clear();
    for (k, row) in grid.iter().enumerate() {
        for (s, &sinr) in row.iter().enumerate() {
            if powers.powers[k][s] > 0.0 {
                out.push(sinr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beamforming::beamform;
    use crate::nulling::null_toward;
    use copa_channel::MultipathProfile;
    use copa_num::SimRng;

    fn ch(rng: &mut SimRng, rx: usize, tx: usize, gain: f64) -> FreqChannel {
        FreqChannel::random(rng, rx, tx, gain, &MultipathProfile::default())
    }

    const NOISE: f64 = 1e-9;

    #[test]
    fn siso_sinr_matches_closed_form() {
        // 1x1 link, no interferer, ideal radio: SINR = p |h|^2 / noise.
        let mut rng = SimRng::seed_from(70);
        let truth = ch(&mut rng, 1, 1, 1e-6);
        let imp = Impairments::ideal();
        let pre = beamform(&truth, 1);
        let powers = TxPowers::equal(1, 31.6);
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let grid = mmse_sinr_grid(&own, None, NOISE, &imp);
        for s in 0..DATA_SUBCARRIERS {
            let expect = powers.powers[0][s] * truth.at(s)[(0, 0)].norm_sqr() / NOISE;
            assert!(
                (grid[0][s] / expect - 1.0).abs() < 1e-6,
                "s={s}: {} vs {}",
                grid[0][s],
                expect
            );
        }
    }

    #[test]
    fn interference_reduces_sinr() {
        let mut rng = SimRng::seed_from(71);
        let truth = ch(&mut rng, 2, 4, 1e-6);
        let cross = ch(&mut rng, 2, 4, 1e-7);
        let imp = Impairments::ideal();
        let pre = beamform(&truth, 2);
        let powers = TxPowers::equal(2, 31.6);
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };

        let clean = mmse_sinr_grid(&own, None, NOISE, &imp);

        let int_pre = beamform(&cross, 2); // arbitrary precoder for interferer
        let int_powers = TxPowers::equal(2, 31.6);
        let int = TxSide {
            channel: &cross,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let dirty = mmse_sinr_grid(&own, Some(&int), NOISE, &imp);

        let mean = |g: &Vec<[f64; DATA_SUBCARRIERS]>| {
            g.iter().flatten().sum::<f64>() / (2.0 * DATA_SUBCARRIERS as f64)
        };
        assert!(
            mean(&dirty) < mean(&clean) * 0.8,
            "interference should reduce SINR: {} vs {}",
            mean(&dirty),
            mean(&clean)
        );
    }

    #[test]
    fn perfect_nulling_removes_interference() {
        // With ideal CSI and no EVM, a nulled interferer is invisible.
        let mut rng = SimRng::seed_from(72);
        let own_truth = ch(&mut rng, 2, 4, 1e-6);
        let cross_truth = ch(&mut rng, 2, 4, 1e-6); // interferer -> this client
        let int_own = ch(&mut rng, 2, 4, 1e-6); // interferer -> its own client
        let imp = Impairments::ideal();

        let pre = beamform(&own_truth, 2);
        let powers = TxPowers::equal(2, 31.6);
        let own = TxSide {
            channel: &own_truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let clean = mmse_sinr_grid(&own, None, NOISE, &imp);

        // Interferer nulls toward *this* client (cross_truth is its channel
        // to us) while beamforming to its own client.
        let int_pre = null_toward(&int_own, &cross_truth, 2).unwrap();
        let int_powers = TxPowers::equal(2, 31.6);
        let int = TxSide {
            channel: &cross_truth,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let nulled = mmse_sinr_grid(&own, Some(&int), NOISE, &imp);

        for s in 0..DATA_SUBCARRIERS {
            for k in 0..2 {
                assert!(
                    (nulled[k][s] / clean[k][s] - 1.0).abs() < 1e-3,
                    "perfect null should preserve SINR at s={s},k={k}: {} vs {}",
                    nulled[k][s],
                    clean[k][s]
                );
            }
        }
    }

    #[test]
    fn evm_floors_the_null() {
        // With TX EVM, even a perfect-CSI null leaks noise.
        let mut rng = SimRng::seed_from(73);
        let _own_truth = ch(&mut rng, 2, 4, 1e-6);
        let cross_truth = ch(&mut rng, 2, 4, 1e-6);
        let int_own = ch(&mut rng, 2, 4, 1e-6);
        let imp = Impairments {
            csi_error_db: -300.0,
            tx_evm_db: -30.0,
            leakage_db: -300.0,
        };

        let int_pre = null_toward(&int_own, &cross_truth, 2).unwrap();
        let int_powers = TxPowers::equal(2, 31.6);
        let int = TxSide {
            channel: &cross_truth,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let rx_power = received_power_per_subcarrier(&int, &imp);
        let total: f64 = rx_power.iter().sum();

        // Compare with the unprecoded (equal power) interference level.
        let bf_pre = beamform(&int_own, 2);
        let unp = TxSide {
            channel: &cross_truth,
            precoding: &bf_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let unp_power: f64 = received_power_per_subcarrier(&unp, &Impairments::ideal())
            .iter()
            .sum();

        let depth_db = 10.0 * (total / unp_power).log10();
        assert!(
            (-35.0..=-22.0).contains(&depth_db),
            "EVM should floor the null near -30 dB, got {depth_db:.1} dB"
        );
    }

    #[test]
    fn dropped_subcarrier_leaks() {
        let mut rng = SimRng::seed_from(74);
        let cross = ch(&mut rng, 2, 4, 1e-6);
        let int_own = ch(&mut rng, 2, 4, 1e-6);
        let pre = beamform(&int_own, 2);
        let mut powers = TxPowers::equal(2, 31.6);
        // Drop subcarrier 5 entirely.
        powers.powers[0][5] = 0.0;
        powers.powers[1][5] = 0.0;
        let tx = TxSide {
            channel: &cross,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };

        let imp = Impairments {
            csi_error_db: -300.0,
            tx_evm_db: -300.0,
            leakage_db: -27.0,
        };
        let with_leak = received_power_per_subcarrier(&tx, &imp);
        assert!(with_leak[5] > 0.0, "dropped subcarrier should still leak");
        let ideal = received_power_per_subcarrier(&tx, &Impairments::ideal());
        // "ideal" is -300 dB, i.e. numerically zero.
        assert!(ideal[5] < with_leak[5] * 1e-20);
        // Leakage is far below an active subcarrier.
        assert!(with_leak[5] < with_leak[6] * 0.1);
    }

    #[test]
    fn kernel_matches_reference_on_every_branch() {
        // Every term of the chain: interferer on/off, real impairments
        // (EVM + leakage) vs ideal, dropped subcarriers, zero-power cells.
        // Cholesky and LU round differently, so the kernel agrees with the
        // reference to 1e-10 relative (see tests/determinism.rs for the
        // bound), and exactly where the reference leaves a cell at 0.
        let mut rng = SimRng::seed_from(80);
        let truth = ch(&mut rng, 2, 4, 1e-6);
        let cross = ch(&mut rng, 2, 4, 1e-7);
        let int_own = ch(&mut rng, 2, 4, 1e-6);
        let pre = beamform(&truth, 2);
        let int_pre = beamform(&int_own, 2);
        let mut powers = TxPowers::equal(2, 31.6);
        powers.powers[0][5] = 0.0;
        powers.powers[1][5] = 0.0; // dropped subcarrier
        powers.powers[1][17] = 0.0; // zero-power cell, stream still active
        let mut int_powers = TxPowers::equal(2, 31.6);
        int_powers.powers[0][30] = 0.0;
        int_powers.powers[1][30] = 0.0;
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let int = TxSide {
            channel: &cross,
            precoding: &int_pre,
            powers: &int_powers,
            budget_mw: 31.6,
        };
        let mut grid = Vec::new();
        for imp in [Impairments::default(), Impairments::ideal()] {
            for with_int in [false, true] {
                let interferer = with_int.then_some(&int);
                mmse_sinr_grid_into(&own, interferer, NOISE, &imp, &mut grid);
                let reference = mmse_sinr_grid_reference(&own, interferer, NOISE, &imp);
                assert_eq!(grid.len(), reference.len());
                for k in 0..grid.len() {
                    for s in 0..DATA_SUBCARRIERS {
                        let (got, want) = (grid[k][s], reference[k][s]);
                        let ok = if want == 0.0 {
                            got == 0.0
                        } else {
                            (got - want).abs() <= 1e-10 * want
                        };
                        assert!(ok, "with_int={with_int} k={k} s={s}: {got} vs {want}");
                    }
                }
            }
        }
    }

    #[test]
    fn active_cells_respects_dropping() {
        let row = |head: [f64; 3]| {
            let mut r = [0.0; DATA_SUBCARRIERS];
            r[..3].copy_from_slice(&head);
            r
        };
        let grid = vec![row([1.0, 2.0, 3.0]), row([4.0, 5.0, 6.0])];
        let powers = TxPowers {
            powers: vec![row([1.0, 0.0, 1.0]), row([0.0, 1.0, 1.0])],
        };
        let cells = active_cells(&grid, &powers);
        assert_eq!(cells, vec![1.0, 3.0, 5.0, 6.0]);
    }

    #[test]
    fn two_streams_interfere_without_enough_rx_antennas() {
        // A 1-antenna receiver cannot separate 2 streams: SINR saturates.
        let mut rng = SimRng::seed_from(75);
        let truth = ch(&mut rng, 1, 4, 1e-6);
        // Force a 2-stream precoder from a fake 2-row estimate, then send to
        // a 1-antenna receiver.
        let fake = ch(&mut rng, 2, 4, 1e-6);
        let pre = beamform(&fake, 2);
        let powers = TxPowers::equal(2, 31.6);
        let own = TxSide {
            channel: &truth,
            precoding: &pre,
            powers: &powers,
            budget_mw: 31.6,
        };
        let grid = mmse_sinr_grid(&own, None, NOISE, &Impairments::ideal());
        // Streams mutually interfere: SINR can't exceed ~1/(inter-stream
        // leakage), far below the interference-free level.
        let mean: f64 = grid.iter().flatten().sum::<f64>() / (2.0 * DATA_SUBCARRIERS as f64);
        assert!(
            mean < 100.0,
            "1-antenna rx should choke on 2 streams, mean SINR {mean}"
        );
    }
}

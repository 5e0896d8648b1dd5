//! The 802.11 block interleaver.
//!
//! Coded bits are interleaved across the subcarriers of each OFDM symbol so
//! a deep fade hits scattered code bits rather than a burst -- this is what
//! makes the decoder see the *average* of per-subcarrier BERs (the model
//! `copa-phy::link` uses), and why a few terrible subcarriers poison whole
//! frames.
//!
//! Standard two-permutation interleaver (802.11n, 20 MHz, one stream) over
//! `N_CBPS` coded bits per symbol with `N_COL = 13` columns and
//! `N_ROW = 4 * N_BPSC` rows (13 x 4 x N_BPSC = 52 x N_BPSC = N_CBPS):
//!   first:  `i = N_ROW * (k mod N_COL) + floor(k / N_COL)`
//!   second: `j = s*floor(i/s) + (i + N_CBPS - floor(N_COL*i/N_CBPS)) mod s`,
//! with `s = max(N_BPSC/2, 1)`.

use crate::modulation::Modulation;
use crate::ofdm::DATA_SUBCARRIERS;

/// Interleaver for one OFDM symbol of a given modulation.
#[derive(Clone, Debug)]
pub struct Interleaver {
    /// Permutation: output position of each input bit.
    forward: Vec<usize>,
}

impl Interleaver {
    /// Builds the interleaver for `modulation` over the 52 data subcarriers.
    pub fn new(modulation: Modulation) -> Self {
        let n_bpsc = modulation.bits_per_symbol() as usize;
        let n_cbps = n_bpsc * DATA_SUBCARRIERS;
        let n_col = 13;
        let n_row = 4 * n_bpsc;
        let s = (n_bpsc / 2).max(1);
        let forward = (0..n_cbps)
            .map(|k| {
                let i = n_row * (k % n_col) + k / n_col;
                s * (i / s) + (i + n_cbps - (n_col * i) / n_cbps) % s
            })
            .collect();
        Self { forward }
    }

    /// Coded bits per OFDM symbol.
    pub fn block_len(&self) -> usize {
        self.forward.len()
    }

    /// The permutation: coded bit `k` of a block goes to position
    /// `permutation()[k]`.
    pub fn permutation(&self) -> &[usize] {
        &self.forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_permutation() {
        for m in Modulation::ALL {
            let il = Interleaver::new(m);
            let mut seen = vec![false; il.block_len()];
            for &j in &il.forward {
                assert!(!seen[j], "{m}: not a permutation");
                seen[j] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn block_lengths_match_standard() {
        assert_eq!(Interleaver::new(Modulation::Bpsk).block_len(), 52);
        assert_eq!(Interleaver::new(Modulation::Qpsk).block_len(), 104);
        assert_eq!(Interleaver::new(Modulation::Qam16).block_len(), 208);
        assert_eq!(Interleaver::new(Modulation::Qam64).block_len(), 312);
    }

    #[test]
    fn adjacent_bits_land_on_distant_subcarriers() {
        // The point of interleaving: consecutive coded bits must not land
        // on the same or adjacent subcarriers.
        let il = Interleaver::new(Modulation::Qam16);
        let n_bpsc = 4;
        for k in 0..il.block_len() - 1 {
            let sc_a = il.forward[k] / n_bpsc;
            let sc_b = il.forward[k + 1] / n_bpsc;
            assert!(
                sc_a != sc_b,
                "consecutive bits {k},{} on same subcarrier {sc_a}",
                k + 1
            );
        }
    }

    #[test]
    fn burst_is_scattered() {
        // A fade covering 13 adjacent subcarriers corrupts code bits spread
        // across the whole codeword, not a contiguous burst.
        let il = Interleaver::new(Modulation::Bpsk);
        let n = il.block_len();
        // Coded positions of the bits on 13 adjacent subcarriers.
        let positions: Vec<usize> = (0..n).filter(|&k| il.forward[k] < 13).collect();
        let span = positions.last().unwrap() - positions.first().unwrap();
        assert!(span >= n / 2, "burst not spread: span {span} of {n}");
        // Not one contiguous run.
        let contiguous = positions.windows(2).all(|w| w[1] - w[0] == 1);
        assert!(!contiguous, "burst stayed contiguous after deinterleaving");
    }
}

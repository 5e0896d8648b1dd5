//! Gray-coded constellation mapping, hard-decision and max-log soft
//! demapping.
//!
//! Square QAM factorizes into two independent Gray-coded PAM axes: the
//! first half of a symbol's bits selects the I level, the second half the
//! Q level. Gray coding makes adjacent levels differ in one bit, which is
//! the assumption behind the `(4/log2 M)(1 - 1/sqrt M) Q(...)` uncoded-BER
//! approximations in [`crate::modulation`].
//!
//! LLR convention: positive values favour bit `0`;
//! `llr = log P(bit=0 | y) - log P(bit=1 | y)`.

use crate::coding::hard_llr;
use crate::modulation::Modulation;
use copa_num::complex::C64;

/// Maps/demaps symbols of one modulation.
#[derive(Clone, Debug)]
pub struct Mapper {
    modulation: Modulation,
    /// Ascending per-axis amplitude levels (unit *symbol* energy overall).
    levels: Vec<f64>,
    bits_per_axis: usize,
    /// Every constellation point, indexed by its bit pattern (first bit
    /// most significant).
    points: Vec<C64>,
}

impl Mapper {
    /// Builds the mapper for a modulation.
    pub fn new(modulation: Modulation) -> Self {
        let levels = modulation.pam_levels();
        let bits_per_axis = match modulation {
            Modulation::Bpsk => 1,
            _ => modulation.bits_per_symbol() as usize / 2,
        };
        let mut mapper = Self {
            modulation,
            levels,
            bits_per_axis,
            points: Vec::new(),
        };
        let bps = mapper.bits_per_symbol();
        mapper.points = (0..1usize << bps)
            .map(|pattern| {
                let bits: Vec<u8> = (0..bps).rev().map(|k| ((pattern >> k) & 1) as u8).collect();
                mapper.map_symbol(&bits)
            })
            .collect();
        mapper
    }

    /// The modulation this mapper implements.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// Bits consumed per complex symbol.
    pub fn bits_per_symbol(&self) -> usize {
        self.modulation.bits_per_symbol() as usize
    }

    fn gray(i: usize) -> usize {
        i ^ (i >> 1)
    }

    fn gray_inverse(mut g: usize) -> usize {
        let mut i = g;
        while g > 0 {
            g >>= 1;
            i ^= g;
        }
        i
    }

    /// Level for a per-axis bit group.
    fn axis_map(&self, bits: &[u8]) -> f64 {
        let mut v = 0usize;
        for &b in bits {
            v = (v << 1) | b as usize;
        }
        self.levels[Self::gray_inverse(v)]
    }

    /// Nearest-level hard decision back to the per-axis bit group.
    fn axis_demap(&self, x: f64) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::MAX;
        for (i, &l) in self.levels.iter().enumerate() {
            let d = (x - l).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        Self::gray(best)
    }

    /// Bit pattern (first bit most significant) of the hard decision on `y`.
    fn decide(&self, y: C64) -> usize {
        match self.modulation {
            Modulation::Bpsk => (y.re >= 0.0) as usize,
            _ => (self.axis_demap(y.re) << self.bits_per_axis) | self.axis_demap(y.im),
        }
    }

    /// Maps a bit slice (`bits_per_symbol` bits) to one complex symbol.
    pub fn map_symbol(&self, bits: &[u8]) -> C64 {
        assert_eq!(bits.len(), self.bits_per_symbol(), "bit group size");
        match self.modulation {
            Modulation::Bpsk => C64::real(if bits[0] == 1 { 1.0 } else { -1.0 }),
            _ => {
                let (i_bits, q_bits) = bits.split_at(self.bits_per_axis);
                C64::new(self.axis_map(i_bits), self.axis_map(q_bits))
            }
        }
    }

    /// Hard-decision demaps one received symbol back to bits.
    pub fn demap_symbol(&self, y: C64, out: &mut Vec<u8>) {
        let pattern = self.decide(y);
        out.extend(
            (0..self.bits_per_symbol())
                .rev()
                .map(|k| ((pattern >> k) & 1) as u8),
        );
    }

    /// The hard decision on `y` as unit LLRs (`+1` for a 0, `-1` for a 1),
    /// appended to `out`: the form in which hard bits enter the Viterbi
    /// trellis.
    pub(crate) fn demap_hard_llr(&self, y: C64, out: &mut Vec<f64>) {
        let pattern = self.decide(y);
        out.extend(
            (0..self.bits_per_symbol())
                .rev()
                .map(|k| hard_llr(((pattern >> k) & 1) as u8)),
        );
    }

    /// Exact max-log per-bit LLRs of one received symbol, appended to `out`.
    ///
    /// `y` is the equalized observation, `noise_var` the post-equalization
    /// complex noise variance. Each bit's LLR is the scaled distance to the
    /// nearest point with that bit set minus the distance to the nearest
    /// point with it clear.
    pub fn demap_soft(&self, y: C64, noise_var: f64, out: &mut Vec<f64>) {
        let bps = self.bits_per_symbol();
        let inv = 1.0 / noise_var.max(1e-300);
        let mut dist = [0.0f64; 64];
        for (d, &x) in dist.iter_mut().zip(&self.points) {
            *d = (y - x).norm_sqr() * inv;
        }
        for k in 0..bps {
            let mut best0 = f64::MAX;
            let mut best1 = f64::MAX;
            for (pattern, &d) in dist[..self.points.len()].iter().enumerate() {
                if (pattern >> (bps - 1 - k)) & 1 == 0 {
                    best0 = best0.min(d);
                } else {
                    best1 = best1.min(d);
                }
            }
            out.push(best1 - best0);
        }
    }

    /// Maps a whole bit stream (`bits.len()` divisible by bits/symbol).
    pub fn map(&self, bits: &[u8]) -> Vec<C64> {
        assert_eq!(bits.len() % self.bits_per_symbol(), 0);
        bits.chunks(self.bits_per_symbol())
            .map(|c| self.map_symbol(c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copa_num::SimRng;

    #[test]
    fn map_demap_round_trip() {
        let mut rng = SimRng::seed_from(1);
        for m in Modulation::ALL {
            let mapper = Mapper::new(m);
            let n = mapper.bits_per_symbol() * 100;
            let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
            let symbols = mapper.map(&bits);
            assert_eq!(symbols.len(), 100);
            let mut back = Vec::new();
            for &y in &symbols {
                mapper.demap_symbol(y, &mut back);
            }
            assert_eq!(back, bits, "{m}");
        }
    }

    #[test]
    fn symbols_have_unit_average_energy() {
        let mut rng = SimRng::seed_from(2);
        for m in Modulation::ALL {
            let mapper = Mapper::new(m);
            let n = mapper.bits_per_symbol() * 4000;
            let bits: Vec<u8> = (0..n).map(|_| (rng.next_u64() & 1) as u8).collect();
            let symbols = mapper.map(&bits);
            let e: f64 = symbols.iter().map(|s| s.norm_sqr()).sum::<f64>() / symbols.len() as f64;
            assert!((e - 1.0).abs() < 0.05, "{m}: energy {e}");
        }
    }

    #[test]
    fn gray_adjacent_levels_differ_by_one_bit() {
        for m in [Modulation::Qam16, Modulation::Qam64] {
            let mapper = Mapper::new(m);
            let bpa = mapper.bits_per_axis;
            // For each adjacent level pair, the gray codes differ in 1 bit.
            for i in 0..mapper.levels.len() - 1 {
                let a = Mapper::gray(i);
                let b = Mapper::gray(i + 1);
                assert_eq!((a ^ b).count_ones(), 1, "{m} levels {i},{}", i + 1);
                assert!(a < (1 << bpa) && b < (1 << bpa));
            }
        }
    }

    #[test]
    fn gray_inverse_inverts() {
        for i in 0..64 {
            assert_eq!(Mapper::gray_inverse(Mapper::gray(i)), i);
        }
    }

    #[test]
    fn small_noise_does_not_flip_bits() {
        let mapper = Mapper::new(Modulation::Qam64);
        let bits = [1, 0, 1, 1, 0, 1];
        let s = mapper.map_symbol(&bits);
        let min_dist = 2.0 / 42.0f64.sqrt(); // adjacent 64-QAM levels
        let noisy = s + C64::new(min_dist * 0.4, -min_dist * 0.4);
        let mut out = Vec::new();
        mapper.demap_symbol(noisy, &mut out);
        assert_eq!(out, bits);
    }

    #[test]
    fn soft_demap_sign_matches_hard_decision() {
        let mut rng = SimRng::seed_from(3);
        for m in Modulation::ALL {
            let mapper = Mapper::new(m);
            let bps = mapper.bits_per_symbol();
            for _ in 0..200 {
                let bits: Vec<u8> = (0..bps).map(|_| (rng.next_u64() & 1) as u8).collect();
                let y = mapper.map_symbol(&bits) + rng.randc().scale(0.02); // tiny noise
                let mut llrs = Vec::new();
                mapper.demap_soft(y, 0.01, &mut llrs);
                let mut hard = Vec::new();
                mapper.demap_symbol(y, &mut hard);
                let mut unit = Vec::new();
                mapper.demap_hard_llr(y, &mut unit);
                for ((l, &h), u) in llrs.iter().zip(&hard).zip(&unit) {
                    assert_eq!((*l < 0.0) as u8, h, "{m}: LLR sign vs hard decision");
                    assert_eq!(*u, hard_llr(h), "{m}: unit LLR vs hard decision");
                }
            }
        }
    }

    #[test]
    fn llr_magnitude_tracks_distance_from_boundary() {
        let mapper = Mapper::new(Modulation::Bpsk);
        let mut near = Vec::new();
        mapper.demap_soft(C64::real(0.1), 1.0, &mut near);
        let mut far = Vec::new();
        mapper.demap_soft(C64::real(0.9), 1.0, &mut far);
        assert!(far[0].abs() > near[0].abs());
    }

    #[test]
    fn bpsk_sign_decision() {
        let mapper = Mapper::new(Modulation::Bpsk);
        let mut out = Vec::new();
        mapper.demap_symbol(C64::new(0.3, 2.0), &mut out);
        mapper.demap_symbol(C64::new(-0.1, -5.0), &mut out);
        assert_eq!(out, vec![1, 0]);
    }
}

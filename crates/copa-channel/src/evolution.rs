//! Deterministic coherence-time evolution of topology channels.
//!
//! The daemon advances ground truth in *coherence blocks*: within a block
//! the channel is constant, and at each block boundary every link takes one
//! first-order Gauss-Markov step `H_b = rho H_{b-1} + sqrt(1 - rho^2) W_b`.
//! The innovation `W_b` is drawn from a fresh RNG seeded purely from
//! `(seed, link, block)` — no shared sequential stream — so evolution is
//! replayable from block 0 after a crash, independent of thread count, and
//! independent of the order links are advanced in.

use crate::multipath::{ChannelScratch, FreqChannel, MultipathProfile};
use crate::topology::Topology;
use copa_num::rng::SimRng;

/// Deterministic per-block channel drift: seeds innovations from
/// `(seed, link, block)` and steps links in place through the pooled
/// [`FreqChannel::evolve_in_place`] path.
#[derive(Clone, Copy, Debug)]
pub struct ChannelDrift {
    seed: u64,
    rho: f64,
    profile: MultipathProfile,
}

impl ChannelDrift {
    /// Per-block correlation matching a coherence-time half-life: after one
    /// block (one coherence time), correlation has decayed to 0.5 — the
    /// `0.5^(dt/coherence)` law at `dt = coherence`.
    pub const RHO_HALF_LIFE: f64 = 0.5;

    /// A drift law with block-to-block correlation `rho` (in `[0, 1]`).
    pub fn new(seed: u64, rho: f64, profile: MultipathProfile) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0, 1]");
        Self { seed, rho, profile }
    }

    /// The block-to-block correlation.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The stable key of link `(ap, client)` of cell `cell` (campuses index
    /// cells; the two-AP suites pass `cell = topology index`).
    pub fn link_key(cell: u64, ap: usize, client: usize) -> u64 {
        cell.wrapping_mul(4).wrapping_add((ap * 2 + client) as u64)
    }

    /// The innovation seed of `(link, block)`: a full-avalanche mix of the
    /// drift seed with both indices, in the same splitmix-constant idiom as
    /// `Campus::link_seed`, so distinct links/blocks never collide in
    /// practice and the draw is independent of evaluation order.
    pub fn innovation_seed(&self, link: u64, block: u64) -> u64 {
        (self.seed ^ 0xD21F_0E0C_0DEC_0DE5)
            .wrapping_add(link.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(block.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Advances one link in place from `from_block` to `to_block`, taking
    /// one Gauss-Markov step per intervening block boundary. `from_block ==
    /// to_block` is a no-op; block 0 is always the unevolved base channel.
    pub fn advance_link(
        &self,
        link: u64,
        from_block: u64,
        to_block: u64,
        ch: &mut FreqChannel,
        scratch: &mut ChannelScratch,
    ) {
        assert!(from_block <= to_block, "drift cannot run backwards");
        for b in from_block + 1..=to_block {
            let mut rng = SimRng::seed_from(self.innovation_seed(link, b));
            ch.evolve_in_place(&mut rng, self.rho, &self.profile, scratch);
        }
    }

    /// Advances all four links of a two-AP topology in place (row-major
    /// link order, though order does not affect the result).
    pub fn advance_topology(
        &self,
        cell: u64,
        from_block: u64,
        to_block: u64,
        topology: &mut Topology,
        scratch: &mut ChannelScratch,
    ) {
        for a in 0..2 {
            for c in 0..2 {
                self.advance_link(
                    Self::link_key(cell, a, c),
                    from_block,
                    to_block,
                    &mut topology.links[a][c],
                    scratch,
                );
            }
        }
    }
}

/// The coherence block containing simulated time `t_us` for a block length
/// of `coherence_us` (block 0 covers `[0, coherence_us)`).
pub fn block_of(t_us: u64, coherence_us: u64) -> u64 {
    assert!(coherence_us > 0, "coherence time must be positive");
    t_us / coherence_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{AntennaConfig, TopologySampler};
    use copa_phy::ofdm::DATA_SUBCARRIERS;

    fn base_topology(seed: u64) -> Topology {
        TopologySampler::default()
            .suite(seed, 1, AntennaConfig::CONSTRAINED_4X2)
            .remove(0)
    }

    fn assert_links_eq(a: &Topology, b: &Topology) {
        for ap in 0..2 {
            for c in 0..2 {
                for s in 0..DATA_SUBCARRIERS {
                    let (x, y) = (a.links[ap][c].at(s), b.links[ap][c].at(s));
                    for r in 0..x.rows() {
                        for t in 0..x.cols() {
                            assert_eq!(x[(r, t)].re.to_bits(), y[(r, t)].re.to_bits());
                            assert_eq!(x[(r, t)].im.to_bits(), y[(r, t)].im.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_zero_is_identity() {
        let drift = ChannelDrift::new(42, 0.5, MultipathProfile::default());
        let base = base_topology(9);
        let mut evolved = base.clone();
        let mut scratch = ChannelScratch::new();
        drift.advance_topology(0, 0, 0, &mut evolved, &mut scratch);
        assert_links_eq(&base, &evolved);
    }

    #[test]
    fn stepwise_equals_oneshot() {
        let drift = ChannelDrift::new(42, 0.5, MultipathProfile::default());
        let mut scratch = ChannelScratch::new();
        let mut oneshot = base_topology(9);
        drift.advance_topology(3, 0, 5, &mut oneshot, &mut scratch);
        let mut stepped = base_topology(9);
        drift.advance_topology(3, 0, 2, &mut stepped, &mut scratch);
        drift.advance_topology(3, 2, 4, &mut stepped, &mut scratch);
        drift.advance_topology(3, 4, 5, &mut stepped, &mut scratch);
        assert_links_eq(&oneshot, &stepped);
    }

    #[test]
    fn blocks_decorrelate_over_time() {
        let drift = ChannelDrift::new(7, 0.5, MultipathProfile::default());
        let base = base_topology(11);
        let mut evolved = base.clone();
        let mut scratch = ChannelScratch::new();
        drift.advance_topology(0, 0, 40, &mut evolved, &mut scratch);
        // After 40 half-life blocks the evolved channel is essentially an
        // independent draw: normalized inner product with the base is small.
        let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
        for s in 0..DATA_SUBCARRIERS {
            let (x, y) = (base.links[0][0].at(s), evolved.links[0][0].at(s));
            for r in 0..x.rows() {
                for t in 0..x.cols() {
                    dot += (x[(r, t)].conj() * y[(r, t)]).re;
                    na += x[(r, t)].norm_sqr();
                    nb += y[(r, t)].norm_sqr();
                }
            }
        }
        let corr = dot / (na.sqrt() * nb.sqrt()).max(1e-300);
        assert!(corr.abs() < 0.3, "expected decorrelation, corr={corr}");
        // Average gain is preserved in expectation; allow wide slack for a
        // single realization.
        let ratio = evolved.links[0][0].mean_gain() / base.links[0][0].mean_gain();
        assert!(
            (0.05..20.0).contains(&ratio),
            "gain drifted wildly: {ratio}"
        );
    }

    #[test]
    fn links_evolve_independently() {
        // Advancing only one link leaves the others bit-identical.
        let drift = ChannelDrift::new(5, 0.5, MultipathProfile::default());
        let base = base_topology(13);
        let mut evolved = base.clone();
        let mut scratch = ChannelScratch::new();
        drift.advance_link(
            ChannelDrift::link_key(0, 1, 0),
            0,
            3,
            &mut evolved.links[1][0],
            &mut scratch,
        );
        for s in [0usize, 25, 51] {
            assert!(evolved.links[0][0]
                .at(s)
                .approx_eq(base.links[0][0].at(s), 1e-300));
            assert!(!evolved.links[1][0]
                .at(s)
                .approx_eq(base.links[1][0].at(s), 1e-12));
        }
    }

    #[test]
    fn innovation_seeds_are_distinct() {
        let drift = ChannelDrift::new(1, 0.5, MultipathProfile::default());
        let mut seen = std::collections::HashSet::new();
        for link in 0..64 {
            for block in 0..64 {
                assert!(seen.insert(drift.innovation_seed(link, block)));
            }
        }
    }

    #[test]
    fn block_of_partitions_time() {
        assert_eq!(block_of(0, 1_000), 0);
        assert_eq!(block_of(999, 1_000), 0);
        assert_eq!(block_of(1_000, 1_000), 1);
        assert_eq!(block_of(3_600_000_000, 1_000_000), 3_600);
    }
}

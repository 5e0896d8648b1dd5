//! One fingerprint over the bits of every channel-synthesis entry point.
//!
//! The per-subcarrier channel is the 64-point FFT of the tapped-delay taps
//! the waveform path convolves. Refactors of that synthesis must keep every
//! output bit: the engine's golden figures, the daemon's journals and the
//! perfbench goodputs all rest on these draws. The hash below covers the
//! owned and pooled draws, the Gauss-Markov evolution, the per-subcarrier
//! map and power scaling,
//! the time-domain response, both suite samplers and the daemon's drift.

use copa_channel::campus::CampusSampler;
use copa_channel::evolution::ChannelDrift;
use copa_channel::{
    AntennaConfig, ChannelScratch, FreqChannel, MultipathProfile, TimeChannel, Topology,
    TopologySampler,
};
use copa_num::SimRng;

/// FNV-1a over 64-bit words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn channel(&mut self, ch: &FreqChannel) {
        self.word(ch.rx() as u64);
        self.word(ch.tx() as u64);
        for m in ch.iter() {
            for z in m.as_slice() {
                self.word(z.re.to_bits());
                self.word(z.im.to_bits());
            }
        }
    }

    fn topology(&mut self, t: &Topology) {
        for row in &t.links {
            for ch in row {
                self.channel(ch);
            }
        }
    }
}

const SHAPES: [(usize, usize, f64); 3] = [(1, 1, 1.0), (2, 4, 1e-6), (3, 2, 2.5e-7)];

#[test]
fn channel_draws_match_the_pinned_fingerprint() {
    let profile = MultipathProfile::default();
    let mut fp = Fingerprint::new();
    // One scratch and one slot across every shape: the pooled draw must
    // not depend on what the buffers held before.
    let mut scratch = ChannelScratch::new();
    let mut pooled = FreqChannel::empty();
    for (i, &(rx, tx, gain)) in SHAPES.iter().enumerate() {
        let seed = 500 + i as u64;
        let mut rng = SimRng::seed_from(seed);
        let owned = FreqChannel::random(&mut rng, rx, tx, gain, &profile);
        fp.channel(&owned);
        fp.channel(&owned.evolve(&mut rng, 0.6, &profile));
        fp.channel(&owned.scale_power(0.316));
        fp.channel(&owned.map(|s, m| m.scale(1.0 + s as f64 * 0.01)));
        fp.word(rng.next_u64());

        let mut rng = SimRng::seed_from(seed);
        FreqChannel::random_into(&mut rng, rx, tx, gain, &profile, &mut scratch, &mut pooled);
        fp.channel(&pooled);
        pooled.evolve_in_place(&mut rng, 0.6, &profile, &mut scratch);
        fp.channel(&pooled);
        fp.word(rng.next_u64());

        let mut rng = SimRng::seed_from(seed);
        let time = TimeChannel::random(&mut rng, rx, tx, gain, &profile);
        for r in 0..rx {
            for t in 0..tx {
                for z in time.impulse(r, t) {
                    fp.word(z.re.to_bits());
                    fp.word(z.im.to_bits());
                }
            }
        }
        fp.channel(&time.freq_response());
        fp.word(rng.next_u64());
    }

    for rho in [0.0, 0.4] {
        let sampler = TopologySampler {
            antenna_correlation: rho,
            ..TopologySampler::default()
        };
        for config in [
            AntennaConfig::SINGLE,
            AntennaConfig::CONSTRAINED_4X2,
            AntennaConfig::OVERCONSTRAINED_3X2,
        ] {
            for t in sampler.suite(0xF1A7, 3, config) {
                fp.topology(&t);
            }
        }
    }

    let campus = CampusSampler::default().sample(0xCA4, 6, AntennaConfig::CONSTRAINED_4X2);
    let members = [1, 4];
    let (f0, f1) = (
        campus.external_noise_scale(1, &members),
        campus.external_noise_scale(4, &members),
    );
    fp.topology(&campus.pair_topology_scaled(1, 4, f0, f1));

    let drift = ChannelDrift::new(0xD21F, ChannelDrift::RHO_HALF_LIFE, profile);
    for (cell, config) in [
        (0u64, AntennaConfig::CONSTRAINED_4X2),
        (1, AntennaConfig::SINGLE),
    ] {
        let mut t = TopologySampler::default()
            .suite(0xB10C, 1, config)
            .remove(0);
        drift.advance_topology(cell, 0, 2, &mut t, &mut scratch);
        fp.topology(&t);
        drift.advance_topology(cell, 2, 3, &mut t, &mut scratch);
        fp.topology(&t);
    }

    assert_eq!(
        fp.0, 0x4DE8_4981_B324_9B15,
        "channel bits moved: {:#018x}",
        fp.0
    );
}

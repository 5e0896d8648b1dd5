//! Deterministic fault injection for the air interface.
//!
//! COPA's premise is two *independently administered* APs coordinating over
//! a lossy medium, so the evaluation stack must survive exactly the faults a
//! deployment sees: ITS control frames lost to collisions, CSI reports
//! garbled or truncated in flight, and cached CSI going stale between
//! refreshes. A [`FaultPlan`] describes those fault rates; everything it
//! does is a pure function of `(seed, exchange id, draw order)`, so a suite
//! run under a plan is bit-reproducible regardless of thread count.
//!
//! The plan lives beneath the wire layers: the coordinator (the one ITS
//! exchange loop, which the daemon and the degraded suite both drive) asks
//! it, frame by frame, what happened to the encoded bytes
//! ([`FaultPlan::deliver`]), and whether the CSI it is about to ship is
//! stale. Injected corruption mutates the *actual* wire bytes, so decode
//! failures exercise the same CRC / codec error paths a real collision
//! would.

use copa_num::rng::SimRng;

/// What the medium did to one transmitted frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The frame arrived exactly as sent.
    Intact(Vec<u8>),
    /// The frame arrived with flipped bytes (decoder sees a CRC failure or
    /// a garbled payload).
    Corrupted(Vec<u8>),
    /// The frame arrived cut short (decoder sees truncation).
    Truncated(Vec<u8>),
    /// The frame never arrived (collision consumed it entirely).
    Lost,
}

impl Delivery {
    /// The received bytes, if anything arrived at all.
    pub fn bytes(&self) -> Option<&[u8]> {
        match self {
            Delivery::Intact(b) | Delivery::Corrupted(b) | Delivery::Truncated(b) => Some(b),
            Delivery::Lost => None,
        }
    }
}

/// A deterministic, seeded fault schedule for ITS exchanges.
///
/// All probabilities are in `[0, 1]`. The zero plan ([`FaultPlan::none`])
/// injects nothing and is the implicit plan of every legacy code path, so
/// fault-free runs stay bit-identical to a stack without fault injection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Base seed; combined with the exchange id to derive per-exchange RNGs.
    pub seed: u64,
    /// Probability an ITS frame is lost outright (hidden-terminal collision).
    pub frame_loss: f64,
    /// Probability a delivered frame has bytes flipped in flight.
    pub corruption: f64,
    /// Probability a delivered frame is truncated mid-payload.
    pub truncation: f64,
    /// Probability the CSI backing one exchange attempt has gone stale
    /// (older than a coherence time) and must be re-measured.
    pub stale_csi: f64,
    /// Retry budget: total extra attempts an exchange may spend across all
    /// of its frames before degrading to CSMA.
    pub max_retries: u32,
}

impl FaultPlan {
    /// The fault-free plan: everything delivered intact, fresh CSI, and a
    /// small default retry budget (which is never consumed).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            frame_loss: 0.0,
            corruption: 0.0,
            truncation: 0.0,
            stale_csi: 0.0,
            max_retries: 4,
        }
    }

    /// A plan that only loses frames, at probability `p` -- the headline
    /// fault mode of the degradation experiments.
    pub fn lossy(seed: u64, p: f64) -> Self {
        Self {
            frame_loss: p,
            ..Self::none(seed)
        }
    }

    /// `true` when the plan cannot inject any fault at all.
    pub fn is_zero(&self) -> bool {
        self.frame_loss <= 0.0
            && self.corruption <= 0.0
            && self.truncation <= 0.0
            && self.stale_csi <= 0.0
    }

    /// The RNG for one exchange. Seeding depends only on `(plan.seed,
    /// exchange_id)`, never on which worker thread runs the exchange, so
    /// suites are reproducible under work stealing.
    pub fn rng_for(&self, exchange_id: u64) -> SimRng {
        SimRng::seed_from(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(exchange_id.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ 0xFA17_FA17_FA17_FA17,
        )
    }

    /// Binds this plan to one exchange: the single home of the
    /// `(seed, exchange_id)` RNG composition. The coordinator binds every
    /// exchange it runs here; the batch runners pass their flat topology
    /// index as the id, the daemon (when `DaemonConfig::faults` is set)
    /// passes [`FaultPlan::epoch_exchange_id`] of its `(cell, epoch)` key.
    pub fn for_exchange(&self, exchange_id: u64) -> ExchangeFaults {
        ExchangeFaults {
            plan: *self,
            rng: self.rng_for(exchange_id),
        }
    }

    /// The composite exchange id of `(cell, epoch)`: a full-avalanche mix
    /// (same splitmix constants as [`FaultPlan::rng_for`]) xored into its
    /// own id space so daemon exchanges never alias the batch runners' flat
    /// indices. Every re-exchange a long-lived run schedules thereby gets
    /// its own replayable fault stream.
    pub fn epoch_exchange_id(cell: u64, epoch: u64) -> u64 {
        epoch
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(cell.wrapping_mul(0xD1B5_4A32_D192_ED03))
            ^ 0xDAE0_DAE0_DAE0_DAE0
    }

    /// Passes one encoded frame through the faulty medium. Draw order is
    /// fixed (loss, then corruption, then truncation), so a given RNG state
    /// always maps to the same outcome.
    pub fn deliver(&self, rng: &mut SimRng, wire: &[u8]) -> Delivery {
        if self.draw(rng, self.frame_loss) {
            return Delivery::Lost;
        }
        if self.draw(rng, self.corruption) {
            let mut bytes = wire.to_vec();
            if !bytes.is_empty() {
                // Flip a burst of up to 4 bytes, as a colliding preamble
                // fragment would.
                let start = rng.next_u64() as usize % bytes.len();
                let burst = 1 + (rng.next_u64() as usize % 4).min(bytes.len() - start - 1);
                for b in &mut bytes[start..start + burst] {
                    *b ^= (rng.next_u64() as u8) | 1; // always a real flip
                }
            }
            return Delivery::Corrupted(bytes);
        }
        if self.draw(rng, self.truncation) {
            let keep = rng.next_u64() as usize % wire.len().max(1);
            return Delivery::Truncated(wire[..keep].to_vec());
        }
        Delivery::Intact(wire.to_vec())
    }

    /// Draws whether the CSI for the current attempt is stale.
    pub fn csi_is_stale(&self, rng: &mut SimRng) -> bool {
        self.draw(rng, self.stale_csi)
    }

    /// One Bernoulli draw. Probability zero never consumes RNG state, so
    /// the zero plan leaves the RNG untouched (bit-identity with the
    /// fault-free stack).
    fn draw(&self, rng: &mut SimRng, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        rng.uniform() < p
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none(0)
    }
}

/// A [`FaultPlan`] bound to one exchange's fault stream: the plan plus the
/// `(seed, exchange_id)`-derived RNG, so the medium simulation cannot mix
/// up which stream it is drawing from. Built by [`FaultPlan::for_exchange`].
#[derive(Clone, Debug)]
pub struct ExchangeFaults {
    plan: FaultPlan,
    rng: SimRng,
}

impl ExchangeFaults {
    /// The plan this exchange runs under.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Passes one encoded frame through this exchange's faulty medium.
    pub fn deliver(&mut self, wire: &[u8]) -> Delivery {
        let plan = self.plan;
        plan.deliver(&mut self.rng, wire)
    }

    /// Draws whether the CSI for the current attempt is stale.
    pub fn csi_is_stale(&mut self) -> bool {
        let plan = self.plan;
        plan.csi_is_stale(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_transparent_and_consumes_no_entropy() {
        let plan = FaultPlan::none(7);
        assert!(plan.is_zero());
        let mut rng = plan.rng_for(3);
        let before = rng.next_u64();
        let mut rng = plan.rng_for(3);
        let wire = vec![1u8, 2, 3, 4];
        assert_eq!(plan.deliver(&mut rng, &wire), Delivery::Intact(wire));
        assert!(!plan.csi_is_stale(&mut rng));
        // No draws were consumed: the next value matches a fresh RNG.
        assert_eq!(rng.next_u64(), before);
    }

    #[test]
    fn certain_loss_always_loses() {
        let plan = FaultPlan::lossy(1, 1.0);
        let mut rng = plan.rng_for(0);
        for _ in 0..10 {
            assert_eq!(plan.deliver(&mut rng, &[9, 9, 9]), Delivery::Lost);
        }
    }

    #[test]
    fn corruption_actually_changes_bytes() {
        let plan = FaultPlan {
            corruption: 1.0,
            ..FaultPlan::none(2)
        };
        let mut rng = plan.rng_for(0);
        let wire: Vec<u8> = (0..40).collect();
        for _ in 0..20 {
            match plan.deliver(&mut rng, &wire) {
                Delivery::Corrupted(bytes) => {
                    assert_eq!(bytes.len(), wire.len());
                    assert_ne!(bytes, wire, "corruption must flip at least one byte");
                }
                other => panic!("expected corruption, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_shortens() {
        let plan = FaultPlan {
            truncation: 1.0,
            ..FaultPlan::none(3)
        };
        let mut rng = plan.rng_for(0);
        let wire: Vec<u8> = (0..64).collect();
        for _ in 0..20 {
            match plan.deliver(&mut rng, &wire) {
                Delivery::Truncated(bytes) => {
                    assert!(bytes.len() < wire.len());
                    assert_eq!(&wire[..bytes.len()], &bytes[..]);
                }
                other => panic!("expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn same_seed_same_exchange_same_outcomes() {
        let plan = FaultPlan {
            frame_loss: 0.3,
            corruption: 0.2,
            truncation: 0.1,
            stale_csi: 0.15,
            ..FaultPlan::none(0xFEED)
        };
        let wire: Vec<u8> = (0..32).collect();
        for exchange in 0..8u64 {
            let mut a = plan.rng_for(exchange);
            let mut b = plan.rng_for(exchange);
            for _ in 0..16 {
                assert_eq!(plan.deliver(&mut a, &wire), plan.deliver(&mut b, &wire));
                assert_eq!(plan.csi_is_stale(&mut a), plan.csi_is_stale(&mut b));
            }
        }
    }

    #[test]
    fn bound_exchange_matches_ad_hoc_derivation() {
        let plan = FaultPlan {
            frame_loss: 0.3,
            corruption: 0.2,
            stale_csi: 0.15,
            ..FaultPlan::none(0xFEED)
        };
        let wire: Vec<u8> = (0..24).collect();
        let mut bound = plan.for_exchange(5);
        let mut rng = plan.rng_for(5);
        for _ in 0..16 {
            assert_eq!(bound.deliver(&wire), plan.deliver(&mut rng, &wire));
            assert_eq!(bound.csi_is_stale(), plan.csi_is_stale(&mut rng));
        }
    }

    #[test]
    fn epoch_exchange_ids_never_collide_or_alias_flat_indices() {
        let mut seen = std::collections::HashSet::new();
        for cell in 0..64u64 {
            for epoch in 0..256u64 {
                assert!(seen.insert(FaultPlan::epoch_exchange_id(cell, epoch)));
            }
        }
        // The daemon's id space stays clear of the batch runners' flat
        // topology indices.
        for flat in 0..4096u64 {
            assert!(!seen.contains(&flat));
        }
    }

    #[test]
    fn different_exchanges_get_different_fault_streams() {
        let plan = FaultPlan::lossy(5, 0.5);
        let wire = [0u8; 16];
        let pattern = |exchange: u64| -> Vec<bool> {
            let mut rng = plan.rng_for(exchange);
            (0..64)
                .map(|_| plan.deliver(&mut rng, &wire) == Delivery::Lost)
                .collect()
        };
        assert_ne!(pattern(0), pattern(1), "exchange ids must decorrelate");
    }
}

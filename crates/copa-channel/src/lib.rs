//! # copa-channel
//!
//! Wireless channel simulator substituting for the paper's WARP v2 office
//! testbed:
//!
//! * [`multipath`] -- tapped-delay-line frequency-selective MIMO channels
//!   (the narrow-band fading of the paper's Figure 2).
//! * [`timedomain`] -- the one tapped-delay draw, applied by linear
//!   convolution to the actual sample stream (waveform validation) or
//!   transformed into the per-subcarrier channel [`multipath`] hands out.
//! * [`pathloss`] -- log-distance path loss with lognormal shadowing.
//! * [`topology`] -- two-AP / two-client topology suites matching the
//!   paper's Figure 9 signal/interference scatter.
//! * [`campus`] -- N-cell campuses on a plane: pairwise INR matrices and
//!   deterministic lazy pair materialization for city-scale suites.
//! * [`impairments`] -- CSI estimation noise, transmit EVM and carrier
//!   leakage: the reasons nulling leaves residual interference (section 2.2).
//! * [`faults`] -- deterministic seeded fault injection (frame loss, wire
//!   corruption/truncation, CSI staleness) for degradation experiments.
//! * [`evolution`] -- coherence-block Gauss-Markov drift of topology
//!   channels, seeded from `(seed, link, block)` so the daemon's ground
//!   truth replays identically after a crash.

#![warn(missing_docs)]

pub mod campus;
pub mod evolution;
pub mod faults;
pub mod impairments;
pub mod multipath;
pub mod pathloss;
pub mod timedomain;
pub mod topology;

pub use campus::{Campus, CampusSampler};
pub use evolution::{block_of, ChannelDrift};
pub use faults::{Delivery, ExchangeFaults, FaultPlan};
pub use impairments::Impairments;
pub use multipath::{ChannelScratch, FreqChannel, MultipathProfile};
pub use timedomain::TimeChannel;
pub use topology::{AntennaConfig, Topology, TopologySampler};

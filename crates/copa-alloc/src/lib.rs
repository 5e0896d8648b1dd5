//! # copa-alloc
//!
//! COPA's power allocation algorithms:
//!
//! * [`stream`] -- per-stream allocators: Equi-SNR (the paper's
//!   Algorithm 1), Equi-SINR, mercury/waterfilling, classic Gaussian
//!   waterfilling, and the stock equal-power baseline. Each takes one
//!   borrowed [`StreamProblem`], and the pooled ones share one
//!   [`AllocScratch`](stream::AllocScratch).
//! * [`concurrent`] -- the per-AP stream loop
//!   ([`allocate_ap_into`](concurrent::allocate_ap_into)), which the
//!   sequential strategies run with no interference, and the coupled
//!   two-AP iteration of the paper's Figure 6 built on it, with
//!   best-solution memory since the iteration may regress.

#![warn(missing_docs)]

pub mod concurrent;
pub mod stream;

pub use concurrent::{allocate_concurrent, AllocatorKind, ConcurrentProblem, ConcurrentSolution};
pub use stream::{
    allocation_only, equal_power, equi_sinr, mercury_best, selection_only, waterfilling,
    StreamAllocation, StreamProblem,
};

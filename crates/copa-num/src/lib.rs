//! # copa-num
//!
//! Self-contained numerics for the COPA (CoNEXT 2015) reproduction: complex
//! arithmetic, small dense complex matrices, LU solves, one-sided Jacobi SVD,
//! radix-2 FFT, special functions (erfc / Gaussian Q), Gauss-Hermite
//! quadrature, summary statistics, and a deterministic RNG.
//!
//! Everything is implemented from scratch: the workspace deliberately avoids
//! external linear-algebra or DSP crates so the whole signal-processing chain
//! is auditable in one place. Matrices are tiny (antenna counts, at most 4),
//! so clarity is preferred over blocked/SIMD kernels throughout.

#![warn(missing_docs)]

pub mod batch;
pub mod complex;
pub mod fft;
pub mod matrix;
pub mod prop;
pub mod quadrature;
pub mod rng;
pub mod solve;
pub mod special;
pub mod stats;
pub mod svd;

pub use batch::{svd_batch_into, CBatch, SvdBatch, SvdBatchScratch};
pub use complex::C64;
pub use matrix::CMat;
pub use rng::SimRng;
pub use solve::{inverse_loaded_into, LuScratch};
pub use svd::{cond, cond_into, nullspace, svd, svd_into, Svd, SvdScratch};

//! Precomputed lookup tables for the rate-lookup tail.
//!
//! Once the linear algebra is batched, `erfc` evaluations inside the
//! per-MCS BER formulas dominate the allocator's rate selection.
//! [`ErfcTable`] tabulates [`crate::special::erfc`] on a uniform grid and
//! interpolates linearly. Table nodes store the *exact* `special::erfc`
//! output (0 ulp of error at the nodes by construction), and because `erfc`
//! is monotone decreasing and linear interpolation of monotone node values
//! is monotone, the table is monotone between nodes too — both properties
//! are locked down in `tests/prop_batch.rs`.
//!
//! COPA+'s Gauss–Hermite MMSE curves are tabulated elsewhere, as one
//! process-wide table in `copa_phy::mmse_curves`.
//!
//! The engine's golden-figure path keeps calling exact `special::erfc`;
//! the table is the opt-in fast variant for throughput-oriented callers
//! (benchmarks, sweeps) that can tolerate interpolation error between
//! nodes.

use crate::special::erfc;

/// Uniform-grid lookup table for `erfc` with linear interpolation.
#[derive(Clone, Debug)]
pub struct ErfcTable {
    x0: f64,
    x1: f64,
    inv_step: f64,
    values: Vec<f64>,
}

impl ErfcTable {
    /// Default range: `erfc` is within one f64 ulp of 2.0 below -6 and
    /// within one ulp of 0 (for BER purposes) above 6.
    pub const DEFAULT_RANGE: (f64, f64) = (-6.0, 6.0);
    /// Default node count (16385 nodes over 12 units keeps the linear
    /// interpolation error of this smooth function below ~7e-8 absolute,
    /// comparable to the rational approximation's own 1.2e-7 error).
    pub const DEFAULT_NODES: usize = 16385;

    /// Builds a table with `nodes` uniformly spaced nodes on `[x0, x1]`.
    ///
    /// # Panics
    /// Requires `nodes >= 2` and `x0 < x1`.
    pub fn new(x0: f64, x1: f64, nodes: usize) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        assert!(x0 < x1, "range must be non-empty");
        let step = (x1 - x0) / (nodes - 1) as f64;
        let values = (0..nodes).map(|i| erfc(x0 + i as f64 * step)).collect();
        Self {
            x0,
            x1,
            inv_step: 1.0 / step,
            values,
        }
    }

    /// The default table (see [`Self::DEFAULT_RANGE`]).
    pub fn default_table() -> Self {
        Self::new(
            Self::DEFAULT_RANGE.0,
            Self::DEFAULT_RANGE.1,
            Self::DEFAULT_NODES,
        )
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.values.len()
    }

    /// The `i`-th node abscissa.
    pub fn node_x(&self, i: usize) -> f64 {
        self.x0 + i as f64 / self.inv_step
    }

    /// The stored value at node `i` (exactly `special::erfc(node_x(i))`).
    pub fn node_value(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Interpolated `erfc(x)`. Outside the tabulated range the exact
    /// function is used (the tails are flat to near machine precision, but
    /// falling back keeps the approximation honest everywhere).
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        if !(self.x0..=self.x1).contains(&x) {
            return erfc(x);
        }
        let t = (x - self.x0) * self.inv_step;
        let i = (t as usize).min(self.values.len() - 2);
        let frac = t - i as f64;
        let a = self.values[i];
        let b = self.values[i + 1];
        a + (b - a) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_exact() {
        let t = ErfcTable::new(-4.0, 4.0, 257);
        for i in 0..t.nodes() {
            let x = t.node_x(i);
            assert_eq!(t.eval(x).to_bits(), erfc(x).to_bits(), "node {i} (x={x})");
        }
    }

    #[test]
    fn interpolation_error_is_small() {
        let t = ErfcTable::default_table();
        for k in 0..4000 {
            let x = -6.0 + 12.0 * (k as f64 + 0.31) / 4000.0;
            let err = (t.eval(x) - erfc(x)).abs();
            assert!(err < 1e-7, "x={x}: err={err:e}");
        }
    }

    #[test]
    fn out_of_range_falls_back_to_exact() {
        let t = ErfcTable::default_table();
        for &x in &[-9.0, 7.5, 100.0, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(t.eval(x).to_bits(), erfc(x).to_bits());
        }
    }

    #[test]
    fn monotone_decreasing_everywhere() {
        let t = ErfcTable::new(-5.0, 5.0, 101);
        let mut prev = t.eval(-5.0);
        for k in 1..=5000 {
            let x = -5.0 + 10.0 * k as f64 / 5000.0;
            let v = t.eval(x);
            assert!(v <= prev, "x={x}: {v} > {prev}");
            prev = v;
        }
    }
}

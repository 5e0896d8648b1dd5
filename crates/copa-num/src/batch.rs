//! Batched structure-of-arrays kernels over many same-shape matrices.
//!
//! [`CBatch`] stores one matrix per lane in split re/im `f64` planes with
//! the *lane* index fastest-moving: entry `(i, j)` of lane `l` lives at
//! `plane[(i*cols + j)*lanes + l]`, so inner loops walk contiguous `f64`
//! slices across lanes. No engine path uses this module: the
//! precoders run one [`crate::svd::svd_into`] per subcarrier, and the MMSE
//! SINR kernel works on stack arrays per subcarrier, both measured faster.
//! It serves only perfbench's `num.svd_batch_us` probe, which times
//! [`svd_batch_into`].
//!
//! [`svd_batch_into`] replays, per lane, the exact floating-point op
//! sequence of [`crate::svd::svd_into`]; data-dependent branches (the
//! Jacobi pair tolerance skip, per-lane sweep convergence) are kept as
//! per-lane predicates, so each lane is bit-identical to the scalar
//! kernel. `crates/copa-num/tests/prop_batch.rs` proves this over random
//! shapes and seeds.

use crate::complex::{C64, ONE};
use crate::matrix::CMat;

/// A batch of `lanes` same-shape complex matrices in split re/im planes.
///
/// `Default` is the empty `0 x 0 x 0` batch; buffers grow on first use and
/// are reused allocation-free afterwards (the same contract as [`CMat`]
/// scratch buffers).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CBatch {
    rows: usize,
    cols: usize,
    lanes: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl CBatch {
    /// A fresh empty batch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows of each matrix in the batch.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of each matrix in the batch.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of lanes (matrices) in the batch.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, l: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols && l < self.lanes);
        (i * self.cols + j) * self.lanes + l
    }

    /// Entry `(i, j)` of lane `l`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, l: usize) -> C64 {
        let k = self.idx(i, j, l);
        C64::new(self.re[k], self.im[k])
    }

    /// Sets entry `(i, j)` of lane `l`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, l: usize, z: C64) {
        let k = self.idx(i, j, l);
        self.re[k] = z.re;
        self.im[k] = z.im;
    }

    // alloc-free: begin cbatch_kernels (batched subcarrier kernels -- no Vec::new / vec!)

    /// Reshapes to an all-zero `rows x cols x lanes` batch, reusing buffers.
    pub fn reset(&mut self, rows: usize, cols: usize, lanes: usize) {
        self.rows = rows;
        self.cols = cols;
        self.lanes = lanes;
        let n = rows * cols * lanes;
        self.re.clear();
        self.re.resize(n, 0.0);
        self.im.clear();
        self.im.resize(n, 0.0);
    }

    /// Makes `self` a copy of `src` (shape and entries), reusing buffers.
    pub fn copy_from(&mut self, src: &CBatch) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.lanes = src.lanes;
        self.re.clear();
        self.re.extend_from_slice(&src.re);
        self.im.clear();
        self.im.extend_from_slice(&src.im);
    }

    /// Gathers one [`CMat`] into lane `l` (shape must match the batch).
    pub fn load_lane(&mut self, l: usize, m: &CMat) {
        assert_eq!((m.rows(), m.cols()), (self.rows, self.cols), "lane shape");
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.set(i, j, l, m[(i, j)]);
            }
        }
    }

    /// Scatters lane `l` back out to a [`CMat`] (reshaping it).
    pub fn store_lane(&self, l: usize, out: &mut CMat) {
        out.reset(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(i, j)] = self.get(i, j, l);
            }
        }
    }

    /// Per-lane Frobenius norm, summed in the same row-major entry order as
    /// [`CMat::frobenius_norm`] so the result is bit-identical.
    pub fn frobenius_norm_lane(&self, l: usize) -> f64 {
        let mut sum = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                sum += self.get(i, j, l).norm_sqr();
            }
        }
        sum.sqrt()
    }

    // alloc-free: end cbatch_kernels
}

/// Result of [`svd_batch_into`]: per lane, `A_l = U_l * diag(s_l) * V_l^H`.
#[derive(Clone, Debug, Default)]
pub struct SvdBatch {
    /// Left singular vectors per lane (zero columns past the rank).
    pub u: CBatch,
    /// Singular values: `s[j * lanes + l]` is the `j`-th (non-increasing)
    /// singular value of lane `l`.
    pub s: Vec<f64>,
    /// Right singular vectors per lane (full unitary).
    pub v: CBatch,
}

impl SvdBatch {
    /// The `j`-th singular value of lane `l`.
    #[inline]
    pub fn s_at(&self, j: usize, l: usize) -> f64 {
        self.s[j * self.u.lanes() + l]
    }
}

/// Reusable working storage for [`svd_batch_into`].
#[derive(Clone, Debug, Default)]
pub struct SvdBatchScratch {
    w: CBatch,
    v: CBatch,
    tol: Vec<f64>,
    active: Vec<bool>,
    off: Vec<f64>,
    app: Vec<f64>,
    aqq: Vec<f64>,
    apq_re: Vec<f64>,
    apq_im: Vec<f64>,
    rot: Vec<bool>,
    ph_re: Vec<f64>,
    ph_im: Vec<f64>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    norms: Vec<f64>,
    order: Vec<usize>,
}

impl SvdBatchScratch {
    /// A fresh scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

const MAX_SWEEPS: usize = 64;

// alloc-free: begin svd_batch_into (batched subcarrier kernel -- no Vec::new / vec!)
/// One-sided Jacobi SVD of every lane at once.
///
/// Per lane this replays [`crate::svd::svd_into`] exactly: the same sweep
/// order, the same per-pair `c_abs <= tol` skip, the same per-lane sweep
/// convergence break, the same norm/sort/normalize epilogue — so each
/// lane's `(u, s, v)` is bit-identical to the scalar kernel. The Gram
/// accumulation and rotations run lane-innermost over contiguous planes.
pub fn svd_batch_into(a: &CBatch, scratch: &mut SvdBatchScratch, out: &mut SvdBatch) {
    let m = a.rows();
    let n = a.cols();
    let lanes = a.lanes();
    let w = &mut scratch.w;
    w.copy_from(a);
    let v = &mut scratch.v;
    v.reset(n, n, lanes);
    for i in 0..n {
        for l in 0..lanes {
            v.set(i, i, l, ONE);
        }
    }

    let tol = &mut scratch.tol;
    tol.clear();
    let active = &mut scratch.active;
    active.clear();
    for l in 0..lanes {
        let scale = w.frobenius_norm_lane(l).max(1e-300);
        tol.push(1e-14 * scale * scale);
        active.push(true);
    }

    let off = &mut scratch.off;
    off.clear();
    off.resize(lanes, 0.0);
    let app = &mut scratch.app;
    let aqq = &mut scratch.aqq;
    let apq_re = &mut scratch.apq_re;
    let apq_im = &mut scratch.apq_im;
    let rot = &mut scratch.rot;
    let ph_re = &mut scratch.ph_re;
    let ph_im = &mut scratch.ph_im;
    let cs = &mut scratch.cs;
    let sn = &mut scratch.sn;
    for buf in [&mut *app, &mut *aqq, &mut *apq_re, &mut *apq_im] {
        buf.clear();
        buf.resize(lanes, 0.0);
    }
    for buf in [&mut *ph_re, &mut *ph_im, &mut *cs, &mut *sn] {
        buf.clear();
        buf.resize(lanes, 0.0);
    }
    rot.clear();
    rot.resize(lanes, false);

    for _ in 0..MAX_SWEEPS {
        if !active.iter().any(|&x| x) {
            break;
        }
        for l in 0..lanes {
            off[l] = 0.0;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                // 2x2 Gram submatrices of columns p, q, all lanes at once
                // (per lane: the same i-ordered accumulation as the scalar
                // kernel).
                for l in 0..lanes {
                    app[l] = 0.0;
                    aqq[l] = 0.0;
                    apq_re[l] = 0.0;
                    apq_im[l] = 0.0;
                }
                for i in 0..m {
                    let pb = w.idx(i, p, 0);
                    let qb = w.idx(i, q, 0);
                    for l in 0..lanes {
                        let wp = C64::new(w.re[pb + l], w.im[pb + l]);
                        let wq = C64::new(w.re[qb + l], w.im[qb + l]);
                        app[l] += wp.norm_sqr();
                        aqq[l] += wq.norm_sqr();
                        let c = wp.conj() * wq;
                        apq_re[l] += c.re;
                        apq_im[l] += c.im;
                    }
                }
                let mut any_rot = false;
                for l in 0..lanes {
                    rot[l] = false;
                    if !active[l] {
                        continue;
                    }
                    let apq = C64::new(apq_re[l], apq_im[l]);
                    let c_abs = apq.abs();
                    off[l] = off[l].max(c_abs);
                    if c_abs <= tol[l] {
                        continue;
                    }
                    let phase = apq / C64::real(c_abs);
                    let zeta = (app[l] - aqq[l]) / (2.0 * c_abs);
                    let t = if zeta >= 0.0 {
                        1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                    } else {
                        -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                    };
                    cs[l] = 1.0 / (1.0 + t * t).sqrt();
                    sn[l] = cs[l] * t;
                    ph_re[l] = phase.re;
                    ph_im[l] = phase.im;
                    rot[l] = true;
                    any_rot = true;
                }
                if !any_rot {
                    continue;
                }
                for i in 0..m {
                    let pb = w.idx(i, p, 0);
                    let qb = w.idx(i, q, 0);
                    for l in 0..lanes {
                        if !rot[l] {
                            continue;
                        }
                        let e_p = C64::new(ph_re[l], ph_im[l]);
                        let e_m = e_p.conj();
                        let wp = C64::new(w.re[pb + l], w.im[pb + l]);
                        let wq = C64::new(w.re[qb + l], w.im[qb + l]);
                        let np = wp.scale(cs[l]) + e_m * wq.scale(sn[l]);
                        let nq = -e_p * wp.scale(sn[l]) + wq.scale(cs[l]);
                        w.re[pb + l] = np.re;
                        w.im[pb + l] = np.im;
                        w.re[qb + l] = nq.re;
                        w.im[qb + l] = nq.im;
                    }
                }
                for i in 0..n {
                    let pb = v.idx(i, p, 0);
                    let qb = v.idx(i, q, 0);
                    for l in 0..lanes {
                        if !rot[l] {
                            continue;
                        }
                        let e_p = C64::new(ph_re[l], ph_im[l]);
                        let e_m = e_p.conj();
                        let vp = C64::new(v.re[pb + l], v.im[pb + l]);
                        let vq = C64::new(v.re[qb + l], v.im[qb + l]);
                        let np = vp.scale(cs[l]) + e_m * vq.scale(sn[l]);
                        let nq = -e_p * vp.scale(sn[l]) + vq.scale(cs[l]);
                        v.re[pb + l] = np.re;
                        v.im[pb + l] = np.im;
                        v.re[qb + l] = nq.re;
                        v.im[qb + l] = nq.im;
                    }
                }
            }
        }
        for l in 0..lanes {
            if active[l] && off[l] <= tol[l] {
                active[l] = false;
            }
        }
    }

    // Per-lane epilogue: column norms, sort, normalize -- identical to the
    // scalar kernel's, run lane by lane (tiny n, not on the O(m*n*lanes)
    // path).
    out.u.reset(m, n, lanes);
    out.v.reset(n, n, lanes);
    out.s.clear();
    out.s.resize(n * lanes, 0.0);
    let norms = &mut scratch.norms;
    let order = &mut scratch.order;
    for l in 0..lanes {
        order.clear();
        order.extend(0..n);
        norms.clear();
        for j in 0..n {
            let mut sum = 0.0;
            for i in 0..m {
                sum += w.get(i, j, l).norm_sqr();
            }
            norms.push(sum.sqrt());
        }
        order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]));
        // sv_floor = 1e-14 * scale, recomputed from the input exactly as
        // the scalar kernel derives it (tol stores scale^2, which would
        // round under sqrt).
        let scale = a.frobenius_norm_lane(l).max(1e-300);
        let sv_floor = 1e-14 * scale;
        for (jj, &j) in order.iter().enumerate() {
            out.s[jj * lanes + l] = norms[j];
            if norms[j] > sv_floor {
                for i in 0..m {
                    out.u.set(i, jj, l, w.get(i, j, l).scale(1.0 / norms[j]));
                }
            }
            for i in 0..n {
                out.v.set(i, jj, l, v.get(i, j, l));
            }
        }
    }
}
// alloc-free: end svd_batch_into

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::svd::{svd_into, Svd, SvdScratch};

    fn random_mats(rng: &mut SimRng, m: usize, n: usize, lanes: usize) -> Vec<CMat> {
        (0..lanes)
            .map(|_| CMat::from_fn(m, n, |_, _| rng.randc()))
            .collect()
    }

    fn gather(mats: &[CMat]) -> CBatch {
        let mut b = CBatch::new();
        b.reset(mats[0].rows(), mats[0].cols(), mats.len());
        for (l, m) in mats.iter().enumerate() {
            b.load_lane(l, m);
        }
        b
    }

    #[test]
    fn load_store_round_trips() {
        let mut rng = SimRng::seed_from(1);
        let mats = random_mats(&mut rng, 3, 2, 5);
        let b = gather(&mats);
        let mut back = CMat::zeros(0, 0);
        for (l, m) in mats.iter().enumerate() {
            b.store_lane(l, &mut back);
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn svd_batch_matches_scalar_per_lane() {
        let mut rng = SimRng::seed_from(5);
        let mut scratch = SvdBatchScratch::new();
        let mut out = SvdBatch::default();
        let mut s_scratch = SvdScratch::new();
        let mut s_out = Svd::default();
        for &(m, n, lanes) in &[(2, 4, 52), (4, 2, 3), (3, 3, 8), (1, 1, 2)] {
            let mats = random_mats(&mut rng, m, n, lanes);
            svd_batch_into(&gather(&mats), &mut scratch, &mut out);
            for (l, a) in mats.iter().enumerate() {
                svd_into(a, &mut s_scratch, &mut s_out);
                for j in 0..n {
                    assert_eq!(
                        out.s_at(j, l).to_bits(),
                        s_out.s[j].to_bits(),
                        "s[{j}] lane {l} {m}x{n}"
                    );
                }
                let mut lane = CMat::zeros(0, 0);
                out.u.store_lane(l, &mut lane);
                assert_eq!(&lane, &s_out.u, "U lane {l} {m}x{n}");
                out.v.store_lane(l, &mut lane);
                assert_eq!(&lane, &s_out.v, "V lane {l} {m}x{n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_stateless_across_shapes() {
        let mut rng = SimRng::seed_from(8);
        let mut scratch = SvdBatchScratch::new();
        let mut out = SvdBatch::default();
        // Big shape first, then small: stale state would corrupt lane 0.
        for &(m, n, lanes) in &[(4, 4, 52), (2, 2, 3), (4, 4, 52), (1, 3, 2)] {
            let mats = random_mats(&mut rng, m, n, lanes);
            svd_batch_into(&gather(&mats), &mut scratch, &mut out);
            let mut s_scratch = SvdScratch::new();
            let mut s_out = Svd::default();
            svd_into(&mats[0], &mut s_scratch, &mut s_out);
            let mut lane = CMat::zeros(0, 0);
            out.u.store_lane(0, &mut lane);
            assert_eq!(&lane, &s_out.u, "{m}x{n}x{lanes}");
        }
    }
}

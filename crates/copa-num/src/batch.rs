//! Batched structure-of-arrays kernels over many same-shape matrices.
//!
//! The MMSE SINR chain applies the same tiny-matrix operations (loaded
//! inverse, multiply, conjugate transpose) to one matrix per data
//! subcarrier — 52 independent problems of identical shape. [`CBatch`]
//! stores all of them in split re/im `f64` planes with the *lane*
//! (subcarrier) index fastest-moving: entry `(i, j)` of lane `l` lives at
//! `plane[(i*cols + j)*lanes + l]`. Inner loops therefore walk contiguous
//! `f64` slices across lanes and carry no per-subcarrier dispatch or
//! allocation. Precoding does not use this module: its per-subcarrier
//! [`crate::svd::svd_into`] calls measured faster than [`svd_batch_into`],
//! which stays only for perfbench's `num.svd_batch_us` probe.
//!
//! Every batched kernel replays, per lane, the exact floating-point op
//! sequence of its scalar counterpart in [`crate::matrix`], [`crate::svd`]
//! and [`crate::solve`] — data-dependent branches (the matmul zero skip,
//! the Jacobi pair tolerance skip, per-lane sweep convergence, LU partial
//! pivoting) are kept as per-lane predicates. Results are bit-identical to
//! running the scalar kernel 52 times, which is what keeps the engine's
//! determinism/journal/resume guarantees intact; only the memory layout
//! changes. `crates/copa-num/tests/prop_batch.rs` proves this over random
//! shapes and seeds.

use crate::complex::{C64, ONE, ZERO};
use crate::matrix::CMat;
use crate::solve::SingularMatrix;

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

    /// Batched matrix product `self * rhs` into `out`, every lane following
    /// the exact loop order and zero-entry skip of [`CMat::mul_into`], so
    /// each lane's result is bit-identical to the scalar kernel.
    pub fn mul_into(&self, rhs: &CBatch, out: &mut CBatch) {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        assert_eq!(self.lanes, rhs.lanes, "lane count mismatch");
        out.reset(self.rows, rhs.cols, self.lanes);
        for i in 0..self.rows {
            for k in 0..self.cols {
                for j in 0..rhs.cols {
                    let ob = out.idx(i, j, 0);
                    let ab = self.idx(i, k, 0);
                    let bb = rhs.idx(k, j, 0);
                    for l in 0..self.lanes {
                        let a = C64::new(self.re[ab + l], self.im[ab + l]);
                        // Same skip as the scalar kernel: adding a 0-product
                        // is not bit-transparent (-0.0 + 0.0 == +0.0).
                        if a == ZERO {
                            continue;
                        }
                        let b = C64::new(rhs.re[bb + l], rhs.im[bb + l]);
                        let s = a * b;
                        out.re[ob + l] += s.re;
                        out.im[ob + l] += s.im;
                    }
                }
            }
        }
    }

    /// Batched Hermitian transpose into `out` (per lane bit-identical to
    /// [`CMat::hermitian_into`]).
    pub fn hermitian_into(&self, out: &mut CBatch) {
        out.reset(self.cols, self.rows, self.lanes);
        for i in 0..self.cols {
            for j in 0..self.rows {
                let ob = out.idx(i, j, 0);
                let ab = self.idx(j, i, 0);
                for l in 0..self.lanes {
                    out.re[ob + l] = self.re[ab + l];
                    out.im[ob + l] = -self.im[ab + l];
                }
            }
        }
    }

    /// Batched entrywise `self += rhs` on every lane (per lane bit-identical
    /// to [`CMat::add_in_place`]).
    pub fn add_in_place(&mut self, rhs: &CBatch) {
        assert_eq!(
            (self.rows, self.cols, self.lanes),
            (rhs.rows, rhs.cols, rhs.lanes)
        );
        for (a, b) in self.re.iter_mut().zip(&rhs.re) {
            *a += *b;
        }
        for (a, b) in self.im.iter_mut().zip(&rhs.im) {
            *a += *b;
        }
    }

    /// Entrywise `self += rhs` on the lanes where `mask` is true; masked-out
    /// lanes are untouched (not even `+= 0.0`, which would flip `-0.0`).
    pub fn add_in_place_masked(&mut self, rhs: &CBatch, mask: &[bool]) {
        assert_eq!(
            (self.rows, self.cols, self.lanes),
            (rhs.rows, rhs.cols, rhs.lanes)
        );
        assert_eq!(mask.len(), self.lanes);
        for e in 0..self.rows * self.cols {
            let b = e * self.lanes;
            for (l, &on) in mask.iter().enumerate() {
                if on {
                    self.re[b + l] += rhs.re[b + l];
                    self.im[b + l] += rhs.im[b + l];
                }
            }
        }
    }

    /// Entrywise `self += rhs * factor` on the lanes where `mask` is true
    /// (the per-entry op is `dst + src.scale(factor)`, matching the scalar
    /// carrier-leakage fold); masked-out lanes are untouched.
    pub fn add_scaled_in_place_masked(&mut self, rhs: &CBatch, factor: f64, mask: &[bool]) {
        assert_eq!(
            (self.rows, self.cols, self.lanes),
            (rhs.rows, rhs.cols, rhs.lanes)
        );
        assert_eq!(mask.len(), self.lanes);
        for e in 0..self.rows * self.cols {
            let b = e * self.lanes;
            for (l, &on) in mask.iter().enumerate() {
                if on {
                    let dst = C64::new(self.re[b + l], self.im[b + l]);
                    let src = C64::new(rhs.re[b + l], rhs.im[b + l]);
                    let sum = dst + src.scale(factor);
                    self.re[b + l] = sum.re;
                    self.im[b + l] = sum.im;
                }
            }
        }
    }

    /// Copies column `j` of every lane into `out` as a `rows x 1` batch
    /// (per lane bit-identical to [`CMat::column_into`]).
    pub fn column_into(&self, j: usize, out: &mut CBatch) {
        assert!(j < self.cols);
        out.reset(self.rows, 1, self.lanes);
        for i in 0..self.rows {
            let ob = out.idx(i, 0, 0);
            let ab = self.idx(i, j, 0);
            out.re[ob..ob + self.lanes].copy_from_slice(&self.re[ab..ab + self.lanes]);
            out.im[ob..ob + self.lanes].copy_from_slice(&self.im[ab..ab + self.lanes]);
        }
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

/// Reusable working storage for [`inverse_loaded_batch_into`]: batched LU
/// factors, per-lane permutations and per-lane pivot/multiplier staging.
#[derive(Clone, Debug, Default)]
pub struct LuBatchScratch {
    lu: CBatch,
    perm: Vec<usize>,
}

impl LuBatchScratch {
    /// A fresh scratch; buffers are allocated lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

// alloc-free: begin lu_batch_kernels (batched subcarrier kernels -- no Vec::new / vec!)

/// Batched in-place LU factorization with per-lane partial pivoting; per
/// lane bit-identical to `factor_in_place` in [`crate::solve`]. `perm` is
/// laid out `[row * lanes + lane]` and must arrive as the identity in every
/// lane. Fails (like the scalar kernel) if any lane is singular.
fn factor_in_place_batch(lu: &mut CBatch, perm: &mut [usize]) -> Result<(), SingularMatrix> {
    let n = lu.rows();
    let lanes = lu.lanes();
    for k in 0..n {
        for l in 0..lanes {
            // Partial pivot: largest |entry| in column k at or below the
            // diagonal, per lane.
            let mut p = k;
            let mut best = lu.get(k, k, l).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k, l).abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-300 {
                return Err(SingularMatrix);
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu.get(k, j, l);
                    lu.set(k, j, l, lu.get(p, j, l));
                    lu.set(p, j, l, tmp);
                }
                perm.swap(k * lanes + l, p * lanes + l);
            }
        }
        for i in (k + 1)..n {
            let mb = lu.idx(i, k, 0);
            let kb = lu.idx(k, k, 0);
            for l in 0..lanes {
                let m =
                    C64::new(lu.re[mb + l], lu.im[mb + l]) / C64::new(lu.re[kb + l], lu.im[kb + l]);
                lu.re[mb + l] = m.re;
                lu.im[mb + l] = m.im;
            }
            for j in (k + 1)..n {
                let ib = lu.idx(i, j, 0);
                let kb = lu.idx(k, j, 0);
                let mb = lu.idx(i, k, 0);
                for l in 0..lanes {
                    let m = C64::new(lu.re[mb + l], lu.im[mb + l]);
                    let s = m * C64::new(lu.re[kb + l], lu.im[kb + l]);
                    lu.re[ib + l] -= s.re;
                    lu.im[ib + l] -= s.im;
                }
            }
        }
    }
    Ok(())
}

/// Batched forward/back substitution; per lane bit-identical to
/// `substitute_in_place` in [`crate::solve`] (including the zero-entry
/// skips, which become per-lane predicates).
fn substitute_in_place_batch(lu: &CBatch, x: &mut CBatch) {
    let n = lu.rows();
    let m = x.cols();
    let lanes = lu.lanes();
    // Forward substitution (L has unit diagonal).
    for i in 1..n {
        for k in 0..i {
            let lb = lu.idx(i, k, 0);
            for j in 0..m {
                let xb = x.idx(i, j, 0);
                let kb = x.idx(k, j, 0);
                for ln in 0..lanes {
                    let l = C64::new(lu.re[lb + ln], lu.im[lb + ln]);
                    if l == ZERO {
                        continue;
                    }
                    let s = l * C64::new(x.re[kb + ln], x.im[kb + ln]);
                    x.re[xb + ln] -= s.re;
                    x.im[xb + ln] -= s.im;
                }
            }
        }
    }
    // Back substitution.
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            let ub = lu.idx(i, k, 0);
            for j in 0..m {
                let xb = x.idx(i, j, 0);
                let kb = x.idx(k, j, 0);
                for ln in 0..lanes {
                    let u = C64::new(lu.re[ub + ln], lu.im[ub + ln]);
                    if u == ZERO {
                        continue;
                    }
                    let s = u * C64::new(x.re[kb + ln], x.im[kb + ln]);
                    x.re[xb + ln] -= s.re;
                    x.im[xb + ln] -= s.im;
                }
            }
        }
        let db = lu.idx(i, i, 0);
        for j in 0..m {
            let xb = x.idx(i, j, 0);
            for ln in 0..lanes {
                let d = C64::new(lu.re[db + ln], lu.im[db + ln]);
                let q = C64::new(x.re[xb + ln], x.im[xb + ln]) / d;
                x.re[xb + ln] = q.re;
                x.im[xb + ln] = q.im;
            }
        }
    }
}

/// Batched [`crate::solve::inverse_loaded_into`]: inverts `A_l + eps*I` for
/// every lane at once, per lane bit-identical to the scalar kernel.
///
/// # Panics
/// Panics if any loaded lane is singular to working precision (same
/// contract and message as the scalar kernel).
pub fn inverse_loaded_batch_into(
    a: &CBatch,
    eps: f64,
    scratch: &mut LuBatchScratch,
    out: &mut CBatch,
) {
    let n = a.rows();
    let lanes = a.lanes();
    scratch.lu.copy_from(a);
    for i in 0..n {
        let db = scratch.lu.idx(i, i, 0);
        for l in 0..lanes {
            scratch.lu.re[db + l] += eps;
        }
    }
    scratch.perm.clear();
    for i in 0..n {
        for _ in 0..lanes {
            scratch.perm.push(i);
        }
    }
    factor_in_place_batch(&mut scratch.lu, &mut scratch.perm)
        .expect("diagonally loaded matrix must be invertible");
    out.reset(n, n, lanes);
    for i in 0..n {
        for l in 0..lanes {
            out.set(i, scratch.perm[i * lanes + l], l, ONE);
        }
    }
    substitute_in_place_batch(&scratch.lu, out);
}

// alloc-free: end lu_batch_kernels

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::solve::{inverse_loaded_into, LuScratch};
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

    fn lanes_eq(b: &CBatch, mats: &[CMat]) -> bool {
        mats.iter().enumerate().all(|(l, m)| {
            (0..m.rows()).all(|i| {
                (0..m.cols()).all(|j| {
                    let x = b.get(i, j, l);
                    let y = m[(i, j)];
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
                })
            })
        })
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
    fn mul_matches_scalar_per_lane() {
        let mut rng = SimRng::seed_from(2);
        for &(m, k, n, lanes) in &[(2, 4, 2, 7), (4, 4, 1, 3), (1, 2, 3, 52)] {
            let a = random_mats(&mut rng, m, k, lanes);
            let b = random_mats(&mut rng, k, n, lanes);
            let (ba, bb) = (gather(&a), gather(&b));
            let mut out = CBatch::new();
            ba.mul_into(&bb, &mut out);
            let expect: Vec<CMat> = a.iter().zip(&b).map(|(x, y)| x.matmul(y)).collect();
            assert!(lanes_eq(&out, &expect), "{m}x{k}x{n} lanes={lanes}");
        }
    }

    #[test]
    fn hermitian_and_column_match_scalar_per_lane() {
        let mut rng = SimRng::seed_from(3);
        let mats = random_mats(&mut rng, 3, 4, 6);
        let b = gather(&mats);
        let mut out = CBatch::new();
        b.hermitian_into(&mut out);
        let expect: Vec<CMat> = mats.iter().map(|m| m.hermitian()).collect();
        assert!(lanes_eq(&out, &expect));
        b.column_into(2, &mut out);
        let expect: Vec<CMat> = mats.iter().map(|m| m.column(2)).collect();
        assert!(lanes_eq(&out, &expect));
    }

    #[test]
    fn masked_add_skips_lanes_exactly() {
        let mut rng = SimRng::seed_from(4);
        let a = random_mats(&mut rng, 2, 2, 4);
        let d = random_mats(&mut rng, 2, 2, 4);
        let mut b = gather(&a);
        let mask = [true, false, true, false];
        b.add_in_place_masked(&gather(&d), &mask);
        let expect: Vec<CMat> = a
            .iter()
            .zip(&d)
            .zip(mask)
            .map(|((x, y), on)| if on { x + y } else { x.clone() })
            .collect();
        assert!(lanes_eq(&b, &expect));
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
    fn inverse_loaded_batch_matches_scalar_per_lane() {
        let mut rng = SimRng::seed_from(6);
        let mut scratch = LuBatchScratch::new();
        let mut out = CBatch::new();
        let mut s_scratch = LuScratch::new();
        let mut s_out = CMat::zeros(0, 0);
        for &(n, lanes) in &[(2, 52), (3, 5), (4, 4), (1, 1)] {
            let mats = random_mats(&mut rng, n, n, lanes);
            inverse_loaded_batch_into(&gather(&mats), 1e-9, &mut scratch, &mut out);
            for (l, a) in mats.iter().enumerate() {
                inverse_loaded_into(a, 1e-9, &mut s_scratch, &mut s_out);
                let mut lane = CMat::zeros(0, 0);
                out.store_lane(l, &mut lane);
                assert_eq!(&lane, &s_out, "inverse lane {l} n={n}");
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

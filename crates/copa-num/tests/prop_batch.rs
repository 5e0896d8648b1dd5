//! Property suite: the batched SoA SVD is *bit-identical* to the scalar
//! kernel it replays.
//!
//! perfbench's `num.svd_batch_us` probe times `svd_batch_into`; the scalar
//! `copa_num::svd::svd_into` is its reference. The batched kernel is
//! required by design to replay the scalar complex operation sequence per
//! lane, and this test locks that contract down over randomized shapes and
//! seeds — any reassociation, fused multiply-add, or reordering sneaking
//! into the batch code shows up here as a `to_bits` mismatch.

use copa_num::{svd_batch_into, CBatch, CMat, SimRng, SvdBatch, SvdBatchScratch, SvdScratch};

/// Fills a `rows x cols` matrix with unit-variance complex Gaussians.
fn random_cmat(rng: &mut SimRng, rows: usize, cols: usize) -> CMat {
    let mut m = CMat::zeros(rows, cols);
    for i in 0..rows {
        for j in 0..cols {
            m[(i, j)] = rng.randc();
        }
    }
    m
}

/// Loads `mats` as the lanes of a fresh `CBatch`.
fn to_batch(mats: &[CMat]) -> CBatch {
    let rows = mats[0].rows();
    let cols = mats[0].cols();
    let mut b = CBatch::new();
    b.reset(rows, cols, mats.len());
    for (l, m) in mats.iter().enumerate() {
        b.load_lane(l, m);
    }
    b
}

fn assert_lane_eq(batch: &CBatch, lane: usize, scalar: &CMat, what: &str) {
    assert_eq!(
        (batch.rows(), batch.cols()),
        (scalar.rows(), scalar.cols()),
        "{what}: shape"
    );
    for i in 0..scalar.rows() {
        for j in 0..scalar.cols() {
            let b = batch.get(i, j, lane);
            let s = scalar[(i, j)];
            assert_eq!(
                (b.re.to_bits(), b.im.to_bits()),
                (s.re.to_bits(), s.im.to_bits()),
                "{what}: lane {lane} entry ({i},{j}): batch {b:?} vs scalar {s:?}"
            );
        }
    }
}

/// Shapes covering every antenna configuration the engine can produce
/// (1..=4 antennas per side), tall, wide and square.
const SHAPES: &[(usize, usize)] = &[
    (1, 1),
    (2, 2),
    (2, 4),
    (4, 2),
    (3, 3),
    (4, 4),
    (1, 4),
    (4, 1),
];

/// Lane counts: degenerate, odd, and the full 52-subcarrier plane.
const LANES: &[usize] = &[1, 3, 52];

#[test]
fn svd_batch_is_bit_identical_to_scalar() {
    let mut scratch = SvdBatchScratch::new();
    let mut out = SvdBatch::default();
    let mut sc_scratch = SvdScratch::new();
    let mut sc_out = copa_num::Svd::default();
    for seed in [1u64, 0xC0FFEE, 0xDEAD_BEEF] {
        for &(m, n) in SHAPES {
            for &lanes in LANES {
                let mut rng =
                    SimRng::seed_from(seed ^ ((m as u64) << 8) ^ (n as u64 * lanes as u64));
                let mats: Vec<CMat> = (0..lanes).map(|_| random_cmat(&mut rng, m, n)).collect();
                let a = to_batch(&mats);
                svd_batch_into(&a, &mut scratch, &mut out);
                for (l, mat) in mats.iter().enumerate() {
                    copa_num::svd_into(mat, &mut sc_scratch, &mut sc_out);
                    assert_lane_eq(&out.u, l, &sc_out.u, "svd u");
                    assert_lane_eq(&out.v, l, &sc_out.v, "svd v");
                    assert_eq!(sc_out.s.len(), n, "scalar singular value count");
                    for (j, &s) in sc_out.s.iter().enumerate() {
                        assert_eq!(
                            out.s_at(j, l).to_bits(),
                            s.to_bits(),
                            "svd s: lane {l} value {j} ({m}x{n}, seed {seed:#x})"
                        );
                    }
                }
            }
        }
    }
}

//! Transmit beamforming via the singular value decomposition.
//!
//! "The leader AP calculates ... 'transmit beamforming' matrices that
//! maximize power at the intended receiver, and are calculated using the
//! Singular Value Decomposition of the appropriate channel" (section 3.3).

use crate::precoder::{LinkPrecoding, PrecodeScratch};
use copa_channel::FreqChannel;
use copa_num::batch::svd_batch_into;
use copa_num::svd::svd_into;

/// Builds the SVD beamforming precoder for `streams` spatial streams from
/// the (estimated) channel: on each subcarrier, the precoder columns are the
/// top right singular vectors and the nominal stream gains are the squared
/// singular values.
///
/// Allocating convenience wrapper around [`beamform_with`].
///
/// # Panics
/// Panics if `streams` exceeds `min(rx, tx)` antennas.
pub fn beamform(est: &FreqChannel, streams: usize) -> LinkPrecoding {
    let mut ws = PrecodeScratch::new();
    let mut out = LinkPrecoding::empty();
    beamform_with(est, streams, &mut ws, &mut out);
    out
}

// alloc-free: begin beamform_with (per-subcarrier kernel -- no Vec::new / vec!)
/// [`beamform`] writing into caller-owned buffers: after warm-up one scratch
/// and one output slot serve every subcarrier of every link with zero heap
/// allocation.
///
/// Batched implementation: all subcarriers are gathered into an SoA
/// [`copa_num::batch::CBatch`] and decomposed by one [`svd_batch_into`] call.
/// Each lane replays the scalar Jacobi kernel exactly, so the result is
/// bit-identical to the [`beamform_scalar_with`] reference (checked by the
/// tests here, by `crates/copa-num/tests/prop_batch.rs` and on engine
/// inputs by `tests/determinism.rs`).
pub fn beamform_with(
    est: &FreqChannel,
    streams: usize,
    ws: &mut PrecodeScratch,
    out: &mut LinkPrecoding,
) {
    assert!(streams >= 1, "need at least one stream");
    assert!(
        streams <= est.rx().min(est.tx()),
        "{} streams do not fit a {}x{} channel",
        streams,
        est.rx(),
        est.tx()
    );
    let n_sub = est.iter().count();
    out.reset_shape(n_sub, streams);
    ws.h_b.reset(est.rx(), est.tx(), n_sub);
    for (s, h) in est.iter().enumerate() {
        ws.h_b.load_lane(s, h);
    }
    svd_batch_into(&ws.h_b, &mut ws.svd_b, &mut ws.dec_b);
    let tx = est.tx();
    for s in 0..n_sub {
        let pre = &mut out.precoder[s];
        pre.reset(tx, streams);
        for i in 0..tx {
            for k in 0..streams {
                pre[(i, k)] = ws.dec_b.v.get(i, k, s);
            }
        }
        for (k, gains) in out.stream_gains.iter_mut().enumerate() {
            let sv = ws.dec_b.s_at(k, s);
            gains[s] = sv * sv;
        }
    }
}

/// The per-subcarrier scalar reference for [`beamform_with`]: same
/// semantics, same output bits. The engine never calls it; it stays public
/// so `tests/determinism.rs` can check the batched kernel against it.
pub fn beamform_scalar_with(
    est: &FreqChannel,
    streams: usize,
    ws: &mut PrecodeScratch,
    out: &mut LinkPrecoding,
) {
    assert!(streams >= 1, "need at least one stream");
    assert!(
        streams <= est.rx().min(est.tx()),
        "{} streams do not fit a {}x{} channel",
        streams,
        est.rx(),
        est.tx()
    );
    ws.cols.clear();
    ws.cols.extend(0..streams);
    out.reset_shape(est.iter().count(), streams);
    for (s, h) in est.iter().enumerate() {
        svd_into(h, &mut ws.svd, &mut ws.dec);
        ws.dec.v.select_columns_into(&ws.cols, &mut out.precoder[s]);
        for (k, gains) in out.stream_gains.iter_mut().enumerate() {
            gains[s] = ws.dec.s[k] * ws.dec.s[k];
        }
    }
}
// alloc-free: end beamform_with

#[cfg(test)]
mod tests {
    use super::*;
    use copa_channel::MultipathProfile;
    use copa_num::SimRng;
    use copa_phy::ofdm::DATA_SUBCARRIERS;

    fn ch(rng: &mut SimRng, rx: usize, tx: usize) -> FreqChannel {
        FreqChannel::random(rng, rx, tx, 1.0, &MultipathProfile::default())
    }

    #[test]
    fn precoder_shapes_and_norms() {
        let mut rng = SimRng::seed_from(50);
        let est = ch(&mut rng, 2, 4);
        let bf = beamform(&est, 2);
        assert_eq!(bf.streams(), 2);
        assert_eq!(bf.tx_antennas(), 4);
        assert_eq!(bf.precoder.len(), DATA_SUBCARRIERS);
        assert!(bf.columns_are_unit_norm(1e-9));
    }

    #[test]
    fn gains_match_realized_channel_power() {
        // |H w_k|^2 == sigma_k^2 when the precoder comes from H's own SVD.
        let mut rng = SimRng::seed_from(51);
        let est = ch(&mut rng, 2, 4);
        let bf = beamform(&est, 2);
        for s in 0..DATA_SUBCARRIERS {
            for k in 0..2 {
                let w = bf.precoder[s].column(k);
                let rx = est.at(s).matmul(&w);
                let realized = rx.frobenius_norm_sqr();
                assert!(
                    (realized - bf.stream_gains[k][s]).abs() < 1e-9 * realized.max(1e-12),
                    "s={s} k={k}"
                );
            }
        }
    }

    #[test]
    fn first_stream_dominates() {
        let mut rng = SimRng::seed_from(52);
        let est = ch(&mut rng, 2, 4);
        let bf = beamform(&est, 2);
        for s in 0..DATA_SUBCARRIERS {
            assert!(bf.stream_gains[0][s] >= bf.stream_gains[1][s]);
        }
    }

    #[test]
    fn beamforming_beats_single_antenna_gain() {
        // The top singular value squared is at least the best single
        // matrix entry's power (beamforming gain).
        let mut rng = SimRng::seed_from(53);
        let est = ch(&mut rng, 1, 4);
        let bf = beamform(&est, 1);
        for s in 0..DATA_SUBCARRIERS {
            let best_entry = (0..4)
                .map(|t| est.at(s)[(0, t)].norm_sqr())
                .fold(0.0, f64::max);
            assert!(bf.stream_gains[0][s] >= best_entry - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "streams do not fit")]
    fn too_many_streams_panics() {
        let mut rng = SimRng::seed_from(54);
        let est = ch(&mut rng, 2, 4);
        let _ = beamform(&est, 3);
    }

    #[test]
    fn batched_is_bit_identical_to_scalar() {
        for (seed, rx, tx, streams) in [
            (60u64, 2usize, 4usize, 2usize),
            (61, 2, 4, 1),
            (62, 4, 2, 2),
            (63, 1, 1, 1),
            (64, 3, 3, 3),
        ] {
            let mut rng = SimRng::seed_from(seed);
            let est = ch(&mut rng, rx, tx);
            let mut ws = PrecodeScratch::new();
            let mut batched = LinkPrecoding::empty();
            beamform_with(&est, streams, &mut ws, &mut batched);
            let mut scalar = LinkPrecoding::empty();
            beamform_scalar_with(&est, streams, &mut ws, &mut scalar);
            for s in 0..DATA_SUBCARRIERS {
                let (b, c) = (&batched.precoder[s], &scalar.precoder[s]);
                assert_eq!((b.rows(), b.cols()), (c.rows(), c.cols()));
                for i in 0..b.rows() {
                    for j in 0..b.cols() {
                        assert_eq!(
                            b[(i, j)].re.to_bits(),
                            c[(i, j)].re.to_bits(),
                            "seed={seed} s={s} ({i},{j}).re"
                        );
                        assert_eq!(b[(i, j)].im.to_bits(), c[(i, j)].im.to_bits());
                    }
                }
                for k in 0..streams {
                    assert_eq!(
                        batched.stream_gains[k][s].to_bits(),
                        scalar.stream_gains[k][s].to_bits(),
                        "seed={seed} gain k={k} s={s}"
                    );
                }
            }
        }
    }
}

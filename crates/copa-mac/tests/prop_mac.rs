//! Property-based tests for the MAC codecs and protocol machinery, on the
//! in-repo [`copa_num::prop`] harness.

use copa_channel::{FreqChannel, MultipathProfile};
use copa_mac::csi_codec::{compress_csi, decompress_csi, lzss_decode, lzss_encode, CsiCodecError};
use copa_mac::frames::{crc32, Addr, Decision, FrameError, ItsFrame};
use copa_num::prop::{check, Gen};
use copa_num::{prop_assert, prop_assert_eq, prop_assert_ne};

const CASES: usize = 64;

fn addr(g: &mut Gen) -> Addr {
    let mut a = [0u8; 6];
    for b in &mut a {
        *b = g.u8();
    }
    Addr(a)
}

fn decision(g: &mut Gen) -> Decision {
    if g.bool() {
        Decision::Sequential
    } else {
        Decision::Concurrent {
            precoder: g.vec_u8(0, 600),
            shut_down_antenna: g.option(|g| g.u8_in(0, 4)),
        }
    }
}

fn its_frame(g: &mut Gen) -> ItsFrame {
    match g.usize_in(0, 3) {
        0 => ItsFrame::Init {
            leader: addr(g),
            client: addr(g),
            airtime_us: g.u32(),
        },
        1 => ItsFrame::Req {
            leader: addr(g),
            follower: addr(g),
            client1: addr(g),
            client2: addr(g),
            csi_to_client1: g.vec_u8(0, 800),
            csi_to_client2: g.vec_u8(0, 800),
            airtime_us: g.u32(),
        },
        _ => ItsFrame::Ack {
            leader: addr(g),
            follower: addr(g),
            client1: addr(g),
            client2: addr(g),
            decision: decision(g),
            airtime_us: g.u32(),
        },
    }
}

#[test]
fn frames_round_trip() {
    check("frames_round_trip", CASES, |g| {
        let frame = its_frame(g);
        let wire = frame.encode();
        let back = ItsFrame::decode(&wire).expect("decode own encoding");
        prop_assert_eq!(back, frame);
        Ok(())
    });
}

#[test]
fn any_single_bit_flip_is_detected() {
    check("any_single_bit_flip_is_detected", CASES, |g| {
        let frame = its_frame(g);
        let byte_sel = g.u16();
        let bit = g.u8_in(0, 8);
        let mut wire = frame.encode().to_vec();
        let idx = byte_sel as usize % wire.len();
        wire[idx] ^= 1 << bit;
        // CRC-32 detects all single-bit errors; decode must not silently
        // return a (possibly different) frame.
        match ItsFrame::decode(&wire) {
            Err(_) => {}
            Ok(decoded) => prop_assert_eq!(decoded, frame, "undetected corruption"),
        }
        // Specifically: flipping a payload bit must flip the CRC check.
        if idx < wire.len() - 4 {
            prop_assert!(matches!(
                ItsFrame::decode(&wire),
                Err(FrameError::BadCrc)
                    | Err(FrameError::Truncated)
                    | Err(FrameError::UnknownTag(_))
            ));
        }
        Ok(())
    });
}

#[test]
fn truncation_never_panics() {
    check("truncation_never_panics", CASES, |g| {
        let frame = its_frame(g);
        let cut_sel = g.u16();
        let wire = frame.encode();
        let cut = cut_sel as usize % (wire.len() + 1);
        let _ = ItsFrame::decode(&wire[..cut]); // must not panic
        Ok(())
    });
}

#[test]
fn lzss_round_trips() {
    check("lzss_round_trips", CASES, |g| {
        let data = g.vec_u8(0, 2000);
        prop_assert_eq!(lzss_decode(&lzss_encode(&data)), Ok(data));
        Ok(())
    });
}

#[test]
fn lzss_handles_structured_data() {
    check("lzss_handles_structured_data", CASES, |g| {
        let pattern = g.vec_u8(1, 16);
        let reps = g.usize_in(1, 100);
        let data: Vec<u8> = pattern
            .iter()
            .cycle()
            .take(pattern.len() * reps)
            .cloned()
            .collect();
        let enc = lzss_encode(&data);
        prop_assert_eq!(lzss_decode(&enc), Ok(data.clone()));
        if reps > 20 {
            prop_assert!(enc.len() < data.len(), "repetition should compress");
        }
        Ok(())
    });
}

#[test]
fn crc_detects_difference() {
    check("crc_detects_difference", CASES, |g| {
        let a = g.vec_u8(1, 100);
        let flip = g.u16();
        let bit = g.u8_in(0, 8);
        let mut b = a.clone();
        let idx = flip as usize % b.len();
        b[idx] ^= 1 << bit;
        prop_assert_ne!(crc32(&a), crc32(&b), "single-bit flip must change CRC-32");
        Ok(())
    });
}

#[test]
fn certain_fault_probabilities_terminate_and_classify() {
    // Regression guard for the p = 1.0 edge: `FaultPlan::draw` must
    // short-circuit certain faults without consuming RNG state or spinning,
    // for every fault mode and for degenerate wires (empty payloads).
    use copa_channel::faults::{Delivery, FaultPlan};
    check("certain_fault_probabilities_terminate", CASES, |g| {
        let seed = g.u64();
        let wire = g.vec_u8(0, 64);
        let lossy = FaultPlan {
            frame_loss: 1.0,
            ..FaultPlan::none(seed)
        };
        let mut rng = lossy.rng_for(0);
        let fresh = lossy.rng_for(0).next_u64();
        for _ in 0..4 {
            prop_assert_eq!(lossy.deliver(&mut rng, &wire), Delivery::Lost);
        }
        // Certain loss is decided without a Bernoulli draw.
        prop_assert_eq!(rng.next_u64(), fresh);

        let corrupting = FaultPlan {
            corruption: 1.0,
            ..FaultPlan::none(seed)
        };
        let mut rng = corrupting.rng_for(1);
        match corrupting.deliver(&mut rng, &wire) {
            Delivery::Corrupted(bytes) => {
                prop_assert_eq!(bytes.len(), wire.len());
                if !wire.is_empty() {
                    prop_assert_ne!(bytes, wire.clone());
                }
            }
            other => return Err(format!("expected corruption, got {other:?}")),
        }

        let truncating = FaultPlan {
            truncation: 1.0,
            ..FaultPlan::none(seed)
        };
        let mut rng = truncating.rng_for(2);
        match truncating.deliver(&mut rng, &wire) {
            // An empty wire truncates to itself; that must not panic.
            Delivery::Truncated(bytes) => {
                prop_assert!(bytes.len() < wire.len().max(1));
                prop_assert_eq!(&wire[..bytes.len()], &bytes[..]);
            }
            other => return Err(format!("expected truncation, got {other:?}")),
        }

        // Certain staleness is likewise decided without entropy.
        let stale = FaultPlan {
            stale_csi: 1.0,
            ..FaultPlan::none(seed)
        };
        let mut rng = stale.rng_for(3);
        let fresh = stale.rng_for(3).next_u64();
        prop_assert!(stale.csi_is_stale(&mut rng));
        prop_assert_eq!(rng.next_u64(), fresh);
        Ok(())
    });
}

#[test]
fn out_of_range_probabilities_never_panic() {
    // Probabilities outside [0, 1] (and NaN) must clamp to a defined
    // outcome rather than loop or panic: <= 0 never fires, >= 1 always
    // fires, NaN compares false on both guards and so never fires.
    use copa_channel::faults::{Delivery, FaultPlan};
    check("out_of_range_probabilities_never_panic", CASES, |g| {
        let p = *g.pick(&[-1.0, -0.0, 2.0, 1e300, f64::NAN]);
        let plan = FaultPlan {
            frame_loss: p,
            ..FaultPlan::none(g.u64())
        };
        let wire = g.vec_u8(1, 32);
        let mut rng = plan.rng_for(0);
        let got = plan.deliver(&mut rng, &wire);
        if p >= 1.0 {
            prop_assert_eq!(got, Delivery::Lost);
        } else {
            prop_assert_eq!(got, Delivery::Intact(wire));
        }
        Ok(())
    });
}

/// A random but physically plausible channel for codec fuzzing.
fn channel(g: &mut Gen) -> FreqChannel {
    let rx = g.usize_in(1, 2);
    let tx = g.usize_in(rx, 4);
    FreqChannel::random(
        &mut copa_num::SimRng::seed_from(g.u64()),
        rx,
        tx,
        1e-6,
        &MultipathProfile::default(),
    )
}

#[test]
fn corrupted_csi_decodes_fail_as_typed_errors_never_panics() {
    // The fault-injection wire layer hands arbitrary garbled payloads to
    // `decompress_csi`; every failure must surface as a `CsiCodecError`
    // (which the coordinator wraps into `CopaError::CodecError`), and a
    // decode that happens to succeed must produce a sane channel. Nothing
    // on this path is allowed to panic.
    check("corrupted_csi_typed_errors", CASES, |g| {
        let wire = compress_csi(&channel(g));
        let mut bad = wire.clone();
        match g.usize_in(0, 2) {
            // Burst of bit flips anywhere in the payload.
            0 => {
                for _ in 0..g.usize_in(1, 8) {
                    let pos = g.usize_in(0, bad.len() - 1);
                    bad[pos] ^= g.u8() | 1;
                }
            }
            // Truncation at an arbitrary point (lost tail on the wire).
            1 => bad.truncate(g.usize_in(0, bad.len() - 1)),
            // Pure noise of the same length.
            _ => bad = g.bytes(wire.len()),
        }
        match decompress_csi(&bad) {
            Ok(ch) => {
                prop_assert!(ch.rx() >= 1 && ch.tx() >= 1, "decoded channel has antennas");
            }
            Err(
                CsiCodecError::Truncated { .. }
                | CsiCodecError::BadDimensions { .. }
                | CsiCodecError::BadBackref { .. }
                | CsiCodecError::CorruptField { .. },
            ) => {}
        }
        Ok(())
    });
}

#[test]
fn intact_csi_always_round_trips() {
    check("intact_csi_round_trips", CASES, |g| {
        let ch = channel(g);
        let back = decompress_csi(&compress_csi(&ch));
        match back {
            Ok(b) => {
                prop_assert_eq!(b.rx(), ch.rx());
                prop_assert_eq!(b.tx(), ch.tx());
            }
            Err(e) => return Err(format!("own encoding failed to decode: {e}")),
        }
        Ok(())
    });
}

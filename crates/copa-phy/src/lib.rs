//! # copa-phy
//!
//! 802.11n OFDM physical-layer model for the COPA reproduction:
//!
//! * [`ofdm`] -- 20 MHz channelization constants (52 data subcarriers, 4 us
//!   symbols, coherence-time helpers).
//! * [`modulation`] -- BPSK/QPSK/16-QAM/64-QAM constellations and uncoded
//!   AWGN BER.
//! * [`coding`] -- the K=7 (133,171) convolutional code: encoder, punctured
//!   rates 1/2..5/6, one Viterbi trellis over hard or soft LLRs, and the
//!   union-bound coded-BER model the throughput predictor uses.
//! * [`mcs`] -- the 8 single-stream MCSes (6.5..65 Mbps).
//! * [`link`] -- SINR -> BER -> FER -> goodput prediction, exactly the
//!   paper's section 4.1 methodology, plus the section 4.6 multi-decoder
//!   extension.
//! * [`mmse_curves`] -- constellation MMSE curves for mercury/waterfilling.
//! * [`scrambler`] / [`interleaver`] / [`mapper`] / [`baseband`] -- the
//!   bit-true 802.11n pipeline for 1 to 4 spatial streams (scramble,
//!   encode, stream-parse and interleave, Gray-map; hard or max-log soft
//!   demapping; zero-forcing stream separation), used to validate the
//!   analytic models by Monte-Carlo.
//! * [`papr`] -- peak-to-average power ratio measurements (section 4.1).
//! * [`waveform`] -- the time-domain sample stream: IFFT/CP framing,
//!   preamble sync, CFO/SFO impairments; validates what the analytic chain
//!   assumes away.

#![warn(missing_docs)]

pub mod baseband;
pub mod coding;
pub mod interleaver;
pub mod link;
pub mod mapper;
pub mod mcs;
pub mod mmse_curves;
pub mod modulation;
pub mod ofdm;
pub mod papr;
pub mod scrambler;
pub mod waveform;

pub use coding::CodeRate;
pub use link::{RateChoice, ThroughputModel};
pub use mcs::Mcs;
pub use modulation::Modulation;

//! # copa-precoding
//!
//! MIMO precoding and receive processing for the COPA reproduction:
//!
//! * [`precoder`] -- the `LinkPrecoding` / `TxPowers` data model: fixed
//!   `[f64; DATA_SUBCARRIERS]` rows per stream, reshaped by
//!   [`reshape_rows`], and the cross-gain kernel [`cross_gains_into`].
//! * [`beamforming`] -- SVD transmit beamforming (section 3.3).
//! * [`nulling`] -- nullspace-projection interference nulling, including
//!   degrees-of-freedom accounting for overconstrained cases.
//! * [`sinr`] -- post-MMSE per-stream per-subcarrier SINR at a client, with
//!   transmit-EVM noise and dropped-subcarrier leakage.
//! * [`sda`] -- the shut-down-antenna maneuver for overconstrained nulling
//!   (section 3.4).

#![warn(missing_docs)]

pub mod beamforming;
pub mod nulling;
pub mod precoder;
pub mod sda;
pub mod sinr;

pub use beamforming::{beamform, beamform_with};
pub use nulling::{null_toward, null_toward_with, nulling_dof};
pub use precoder::{cross_gains_into, reshape_rows, LinkPrecoding, PrecodeScratch, TxPowers};
pub use sinr::{
    active_cells, active_cells_into, mmse_sinr_grid, mmse_sinr_grid_into, mmse_sinr_grid_reference,
    received_power_per_subcarrier, TxSide, SINR_MAX_DIM,
};

//! Event-driven medium simulation.
//!
//! Table 1's overhead percentages come from an analytic airtime model; this
//! module validates them by actually simulating the medium microsecond by
//! microsecond: contention with freezing backoff, the ITS exchange (with
//! CSI refresh driven by a real coherence-time clock), concurrent or
//! sequential TXOPs, CTS-to-self / RTS-CTS for legacy stations, and
//! collisions with exponential backoff.

use crate::overhead::OverheadConfig;
use crate::timing::{
    control_frame_us, cts_us, rts_us, CW_MAX, CW_MIN, DIFS_US, SIFS_US, SLOT_US, TXOP_US,
};
use copa_num::rng::SimRng;

/// What protocol a station runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StationKind {
    /// Legacy 802.11 with CTS-to-self.
    LegacyCts,
    /// Legacy 802.11 with RTS/CTS.
    LegacyRtsCts,
    /// Member of the COPA pair (stations 0 and 1 must both be this kind).
    CopaPair,
}

/// Configuration of a medium simulation.
#[derive(Clone, Debug)]
pub struct MediumConfig {
    /// Station kinds; a COPA pair must occupy indices 0 and 1.
    pub stations: Vec<StationKind>,
    /// Whether the COPA pair transmits concurrently (one shared TXOP) or
    /// sequentially (two back-to-back TXOPs per exchange).
    pub copa_concurrent: bool,
    /// Channel coherence time in microseconds (CSI refresh clock).
    pub coherence_us: f64,
    /// Antenna geometry for CSI payload sizing.
    pub overhead_config: OverheadConfig,
    /// Simulated duration in microseconds.
    pub duration_us: f64,
}

/// Aggregate outcome of a medium simulation.
#[derive(Clone, Debug)]
pub struct MediumOutcome {
    /// Data airtime per station, us (a concurrent COPA TXOP credits both).
    pub data_us: Vec<f64>,
    /// Control airtime attributable to each station's transmissions, us.
    pub control_us: Vec<f64>,
    /// Idle (backoff/DIFS) time, us.
    pub idle_us: f64,
    /// Wall-clock medium time the COPA pair's data occupied, us (a
    /// concurrent TXOP counts once even though it carries both flows).
    pub copa_wall_data_us: f64,
    /// Collision events.
    pub collisions: u64,
    /// Number of CSI refreshes the COPA pair performed.
    pub csi_refreshes: u64,
    /// Wall-clock simulated, us.
    pub elapsed_us: f64,
}

impl MediumOutcome {
    /// Realized overhead fraction of the COPA pair in *medium time*:
    /// `control / (control + wall-clock data)`, matching Table 1's
    /// accounting (a concurrent TXOP occupies the medium once even though
    /// it carries both flows).
    pub fn copa_overhead_fraction(&self) -> f64 {
        let c = self.control_us[0] + self.control_us[1];
        c / (c + self.copa_wall_data_us)
    }
}

/// Runs the event-driven simulation.
pub fn simulate_medium(cfg: &MediumConfig, seed: u64) -> MediumOutcome {
    let n = cfg.stations.len();
    assert!(n >= 1);
    if cfg.stations.iter().any(|&k| k == StationKind::CopaPair) {
        assert!(
            n >= 2
                && cfg.stations[0] == StationKind::CopaPair
                && cfg.stations[1] == StationKind::CopaPair,
            "COPA pair must be stations 0 and 1"
        );
    }
    let mut rng = SimRng::seed_from(seed);
    let mut now = 0.0f64;
    let mut cw = vec![CW_MIN; n];
    let mut backoff: Vec<u32> = (0..n)
        .map(|i| rng.below((cw[i] + 1) as u64) as u32)
        .collect();
    let mut out = MediumOutcome {
        data_us: vec![0.0; n],
        control_us: vec![0.0; n],
        idle_us: 0.0,
        copa_wall_data_us: 0.0,
        collisions: 0,
        csi_refreshes: 0,
        elapsed_us: 0.0,
    };
    // CSI last refreshed at this time (-inf forces an initial refresh).
    let mut csi_time = f64::NEG_INFINITY;

    let its_base = |csi: bool, precoder: bool, ocfg: &OverheadConfig| -> f64 {
        let init = control_frame_us(21);
        let req = control_frame_us(37) + if csi { ocfg.csi_refresh_us() } else { 0.0 };
        let ack = control_frame_us(34)
            + if precoder {
                ocfg.precoder_payload_us()
            } else {
                0.0
            };
        init + SIFS_US + req + SIFS_US + ack + SIFS_US
    };

    while now < cfg.duration_us {
        // DIFS then count down backoffs with freezing semantics: advance
        // time by the minimum backoff; stations at zero transmit.
        now += DIFS_US;
        out.idle_us += DIFS_US;
        // invariant: `backoff` has one entry per station and n > 0.
        let min = *backoff.iter().min().expect("stations is non-empty");
        now += min as f64 * SLOT_US;
        out.idle_us += min as f64 * SLOT_US;
        for b in backoff.iter_mut() {
            *b -= min;
        }
        let winners: Vec<usize> = (0..n).filter(|&i| backoff[i] == 0).collect();

        if winners.len() > 1 {
            // Collision: the colliding control frames occupy the medium.
            out.collisions += 1;
            let wasted = rts_us(); // first control frame of any scheme
            now += wasted;
            for &i in &winners {
                cw[i] = (cw[i] * 2 + 1).min(CW_MAX);
                backoff[i] = rng.below((cw[i] + 1) as u64) as u32;
            }
            continue;
        }

        let w = winners[0];
        cw[w] = CW_MIN;
        backoff[w] = rng.below((cw[w] + 1) as u64) as u32;

        match cfg.stations[w] {
            StationKind::LegacyCts => {
                let control = cts_us() + SIFS_US;
                now += control + TXOP_US;
                out.control_us[w] += control;
                out.data_us[w] += TXOP_US;
            }
            StationKind::LegacyRtsCts => {
                let control = rts_us() + SIFS_US + cts_us() + SIFS_US;
                now += control + TXOP_US;
                out.control_us[w] += control;
                out.data_us[w] += TXOP_US;
            }
            StationKind::CopaPair => {
                // CSI refresh needed once per coherence time.
                let refresh = now - csi_time > cfg.coherence_us;
                if refresh {
                    csi_time = now;
                    out.csi_refreshes += 1;
                }
                let leader = w;
                let follower = if w == 0 { 1 } else { 0 };
                if cfg.copa_concurrent {
                    let control = its_base(refresh, refresh, &cfg.overhead_config);
                    now += control + TXOP_US;
                    // The pair shares the control cost; both move data.
                    out.control_us[leader] += control / 2.0;
                    out.control_us[follower] += control / 2.0;
                    out.data_us[leader] += TXOP_US;
                    out.data_us[follower] += TXOP_US;
                    out.copa_wall_data_us += TXOP_US;
                } else {
                    // Sequential: CSI both ways, no precoder, two TXOPs.
                    let mut control = its_base(refresh, false, &cfg.overhead_config);
                    if refresh {
                        // Reverse-direction CSI: both APs allocate their own
                        // sequential TXOPs, so CSI flows both ways.
                        control += cfg.overhead_config.csi_refresh_us();
                    }
                    control += SIFS_US; // gap between the two TXOPs
                    now += control + 2.0 * TXOP_US;
                    out.control_us[leader] += control / 2.0;
                    out.control_us[follower] += control / 2.0;
                    out.data_us[leader] += TXOP_US;
                    out.data_us[follower] += TXOP_US;
                    out.copa_wall_data_us += 2.0 * TXOP_US;
                }
            }
        }
    }
    out.elapsed_us = now;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overhead::{overhead_fraction, Scheme};

    #[test]
    fn legacy_only_matches_analytic_cts_overhead() {
        let cfg = MediumConfig {
            stations: vec![StationKind::LegacyCts],
            copa_concurrent: false,
            coherence_us: 30_000.0,
            overhead_config: OverheadConfig::default(),
            duration_us: 2_000_000.0,
        };
        let out = simulate_medium(&cfg, 1);
        // The analytic model counts mean backoff as overhead; the simulator
        // counts it as idle. Compare control-vs-data plus idle share.
        let sim_pct = 100.0 * (out.control_us[0] + out.idle_us)
            / (out.control_us[0] + out.idle_us + out.data_us[0]);
        // Analytic includes backoff but not DIFS: allow a band.
        let analytic =
            100.0 * overhead_fraction(Scheme::CsmaCtsSelf, &OverheadConfig::default(), 30_000.0);
        assert!(
            (sim_pct - analytic).abs() < 2.0,
            "sim {sim_pct:.2}% vs analytic {analytic:.2}%"
        );
    }

    #[test]
    fn copa_concurrent_overhead_tracks_table1() {
        // Only the pair contends, as in Table 1's setting.
        for (coh_ms, expect) in [(4.0, 9.3), (30.0, 5.7), (1000.0, 5.1)] {
            let cfg = MediumConfig {
                stations: vec![StationKind::CopaPair, StationKind::CopaPair],
                copa_concurrent: true,
                coherence_us: coh_ms * 1000.0,
                overhead_config: OverheadConfig::default(),
                duration_us: 5_000_000.0,
            };
            let pct = 100.0 * simulate_medium(&cfg, 7).copa_overhead_fraction();
            // The simulator excludes backoff from control (it is idle), so
            // it should land at or below the analytic number; within ~2.5pp.
            assert!(
                (pct - expect).abs() < 2.5,
                "{coh_ms} ms: simulated {pct:.1}% vs analytic {expect}%"
            );
        }
    }

    #[test]
    fn sequential_buys_two_txops() {
        let cfg = MediumConfig {
            stations: vec![StationKind::CopaPair, StationKind::CopaPair],
            copa_concurrent: false,
            coherence_us: 1_000_000.0,
            overhead_config: OverheadConfig::default(),
            duration_us: 1_000_000.0,
        };
        let out = simulate_medium(&cfg, 2);
        // Both pair members accrue equal data time.
        assert!((out.data_us[0] - out.data_us[1]).abs() < 1e-6);
        assert!(out.copa_overhead_fraction() < 0.05);
    }

    #[test]
    fn csi_refresh_rate_matches_coherence_clock() {
        let coherence = 30_000.0;
        let duration = 3_000_000.0;
        let cfg = MediumConfig {
            stations: vec![StationKind::CopaPair, StationKind::CopaPair],
            copa_concurrent: true,
            coherence_us: coherence,
            overhead_config: OverheadConfig::default(),
            duration_us: duration,
        };
        let out = simulate_medium(&cfg, 3);
        let expected = duration / coherence;
        assert!(
            (out.csi_refreshes as f64 - expected).abs() <= expected * 0.2 + 2.0,
            "refreshes {} vs expected ~{expected:.0}",
            out.csi_refreshes
        );
    }

    #[test]
    fn mixed_cell_with_legacy_neighbors() {
        let cfg = MediumConfig {
            stations: vec![
                StationKind::CopaPair,
                StationKind::CopaPair,
                StationKind::LegacyCts,
                StationKind::LegacyRtsCts,
            ],
            copa_concurrent: true,
            coherence_us: 30_000.0,
            overhead_config: OverheadConfig::default(),
            duration_us: 4_000_000.0,
        };
        let out = simulate_medium(&cfg, 4);
        // Everyone gets airtime; the pair gets the most (concurrency bonus).
        for i in 0..4 {
            assert!(out.data_us[i] > 0.0, "station {i} starved");
        }
        let pair = out.data_us[0] + out.data_us[1];
        assert!(pair > out.data_us[2] && pair > out.data_us[3]);
        assert!(out.collisions > 0, "4 contenders should collide sometimes");
    }

    #[test]
    fn deterministic() {
        let cfg = MediumConfig {
            stations: vec![
                StationKind::CopaPair,
                StationKind::CopaPair,
                StationKind::LegacyCts,
            ],
            copa_concurrent: true,
            coherence_us: 30_000.0,
            overhead_config: OverheadConfig::default(),
            duration_us: 500_000.0,
        };
        let a = simulate_medium(&cfg, 9);
        let b = simulate_medium(&cfg, 9);
        assert_eq!(a.collisions, b.collisions);
        assert_eq!(a.data_us, b.data_us);
    }
}

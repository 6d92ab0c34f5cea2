//! §3.1 — the fading channel: "The signal is transmitted over a channel
//! model that can realize an additive white gaussian noise (AWGN) or a
//! fading channel."
//!
//! BER versus RMS delay spread over Rayleigh multipath: OFDM shrugs off
//! dispersion while the (5·τ_rms) excess delay stays inside the 800 ns
//! guard interval, then collapses from inter-symbol interference.

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{FrontEnd, LinkConfig};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadingPoint {
    /// RMS delay spread in seconds.
    pub trms_s: f64,
    /// Measured BER.
    pub ber: f64,
    /// Packet error rate (fading causes whole-packet losses).
    pub per: f64,
    /// Bits counted.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct FadingResult {
    /// Rate used.
    pub rate: Rate,
    /// SNR used (dB).
    pub snr_db: f64,
    /// Points in ascending delay spread.
    pub points: Vec<FadingPoint>,
}

impl FadingResult {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("n_points".to_string(), self.points.len() as f64),
            ("rate_mbps".to_string(), self.rate.mbps() as f64),
            ("snr_db".to_string(), self.snr_db),
        ];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].trms_ns"), p.trms_s * 1e9));
            out.push((format!("points[{i:02}].ber"), p.ber));
            out.push((format!("points[{i:02}].per"), p.per));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders the sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "BER vs RMS delay spread ({}, {} dB SNR, guard 800 ns)",
                self.rate, self.snr_db
            ),
            &["trms [ns]", "BER", "PER", "plot"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0}", p.trms_s * 1e9),
                format_ber(p.ber, p.bits),
                format!("{:.2}", p.per),
                bar(p.ber, 0.5, 40),
            ]);
        }
        t
    }
}

/// Registry entry: the §3.1 Rayleigh-fading delay-spread sweep.
#[derive(Debug, Clone, Copy)]
pub struct FadingSweep {
    /// Data rate.
    pub rate: Rate,
    /// SNR.
    pub snr_db: wlan_units::Db,
    /// RMS delay spreads to sweep (seconds).
    pub trms_list: &'static [f64],
}

impl FadingSweep {
    /// The default sweep: 12 Mbit/s at 30 dB over 25 ns … 1 µs.
    pub const DEFAULT: FadingSweep = FadingSweep {
        rate: Rate::R12,
        snr_db: wlan_units::Db(30.0),
        trms_list: &[25e-9, 50e-9, 100e-9, 150e-9, 250e-9, 400e-9, 600e-9, 1e-6],
    };
}

impl Default for FadingSweep {
    fn default() -> Self {
        FadingSweep::DEFAULT
    }
}

impl Experiment for FadingSweep {
    fn name(&self) -> &'static str {
        "fading"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.1"
    }

    fn describe(&self) -> &'static str {
        "BER vs RMS delay spread over the Rayleigh fading channel"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            ctx.effort,
            self.rate,
            self.snr_db.0,
            self.trms_list,
            ctx.seed,
            &ctx.engine,
        );
        RunOutput {
            tables: vec![r.table()],
            snapshot: r.snapshot(),
            points: r
                .points
                .iter()
                .map(|p| PointStat {
                    label: format!("{:.0}ns", p.trms_s * 1e9),
                    elapsed: None,
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        }
        .with_note("the 800 ns guard interval tolerates roughly 5*trms <= 800 ns")
    }
}

fn point_config(effort: Effort, rate: Rate, snr_db: f64, trms: f64, seed: u64) -> LinkConfig {
    LinkConfig {
        rate,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        snr_db: Some(snr_db),
        multipath_trms_s: Some(trms),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    }
}

/// Runs the sweep across delay spreads (seconds). The points fan out
/// across the engine's pool, each measured with the engine's
/// estimator; bit-identical for any thread count.
pub fn run(
    effort: Effort,
    rate: Rate,
    snr_db: f64,
    trms_list: &[f64],
    seed: u64,
    engine: &Engine,
) -> FadingResult {
    let sweep = Sweep::over(trms_list.to_vec());
    let rows = sweep.run_parallel_indexed(&engine.pool, |i, &trms| {
        let report = engine.measure(point_config(effort, rate, snr_db, trms, seed), i);
        (report.ber(), report.per(), report.meter.bits())
    });
    collect(rate, snr_db, rows)
}

fn collect(
    rate: Rate,
    snr_db: f64,
    rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, f64, u64)>>,
) -> FadingResult {
    FadingResult {
        rate,
        snr_db,
        points: rows
            .into_iter()
            .map(|p| FadingPoint {
                trms_s: p.param,
                ber: p.result.0,
                per: p.result.1,
                bits: p.result.2,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_interval_limit() {
        // 50 ns: excess delay 250 ns ≪ 800 ns guard → fine (up to the
        // occasional deep fade). 1 µs: excess 5 µs ≫ guard → ISI
        // collapse.
        let effort = Effort {
            packets: 8,
            psdu_len: 60,
        };
        let r = run(
            effort,
            Rate::R12,
            30.0,
            &[50e-9, 1e-6],
            11,
            &Engine::reference(),
        );
        let short = r.points[0].ber;
        let long = r.points[1].ber;
        assert!(long > short + 0.02, "no ISI collapse: {short} vs {long}");
        assert!(short < 0.05, "short delay spread already broken: {short}");
    }

    #[test]
    fn table_renders() {
        let r = run(
            Effort::quick(),
            Rate::R6,
            25.0,
            &[100e-9],
            12,
            &Engine::reference(),
        );
        assert!(r.table().render().contains("delay spread"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let effort = Effort {
            packets: 4,
            psdu_len: 60,
        };
        let trms = &[50e-9, 400e-9];
        let serial = run(effort, Rate::R12, 30.0, trms, 13, &Engine::with_threads(1));
        for threads in [2, 4] {
            let par = run(
                effort,
                Rate::R12,
                30.0,
                trms,
                13,
                &Engine::with_threads(threads),
            );
            assert_eq!(serial.points, par.points, "{threads} threads");
        }
    }
}

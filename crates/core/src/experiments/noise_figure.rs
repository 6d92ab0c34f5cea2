//! §5.1 — the noise-figure experiment and the co-simulation noise gap.
//!
//! The paper: "During a co-simulation it was not possible to examine the
//! influence of the noise figure, because the AMS Designer does not
//! support the Verilog-AMS noise functions. This causes, that the
//! measured BER values were better than the results from the
//! corresponding SPW only simulation."
//!
//! We sweep the LNA noise figure near sensitivity in the baseband
//! (SPW-style) simulation, and run the same configuration through the
//! noiseless co-simulation to reproduce the optimistic-BER artifact.

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{FrontEnd, LinkConfig};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NfPoint {
    /// LNA noise figure (dB).
    pub nf_db: f64,
    /// BER in the baseband (noisy) simulation.
    pub ber_baseband: f64,
    /// BER in the noiseless co-simulation at the same setting.
    pub ber_cosim: f64,
    /// Bits per series.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct NfResult {
    /// Points in ascending noise figure.
    pub points: Vec<NfPoint>,
    /// Receive level used (dBm).
    pub rx_level_dbm: f64,
    /// Per-point wall-clock, parallel to `points`.
    pub point_elapsed: Vec<std::time::Duration>,
}

impl NfResult {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("n_points".to_string(), self.points.len() as f64),
            ("rx_level_dbm".to_string(), self.rx_level_dbm),
        ];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].nf_db"), p.nf_db));
            out.push((format!("points[{i:02}].ber_baseband"), p.ber_baseband));
            out.push((format!("points[{i:02}].ber_cosim"), p.ber_cosim));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders both series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "BER vs LNA noise figure at {} dBm (baseband vs noiseless co-sim)",
                self.rx_level_dbm
            ),
            &["NF [dB]", "BER baseband", "BER co-sim", "baseband"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0}", p.nf_db),
                format_ber(p.ber_baseband, p.bits),
                format_ber(p.ber_cosim, p.bits),
                bar(p.ber_baseband, 0.5, 30),
            ]);
        }
        t
    }
}

/// Registry entry: the §5.1 noise-figure sweep with the co-sim gap.
#[derive(Debug, Clone, Copy)]
pub struct NfSweep {
    /// Receive level, near sensitivity.
    pub rx_level_dbm: wlan_units::Dbm,
    /// Point count.
    pub points: usize,
}

impl NfSweep {
    /// The default sweep: −82 dBm, 7 NF points.
    pub const DEFAULT: NfSweep = NfSweep {
        rx_level_dbm: wlan_units::Dbm(-82.0),
        points: 7,
    };
}

impl Default for NfSweep {
    fn default() -> Self {
        NfSweep::DEFAULT
    }
}

impl Experiment for NfSweep {
    fn name(&self) -> &'static str {
        "noise_figure"
    }

    fn paper_ref(&self) -> &'static str {
        "§5.1"
    }

    fn describe(&self) -> &'static str {
        "BER vs LNA noise figure and the co-sim noise gap"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            ctx.effort,
            self.rx_level_dbm.0,
            self.points,
            ctx.seed,
            &ctx.engine,
        );
        RunOutput {
            tables: vec![r.table()],
            snapshot: r.snapshot(),
            points: r
                .points
                .iter()
                .zip(&r.point_elapsed)
                .map(|(p, e)| PointStat {
                    label: format!("{:.0}", p.nf_db),
                    elapsed: Some(*e),
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        }
        .with_note("the co-sim column stays optimistic: no noise functions (paper §5.1)")
    }
}

fn baseband_config(effort: Effort, nf: f64, rx_level_dbm: f64, seed: u64) -> LinkConfig {
    let rf = RfConfig {
        lna_nf_db: wlan_units::Db(nf),
        ..RfConfig::default()
    };
    LinkConfig {
        rate: Rate::R12,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm,
        front_end: FrontEnd::RfBaseband(rf),
        ..LinkConfig::default()
    }
}

fn cosim_config(effort: Effort, rx_level_dbm: f64, seed: u64) -> LinkConfig {
    LinkConfig {
        rate: Rate::R12,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm,
        front_end: FrontEnd::RfCosim {
            filter_edge_hz: 10e6,
            analog_osr: 4,
            noise_workaround: false,
        },
        ..LinkConfig::default()
    }
}

fn collect(
    rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, f64, u64)>>,
    rx_level_dbm: f64,
) -> NfResult {
    NfResult {
        point_elapsed: rows.iter().map(|p| p.elapsed).collect(),
        points: rows
            .into_iter()
            .map(|p| NfPoint {
                nf_db: p.param,
                ber_baseband: p.result.0,
                ber_cosim: p.result.1,
                bits: p.result.2,
            })
            .collect(),
        rx_level_dbm,
    }
}

/// Runs the sweep near sensitivity. Each NF point (both the baseband
/// and the co-simulation series) runs as one task on the engine's pool.
pub fn run(
    effort: Effort,
    rx_level_dbm: f64,
    points: usize,
    seed: u64,
    engine: &Engine,
) -> NfResult {
    let sweep = Sweep::linspace(3.0, 27.0, points.max(2));
    let rows = sweep.run_parallel_indexed(&engine.pool, |i, &nf| {
        let base = engine.measure(baseband_config(effort, nf, rx_level_dbm, seed), i);
        // The co-simulation cannot model the noise figure at all — every
        // NF setting produces the same (noiseless) behavior.
        let cosim = engine.measure(cosim_config(effort, rx_level_dbm, seed), i);
        (base.ber(), cosim.ber(), base.meter.bits())
    });
    collect(rows, rx_level_dbm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosim_is_optimistic_at_high_nf() {
        // At −82 dBm a 27 dB front-end NF kills the baseband link while
        // the noiseless co-sim stays clean — the paper's observed gap.
        let r = run(Effort::quick(), -82.0, 3, 9, &Engine::reference());
        let worst = r.points.last().unwrap();
        assert!(worst.nf_db > 20.0);
        assert!(
            worst.ber_baseband > 0.02,
            "baseband should degrade: {}",
            worst.ber_baseband
        );
        assert!(
            worst.ber_cosim < worst.ber_baseband,
            "co-sim must be optimistic: {} vs {}",
            worst.ber_cosim,
            worst.ber_baseband
        );
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let serial = run(Effort::quick(), -80.0, 2, 10, &Engine::with_threads(1));
        let par = run(Effort::quick(), -80.0, 2, 10, &Engine::with_threads(2));
        for (a, b) in serial.points.iter().zip(par.points.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn low_nf_link_works() {
        let r = run(Effort::quick(), -80.0, 2, 10, &Engine::reference());
        let best = r.points.first().unwrap();
        assert!(best.ber_baseband < 0.02, "{}", best.ber_baseband);
        assert!(r.table().render().contains("noise figure"));
    }
}

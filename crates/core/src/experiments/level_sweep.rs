//! §5.1 — the "input and output scale" parameter: BER across the
//! receiver's specified input range (−88 … −23 dBm, §2.2), verifying
//! sensitivity at the bottom and overload behavior at the top.

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{FrontEnd, LinkConfig};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelPoint {
    /// Input level (dBm).
    pub rx_level_dbm: f64,
    /// Measured BER.
    pub ber: f64,
    /// Bits counted.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct LevelSweepResult {
    /// Rate used.
    pub rate: Rate,
    /// Points in ascending level.
    pub points: Vec<LevelPoint>,
    /// Per-point wall-clock, parallel to `points`.
    pub point_elapsed: Vec<std::time::Duration>,
}

impl LevelSweepResult {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("n_points".to_string(), self.points.len() as f64),
            ("rate_mbps".to_string(), self.rate.mbps() as f64),
        ];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].rx_level_dbm"), p.rx_level_dbm));
            out.push((format!("points[{i:02}].ber"), p.ber));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders the sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "BER vs input level ({}), spec range -88..-23 dBm",
                self.rate
            ),
            &["level [dBm]", "BER", "plot"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0}", p.rx_level_dbm),
                format_ber(p.ber, p.bits),
                bar(p.ber, 0.5, 40),
            ]);
        }
        t
    }

    /// The lowest level with BER below `threshold` (measured
    /// sensitivity).
    pub fn sensitivity_dbm(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.ber < threshold)
            .map(|p| p.rx_level_dbm)
    }
}

/// Registry entry: the §5.1 input-level sweep.
#[derive(Debug, Clone, Copy)]
pub struct LevelSweep {
    /// Data rate.
    pub rate: Rate,
    /// Sweep start.
    pub lo_dbm: wlan_units::Dbm,
    /// Sweep end.
    pub hi_dbm: wlan_units::Dbm,
    /// Point count.
    pub points: usize,
}

impl LevelSweep {
    /// The default sweep: 24 Mbit/s across −98…−23 dBm, 12 points.
    pub const DEFAULT: LevelSweep = LevelSweep {
        rate: Rate::R24,
        lo_dbm: wlan_units::Dbm(-98.0),
        hi_dbm: wlan_units::Dbm(-23.0),
        points: 12,
    };
}

impl Default for LevelSweep {
    fn default() -> Self {
        LevelSweep::DEFAULT
    }
}

impl Experiment for LevelSweep {
    fn name(&self) -> &'static str {
        "level_sweep"
    }

    fn paper_ref(&self) -> &'static str {
        "§5.1"
    }

    fn describe(&self) -> &'static str {
        "BER across the specified -88..-23 dBm input range"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            ctx.effort,
            self.rate,
            self.lo_dbm.0,
            self.hi_dbm.0,
            self.points,
            ctx.seed,
            &ctx.engine,
        );
        let mut out = RunOutput {
            tables: vec![r.table()],
            snapshot: r.snapshot(),
            points: r
                .points
                .iter()
                .zip(&r.point_elapsed)
                .map(|(p, e)| PointStat {
                    label: format!("{:.0}", p.rx_level_dbm),
                    elapsed: Some(*e),
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        };
        if let Some(s) = r.sensitivity_dbm(1e-3) {
            out.notes
                .push(format!("measured sensitivity at {}: {s:.0} dBm", r.rate));
        }
        out
    }
}

fn point_config(effort: Effort, rate: Rate, level: f64, seed: u64) -> LinkConfig {
    LinkConfig {
        rate,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm: level,
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        ..LinkConfig::default()
    }
}

fn collect(
    rate: Rate,
    rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, u64)>>,
) -> LevelSweepResult {
    LevelSweepResult {
        rate,
        point_elapsed: rows.iter().map(|p| p.elapsed).collect(),
        points: rows
            .into_iter()
            .map(|p| LevelPoint {
                rx_level_dbm: p.param,
                ber: p.result.0,
                bits: p.result.1,
            })
            .collect(),
    }
}

/// Runs the sweep from below sensitivity to above the specified
/// maximum. Points fan out across the engine's pool, each measured with
/// the engine's estimator.
pub fn run(
    effort: Effort,
    rate: Rate,
    lo_dbm: f64,
    hi_dbm: f64,
    points: usize,
    seed: u64,
    engine: &Engine,
) -> LevelSweepResult {
    let sweep = Sweep::linspace(lo_dbm, hi_dbm, points.max(2));
    let rows = sweep.run_parallel_indexed(&engine.pool, |i, &level| {
        let report = engine.measure(point_config(effort, rate, level, seed), i);
        (report.ber(), report.meter.bits())
    });
    collect(rate, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_cliff_and_spec_range_clean() {
        let r = run(
            Effort::quick(),
            Rate::R12,
            -100.0,
            -25.0,
            6,
            3,
            &Engine::reference(),
        );
        // Far below sensitivity: broken. Within the range: clean.
        assert!(r.points.first().unwrap().ber > 0.1, "{:?}", r.points[0]);
        assert!(r.points.last().unwrap().ber < 0.01, "{:?}", r.points.last());
        let sens = r.sensitivity_dbm(0.01).expect("link closes somewhere");
        assert!(
            (-95.0..=-70.0).contains(&sens),
            "measured sensitivity {sens} dBm"
        );
    }

    #[test]
    fn table_renders() {
        let r = run(
            Effort::quick(),
            Rate::R24,
            -60.0,
            -30.0,
            2,
            4,
            &Engine::reference(),
        );
        assert!(r.table().render().contains("input level"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let serial = run(
            Effort::quick(),
            Rate::R24,
            -60.0,
            -40.0,
            3,
            4,
            &Engine::with_threads(1),
        );
        let par = run(
            Effort::quick(),
            Rate::R24,
            -60.0,
            -40.0,
            3,
            4,
            &Engine::with_threads(2),
        );
        for (a, b) in serial.points.iter().zip(par.points.iter()) {
            assert_eq!(a, b);
        }
    }
}

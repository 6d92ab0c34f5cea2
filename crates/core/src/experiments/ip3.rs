//! §5.1 — BER vs third-order intercept point of the LNA ("it was
//! possible to measure bit error rates versus critical parameters of the
//! RF front-end, e.g. IP3 value of the LNA").
//!
//! With the adjacent channel present, a low IIP3 lets the interferer's
//! intermodulation products land in-band.

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::{OfdmProfile, Rate};
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_rf::receiver::RfConfig;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ip3Point {
    /// LNA input-referred IIP3 (dBm).
    pub iip3_dbm: f64,
    /// Measured BER (adjacent channel present).
    pub ber: f64,
    /// Bits counted.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct Ip3Result {
    /// Points in ascending IIP3.
    pub points: Vec<Ip3Point>,
    /// Per-point wall-clock, parallel to `points` (for the bench
    /// harness timing report).
    pub point_elapsed: Vec<std::time::Duration>,
}

impl Ip3Result {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![("n_points".to_string(), self.points.len() as f64)];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].iip3_dbm"), p.iip3_dbm));
            out.push((format!("points[{i:02}].ber"), p.ber));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders the sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "BER vs IIP3 of the LNA (adjacent channel present)",
            &["IIP3 [dBm]", "BER", "plot"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0}", p.iip3_dbm),
                format_ber(p.ber, p.bits),
                bar(p.ber, 0.5, 40),
            ]);
        }
        t
    }
}

/// Registry entry: the §5.1 IIP3 sweep, parameterized so pinned runs
/// can shrink the point count.
#[derive(Debug, Clone, Copy)]
pub struct Ip3Sweep {
    /// Sweep start.
    pub lo_dbm: wlan_units::Dbm,
    /// Sweep end.
    pub hi_dbm: wlan_units::Dbm,
    /// Point count.
    pub points: usize,
}

impl Ip3Sweep {
    /// The paper-default sweep (−40…0 dBm, 9 points).
    pub const DEFAULT: Ip3Sweep = Ip3Sweep {
        lo_dbm: wlan_units::Dbm(-40.0),
        hi_dbm: wlan_units::Dbm(0.0),
        points: 9,
    };
}

impl Default for Ip3Sweep {
    fn default() -> Self {
        Ip3Sweep::DEFAULT
    }
}

impl Experiment for Ip3Sweep {
    fn name(&self) -> &'static str {
        "ip3"
    }

    fn paper_ref(&self) -> &'static str {
        "§5.1"
    }

    fn describe(&self) -> &'static str {
        "BER vs LNA IIP3, adjacent channel present"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            ctx.effort,
            self.lo_dbm.0,
            self.hi_dbm.0,
            self.points,
            ctx.seed,
            ctx.profile,
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
                    label: format!("{:.0}", p.iip3_dbm),
                    elapsed: Some(*e),
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        }
    }
}

fn point_config(effort: Effort, iip3: f64, seed: u64, profile: &'static OfdmProfile) -> LinkConfig {
    let rf = RfConfig {
        lna_nonlinearity: Nonlinearity::Cubic {
            iip3_dbm: wlan_units::Dbm(iip3),
        },
        ..RfConfig::default()
    };
    LinkConfig {
        profile,
        rate: Rate::R36,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm: -40.0,
        adjacent: Some(AdjacentChannel {
            offset_hz: 20e6,
            rel_db: 6.0,
        }),
        front_end: FrontEnd::RfBaseband(rf),
        ..LinkConfig::default()
    }
}

fn collect(rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, u64)>>) -> Ip3Result {
    Ip3Result {
        point_elapsed: rows.iter().map(|p| p.elapsed).collect(),
        points: rows
            .into_iter()
            .map(|p| Ip3Point {
                iip3_dbm: p.param,
                ber: p.result.0,
                bits: p.result.1,
            })
            .collect(),
    }
}

/// Runs the sweep at −40 dBm wanted level (36 Mbit/s) with a +6 dB
/// adjacent channel, IIP3 from `lo` to `hi` dBm. Sweep points fan out
/// across the engine's pool, each measured with the engine's estimator
/// (the sharded one optionally early-stopped). Bit-identical for any
/// thread count.
pub fn run(
    effort: Effort,
    lo_dbm: f64,
    hi_dbm: f64,
    points: usize,
    seed: u64,
    profile: &'static OfdmProfile,
    engine: &Engine,
) -> Ip3Result {
    let sweep = Sweep::linspace(lo_dbm, hi_dbm, points.max(2));
    let rows = sweep.run_parallel_indexed(&engine.pool, |i, &iip3| {
        let report = engine.measure(point_config(effort, iip3, seed, profile), i);
        (report.ber(), report.meter.bits())
    });
    collect(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_phy::IEEE_802_11A;

    #[test]
    fn low_iip3_breaks_link_high_iip3_fixes_it() {
        let r = run(
            Effort::quick(),
            -40.0,
            0.0,
            4,
            7,
            &IEEE_802_11A,
            &Engine::reference(),
        );
        let worst = r.points.first().unwrap().ber;
        let best = r.points.last().unwrap().ber;
        assert!(worst > 0.05, "low IIP3 should fail: {worst}");
        assert!(best < 0.01, "high IIP3 should work: {best}");
        // Monotone trend (allowing Monte-Carlo wiggle): last ≤ first.
        assert!(best <= worst);
    }

    #[test]
    fn table_renders() {
        let r = run(
            Effort::quick(),
            -30.0,
            -10.0,
            2,
            8,
            &IEEE_802_11A,
            &Engine::reference(),
        );
        assert!(r.table().render().contains("IIP3"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let serial = run(
            Effort::quick(),
            -30.0,
            -10.0,
            3,
            8,
            &IEEE_802_11A,
            &Engine::with_threads(1),
        );
        let par = run(
            Effort::quick(),
            -30.0,
            -10.0,
            3,
            8,
            &IEEE_802_11A,
            &Engine::with_threads(3),
        );
        for (a, b) in serial.points.iter().zip(par.points.iter()) {
            assert_eq!(a, b);
        }
    }
}

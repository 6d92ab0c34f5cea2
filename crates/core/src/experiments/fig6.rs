//! Figure 6 — "BER vs compression point of first LNA", with and without
//! the adjacent channel.
//!
//! Expected shape (paper): both series fall from BER ≈ 0.5 to ≈ 0 as the
//! compression point rises; with the adjacent channel present the curve
//! shifts right by roughly the adjacent-channel excess, because the
//! interferer — not the wanted signal — drives the LNA into compression.
//!
//! The sweep runs at 54 Mbit/s with the adjacent channel 6 dB above the
//! wanted one — the standard's adjacent-channel-rejection requirement
//! scales with rate (+16 dB applies to 6 Mbit/s; at 54 Mbit/s it is
//! −1 dB, so +6 dB is already a stress case the filter must handle).

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_rf::receiver::RfConfig;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    /// LNA input-referred 1 dB compression point (dBm).
    pub p1db_dbm: f64,
    /// BER without the adjacent channel.
    pub ber_alone: f64,
    /// BER with the +16 dB adjacent channel.
    pub ber_adjacent: f64,
    /// Bits per series point.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Points in ascending compression point.
    pub points: Vec<Fig6Point>,
}

impl Fig6Result {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![("n_points".to_string(), self.points.len() as f64)];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].p1db_dbm"), p.p1db_dbm));
            out.push((format!("points[{i:02}].ber_alone"), p.ber_alone));
            out.push((format!("points[{i:02}].ber_adjacent"), p.ber_adjacent));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders both series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 6: BER vs compression point of first LNA",
            &["P1dB [dBm]", "BER (no adj)", "BER (adj)", "no-adj", "adj"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0}", p.p1db_dbm),
                format_ber(p.ber_alone, p.bits),
                format_ber(p.ber_adjacent, p.bits),
                bar(p.ber_alone, 0.5, 20),
                bar(p.ber_adjacent, 0.5, 20),
            ]);
        }
        t
    }

    /// The lowest compression point at which a series reaches BER <
    /// `threshold` (its "knee").
    pub fn knee_dbm(&self, adjacent: bool, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| {
                (if adjacent {
                    p.ber_adjacent
                } else {
                    p.ber_alone
                }) < threshold
            })
            .map(|p| p.p1db_dbm)
    }
}

/// Registry entry: the Fig. 6 compression-point sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Sweep {
    /// Sweep start: LNA input P1dB.
    pub lo_dbm: wlan_units::Dbm,
    /// Sweep end.
    pub hi_dbm: wlan_units::Dbm,
    /// Point count.
    pub points: usize,
}

impl Fig6Sweep {
    /// The default sweep: −50…−5 dBm, 10 points.
    pub const DEFAULT: Fig6Sweep = Fig6Sweep {
        lo_dbm: wlan_units::Dbm(-50.0),
        hi_dbm: wlan_units::Dbm(-5.0),
        points: 10,
    };
}

impl Default for Fig6Sweep {
    fn default() -> Self {
        Fig6Sweep::DEFAULT
    }
}

impl Experiment for Fig6Sweep {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 6"
    }

    fn describe(&self) -> &'static str {
        "BER vs LNA compression point, with/without adjacent channel"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            ctx.effort,
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
                .map(|p| PointStat {
                    label: format!("{:.0}", p.p1db_dbm),
                    elapsed: None,
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        };
        if let (Some(a), Some(b)) = (r.knee_dbm(false, 0.01), r.knee_dbm(true, 0.01)) {
            out.notes.push(format!(
                "knee without adjacent: {a:.0} dBm | with adjacent: {b:.0} dBm (shift {:.0} dB)",
                b - a
            ));
        }
        out
    }
}

fn point_config(p1db: f64, adjacent: bool, effort: Effort, seed: u64) -> LinkConfig {
    let rf = RfConfig {
        lna_nonlinearity: Nonlinearity::rapp(wlan_units::Dbm(p1db)),
        ..RfConfig::default()
    };
    LinkConfig {
        rate: Rate::R54,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm: -40.0,
        adjacent: adjacent.then_some(AdjacentChannel {
            offset_hz: 20e6,
            rel_db: 6.0,
        }),
        front_end: FrontEnd::RfBaseband(rf),
        ..LinkConfig::default()
    }
}

fn collect(rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, f64, u64)>>) -> Fig6Result {
    Fig6Result {
        points: rows
            .into_iter()
            .map(|p| Fig6Point {
                p1db_dbm: p.param,
                ber_alone: p.result.0,
                ber_adjacent: p.result.1,
                bits: p.result.2,
            })
            .collect(),
    }
}

/// Runs the sweep: 54 Mbit/s at −40 dBm, LNA P1dB from `lo` to `hi` dBm.
/// Sweep points fan out across the engine's pool; both series of a
/// point run inside the same worker, the no-adjacent series on the
/// master seed and the adjacent series on `seed + 1`. Bit-identical
/// for any thread count.
pub fn run(
    effort: Effort,
    lo_dbm: f64,
    hi_dbm: f64,
    points: usize,
    seed: u64,
    engine: &Engine,
) -> Fig6Result {
    let sweep = Sweep::linspace(lo_dbm, hi_dbm, points.max(2));
    let rows = sweep.run_parallel_indexed(&engine.pool, |i, &p1| {
        let alone = engine.measure(point_config(p1, false, effort, seed), i);
        let adj = engine.measure(point_config(p1, true, effort, seed.wrapping_add(1)), i);
        (alone.ber(), adj.ber(), alone.meter.bits())
    });
    collect(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_channel_shifts_the_knee_right() {
        let r = run(Effort::quick(), -50.0, -5.0, 6, 5, &Engine::reference());
        // Deep compression breaks both; high P1dB fixes both.
        let first = r.points.first().unwrap();
        let last = r.points.last().unwrap();
        assert!(first.ber_alone > 0.05, "{:?}", first);
        assert!(last.ber_alone < 0.01, "{:?}", last);
        assert!(last.ber_adjacent < 0.01, "{:?}", last);
        // The knee with adjacent channel needs a higher compression point.
        let k_alone = r.knee_dbm(false, 0.01).expect("alone series recovers");
        let k_adj = r.knee_dbm(true, 0.01).expect("adjacent series recovers");
        assert!(k_adj >= k_alone, "adjacent knee {k_adj} vs alone {k_alone}");
    }

    #[test]
    fn table_renders() {
        let r = run(Effort::quick(), -40.0, -10.0, 3, 6, &Engine::reference());
        assert_eq!(r.points.len(), 3);
        assert!(r.table().render().contains("Figure 6"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let serial = run(
            Effort::quick(),
            -40.0,
            -10.0,
            3,
            6,
            &Engine::with_threads(1),
        );
        for threads in [2, 4] {
            let par = run(
                Effort::quick(),
                -40.0,
                -10.0,
                3,
                6,
                &Engine::with_threads(threads),
            );
            for (a, b) in serial.points.iter().zip(par.points.iter()) {
                assert_eq!(a, b, "{threads} threads");
            }
        }
    }
}

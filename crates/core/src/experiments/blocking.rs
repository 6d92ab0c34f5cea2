//! §2.2 — adjacent and alternate channel rejection: "The first adjacent
//! channel may be 16 dBm, the second adjacent channel 32 dBm above this
//! level." BER versus the interferer's relative level, for the +20 MHz
//! adjacent and the +40 MHz alternate channel.

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::{OfdmProfile, Rate};
use wlan_rf::receiver::RfConfig;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingPoint {
    /// Interferer level relative to the wanted channel (dB).
    pub rel_db: f64,
    /// BER with the +20 MHz adjacent channel at that level.
    pub ber_adjacent: f64,
    /// BER with the +40 MHz alternate channel at that level.
    pub ber_alternate: f64,
    /// Bits per series point.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct BlockingResult {
    /// Rate used.
    pub rate: Rate,
    /// Points in ascending relative level.
    pub points: Vec<BlockingPoint>,
    /// Per-point wall-clock, parallel to `points`.
    pub point_elapsed: Vec<std::time::Duration>,
}

impl BlockingResult {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("n_points".to_string(), self.points.len() as f64),
            ("rate_mbps".to_string(), self.rate.mbps() as f64),
        ];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].rel_db"), p.rel_db));
            out.push((format!("points[{i:02}].ber_adjacent"), p.ber_adjacent));
            out.push((format!("points[{i:02}].ber_alternate"), p.ber_alternate));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders both series.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "BER vs interferer level ({}): adjacent (+20 MHz) vs alternate (+40 MHz)",
                self.rate
            ),
            &["rel [dB]", "BER adj", "BER alt", "adj", "alt"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:+.0}", p.rel_db),
                format_ber(p.ber_adjacent, p.bits),
                format_ber(p.ber_alternate, p.bits),
                bar(p.ber_adjacent, 0.5, 18),
                bar(p.ber_alternate, 0.5, 18),
            ]);
        }
        t
    }

    /// The highest relative level each series tolerates at BER <
    /// `threshold`.
    pub fn rejection_db(&self, alternate: bool, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .rev()
            .find(|p| {
                (if alternate {
                    p.ber_alternate
                } else {
                    p.ber_adjacent
                }) < threshold
            })
            .map(|p| p.rel_db)
    }
}

/// Registry entry: the §2.2 adjacent/alternate rejection sweep.
#[derive(Debug, Clone, Copy)]
pub struct BlockingSweep {
    /// Data rate.
    pub rate: Rate,
    /// Sweep start: interferer level relative to wanted.
    pub lo_db: wlan_units::Db,
    /// Sweep end.
    pub hi_db: wlan_units::Db,
    /// Point count.
    pub points: usize,
}

impl BlockingSweep {
    /// The default sweep: 12 Mbit/s, +4…+44 dB, 11 points.
    pub const DEFAULT: BlockingSweep = BlockingSweep {
        rate: Rate::R12,
        lo_db: wlan_units::Db(4.0),
        hi_db: wlan_units::Db(44.0),
        points: 11,
    };
}

impl Default for BlockingSweep {
    fn default() -> Self {
        BlockingSweep::DEFAULT
    }
}

impl Experiment for BlockingSweep {
    fn name(&self) -> &'static str {
        "blocking"
    }

    fn paper_ref(&self) -> &'static str {
        "§2.2"
    }

    fn describe(&self) -> &'static str {
        "Adjacent (+20 MHz) and alternate (+40 MHz) channel rejection"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            ctx.effort,
            self.rate,
            self.lo_db.0,
            self.hi_db.0,
            self.points,
            ctx.seed,
            ctx.profile,
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
                    label: format!("{:+.0}", p.rel_db),
                    elapsed: Some(*e),
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        };
        if let (Some(adj), Some(alt)) = (r.rejection_db(false, 0.01), r.rejection_db(true, 0.01)) {
            out.notes.push(format!(
                "rejection at BER<1e-2: adjacent {adj:+.0} dB, alternate {alt:+.0} dB (spec: +16/+32)"
            ));
        }
        out
    }
}

fn point_config(
    offset_hz: f64,
    rel_db: f64,
    rate: Rate,
    effort: Effort,
    seed: u64,
    profile: &'static OfdmProfile,
) -> LinkConfig {
    LinkConfig {
        profile,
        rate,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm: -60.0,
        adjacent: Some(AdjacentChannel { offset_hz, rel_db }),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        osr: 8, // the +40 MHz alternate channel needs ±80 MHz of scene
        ..LinkConfig::default()
    }
}

fn collect(
    rate: Rate,
    rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, f64, u64)>>,
) -> BlockingResult {
    BlockingResult {
        rate,
        point_elapsed: rows.iter().map(|p| p.elapsed).collect(),
        points: rows
            .into_iter()
            .map(|p| BlockingPoint {
                rel_db: p.param,
                ber_adjacent: p.result.0,
                ber_alternate: p.result.1,
                bits: p.result.2,
            })
            .collect(),
    }
}

/// Runs the rejection sweep at −60 dBm wanted level. The interferer
/// sits one (adjacent) and two (alternate) channel spacings up, where
/// one spacing is the profile's sampling bandwidth — 20 MHz for
/// 802.11a, scaled accordingly for the other numerologies. Each
/// relative-level point (both the adjacent and alternate series) is
/// one task on the engine's pool.
#[allow(clippy::too_many_arguments)]
pub fn run(
    effort: Effort,
    rate: Rate,
    lo_db: f64,
    hi_db: f64,
    points: usize,
    seed: u64,
    profile: &'static OfdmProfile,
    engine: &Engine,
) -> BlockingResult {
    let spacing = profile.sample_rate;
    let sweep = Sweep::linspace(lo_db, hi_db, points.max(2));
    let rows = sweep.run_parallel_indexed(&engine.pool, |i, &rel| {
        let adj = engine.measure(point_config(spacing, rel, rate, effort, seed, profile), i);
        let alt = engine.measure(
            point_config(
                2.0 * spacing,
                rel,
                rate,
                effort,
                seed.wrapping_add(7),
                profile,
            ),
            i,
        );
        (adj.ber(), alt.ber(), adj.meter.bits())
    });
    collect(rate, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_phy::IEEE_802_11A;

    #[test]
    fn alternate_channel_tolerated_better_than_adjacent() {
        // The alternate channel is a whole channel further out, so the
        // Chebyshev filter rejects it far more: the paper's spec allows
        // it 16 dB hotter (+32 vs +16).
        let r = run(
            Effort::quick(),
            Rate::R12,
            8.0,
            40.0,
            5,
            5,
            &IEEE_802_11A,
            &Engine::reference(),
        );
        let adj_tol = r.rejection_db(false, 0.01).unwrap_or(f64::MIN);
        let alt_tol = r.rejection_db(true, 0.01).unwrap_or(f64::MIN);
        assert!(
            alt_tol >= adj_tol + 8.0,
            "alternate tolerance {alt_tol} dB vs adjacent {adj_tol} dB"
        );
        // The spec points themselves: +16 adjacent and +32 alternate OK.
        assert!(adj_tol >= 16.0, "adjacent rejection {adj_tol} < spec 16 dB");
        assert!(
            alt_tol >= 32.0,
            "alternate rejection {alt_tol} < spec 32 dB"
        );
    }

    #[test]
    fn table_renders() {
        let r = run(
            Effort::quick(),
            Rate::R12,
            10.0,
            20.0,
            2,
            6,
            &IEEE_802_11A,
            &Engine::reference(),
        );
        assert!(r.table().render().contains("interferer"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let serial = run(
            Effort::quick(),
            Rate::R12,
            10.0,
            20.0,
            2,
            6,
            &IEEE_802_11A,
            &Engine::with_threads(1),
        );
        let par = run(
            Effort::quick(),
            Rate::R12,
            10.0,
            20.0,
            2,
            6,
            &IEEE_802_11A,
            &Engine::with_threads(2),
        );
        for (a, b) in serial.points.iter().zip(par.points.iter()) {
            assert_eq!(a, b);
        }
    }
}

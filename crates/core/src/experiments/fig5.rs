//! Figure 5 — "BER vs filter bandwidth (with present adjacent channel)":
//! sweep of the channel-select Chebyshev passband edge.
//!
//! Expected shape (paper): a bathtub — a too-narrow filter destroys the
//! wanted OFDM band (±8.3 MHz), a too-wide filter lets the +16 dB
//! adjacent channel through.

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{AdjacentChannel, FrontEnd, LinkConfig};
use crate::report::{bar, format_ber, Table};
use wlan_dataflow::sweep::Sweep;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Point {
    /// Filter passband edge in Hz.
    pub edge_hz: f64,
    /// Measured BER.
    pub ber: f64,
    /// Bits counted.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// The sweep points, ascending edge.
    pub points: Vec<Fig5Point>,
}

impl Fig5Result {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![("n_points".to_string(), self.points.len() as f64)];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].edge_mhz"), p.edge_hz / 1e6));
            out.push((format!("points[{i:02}].ber"), p.ber));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders with the paper's x-axis ("passband edge frequency
    /// (1.0e8 Hz)").
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Figure 5: BER vs filter bandwidth (adjacent channel present)",
            &["edge [1e8 Hz]", "edge [MHz]", "BER", "plot"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.3}", p.edge_hz / 1e8),
                format!("{:.1}", p.edge_hz / 1e6),
                format_ber(p.ber, p.bits),
                bar(p.ber, 0.5, 40),
            ]);
        }
        t
    }

    /// The edge (Hz) with the lowest BER.
    pub fn best_edge_hz(&self) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| a.ber.partial_cmp(&b.ber).unwrap())
            .map(|p| p.edge_hz)
            .unwrap_or(0.0)
    }
}

/// Registry entry: the Fig. 5 filter-bandwidth bathtub.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Sweep {
    /// Point count across the 3…16 MHz edge range.
    pub points: usize,
}

impl Fig5Sweep {
    /// The default sweep: 12 points.
    pub const DEFAULT: Fig5Sweep = Fig5Sweep { points: 12 };
}

impl Default for Fig5Sweep {
    fn default() -> Self {
        Fig5Sweep::DEFAULT
    }
}

impl Experiment for Fig5Sweep {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn paper_ref(&self) -> &'static str {
        "Fig. 5"
    }

    fn describe(&self) -> &'static str {
        "BER vs channel-filter bandwidth, adjacent channel present"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(ctx.effort, self.points, ctx.seed, &ctx.engine);
        RunOutput {
            tables: vec![r.table()],
            snapshot: r.snapshot(),
            points: r
                .points
                .iter()
                .map(|p| PointStat {
                    label: format!("{:.1}MHz", p.edge_hz / 1e6),
                    elapsed: None,
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        }
        .with_note(format!("best edge: {:.2} MHz", r.best_edge_hz() / 1e6))
    }
}

fn point_config(effort: Effort, edge_hz: f64, seed: u64) -> LinkConfig {
    let rf = RfConfig {
        channel_filter_edge_hz: wlan_units::Hz(edge_hz),
        ..RfConfig::default()
    };
    LinkConfig {
        rate: Rate::R24,
        psdu_len: effort.psdu_len,
        packets: effort.packets,
        seed,
        rx_level_dbm: -55.0,
        adjacent: Some(AdjacentChannel::first()),
        front_end: FrontEnd::RfBaseband(rf),
        ..LinkConfig::default()
    }
}

fn collect(rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, u64)>>) -> Fig5Result {
    Fig5Result {
        points: rows
            .into_iter()
            .map(|p| Fig5Point {
                edge_hz: p.param,
                ber: p.result.0,
                bits: p.result.1,
            })
            .collect(),
    }
}

/// Runs the sweep: 24 Mbit/s link at −55 dBm with the +16 dB adjacent
/// channel, Chebyshev edge from 3 to 16 MHz. Sweep points fan out
/// across the engine's pool, each measured with the engine's
/// estimator; bit-identical for any thread count.
pub fn run(effort: Effort, points: usize, seed: u64, engine: &Engine) -> Fig5Result {
    let sweep = Sweep::linspace(3e6, 16e6, points.max(2));
    let rows = sweep.run_parallel_indexed(&engine.pool, |i, &edge_hz| {
        let report = engine.measure(point_config(effort, edge_hz, seed), i);
        (report.ber(), report.meter.bits())
    });
    collect(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bathtub_shape() {
        // Narrow (3 MHz) and the best mid-band edge must differ sharply;
        // quick effort keeps this CI-friendly.
        let r = run(Effort::quick(), 5, 3, &Engine::reference());
        assert_eq!(r.points.len(), 5);
        let narrow = r.points.first().unwrap().ber;
        let wide = r.points.last().unwrap().ber;
        let best = r.points.iter().map(|p| p.ber).fold(f64::MAX, f64::min);
        assert!(narrow > 0.05, "narrow filter should fail: {narrow}");
        assert!(
            wide > 0.1,
            "wide filter should admit the adjacent channel: {wide}"
        );
        assert!(best < 0.01, "some edge should work: {best}");
        // The best edge covers the signal band without admitting the
        // aliased adjacent channel.
        let e = r.best_edge_hz();
        assert!((4e6..12e6).contains(&e), "best edge {e}");
    }

    #[test]
    fn table_renders() {
        let r = run(Effort::quick(), 3, 4, &Engine::reference());
        let t = r.table();
        assert_eq!(t.len(), 3);
        assert!(t.render().contains("Figure 5"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        let serial = run(Effort::quick(), 3, 8, &Engine::with_threads(1));
        for threads in [2, 4] {
            let par = run(Effort::quick(), 3, 8, &Engine::with_threads(threads));
            for (a, b) in serial.points.iter().zip(par.points.iter()) {
                assert_eq!(a, b, "{threads} threads");
            }
        }
    }
}

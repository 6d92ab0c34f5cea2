//! Table 2 — "Comparison of simulation time": the pure system-level
//! (SPW-style baseband) run versus the mixed-signal co-simulation, for a
//! growing number of OFDM packets.
//!
//! The paper reports the co-simulation 30–40× slower; the exact ratio is
//! host-dependent, but it is structural (the analog engine RK4-integrates
//! every filter state at `analog_osr` sub-steps per RF sample), so the
//! ratio is far above 1 on any machine.

use crate::experiments::{Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{FrontEnd, LinkConfig};
use crate::report::Table;
use std::time::Duration;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;

/// One row of the timing comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingRow {
    /// OFDM packets simulated.
    pub packets: usize,
    /// System-level (baseband) wall time.
    pub baseband: Duration,
    /// Co-simulation wall time.
    pub cosim: Duration,
}

impl TimingRow {
    /// Slowdown factor of the co-simulation.
    pub fn ratio(&self) -> f64 {
        self.cosim.as_secs_f64() / self.baseband.as_secs_f64().max(1e-9)
    }
}

/// The timing comparison result.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Rows in ascending packet count.
    pub rows: Vec<TimingRow>,
    /// Analog sub-steps per RF sample used for the co-simulation.
    pub analog_osr: usize,
}

impl Table2Result {
    /// Renders the comparison (paper Table 2 format plus the ratio).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Table 2: simulation time, system-level vs co-simulation (analog osr {})",
                self.analog_osr
            ),
            &["OFDM packets", "baseband [ms]", "co-sim [ms]", "ratio"],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.packets.to_string(),
                format!("{:.1}", r.baseband.as_secs_f64() * 1e3),
                format!("{:.1}", r.cosim.as_secs_f64() * 1e3),
                format!("{:.1}x", r.ratio()),
            ]);
        }
        t
    }
}

/// Registry entry: the Table 2 timing comparison. Wall-clock numbers
/// are host-dependent, so the snapshot only records the structural
/// quantities (packet counts and osr), not the timings.
#[derive(Debug, Clone, Copy)]
pub struct Table2Timing {
    /// Packet counts to time.
    pub packet_counts: &'static [usize],
    /// PSDU length (bytes).
    pub psdu_len: usize,
    /// Analog sub-steps per RF sample of the co-simulation.
    pub analog_osr: usize,
}

impl Table2Timing {
    /// The default comparison: 1/5/10 packets, 100-byte PSDUs, osr 64.
    pub const DEFAULT: Table2Timing = Table2Timing {
        packet_counts: &[1, 5, 10],
        psdu_len: 100,
        analog_osr: 64,
    };
}

impl Default for Table2Timing {
    fn default() -> Self {
        Table2Timing::DEFAULT
    }
}

impl Experiment for Table2Timing {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn paper_ref(&self) -> &'static str {
        "Table 2"
    }

    fn describe(&self) -> &'static str {
        "Simulation time: system-level vs mixed-signal co-simulation"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            self.packet_counts,
            self.psdu_len,
            self.analog_osr,
            ctx.seed,
            &ctx.engine,
        );
        let mut snapshot = vec![
            ("n_rows".to_string(), r.rows.len() as f64),
            ("analog_osr".to_string(), r.analog_osr as f64),
        ];
        for (i, row) in r.rows.iter().enumerate() {
            snapshot.push((format!("rows[{i:02}].packets"), row.packets as f64));
        }
        RunOutput {
            tables: vec![r.table()],
            snapshot,
            points: r
                .rows
                .iter()
                .map(|row| PointStat {
                    label: format!("{}pkt", row.packets),
                    elapsed: Some(row.baseband + row.cosim),
                    bits: None,
                })
                .collect(),
            ..RunOutput::default()
        }
        .with_note("paper reports 30-40x; the exact ratio is host-dependent")
    }
}

fn mode_config(front_end: FrontEnd, packets: usize, psdu_len: usize, seed: u64) -> LinkConfig {
    LinkConfig {
        rate: Rate::R24,
        psdu_len,
        packets,
        seed,
        rx_level_dbm: -50.0,
        front_end,
        ..LinkConfig::default()
    }
}

/// Runs the comparison for the given packet counts.
///
/// `analog_osr` sets the co-simulation's sub-step count (the paper's
/// ratio regime is reached around 16–32). Each timed run is one
/// [`Engine::measure`] call, so its frames run on one worker and the
/// table reports single-simulator time, as the paper's Table 2 does.
pub fn run(
    packet_counts: &[usize],
    psdu_len: usize,
    analog_osr: usize,
    seed: u64,
    engine: &Engine,
) -> Table2Result {
    let rows = packet_counts
        .iter()
        .map(|&packets| {
            let cfg = RfConfig {
                noise_enabled: false, // match the noiseless co-sim
                ..RfConfig::default()
            };
            let time = |front_end| {
                engine
                    .measure(mode_config(front_end, packets, psdu_len, seed), 0)
                    .elapsed
            };
            TimingRow {
                packets,
                baseband: time(FrontEnd::RfBaseband(cfg)),
                cosim: time(FrontEnd::RfCosim {
                    filter_edge_hz: 10e6,
                    analog_osr,
                    noise_workaround: false,
                }),
            }
        })
        .collect();
    Table2Result { rows, analog_osr }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkSimulation, McRun};
    use wlan_exec::ThreadPool;

    #[test]
    fn cosim_is_much_slower() {
        let r = run(&[1], 60, 16, 1, &Engine::reference());
        assert_eq!(r.rows.len(), 1);
        let ratio = r.rows[0].ratio();
        assert!(ratio > 3.0, "co-sim only {ratio:.1}x slower");
    }

    #[test]
    fn time_grows_with_packets() {
        let r = run(&[1, 3], 60, 4, 2, &Engine::reference());
        assert!(r.rows[1].cosim > r.rows[0].cosim);
        assert!(r.table().render().contains("Table 2"));
    }

    #[test]
    fn parallel_meters_are_thread_invariant() {
        // Timings are host-dependent; the invariant a timed mode must
        // hold is that its frame-sharded link outcome on an RF front end
        // is identical for any worker count.
        let cfg = RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        };
        let timed = |threads: usize| {
            LinkSimulation::new(mode_config(FrontEnd::RfBaseband(cfg), 4, 60, 9))
                .run_parallel(&ThreadPool::new(threads), &McRun::default())
        };
        let base = timed(1);
        for threads in [2, 4] {
            let r = timed(threads);
            assert_eq!(r.meter, base.meter, "{threads} threads");
            assert_eq!(r.decoded_packets, base.decoded_packets);
            assert_eq!(r.evm_db, base.evm_db);
            assert_eq!(r.packets, base.packets);
        }
    }

    #[test]
    fn parallel_rows_match_structure() {
        let r = run(&[1, 2], 60, 4, 2, &Engine::with_threads(2));
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.analog_osr, 4);
        assert_eq!(r.rows[0].packets, 1);
        assert_eq!(r.rows[1].packets, 2);
        assert!(r.rows.iter().all(|row| row.ratio() > 1.0));
    }
}

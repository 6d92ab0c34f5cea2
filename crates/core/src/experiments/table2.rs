//! Table 2 — "Comparison of simulation time": the pure system-level
//! (SPW-style baseband) run versus the mixed-signal co-simulation, for a
//! growing number of OFDM packets.
//!
//! The paper reports the co-simulation 30–40× slower and puts the cost
//! on the analog solver's fine timestep (§5.3). That cost is reported
//! here structurally, as exact counts: per packet, both front ends see
//! the same baseband samples, and the co-simulation takes `analog_osr`
//! solver sub-steps per sample, each advancing every continuous state of
//! the analog netlist. The wall-clock ratio is kept as a secondary,
//! host-dependent column: it measures this solver on this machine, not
//! the paper's claim.

use crate::experiments::{Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::link::{FrontEnd, LinkConfig};
use crate::report::Table;
use std::time::Duration;
use wlan_ams::CosimReceiver;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;

/// Channel-filter edge of the co-simulated receiver.
const COSIM_EDGE_HZ: f64 = 10e6;

/// One row of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingRow {
    /// OFDM packets simulated.
    pub packets: usize,
    /// Baseband (system-rate) samples per packet, the same for both
    /// front ends.
    pub samples_per_packet: usize,
    /// Analog solver sub-steps of the co-simulation over all packets
    /// ([`crate::LinkReport::analog_steps`]).
    pub analog_steps: u64,
    /// System-level (baseband) wall time on this host.
    pub baseband: Duration,
    /// Co-simulation wall time on this host.
    pub cosim: Duration,
}

impl TimingRow {
    /// Analog sub-steps per packet.
    pub fn steps_per_packet(&self) -> u64 {
        self.analog_steps / self.packets as u64
    }

    /// Host wall-clock slowdown of the co-simulation (secondary: it
    /// depends on the machine and on the solver's implementation).
    pub fn ratio(&self) -> f64 {
        self.cosim.as_secs_f64() / self.baseband.as_secs_f64().max(1e-9)
    }
}

/// The comparison result.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Rows in ascending packet count.
    pub rows: Vec<TimingRow>,
    /// Analog sub-steps per RF sample used for the co-simulation.
    pub analog_osr: usize,
    /// Continuous states the co-simulation advances on every sub-step.
    pub state_count: usize,
}

impl Table2Result {
    /// State updates per packet of `row`: sub-steps × states.
    pub fn updates_per_packet(&self, row: &TimingRow) -> u64 {
        row.steps_per_packet() * self.state_count as u64
    }

    /// State updates per baseband sample of `row`; `analog_osr ×
    /// state_count` when every sample got its sub-steps.
    pub fn updates_per_sample(&self, row: &TimingRow) -> f64 {
        self.updates_per_packet(row) as f64 / row.samples_per_packet as f64
    }

    /// Renders the comparison: the structural cost first, then the host
    /// wall clock.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Table 2: simulation cost, system-level vs co-simulation \
                 (analog osr {}, {} analog states)",
                self.analog_osr, self.state_count
            ),
            &[
                "OFDM packets",
                "baseband samples/pkt",
                "analog sub-steps/pkt",
                "state updates/pkt",
                "updates/sample",
                "host wall: baseband [ms]",
                "host wall: co-sim [ms]",
                "host wall ratio",
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.packets.to_string(),
                r.samples_per_packet.to_string(),
                r.steps_per_packet().to_string(),
                self.updates_per_packet(r).to_string(),
                format!("{:.0}", self.updates_per_sample(r)),
                format!("{:.1}", r.baseband.as_secs_f64() * 1e3),
                format!("{:.1}", r.cosim.as_secs_f64() * 1e3),
                format!("{:.1}x", r.ratio()),
            ]);
        }
        t
    }
}

/// Registry entry: the Table 2 comparison. Wall-clock numbers are
/// host-dependent, so the snapshot only records the structural
/// quantities (packet counts, osr, states, samples, sub-steps and state
/// updates), not the timings.
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
            ("state_count".to_string(), r.state_count as f64),
        ];
        for (i, row) in r.rows.iter().enumerate() {
            snapshot.extend([
                (format!("rows[{i:02}].packets"), row.packets as f64),
                (
                    format!("rows[{i:02}].samples_per_packet"),
                    row.samples_per_packet as f64,
                ),
                (
                    format!("rows[{i:02}].steps_per_packet"),
                    row.steps_per_packet() as f64,
                ),
                (
                    format!("rows[{i:02}].updates_per_sample"),
                    r.updates_per_sample(row),
                ),
            ]);
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
        .with_note(
            "paper reports 30-40x wall clock; the structural cost is the \
             state updates per baseband sample, the host wall ratio is secondary",
        )
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
/// `analog_osr` sets the co-simulation's sub-step count. Each timed run
/// is one [`Engine::measure`] call, so its frames run on one worker and
/// the wall-clock columns report single-simulator time, as the paper's
/// Table 2 does.
pub fn run(
    packet_counts: &[usize],
    psdu_len: usize,
    analog_osr: usize,
    seed: u64,
    engine: &Engine,
) -> Table2Result {
    let cosim = FrontEnd::RfCosim {
        filter_edge_hz: COSIM_EDGE_HZ,
        analog_osr,
        noise_workaround: false,
    };
    let probe = mode_config(cosim.clone(), 1, psdu_len, seed);
    let state_count = CosimReceiver::with_filter_edge(
        COSIM_EDGE_HZ,
        probe.profile.sample_rate * probe.osr as f64,
        analog_osr,
        probe.osr,
    )
    .expect("built-in netlist elaborates")
    .state_count();
    let rows = packet_counts
        .iter()
        .map(|&packets| {
            let cfg = RfConfig {
                noise_enabled: false, // match the noiseless co-sim
                ..RfConfig::default()
            };
            let baseband = mode_config(FrontEnd::RfBaseband(cfg), packets, psdu_len, seed);
            let samples_per_packet = baseband.scene_len();
            let baseband = engine.measure(baseband, 0).elapsed;
            let co = engine.measure(mode_config(cosim.clone(), packets, psdu_len, seed), 0);
            TimingRow {
                packets,
                samples_per_packet,
                analog_steps: co.analog_steps,
                baseband,
                cosim: co.elapsed,
            }
        })
        .collect();
    Table2Result {
        rows,
        analog_osr,
        state_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkSimulation, McRun};
    use wlan_exec::ThreadPool;

    #[test]
    fn cosim_is_much_slower() {
        // The slowdown is structural and counted exactly: every baseband
        // sample takes `analog_osr` solver sub-steps, each advancing all
        // seven analog states (2nd-order HPF, 5th-order channel filter).
        let r = run(&[1], 60, 16, 1, &Engine::reference());
        assert_eq!(r.rows.len(), 1);
        let row = r.rows[0];
        let cfg = mode_config(FrontEnd::Ideal, 1, 60, 1);
        assert_eq!(row.samples_per_packet, cfg.scene_len());
        assert_eq!(row.analog_steps, 16 * cfg.scene_len() as u64);
        assert_eq!(r.state_count, 7);
        assert_eq!(r.updates_per_sample(&row), (16 * 7) as f64);
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
        for row in &r.rows {
            let substeps = 4 * row.packets * row.samples_per_packet;
            assert_eq!(row.analog_steps, substeps as u64);
            assert_eq!(r.updates_per_sample(row), (4 * r.state_count) as f64);
        }
    }
}

//! The link workloads (`fig5_sweep`, `ideal_fading`, `cosim_table2`):
//! closed-loop rounds of `LinkSimulation::run` on one thread.

use crate::heap::reset_heap_peak;
use crate::json::Obj;
use crate::layers::layer_metrics;
use crate::replica::{SimResult, Trace, TracedLink};
use crate::timing::{bracket, Timings};
use crate::workloads::{fig5_edges_hz, round_configs, Workload, INPUT_SLOTS};
use crate::{Outcome, HARD_CAP_S, SETUP_REPEATS};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wlan_meas::BerMeter;
use wlan_sim::link::{LinkConfig, LinkSimulation};

/// Runs `cfg` through the public entry point.
pub fn simulate(cfg: &LinkConfig) -> SimResult {
    SimResult::from(&LinkSimulation::new(cfg.clone()).run())
}

/// Internal consistency of one run's outputs.
fn consistent(r: &SimResult, cfg: &LinkConfig) -> bool {
    let bits = (8 * cfg.psdu_len * cfg.packets) as u64;
    let evm_ok = match r.evm_bits {
        Some(b) => r.decoded > 0 && f64::from_bits(b).is_finite(),
        None => r.decoded == 0,
    };
    r.packets == cfg.packets
        && r.decoded <= r.packets
        && r.meter.packets() == cfg.packets as u64
        && r.meter.bits() == bits
        && r.meter.errors() <= bits
        && evm_ok
}

/// Results of the first pass through the input slots; later rounds are
/// checked against them.
struct Book {
    first: Vec<Option<Vec<SimResult>>>,
}

impl Book {
    fn new() -> Self {
        Book {
            first: vec![None; INPUT_SLOTS],
        }
    }

    /// Records a round; false if an output is inconsistent or differs
    /// from an earlier round on the same inputs.
    fn record(&mut self, slot: usize, cfgs: &[LinkConfig], results: Vec<SimResult>) -> bool {
        let valid = results.iter().zip(cfgs).all(|(r, c)| consistent(r, c));
        match &self.first[slot] {
            Some(prev) => valid && *prev == results,
            None => {
                self.first[slot] = Some(results);
                valid
            }
        }
    }

    fn complete(&self) -> bool {
        self.first.iter().all(Option::is_some)
    }

    /// The checked simulated statistics over the first pass, per config
    /// position (sweep point) and in total.
    fn summary(&self) -> SimSummary {
        let positions = self.first.iter().flatten().map(Vec::len).max().unwrap_or(0);
        let mut per_position = vec![BerMeter::new(); positions];
        let mut s = SimSummary::default();
        for results in self.first.iter().flatten() {
            for (i, r) in results.iter().enumerate() {
                per_position[i].merge(&r.meter);
                s.meter.merge(&r.meter);
                s.packets += r.packets;
                s.decoded += r.decoded;
                if let Some(b) = r.evm_bits {
                    s.evm_weighted += f64::from_bits(b) * r.decoded as f64;
                }
            }
        }
        s.per_position_ber = per_position.iter().map(BerMeter::ber).collect();
        s
    }
}

#[derive(Debug, Default)]
struct SimSummary {
    meter: BerMeter,
    packets: usize,
    decoded: usize,
    evm_weighted: f64,
    per_position_ber: Vec<f64>,
}

impl SimSummary {
    fn evm_db(&self) -> f64 {
        if self.decoded == 0 {
            f64::NAN
        } else {
            self.evm_weighted / self.decoded as f64
        }
    }

    /// The paper's expected behaviour of each workload, as a sanity
    /// check on the simulated outputs.
    fn plausible(&self, w: Workload) -> bool {
        let ber = &self.per_position_ber;
        match w {
            // The Fig 5 bathtub: the best edge lies strictly inside the
            // sweep, and both ends are worse than it.
            Workload::Fig5Sweep => {
                let best = ber.iter().copied().fold(f64::INFINITY, f64::min);
                ber.len() == 12 && ber[0] > best && ber[11] > best
            }
            // 64-QAM at 25 dB over fading: most packets decode, and the
            // decoded constellation sits well above the SNR floor.
            Workload::IdealFading => self.decoded * 2 > self.packets && self.evm_db() < -15.0,
            // The noiseless co-simulation at -50 dBm decodes everything.
            Workload::CosimTable2 => self.decoded == self.packets && self.meter.errors() == 0,
            Workload::ServeMixed => false,
        }
    }

    fn to_json(&self, w: Workload) -> Obj {
        let o = Obj::new()
            .num("sim.ber", self.meter.ber())
            .num("sim.per", self.meter.per())
            .int("sim.decoded", self.decoded as u64)
            .int("sim.packets", self.packets as u64)
            .num("sim.evm_db", self.evm_db());
        if w == Workload::Fig5Sweep {
            let edges_mhz: Vec<f64> = fig5_edges_hz().iter().map(|e| e / 1e6).collect();
            o.nums("sim.edge_mhz", &edges_mhz)
                .nums("sim.ber_by_edge", &self.per_position_ber)
        } else {
            o
        }
    }
}

/// Builds the objects `LinkSimulation::run` builds before its first
/// packet, for every configuration in `cfgs`.
fn build_all(cfgs: &[LinkConfig]) -> Vec<TracedLink> {
    cfgs.iter().map(|c| TracedLink::new(c.clone())).collect()
}

/// The untraced end-to-end run of a link workload.
pub fn run_e2e(w: Workload, seed: u64, run_seconds: f64) -> Outcome {
    let mut timings = Timings::new(w.probe_share());
    let inputs: Vec<LinkConfig> = (0..INPUT_SLOTS)
        .flat_map(|slot| round_configs(w, seed, slot))
        .collect();
    for _ in 0..SETUP_REPEATS {
        let (built, seconds, probe) = bracket(1, || build_all(&inputs));
        timings.setup(seconds, probe);
        drop(black_box(built));
    }
    let mut book = Book::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    reset_heap_peak();
    let start = Instant::now();
    for round in 0.. {
        let slot = round % INPUT_SLOTS;
        let cfgs = round_configs(w, seed, slot);
        let packets: usize = cfgs.iter().map(|c| c.packets).sum();
        // Each run is bracketed on its own, so a host speed change in
        // the middle of a sweep is accounted to the right runs.
        let mut pieces = Vec::with_capacity(cfgs.len());
        let results = catch_unwind(AssertUnwindSafe(|| {
            cfgs.iter()
                .map(|c| {
                    let (r, seconds, probe) = bracket(1, || simulate(c));
                    pieces.push((seconds, probe));
                    r
                })
                .collect::<Vec<_>>()
        }));
        let ok = results.is_ok_and(|r| book.record(slot, &cfgs, r));
        attempted += packets as u64;
        if !ok {
            failed += packets as u64;
        }
        // Round 0 warms caches and lazy set-up; it is checked, not timed.
        if round > 0 {
            timings.wave(&pieces, packets as f64);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= run_seconds && book.complete() && round > 0) || elapsed >= HARD_CAP_S {
            break;
        }
    }
    let summary = book.summary();
    let plausible = book.complete() && summary.plausible(w);
    let (metrics, timing) = timings.metrics();
    Outcome {
        correct: failed == 0 && plausible,
        attempted,
        failed,
        metrics,
        sim: summary.to_json(w).bool("sim.plausible", plausible),
        detail: Obj::new().obj("timing", timing),
    }
}

/// Runs `cfg` untraced and traced (in the given order), adding the
/// traced spans and both wall times to `trace`, and returns both results.
pub fn trace_pair(
    trace: &mut Trace,
    cfg: &LinkConfig,
    traced_first: bool,
) -> (SimResult, SimResult) {
    let untraced = |trace: &mut Trace| {
        let t = Instant::now();
        let r = simulate(cfg);
        trace.untraced_ns += t.elapsed().as_nanos() as u64;
        r
    };
    if traced_first {
        let traced = trace.run_traced(cfg);
        (untraced(trace), traced)
    } else {
        let plain = untraced(trace);
        (plain, trace.run_traced(cfg))
    }
}

/// Runs one traced/untraced pair and checks it: the untraced outputs
/// must be consistent, and the traced ones must equal them (else the
/// trace is flagged unfaithful, which is not an op failure).
pub fn checked_pair(trace: &mut Trace, cfg: &LinkConfig, traced_first: bool) -> bool {
    match catch_unwind(AssertUnwindSafe(|| trace_pair(trace, cfg, traced_first))) {
        Ok((plain, traced)) => {
            trace.faithful &= plain == traced;
            consistent(&plain, cfg)
        }
        Err(_) => false,
    }
}

/// The traced per-layer run of a link workload.
pub fn run_trace(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut trace = Trace::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    for round in 0.. {
        let cfgs = round_configs(w, seed, round % INPUT_SLOTS);
        for (i, cfg) in cfgs.iter().enumerate() {
            attempted += cfg.packets as u64;
            if !checked_pair(&mut trace, cfg, (round + i) % 2 == 0) {
                failed += cfg.packets as u64;
            }
        }
        if start.elapsed().as_secs_f64() >= seconds.min(HARD_CAP_S) {
            break;
        }
    }
    let tally_ok = trace.losses.iter().sum::<u64>() == trace.packets - trace.decoded;
    Outcome {
        correct: failed == 0 && tally_ok,
        attempted,
        failed,
        metrics: layer_metrics(&trace, None),
        sim: Obj::new(),
        detail: Obj::new()
            .int("trace.packets", trace.packets)
            .int("trace.decoded", trace.decoded)
            .bool("trace.loss_tally_sums", tally_ok),
    }
}

//! The `serve_mixed` workload: one closed-loop client of a
//! `SessionEngine` that admits sessions until the engine is full, drives
//! them, and repeats. Every session report is checked against a serial
//! `LinkSimulation::run` of the same configuration.

use crate::heap::reset_heap_peak;
use crate::json::Obj;
use crate::layers::layer_metrics;
use crate::link::{checked_pair, simulate};
use crate::replica::{SimResult, Trace};
use crate::timing::{bracket, Timings};
use crate::workloads::{session_config, Workload, SESSION_CONFIGS, SESSION_PACKETS};
use crate::{Outcome, HARD_CAP_S, SETUP_REPEATS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wlan_exec::ThreadPool;
use wlan_meas::BerMeter;
use wlan_sim::serve::{AdmitError, ServeConfig, SessionEngine};

/// Engine sizing of the workload.
pub const ENGINE: ServeConfig = ServeConfig {
    max_sessions: 16,
    chunk_packets: 4,
    ring_chunks: 4,
};
/// Drive workers.
pub const WORKERS: usize = 2;

/// Serve-layer observations of a traced run.
#[derive(Debug, Default)]
pub struct ServeLayer {
    /// Time of each `admit` call, in µs.
    pub admit_us: Vec<f64>,
    /// Sessions completed per second of each wave.
    pub sessions_per_s: Vec<f64>,
    /// Admissions that reused a retired slot.
    pub recycled: u64,
    /// Full-ring parks over all drives.
    pub parks: u64,
    /// `DriveStats::service_p50` of each drive, in µs.
    pub chunk_p50_us: Vec<f64>,
    /// `DriveStats::service_p99` of each drive, in µs.
    pub chunk_p99_us: Vec<f64>,
    /// Sum of session `report().elapsed` (worker busy time).
    pub busy_ns: u64,
    /// Sum of drive wall times.
    pub drive_ns: u64,
}

/// The client: the engine, its pool, the admission cursor and the
/// memoised serial reference of each session configuration.
struct Client {
    seed: u64,
    engine: SessionEngine,
    pool: ThreadPool,
    next: usize,
    refs: Vec<Option<SimResult>>,
}

/// One admit-and-drive wave.
struct Wave {
    sessions: Vec<(usize, usize)>,
    packets: u64,
}

impl Client {
    fn new(seed: u64) -> Self {
        Client {
            seed,
            engine: SessionEngine::new(ENGINE),
            pool: ThreadPool::new(WORKERS),
            next: 0,
            refs: vec![None; SESSION_CONFIGS],
        }
    }

    /// Admits sessions until the engine reports `Full`; returns the
    /// (session, config index) pairs admitted.
    fn admit_all(&mut self, layer: &mut ServeLayer) -> Vec<(usize, usize)> {
        let mut admitted = Vec::new();
        loop {
            let index = self.next % SESSION_CONFIGS;
            let recycling = self.engine.sessions() == ENGINE.max_sessions;
            let t = Instant::now();
            match self
                .engine
                .admit(session_config(self.seed, index), SESSION_PACKETS)
            {
                Ok(sid) => {
                    layer.admit_us.push(t.elapsed().as_secs_f64() * 1e6);
                    layer.recycled += u64::from(recycling);
                    admitted.push((sid, index));
                    self.next += 1;
                }
                Err(AdmitError::Full) => return admitted,
            }
        }
    }

    /// Drives the admitted sessions (admitting first unless `admitted`
    /// was done during set-up).
    fn wave(&mut self, admitted: Option<Vec<(usize, usize)>>, layer: &mut ServeLayer) -> Wave {
        let t = Instant::now();
        let sessions = admitted.unwrap_or_else(|| self.admit_all(layer));
        let d = self.engine.drive(&self.pool);
        let seconds = t.elapsed().as_secs_f64();
        layer.sessions_per_s.push(d.sessions as f64 / seconds);
        layer.parks += d.parks;
        layer.chunk_p50_us.push(d.service_p50.as_secs_f64() * 1e6);
        layer.chunk_p99_us.push(d.service_p99.as_secs_f64() * 1e6);
        layer.drive_ns += d.wall.as_nanos() as u64;
        Wave {
            sessions,
            packets: d.packets,
        }
    }

    /// Checks every session of a wave against its serial reference;
    /// returns the number that fail (short of budget or different).
    fn check(&mut self, wave: &Wave, layer: &mut ServeLayer) -> u64 {
        let mut failed = 0;
        for &(sid, index) in &wave.sessions {
            let report = self.engine.report(sid);
            layer.busy_ns += report.elapsed.as_nanos() as u64;
            let seed = self.seed;
            let reference =
                *self.refs[index].get_or_insert_with(|| simulate(&session_config(seed, index)));
            if report.packets != SESSION_PACKETS || SimResult::from(&report) != reference {
                failed += 1;
            }
        }
        failed
    }

    /// The checked outputs: the serial references of every session
    /// configuration, once all have been admitted.
    fn sim(&self) -> Obj {
        let refs: Option<Vec<SimResult>> = self.refs.iter().copied().collect();
        let Some(refs) = refs else {
            return Obj::new().bool("sim.complete", false);
        };
        let mut meter = BerMeter::new();
        let mut evm_weighted = 0.0;
        for r in &refs {
            meter.merge(&r.meter);
            if let Some(b) = r.evm_bits {
                evm_weighted += f64::from_bits(b) * r.decoded as f64;
            }
        }
        let decoded: usize = refs.iter().map(|r| r.decoded).sum();
        Obj::new()
            .bool("sim.complete", true)
            .num("sim.ber", meter.ber())
            .num("sim.per", meter.per())
            .int("sim.decoded", decoded as u64)
            .int("sim.packets", refs.iter().map(|r| r.packets as u64).sum())
            .num("sim.evm_db", evm_weighted / decoded as f64)
    }
}

/// Engine construction plus the first round of admissions.
fn setup(seed: u64) -> (Client, Vec<(usize, usize)>) {
    let mut client = Client::new(seed);
    let admitted = client.admit_all(&mut ServeLayer::default());
    (client, admitted)
}

/// The shared wave loop; `per_wave` runs after each wave's check (the
/// traced run uses it for its replica pairs).
fn run_waves(
    seed: u64,
    run_seconds: f64,
    layer: &mut ServeLayer,
    mut per_wave: impl FnMut(usize) -> bool,
) -> (Timings, Obj, u64, u64) {
    let mut timings = Timings::new(Workload::ServeMixed.probe_share());
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (built, seconds, probe) = bracket(1, || setup(seed));
        timings.setup(seconds, probe);
        last = Some(built);
    }
    let (mut client, first) = last.expect("at least one set-up");
    let mut first = Some(first);
    let (mut attempted, mut failed) = (0u64, 0u64);
    reset_heap_peak();
    let start = Instant::now();
    for wave_index in 0.. {
        let warm_up = first.is_some();
        let (wave, seconds, probe) = bracket(WORKERS, || {
            catch_unwind(AssertUnwindSafe(|| client.wave(first.take(), layer)))
        });
        match wave {
            Ok(wave) => {
                attempted += wave.sessions.len() as u64;
                failed += client.check(&wave, layer);
                // The first wave (admitted during set-up) is checked,
                // not timed.
                if !warm_up {
                    timings.wave(&[(seconds, probe)], wave.packets as f64);
                }
            }
            Err(_) => {
                // The engine may hold poisoned locks: count the whole
                // wave as failed and continue on a fresh engine.
                attempted += ENGINE.max_sessions as u64;
                failed += ENGINE.max_sessions as u64;
                client.engine = SessionEngine::new(ENGINE);
            }
        }
        if !per_wave(wave_index) {
            attempted += 1;
            failed += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= run_seconds && timings.waves() > 0) || elapsed >= HARD_CAP_S {
            break;
        }
    }
    (timings, client.sim(), attempted, failed)
}

/// The untraced end-to-end run.
pub fn run_e2e(seed: u64, seconds: f64) -> Outcome {
    let mut layer = ServeLayer::default();
    let (timings, sim, attempted, failed) = run_waves(seed, seconds, &mut layer, |_| true);
    let (metrics, timing) = timings.metrics();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        sim,
        detail: Obj::new()
            .int("serve.sessions_checked", attempted)
            .int("serve.recycled_slots", layer.recycled)
            .obj("timing", timing),
    }
}

/// The traced run: the same waves for the serve-layer numbers, and after
/// each wave one session configuration (cycling through the 3:1 mix)
/// through the traced replica for the link-layer numbers.
pub fn run_trace(seed: u64, seconds: f64) -> Outcome {
    let mut layer = ServeLayer::default();
    let mut trace = Trace::default();
    let (_, sim, attempted, failed) = run_waves(seed, seconds, &mut layer, |i| {
        checked_pair(&mut trace, &session_config(seed, i), i % 2 == 0)
    });
    let tally_ok = trace.losses.iter().sum::<u64>() == trace.packets - trace.decoded;
    Outcome {
        correct: failed == 0 && tally_ok,
        attempted,
        failed,
        metrics: layer_metrics(&trace, Some(&layer)),
        sim,
        detail: Obj::new()
            .int("trace.packets", trace.packets)
            .int("trace.decoded", trace.decoded)
            .bool("trace.loss_tally_sums", tally_ok),
    }
}

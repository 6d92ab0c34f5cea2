//! Wave and set-up timing, normalised to a reference host speed by a
//! probe run around every timed piece of work (see `README.md`).

use crate::heap::{heap_peak_mb, peak_rss_mb};
use crate::json::{Metric, Obj};
use crate::stats::{median, tail};
use std::hint::black_box;
use std::time::Instant;

/// The host-speed probe time, in ms, that normalised timings are scaled
/// to: the probe's time on an otherwise idle core of the machine the
/// benchmark was written on (2-vCPU Intel Xeon VM).
pub const PROBE_REF_MS: f64 = 0.2;

/// Probe passes; the fastest is kept, so one pass hit by an interrupt
/// does not count.
const PROBE_PASSES: usize = 3;
const PROBE_ITERS: u32 = 20_000;

/// Host-speed probe: a fixed kernel of the kind of work the simulator
/// does (xorshift draws, `ln`, `sqrt`, multiply-adds). It lives in the
/// benchmark, so no change to the program can move it; on a shared host
/// it slows down with the program when a neighbour takes the core.
pub fn host_probe_ms() -> f64 {
    (0..PROBE_PASSES)
        .map(|_| {
            let t = Instant::now();
            let mut s = 0x9E37_79B9_7F4A_7C15u64;
            let mut acc = 0.0f64;
            for _ in 0..PROBE_ITERS {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let u = (s >> 11) as f64 * (1.0 / (1u64 << 53) as f64) + f64::MIN_POSITIVE;
                acc += (-2.0 * u.ln()).sqrt() * 0.5 + acc * 1e-9;
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Timed work and the host speed around it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    seconds: f64,
    /// The time at the reference host speed.
    normalized_s: f64,
    packets: f64,
    /// Probe time around the work (time-weighted over its pieces).
    probe_ms: f64,
}

/// The timed set-ups and waves of an end-to-end run.
#[derive(Debug)]
pub struct Timings {
    /// Share of the workload's time that follows the probe (see
    /// [`crate::workloads::Workload::probe_share`]).
    share: f64,
    setups: Vec<Sample>,
    waves: Vec<Sample>,
}

/// The probe run on `cores` threads at once, for work spread over that
/// many cores: the mean of the threads' own probe times (thread start-up
/// is not timed).
fn probe_cores_ms(cores: usize) -> f64 {
    if cores == 1 {
        return host_probe_ms();
    }
    let total: f64 = std::thread::scope(|s| {
        let threads: Vec<_> = (0..cores).map(|_| s.spawn(host_probe_ms)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("probe thread does not panic"))
            .sum()
    });
    total / cores as f64
}

/// Runs `f`, which keeps `cores` cores busy, between two host probes;
/// returns its result, its wall time in seconds and the mean probe time.
pub fn bracket<R>(cores: usize, f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = probe_cores_ms(cores);
    let t = Instant::now();
    let r = f();
    let seconds = t.elapsed().as_secs_f64();
    let after = probe_cores_ms(cores);
    (r, seconds, 0.5 * (before + after))
}

impl Timings {
    /// Timings of a workload with the given probe share.
    pub fn new(share: f64) -> Self {
        Timings {
            share,
            setups: Vec::new(),
            waves: Vec::new(),
        }
    }

    /// Sums bracketed pieces `(seconds, probe_ms)` into one sample. Each
    /// piece is scaled to the reference host speed on its own: the
    /// probe-following share scales with the probe, the rest does not.
    fn sample(share: f64, pieces: &[(f64, f64)], packets: f64) -> Sample {
        let seconds: f64 = pieces.iter().map(|p| p.0).sum();
        Sample {
            seconds,
            normalized_s: pieces
                .iter()
                .map(|&(s, probe)| s / (share * probe / PROBE_REF_MS + 1.0 - share))
                .sum(),
            packets,
            probe_ms: pieces.iter().map(|&(s, probe)| s * probe).sum::<f64>() / seconds,
        }
    }

    /// Records one set-up, bracketed as a whole. Set-up (parsing, filter
    /// design, allocation) is compute work on every workload, so it is
    /// scaled with a share of 1.
    pub fn setup(&mut self, seconds: f64, probe_ms: f64) {
        self.setups
            .push(Self::sample(1.0, &[(seconds, probe_ms)], 0.0));
    }

    /// Records one timed wave of `packets` packets, made of bracketed
    /// pieces `(seconds, probe_ms)`.
    pub fn wave(&mut self, pieces: &[(f64, f64)], packets: f64) {
        self.waves.push(Self::sample(self.share, pieces, packets));
    }

    /// Waves recorded so far.
    pub fn waves(&self) -> usize {
        self.waves.len()
    }

    /// The end-to-end metrics, and the evidence behind them: the raw
    /// (unnormalised) figures, the probes, and which tail percentile was
    /// reported over how many waves.
    pub fn metrics(&self) -> (Vec<Metric>, Obj) {
        let norm_ms: Vec<f64> = self.waves.iter().map(|w| w.normalized_s * 1e3).collect();
        let raw_ms: Vec<f64> = self.waves.iter().map(|w| w.seconds * 1e3).collect();
        let rate = |ms: &[f64]| {
            let r: Vec<f64> = ms
                .iter()
                .zip(&self.waves)
                .map(|(m, w)| w.packets / m * 1e3)
                .collect();
            median(&r)
        };
        let setups: Vec<f64> = self.setups.iter().map(|s| s.normalized_s).collect();
        let raw_setups: Vec<f64> = self.setups.iter().map(|s| s.seconds).collect();
        let probes: Vec<f64> = self.waves.iter().map(|w| w.probe_ms).collect();
        let t = tail(&norm_ms);
        let metric = |name, unit, value| Metric { name, unit, value };
        let metrics = vec![
            metric("packets_per_s", "1/s", rate(&norm_ms)),
            metric("setup_s", "s", median(&setups)),
            metric("peak_heap_mb", "MB", heap_peak_mb()),
            metric("wave_p50_ms", "ms", median(&norm_ms)),
            metric("wave_tail_ms", "ms", t.value),
        ];
        let detail = Obj::new()
            .int("waves", self.waves.len() as u64)
            .int("wave_tail_percentile", u64::from(t.percentile))
            .int("wave_tail_beyond", t.beyond as u64)
            .num("packets_total", self.waves.iter().map(|w| w.packets).sum())
            .num("probe_ref_ms", PROBE_REF_MS)
            .num("probe_share", self.share)
            .num("probe_ms_median", median(&probes))
            .num("peak_rss_mb", peak_rss_mb())
            .num("raw.packets_per_s", rate(&raw_ms))
            .num("raw.setup_s", median(&raw_setups))
            .num("raw.wave_p50_ms", median(&raw_ms))
            .num("raw.wave_tail_ms", tail(&raw_ms).value)
            .nums("raw.wave_ms", &raw_ms)
            .nums("probe_ms", &probes);
        (metrics, detail)
    }
}

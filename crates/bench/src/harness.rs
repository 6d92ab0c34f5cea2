//! A minimal, dependency-free micro-benchmark harness.
//!
//! The workspace must build and test without network access, so the
//! Criterion dependency was replaced by this small shim exposing the
//! subset of its API the benches use: benchmark groups, throughput
//! annotation, and `Bencher::iter`. Timing is wall-clock with batch
//! calibration (each sample runs enough iterations to cover ~10 ms) and
//! the median over `sample_size` samples is reported.
//!
//! Output format (one line per benchmark):
//!
//! ```text
//! fft/forward_64                     612 ns/iter      104.6 Melem/s
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Work per iteration, used to derive a rate from the timing.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Samples (or other elements) processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Top-level harness handed to every bench function.
#[derive(Debug)]
pub struct Harness {
    default_sample_size: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            default_sample_size: 20,
        }
    }
}

impl Harness {
    /// Creates a harness; `WLANSIM_BENCH_SAMPLES` overrides the default
    /// sample count (20).
    pub fn from_env() -> Self {
        let default_sample_size = std::env::var("WLANSIM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20);
        Harness {
            default_sample_size,
        }
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            sample_size: self.default_sample_size,
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Annotates subsequent benchmarks with per-iteration work.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Sets the number of timing samples (useful for slow benchmarks).
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = n.max(1);
    }

    /// Runs one benchmark, prints its timing line, and returns the
    /// median per-iteration time in seconds (so binaries like
    /// `kernel_bench` can also record it in JSON).
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> f64 {
        let mut b = Bencher {
            sample_size: self.sample_size,
            median_s: 0.0,
        };
        f(&mut b);
        let label = format!("{}/{}", self.name, id.into());
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if b.median_s > 0.0 => {
                format!("{:>12}/s", si(n as f64 / b.median_s, "elem"))
            }
            Some(Throughput::Bytes(n)) if b.median_s > 0.0 => {
                format!("{:>12}/s", si(n as f64 / b.median_s, "B"))
            }
            _ => String::new(),
        };
        println!("{label:<42} {:>14}/iter {rate}", si_time(b.median_s));
        b.median_s
    }

    /// Ends the group (kept for Criterion API parity).
    pub fn finish(self) {}
}

/// Per-benchmark timing driver.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    median_s: f64,
}

impl Bencher {
    /// Times `f`, batching iterations so each sample covers ~10 ms, and
    /// records the median per-iteration time over the samples.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Calibrate the batch size on untimed warmup runs.
        let mut batch = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            if t0.elapsed() >= Duration::from_millis(10) || batch >= 1 << 20 {
                break;
            }
            batch *= 4;
        }
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(t0.elapsed().as_secs_f64() / batch as f64);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        self.median_s = samples[samples.len() / 2];
    }
}

/// Prints a sweep's per-point wall-clock in the harness line format,
/// followed by a total. This is where `SweepPoint::elapsed` lands
/// instead of being dropped on the floor.
///
/// ```text
/// ip3_sweep/point[-40]                        1.23 s/point
/// ip3_sweep/total (9 points)                  9.87 s
/// ```
pub fn report_point_timing(group: &str, points: &[(String, Duration)]) {
    let mut total = Duration::ZERO;
    for (label, elapsed) in points {
        let line = format!("{group}/point[{label}]");
        println!("{line:<42} {:>14}/point", si_time(elapsed.as_secs_f64()));
        total += *elapsed;
    }
    let line = format!("{group}/total ({} points)", points.len());
    println!("{line:<42} {:>14}", si_time(total.as_secs_f64()));
}

fn si(value: f64, unit: &str) -> String {
    let (scaled, prefix) = if value >= 1e9 {
        (value / 1e9, "G")
    } else if value >= 1e6 {
        (value / 1e6, "M")
    } else if value >= 1e3 {
        (value / 1e3, "k")
    } else {
        (value, "")
    };
    format!("{scaled:.1} {prefix}{unit}")
}

fn si_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.2} µs", seconds * 1e6)
    } else {
        format!("{:.0} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_reports_positive_median() {
        let mut h = Harness {
            default_sample_size: 3,
        };
        let mut g = h.benchmark_group("selftest");
        g.throughput(Throughput::Elements(64));
        let mut ran = 0u64;
        g.bench_function("noop", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box(ran)
            })
        });
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn point_timing_totals() {
        // Smoke: must not panic, and formatting must accept any label.
        report_point_timing(
            "selftest",
            &[
                ("-40".to_string(), Duration::from_millis(3)),
                ("0".to_string(), Duration::from_millis(5)),
            ],
        );
    }

    #[test]
    fn si_formatting() {
        assert_eq!(si(1.5e6, "elem"), "1.5 Melem");
        assert_eq!(si(500.0, "B"), "500.0 B");
        assert_eq!(si_time(2.5e-6), "2.50 µs");
        assert_eq!(si_time(0.0015), "1.50 ms");
    }
}

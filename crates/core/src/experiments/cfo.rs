//! Carrier-frequency-offset tolerance: BER vs CFO for the blind
//! receiver. 802.11a allows ±20 ppm per side (±208 kHz at 5.2 GHz);
//! the short-preamble estimator unambiguously covers
//! `±fs/(2·16) = ±625 kHz`, so the link must hold to ±208 kHz with
//! margin and collapse past the estimator range.

use crate::experiments::{Effort, Engine, Experiment, PointStat, RunContext, RunOutput};
use crate::report::{bar, format_ber, Table};
use wlan_channel::awgn::Awgn;
use wlan_dataflow::sweep::Sweep;
use wlan_dsp::{Complex, Rng};
use wlan_meas::BerMeter;
use wlan_phy::params::SAMPLE_RATE;
use wlan_phy::{Rate, Receiver, Transmitter};

/// One sweep row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfoPoint {
    /// Applied carrier offset (Hz).
    pub cfo_hz: f64,
    /// Measured BER.
    pub ber: f64,
    /// Mean absolute CFO estimation error over decoded packets (Hz).
    pub est_err_hz: f64,
    /// Bits counted.
    pub bits: u64,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct CfoResult {
    /// Rate used.
    pub rate: Rate,
    /// Points in ascending offset.
    pub points: Vec<CfoPoint>,
}

impl CfoResult {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("n_points".to_string(), self.points.len() as f64),
            ("rate_mbps".to_string(), self.rate.mbps() as f64),
        ];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].cfo_khz"), p.cfo_hz / 1e3));
            out.push((format!("points[{i:02}].ber"), p.ber));
            out.push((format!("points[{i:02}].bits"), p.bits as f64));
        }
        out
    }

    /// Renders the sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "BER vs carrier frequency offset ({}); 802.11a spec ±208 kHz",
                self.rate
            ),
            &["CFO [kHz]", "BER", "est err [kHz]", "plot"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0}", p.cfo_hz / 1e3),
                format_ber(p.ber, p.bits),
                format!("{:.1}", p.est_err_hz / 1e3),
                bar(p.ber, 0.5, 30),
            ]);
        }
        t
    }

    /// The largest offset still decoding below `threshold` BER.
    pub fn tolerance_hz(&self, threshold: f64) -> Option<f64> {
        self.points
            .iter()
            .rev()
            .find(|p| p.ber < threshold)
            .map(|p| p.cfo_hz)
    }
}

/// Registry entry: the CFO-tolerance sweep for the blind receiver.
#[derive(Debug, Clone, Copy)]
pub struct CfoSweep {
    /// Data rate.
    pub rate: Rate,
    /// Largest offset applied.
    pub max_hz: wlan_units::Hz,
    /// Point count.
    pub points: usize,
}

impl CfoSweep {
    /// The default sweep: 24 Mbit/s, 0…800 kHz, 9 points.
    pub const DEFAULT: CfoSweep = CfoSweep {
        rate: Rate::R24,
        max_hz: wlan_units::Hz(800e3),
        points: 9,
    };
}

impl Default for CfoSweep {
    fn default() -> Self {
        CfoSweep::DEFAULT
    }
}

impl Experiment for CfoSweep {
    fn name(&self) -> &'static str {
        "cfo"
    }

    fn paper_ref(&self) -> &'static str {
        "§4 (receiver sync)"
    }

    fn describe(&self) -> &'static str {
        "BER vs carrier frequency offset; spec is +/-208 kHz"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let r = run(
            ctx.effort,
            self.rate,
            self.max_hz.0,
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
                    label: format!("{:.0}kHz", p.cfo_hz / 1e3),
                    elapsed: None,
                    bits: Some(p.bits),
                })
                .collect(),
            ..RunOutput::default()
        };
        if let Some(tol) = r.tolerance_hz(0.01) {
            out.notes.push(format!(
                "tolerated offset at BER<1e-2: {:.0} kHz",
                tol / 1e3
            ));
        }
        out
    }
}

/// Measures one offset: the point computation is a pure function of
/// `(effort, rate, cfo, seed)` — every RNG stream is seeded inside —
/// so the result does not depend on the engine it runs on.
fn measure_point(
    effort: Effort,
    rate: Rate,
    rx: &Receiver,
    cfo: f64,
    seed: u64,
) -> (f64, f64, u64) {
    let mut rng = Rng::new(seed);
    let mut noise = Awgn::new(seed ^ 0xC0FE);
    let mut meter = BerMeter::new();
    let mut err_acc = 0.0;
    let mut decoded = 0usize;
    for _ in 0..effort.packets {
        let mut psdu = vec![0u8; effort.psdu_len];
        rng.bytes(&mut psdu);
        let burst = Transmitter::new(rate).transmit(&psdu);
        let w = 2.0 * std::f64::consts::PI * cfo / SAMPLE_RATE;
        let shifted: Vec<Complex> = burst
            .samples
            .iter()
            .enumerate()
            .map(|(n, &s)| s * Complex::cis(w * n as f64))
            .collect();
        let noisy = noise.add_noise_power(&shifted, 0.01);
        match rx.receive(&noisy) {
            Ok(got) if got.psdu.len() == psdu.len() => {
                meter.update_bytes(&psdu, &got.psdu);
                err_acc += (got.cfo_hz - cfo).abs();
                decoded += 1;
            }
            _ => meter.update_lost_packet(8 * effort.psdu_len),
        }
    }
    (
        meter.ber(),
        if decoded > 0 {
            err_acc / decoded as f64
        } else {
            f64::NAN
        },
        meter.bits(),
    )
}

/// Runs the sweep at 20 dB SNR with offsets from 0 to `max_hz`, fanned
/// out across the engine's pool. Each point seeds its own RNG streams,
/// so the result is bit-identical for any engine and thread count.
pub fn run(
    effort: Effort,
    rate: Rate,
    max_hz: f64,
    points: usize,
    seed: u64,
    engine: &Engine,
) -> CfoResult {
    let rx = Receiver::new();
    let sweep = Sweep::linspace(0.0, max_hz, points.max(2));
    let rows = sweep.run_parallel_indexed(&engine.pool, |_i, &cfo| {
        measure_point(effort, rate, &rx, cfo, seed)
    });
    collect(rate, rows)
}

fn collect(
    rate: Rate,
    rows: Vec<wlan_dataflow::sweep::SweepPoint<f64, (f64, f64, u64)>>,
) -> CfoResult {
    CfoResult {
        rate,
        points: rows
            .into_iter()
            .map(|p| CfoPoint {
                cfo_hz: p.param,
                ber: p.result.0,
                est_err_hz: p.result.1,
                bits: p.result.2,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_offset_tolerated_estimator_range_limits() {
        let effort = Effort {
            packets: 3,
            psdu_len: 60,
        };
        let r = run(effort, Rate::R12, 900e3, 4, 21, &Engine::reference());
        // 0 and 300 kHz: clean. 900 kHz: beyond the ±625 kHz estimator
        // range → fails.
        assert_eq!(r.points[0].ber, 0.0, "zero offset");
        assert_eq!(r.points[1].ber, 0.0, "300 kHz (spec is 208 kHz)");
        assert!(
            r.points[3].ber > 0.1,
            "900 kHz should break sync: {}",
            r.points[3].ber
        );
        let tol = r.tolerance_hz(0.01).expect("some tolerance");
        assert!(tol >= 300e3, "tolerance {tol}");
    }

    #[test]
    fn estimation_error_small_in_range() {
        let effort = Effort {
            packets: 2,
            psdu_len: 60,
        };
        let r = run(effort, Rate::R24, 200e3, 2, 22, &Engine::reference());
        for p in &r.points {
            assert!(
                p.est_err_hz < 5e3,
                "CFO {} est err {}",
                p.cfo_hz,
                p.est_err_hz
            );
        }
        assert!(r.table().render().contains("frequency offset"));
    }

    #[test]
    fn parallel_sweep_matches_serial_and_is_thread_invariant() {
        let effort = Effort {
            packets: 2,
            psdu_len: 60,
        };
        let serial = run(effort, Rate::R12, 400e3, 3, 23, &Engine::reference());
        for threads in [1, 2, 4] {
            let par = run(
                effort,
                Rate::R12,
                400e3,
                3,
                23,
                &Engine::with_threads(threads),
            );
            assert_eq!(serial.points, par.points, "{threads} threads");
        }
    }
}

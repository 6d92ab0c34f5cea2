//! §5.2 — EVM measurement: "an EVM measurement was only performed while
//! simulating a WLAN system which includes an ideal receiver model".
//!
//! We use the genie-timed receiver (known timing, no CFO) so the EVM
//! isolates the channel/impairment, and sweep the SNR; theory predicts
//! `EVM(dB) ≈ −SNR(dB)`.

use crate::experiments::{Experiment, PointStat, RunContext, RunOutput};
use crate::report::Table;
use wlan_dsp::{Complex, Rng};
use wlan_meas::evm::evm_from_snr_db;
use wlan_phy::{Rate, Receiver, Transmitter};

/// One EVM measurement row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvmPoint {
    /// SNR in dB.
    pub snr_db: f64,
    /// Measured RMS EVM in dB.
    pub evm_db: f64,
    /// Theoretical EVM (−SNR) in dB.
    pub theory_db: f64,
    /// Whether the packet still decoded without bit errors.
    pub error_free: bool,
}

/// Sweep result.
#[derive(Debug, Clone)]
pub struct EvmResult {
    /// Rate used.
    pub rate: Rate,
    /// Points in ascending SNR.
    pub points: Vec<EvmPoint>,
}

impl EvmResult {
    /// Flattens the sweep into named scalar fields for the golden-file
    /// harness (`wlan-conformance`).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("n_points".to_string(), self.points.len() as f64),
            ("rate_mbps".to_string(), self.rate.mbps() as f64),
        ];
        for (i, p) in self.points.iter().enumerate() {
            out.push((format!("points[{i:02}].snr_db"), p.snr_db));
            out.push((format!("points[{i:02}].evm_db"), p.evm_db));
            out.push((format!("points[{i:02}].theory_db"), p.theory_db));
            out.push((
                format!("points[{i:02}].error_free"),
                if p.error_free { 1.0 } else { 0.0 },
            ));
        }
        out
    }

    /// Renders the sweep.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("EVM vs SNR, ideal (genie-timed) receiver, {}", self.rate),
            &["SNR [dB]", "EVM [dB]", "theory [dB]", "error-free"],
        );
        for p in &self.points {
            t.push_row(vec![
                format!("{:.0}", p.snr_db),
                format!("{:.1}", p.evm_db),
                format!("{:.1}", p.theory_db),
                if p.error_free { "yes" } else { "no" }.to_string(),
            ]);
        }
        t
    }
}

/// Registry entry: EVM vs SNR at one or more rates (genie-timed
/// receiver; §5.2). The EVM measurement is deterministic per seed and
/// cheap — one packet per SNR point, on one RNG stream threaded across
/// the points — so it ignores the effort's packet budget and the
/// engine, and uses its own PSDU length.
#[derive(Debug, Clone, Copy)]
pub struct EvmSweep {
    /// Rates to measure.
    pub rates: &'static [Rate],
    /// SNR grid (dB).
    pub snrs_db: &'static [f64],
    /// PSDU length in bytes.
    pub psdu_len: usize,
}

impl EvmSweep {
    /// The default sweep: 12 and 54 Mbit/s over 10…35 dB.
    pub const DEFAULT: EvmSweep = EvmSweep {
        rates: &[Rate::R12, Rate::R54],
        snrs_db: &[10.0, 15.0, 20.0, 25.0, 30.0, 35.0],
        psdu_len: 300,
    };
}

impl Default for EvmSweep {
    fn default() -> Self {
        EvmSweep::DEFAULT
    }
}

impl Experiment for EvmSweep {
    fn name(&self) -> &'static str {
        "evm"
    }

    fn paper_ref(&self) -> &'static str {
        "§5.2"
    }

    fn describe(&self) -> &'static str {
        "EVM vs SNR with the ideal (genie-timed) receiver"
    }

    fn run(&self, ctx: &RunContext) -> RunOutput {
        let mut out = RunOutput::default();
        let multi = self.rates.len() > 1;
        for &rate in self.rates {
            let r = run(rate, self.snrs_db, self.psdu_len, ctx.seed);
            // Single-rate instances keep the legacy plain snapshot keys
            // (the pinned goldens depend on them); multi-rate runs
            // prefix each key with the rate so keys stay unique.
            for (key, v) in r.snapshot() {
                let key = if multi {
                    format!("r{}.{key}", rate.mbps())
                } else {
                    key
                };
                out.snapshot.push((key, v));
            }
            out.points.extend(r.points.iter().map(|p| PointStat {
                label: format!("{} snr={:.0}", rate, p.snr_db),
                elapsed: None,
                bits: None,
            }));
            out.tables.push(r.table());
        }
        out
    }
}

/// Measures one SNR point with the RNG stream handed in; the sweep
/// threads a single stream across all points (the pinned-golden
/// ordering).
fn measure_point(rate: Rate, rx: &Receiver, snr: f64, psdu_len: usize, rng: &mut Rng) -> EvmPoint {
    let mut psdu = vec![0u8; psdu_len];
    rng.bytes(&mut psdu);
    let burst = Transmitter::new(rate).transmit(&psdu);
    let nv = wlan_dsp::math::db_to_lin(-snr);
    let noisy: Vec<Complex> = burst
        .samples
        .iter()
        .map(|&s| s + rng.complex_gaussian(nv))
        .collect();
    match rx.receive_with_timing(&noisy, 192, 0.0) {
        Ok(got) => EvmPoint {
            snr_db: snr,
            evm_db: got.evm_db(),
            theory_db: wlan_dsp::math::amp_to_db(evm_from_snr_db(snr)),
            error_free: got.psdu == psdu,
        },
        Err(_) => EvmPoint {
            snr_db: snr,
            evm_db: 0.0,
            theory_db: wlan_dsp::math::amp_to_db(evm_from_snr_db(snr)),
            error_free: false,
        },
    }
}

/// Measures EVM at each SNR with known timing (LTF at index 192 of the
/// un-padded burst) and no frequency offset.
pub fn run(rate: Rate, snrs_db: &[f64], psdu_len: usize, seed: u64) -> EvmResult {
    let mut rng = Rng::new(seed);
    let rx = Receiver::new();
    let points = snrs_db
        .iter()
        .map(|&snr| measure_point(rate, &rx, snr, psdu_len, &mut rng))
        .collect();
    EvmResult { rate, points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{execute, Effort, Engine};

    #[test]
    fn evm_tracks_snr_theory() {
        let r = run(Rate::R12, &[15.0, 25.0, 35.0], 150, 1);
        for p in &r.points {
            // Channel-estimation noise adds ~1 dB; allow 2.5 dB slack.
            assert!(
                (p.evm_db - p.theory_db).abs() < 2.5,
                "SNR {}: EVM {} vs theory {}",
                p.snr_db,
                p.evm_db,
                p.theory_db
            );
        }
        // Monotone improvement.
        assert!(r.points[0].evm_db > r.points[2].evm_db);
    }

    #[test]
    fn high_snr_decodes_error_free() {
        let r = run(Rate::R24, &[30.0], 100, 2);
        assert!(r.points[0].error_free);
        assert!(r.table().render().contains("EVM"));
    }

    #[test]
    fn parallel_sweep_is_thread_invariant() {
        // The registry path runs the one-stream sweep whatever engine
        // the context carries.
        const EXP: EvmSweep = EvmSweep {
            rates: &[Rate::R12],
            snrs_db: &[15.0, 30.0],
            psdu_len: 80,
        };
        let want = run(Rate::R12, EXP.snrs_db, 80, 5).snapshot();
        for engine in [
            Engine::reference(),
            Engine::with_threads(2),
            Engine::with_threads(4),
        ] {
            let mut ctx = RunContext::serial_reference(Effort::quick(), 5);
            ctx.engine = engine;
            assert_eq!(execute(&EXP, &mut ctx).snapshot, want);
        }
    }
}

//! Statistical acceptance gates for the RF noise generators.
//!
//! The flicker (1/f) source runs at reduced rates: each octave section
//! steps on its own power-of-two period with the exact decimated AR(1)
//! transition, and its output is held in between. The LO phasor is
//! built a block at a time from one `cis` and a polynomial rotor. The
//! flicker change alters its random stream, so bit-level goldens
//! cannot vouch for the model. These gates pin what the model must
//! keep instead:
//!
//! * the 1/f slope and the integrated flicker power (closed form),
//! * the hold images: nothing above `fs/8` within 10 dB of the mixer's
//!   own thermal floor,
//! * the Wiener increment variance `L·σ²` at, below and above the
//!   block length, and an exactly unit-modulus LO,
//! * the NF / IIP3 / P1dB readings of the default front end, and
//! * Fig 6, NF-sweep and IP3-sweep BER points at ≥10⁵ bits, each inside
//!   the z = 3.29 Wilson band of the counts the per-sample generators
//!   gave on the same configuration and seed.
//!
//! The flicker model depends only on `f/fs`, so its spectral gates run
//! at scaled rates where the lowest octaves are cheap to resolve.

use wlan_dsp::spectrum::welch_psd;
use wlan_dsp::{Complex, Rng};
use wlan_meas::analytic::wilson_interval;
use wlan_meas::compression::measure_p1db;
use wlan_meas::noisefigure::measure_noise_figure;
use wlan_meas::twotone::measure_iip3;
use wlan_phy::Rate;
use wlan_rf::noise::FlickerNoise;
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_rf::phase_noise::PhaseNoise;
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig};
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};
use wlan_units::{Db, Dbm};

/// Octave sections of the flicker model (its construction: poles at
/// `corner/2^k`, unit-DC-gain sections amplitude-weighted by `2^{k/2}`).
const FLICKER_SECTIONS: usize = 11;

/// `(pole, per-dimension stationary variance)` of each flicker
/// section for unit white drive, from the model's definition.
fn flicker_sections(corner_hz: f64, fs: f64) -> Vec<(f64, f64)> {
    (0..FLICKER_SECTIONS)
        .map(|k| {
            let f = corner_hz / f64::powi(2.0, k as i32);
            let pole = (-2.0 * std::f64::consts::PI * f / fs).exp();
            let gain = (1.0 - pole) * std::f64::consts::SQRT_2.powi(k as i32);
            (pole, gain * gain / (1.0 - pole * pole))
        })
        .collect()
}

/// Streams `n` flicker samples (after a burn-in of ten slowest-section
/// time constants, so the zero start has decayed) in frame-sized
/// chunks through `sink`.
fn stream_flicker(
    f: &mut FlickerNoise,
    corner_hz: f64,
    fs: f64,
    n: usize,
    mut sink: impl FnMut(&[Complex]),
) {
    let slowest = corner_hz / f64::powi(2.0, FLICKER_SECTIONS as i32 - 1);
    let burn_in = (10.0 * fs / (2.0 * std::f64::consts::PI * slowest)) as usize;
    let mut buf = vec![Complex::ZERO; 4096];
    let mut left = burn_in;
    while left > 0 {
        let m = left.min(buf.len());
        f.add_scaled_to(&mut buf[..m], 1.0);
        left -= m;
    }
    let mut left = n;
    while left > 0 {
        let m = left.min(buf.len());
        buf[..m].fill(Complex::ZERO);
        f.add_scaled_to(&mut buf[..m], 1.0);
        sink(&buf[..m]);
        left -= m;
    }
}

/// Mean PSD over `f0·(1 ± 20 %)`, positive and negative frequencies.
fn density_at(freqs: &[f64], psd: &[f64], f0: f64) -> f64 {
    let (sum, n) = freqs
        .iter()
        .zip(psd)
        .filter(|(f, _)| (f.abs() - f0).abs() <= 0.2 * f0)
        .fold((0.0, 0usize), |(s, n), (_, p)| (s + p, n + 1));
    assert!(n > 0, "no bins near {f0} Hz");
    sum / n as f64
}

/// The 1/f staircase falls 10 dB per decade between `corner/2^9` and
/// `corner/2` (least-squares slope over the nine octave points).
#[test]
fn flicker_psd_slope_is_ten_db_per_decade() {
    let (fs, corner) = (64e6, 1e6);
    let nfft = 1 << 18;
    let segments = 16;
    let mut f = FlickerNoise::new(1e-6, corner, fs, Rng::new(11));
    let mut x = Vec::with_capacity(segments * nfft / 2 + nfft);
    stream_flicker(&mut f, corner, fs, segments * nfft / 2 + nfft / 2, |c| {
        x.extend_from_slice(c)
    });
    let (freqs, psd) = welch_psd(&x, nfft, fs);
    let pts: Vec<(f64, f64)> = (1..=9)
        .map(|j| {
            let f0 = corner / f64::powi(2.0, j);
            (f0.log10(), Db::from_linear(density_at(&freqs, &psd, f0)).0)
        })
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let slope = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>()
        / pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    assert!(
        (slope + 10.0).abs() <= 1.5,
        "flicker slope {slope:.2} dB/decade, want -10 ± 1.5 (points {pts:?})"
    );
}

/// Mean `|x|²` of the stationary flicker output is within ±5 % of the
/// closed form `Σ var_k · white_gain² · 2`.
#[test]
fn flicker_integrated_power_matches_closed_form() {
    let (fs, corner, floor) = (64e6, 1e6, 2e-9);
    let white_gain_sq = floor / 2.0;
    let expect: f64 = flicker_sections(corner, fs)
        .iter()
        .map(|&(_, var)| var * white_gain_sq * 2.0)
        .sum();
    let n = 1usize << 22;
    let mut f = FlickerNoise::new(floor, corner, fs, Rng::new(12));
    let mut acc = 0.0;
    stream_flicker(&mut f, corner, fs, n, |c| {
        acc += c.iter().map(|v| v.norm_sqr()).sum::<f64>()
    });
    let got = acc / n as f64;
    assert!(
        (got / expect - 1.0).abs() <= 0.05,
        "flicker power {got:.4e} vs closed form {expect:.4e} (ratio {:.4})",
        got / expect
    );
}

/// At the default mixer-2 operating point (100 kHz corner at 80 Msps,
/// where the slowest sections hold for thousands of samples) the
/// flicker PSD anywhere in `[fs/8, fs/2]` stays at least 10 dB under
/// the mixer's own thermal floor density `floor/fs`.
#[test]
fn flicker_hold_images_stay_under_thermal_floor() {
    let (fs, corner, floor) = (80e6, 100e3, 1e-9);
    let nfft = 1024;
    let mut f = FlickerNoise::new(floor, corner, fs, Rng::new(13));
    // No burn-in needed: the images come from the section steps, which
    // start at full size.
    let mut x = vec![Complex::ZERO; 1 << 20];
    f.add_scaled_to(&mut x, 1.0);
    let (freqs, psd) = welch_psd(&x, nfft, fs);
    let worst = freqs
        .iter()
        .zip(&psd)
        .filter(|(fr, _)| fr.abs() >= fs / 8.0)
        .map(|(_, p)| *p)
        .fold(0.0, f64::max);
    let margin_db = Db::from_linear(floor / fs / worst).0;
    assert!(
        margin_db >= 10.0,
        "flicker image floor only {margin_db:.1} dB under the thermal floor"
    );
}

/// Unwrapped LO phase of a constant input after the phase-noise stage.
fn lo_phase(pn: &mut PhaseNoise, n: usize) -> Vec<f64> {
    let mut y = vec![Complex::ONE; n];
    pn.process_in_place(&mut y);
    let mut out = Vec::with_capacity(n);
    let mut prev = 0.0;
    let mut unwrapped = 0.0;
    for v in &y {
        assert!(
            (v.abs() - 1.0).abs() <= 1e-12,
            "LO changed the magnitude: |y| = {}",
            v.abs()
        );
        let a = v.arg();
        let mut d = a - prev;
        d -= (d / std::f64::consts::TAU).round() * std::f64::consts::TAU;
        unwrapped += d;
        prev = a;
        out.push(unwrapped);
    }
    out
}

/// The Wiener walk's increments over `L` samples have variance `L·σ²`
/// (±5 %) for `L` = 1, one block and eight blocks, and the LO keeps
/// `|y| = |x|` to 1e-12.
#[test]
fn phase_noise_increment_variance_is_l_sigma_squared() {
    let (fs, linewidth) = (80e6, 20e3);
    let sigma_sq = 2.0 * std::f64::consts::PI * linewidth / fs;
    let m = PhaseNoise::BLOCK;
    let mut pn = PhaseNoise::new(linewidth, fs, Rng::new(21));
    let phase = lo_phase(&mut pn, 1 << 21);
    for lag in [1, m, 8 * m] {
        let incs: Vec<f64> = phase.windows(lag + 1).map(|w| w[lag] - w[0]).collect();
        let mean = incs.iter().sum::<f64>() / incs.len() as f64;
        let var = incs.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / incs.len() as f64;
        let want = lag as f64 * sigma_sq;
        assert!(
            (var / want - 1.0).abs() <= 0.05,
            "lag {lag}: increment variance {var:.4e} vs L·σ² {want:.4e}"
        );
    }
    // Arbitrary-magnitude input: the LO is a pure rotation.
    let mut rng = Rng::new(22);
    let x: Vec<Complex> = (0..4096).map(|_| rng.complex_gaussian(3.0)).collect();
    let mut y = x.clone();
    pn.process_in_place(&mut y);
    for (a, b) in x.iter().zip(&y) {
        assert!((a.abs() - b.abs()).abs() <= 1e-12 * a.abs().max(1.0));
    }
}

/// The default front end as a measurement device: the 80 Msps
/// mixer-2 output (where the flicker and LO noise land), minus its
/// frame mean — the instrument's DC block, since the deterministic
/// −45 dBm self-mixing offset would otherwise swamp the noise reading.
fn default_front_end(seed: u64) -> impl FnMut(&[Complex]) -> Vec<Complex> {
    let mut rx = DoubleConversionReceiver::new(RfConfig::default(), seed);
    move |x: &[Complex]| {
        let mut y = rx.process_traced(x).mixer2;
        let mean = y.iter().fold(Complex::ZERO, |a, &v| a + v) / y.len() as f64;
        for v in &mut y {
            *v -= mean;
        }
        y
    }
}

/// Seeds per reading ensemble.
const READING_SEEDS: u64 = 16;

/// `(mean, sample standard deviation)`.
fn mean_sd(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    let m = v.iter().sum::<f64>() / n;
    (
        m,
        (v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1.0)).sqrt(),
    )
}

/// NF (−85 dBm tone, 4000 samples), IIP3 (two −15 dBm tones, 4000
/// samples) and P1dB (−45…+5 dBm, 4000 samples per step) readings of
/// the default front end over [`READING_SEEDS`] seeds. At 200 Hz LO
/// linewidth on both mixers the tones' phase wander is a large part of
/// what these instruments read as noise and IM3, so single readings
/// scatter by seed and the gate compares ensembles.
fn front_end_readings() -> [Vec<f64>; 3] {
    let fs = 80e6;
    let mut out: [Vec<f64>; 3] = Default::default();
    for s in 0..READING_SEEDS {
        let nf = measure_noise_figure(
            &mut default_front_end(100 + s),
            1e6,
            Dbm(-85.0),
            fs,
            4000,
            200 + s,
        );
        let ip3 = measure_iip3(
            &mut default_front_end(300 + s),
            1e6,
            1.37e6,
            Dbm(-15.0),
            fs,
            4000,
        );
        let p1 = measure_p1db(
            &mut default_front_end(400 + s),
            1e6,
            Dbm(-45.0),
            Dbm(5.0),
            Db(1.0),
            fs,
            4000,
        );
        out[0].push(nf.nf_db.0);
        out[1].push(ip3.iip3_dbm.0);
        out[2].push(
            p1.p1db_in_dbm
                .expect("the default LNA compresses below +5 dBm")
                .0,
        );
    }
    out
}

/// `(mean, standard deviation)` of the NF, IIP3 and P1dB readings over
/// the same seeds with the per-sample generators (commit 15528a5).
const PARENT_READINGS: [(&str, f64, f64); 3] = [
    ("NF", 3.988160529384395, 0.342510154022355),
    ("IIP3", 6.690146659274584, 2.129924375345576),
    ("P1dB", -4.969616754988054, 0.270811434990121),
];

/// Each ensemble mean must sit within z = 3.29 (the BER gates' Wilson
/// quantile) standard errors of the difference of two independent
/// 16-seed means. The thermal streams are shared, so in practice the
/// means move far less than this bound.
#[test]
fn front_end_readings_match_the_per_sample_model() {
    let readings = front_end_readings();
    let k = READING_SEEDS as f64;
    for ((what, mean0, sd0), v) in PARENT_READINGS.iter().zip(&readings) {
        let (mean, sd) = mean_sd(v);
        let bound = 3.29 * ((sd0 * sd0 + sd * sd) / k).sqrt();
        eprintln!("{what}: mean {mean:.4} sd {sd:.4} (per-sample model {mean0:.4} sd {sd0:.4}, bound {bound:.3} dB)");
        assert!(
            (mean - mean0).abs() <= bound,
            "{what} reading mean {mean:.4} vs per-sample model {mean0:.4} (bound {bound:.3} dB)"
        );
    }
}

/// One BER gate point: a sweep configuration at ≥10⁵ bits.
struct BerPoint {
    name: &'static str,
    config: LinkConfig,
    /// `(errors, bits)` the per-sample generators gave (commit 15528a5).
    parent: (u64, u64),
}

/// 1000-byte PSDUs: 13 packets carry 104 000 bits.
const GATE_PSDU: usize = 1000;
const GATE_PACKETS: usize = 13;

fn rf_link(rate: Rate, rx_level_dbm: f64, rf: RfConfig, adjacent: bool) -> LinkConfig {
    LinkConfig {
        rate,
        psdu_len: GATE_PSDU,
        packets: GATE_PACKETS,
        seed: 41,
        rx_level_dbm,
        adjacent: adjacent.then_some(AdjacentChannel {
            rel_db: 6.0,
            ..AdjacentChannel::first()
        }),
        front_end: FrontEnd::RfBaseband(rf),
        ..LinkConfig::default()
    }
}

/// Points on the falling edges of the Fig 6 (LNA P1dB, R54 at −40 dBm,
/// ± adjacent channel), NF (LNA NF, R12 at −82 dBm) and IP3 (cubic LNA
/// IIP3, R36 at −40 dBm with adjacent channel) sweeps, where the BER is
/// neither 0 nor ½ and so sensitive to the noise model.
fn ber_points() -> Vec<BerPoint> {
    let rapp = |p1db| RfConfig {
        lna_nonlinearity: Nonlinearity::rapp(Dbm(p1db)),
        ..RfConfig::default()
    };
    let nf = |nf_db| RfConfig {
        lna_nf_db: Db(nf_db),
        ..RfConfig::default()
    };
    let cubic = |iip3| RfConfig {
        lna_nonlinearity: Nonlinearity::Cubic {
            iip3_dbm: Dbm(iip3),
        },
        ..RfConfig::default()
    };
    vec![
        BerPoint {
            name: "fig6 p1db -35 alone",
            config: rf_link(Rate::R54, -40.0, rapp(-35.0), false),
            parent: (51, 104_000),
        },
        BerPoint {
            name: "fig6 p1db -25 adjacent",
            config: rf_link(Rate::R54, -40.0, rapp(-25.0), true),
            parent: (1040, 104_000),
        },
        BerPoint {
            name: "nf 15 dB",
            config: rf_link(Rate::R12, -82.0, nf(15.0), false),
            parent: (2098, 104_000),
        },
        BerPoint {
            name: "ip3 -25 dBm",
            config: rf_link(Rate::R36, -40.0, cubic(-25.0), true),
            parent: (5461, 104_000),
        },
    ]
}

#[test]
fn sweep_ber_points_stay_in_the_per_sample_wilson_band() {
    for p in ber_points() {
        let report = LinkSimulation::new(p.config).run();
        let (errors, bits) = (report.meter.errors(), report.meter.bits());
        eprintln!("{}: {errors} errors / {bits} bits", p.name);
        assert!(bits >= 100_000, "{}: only {bits} bits", p.name);
        let (lo, hi) = wilson_interval(p.parent.0, p.parent.1, 3.29);
        let ber = report.ber();
        assert!(
            ber >= lo && ber <= hi,
            "{}: BER {ber:.3e} ({errors}/{bits}) outside the per-sample band [{lo:.3e}, {hi:.3e}] \
             ({}/{})",
            p.name,
            p.parent.0,
            p.parent.1
        );
    }
}

//! Noise sources: thermal (white) noise from a noise figure, and flicker
//! (1/f) noise for the direct-conversion second mixer stage.

use wlan_dsp::math::{BOLTZMANN, T0_KELVIN};
use wlan_dsp::{Complex, Rng};
use wlan_units::Db;

/// Input-referred added thermal noise of a stage with noise figure
/// `nf_db` at sample rate `fs` (full complex-envelope bandwidth), in the
/// `mean(|x|²)` convention: `2·kT₀·fs·(F − 1)`.
pub fn added_noise_power(nf_db: Db, sample_rate_hz: f64) -> f64 {
    2.0 * BOLTZMANN * T0_KELVIN * sample_rate_hz * (nf_db.to_linear() - 1.0)
}

/// Source (antenna) noise floor `2·kT₀·fs`.
pub fn source_noise_power(sample_rate_hz: f64) -> f64 {
    2.0 * BOLTZMANN * T0_KELVIN * sample_rate_hz
}

/// White thermal noise source.
#[derive(Debug, Clone)]
pub struct ThermalNoise {
    power: f64,
    rng: Rng,
}

impl ThermalNoise {
    /// Creates a source emitting complex noise of total power `power`
    /// (`mean(|x|²)` convention) per sample.
    pub fn new(power: f64, rng: Rng) -> Self {
        ThermalNoise { power, rng }
    }

    /// Creates the input-referred noise of a stage with `nf_db` at `fs`.
    pub fn from_noise_figure(nf_db: Db, sample_rate_hz: f64, rng: Rng) -> Self {
        ThermalNoise::new(added_noise_power(nf_db, sample_rate_hz), rng)
    }

    /// Noise power per sample.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Next noise sample.
    #[inline]
    pub fn next_sample(&mut self) -> Complex {
        if self.power <= 0.0 {
            Complex::ZERO
        } else {
            self.rng.complex_gaussian(self.power)
        }
    }

    /// Adds one noise sample to every element of `buf` — the stage-major
    /// form of calling [`ThermalNoise::next_sample`] per sample, through
    /// the shared white-noise loop [`Rng::add_complex_gaussian`]: same
    /// draws in the same order, so the result is bit-identical.
    pub fn add_to(&mut self, buf: &mut [Complex]) {
        if self.power > 0.0 {
            self.rng.add_complex_gaussian(buf, self.power);
        }
    }
}

/// Number of octave sections in the flicker staircase.
const FLICKER_SECTIONS: usize = 11;

/// Oversampling margin every decimated flicker section keeps: section
/// `k` (pole `f_k`) steps every `M_k` samples, the largest power of two
/// with `fs/(M_k·f_k) > FLICKER_MARGIN`. Between steps the section's
/// output is held. A hold over `M` samples droops the section's
/// spectrum at `f` by `sinc²(f·M/fs) ≈ 1 − (π·f·M/fs)²/3`; at the pole
/// that is `1 − π²/(3·16²)` = −0.056 dB, less below it, while the hold
/// images above `fs/(2·M_k)` fall off as `1/f²` like the section's own
/// skirt. A section with `fs/f_k ≤ 16` steps at every sample.
const FLICKER_MARGIN: f64 = 16.0;

/// One first-order octave section of [`FlickerNoise`], stepped every
/// `period` ticks with its exact decimated AR(1) transition.
#[derive(Debug, Clone)]
struct FlickerSection {
    state: Complex,
    /// `pole^M` for the section's step of `M` samples.
    pole: f64,
    /// Per-dimension innovation `sqrt(var·(1 − pole^{2M}))`.
    sigma: f64,
    /// `period − 1`, the section steps when `tick & mask == 0`.
    mask: u64,
}

/// Flicker (1/f) noise approximated by a sum of first-order lowpass
/// filtered white sources with octave-spaced corner frequencies — the
/// standard Voss-ish synthesis, adequate for demonstrating why the
/// second conversion stage needs DC-block/highpass filtering.
///
/// Each section runs at its own rate (Voss–McCartney): section `k`
/// steps once every `M_k` samples (see `FLICKER_MARGIN`) with the
/// exact `M_k`-sample transition, pole `p^{M_k}` and innovation
/// `sqrt(var_k·(1 − p^{2M_k}))`, so its stationary variance and its
/// spectrum below `fs/(2·M_k)` are those of the per-sample recursion.
/// The output sum is held between steps. A section with `M_k = 1`
/// reproduces the per-sample recursion exactly.
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    sections: Vec<FlickerSection>,
    white_gain: f64,
    /// Samples per tick: the fastest section's period.
    base: usize,
    /// Samples left before the next tick.
    left: usize,
    tick: u64,
    /// `white_gain · Σ state`, held over the current tick.
    held: Complex,
    rng: Rng,
}

impl FlickerNoise {
    /// Creates flicker noise whose PSD equals `floor_power / fs` (the
    /// white floor density) at `corner_hz` and rises ~1/f below it.
    ///
    /// `floor_power` is in the `mean(|x|²)` convention over the full rate.
    ///
    /// # Panics
    ///
    /// Panics if `corner_hz` is not positive or not below `fs/2`.
    pub fn new(floor_power: f64, corner_hz: f64, sample_rate_hz: f64, rng: Rng) -> Self {
        assert!(
            corner_hz > 0.0 && corner_hz < sample_rate_hz / 2.0,
            "corner {corner_hz} Hz must be in (0, fs/2)"
        );
        // Octave-spaced poles from the corner downward. Section k (pole
        // at corner/2^k, unit DC gain) is amplitude-weighted by 2^{k/2}:
        // at frequency f the flat contributions of all sections with
        // poles above f sum geometrically to a density ∝ corner/f — the
        // 1/f staircase.
        let mut sections: Vec<FlickerSection> = Vec::new();
        let mut base = 1;
        let mut f = corner_hz;
        let mut weight = 1.0f64;
        for _ in 0..FLICKER_SECTIONS {
            let pole = (-2.0 * std::f64::consts::PI * f / sample_rate_hz).exp();
            let mut period = 1usize;
            while sample_rate_hz / (2.0 * period as f64 * f) > FLICKER_MARGIN {
                period *= 2;
            }
            // Section 0 has the highest pole, hence the shortest period.
            if sections.is_empty() {
                base = period;
            }
            // var·(1 − p^{2M}) with var = gain²/(1 − p²): the ratio is
            // exactly 1 for M = 1, leaving the per-sample recursion.
            let pm = pole.powi(period as i32);
            let gain = (1.0 - pole) * weight;
            sections.push(FlickerSection {
                state: Complex::ZERO,
                pole: pm,
                sigma: gain * ((1.0 - pm * pm) / (1.0 - pole * pole)).sqrt(),
                mask: (period / base) as u64 - 1,
            });
            f /= 2.0;
            weight *= std::f64::consts::SQRT_2;
            if f < 0.01 {
                break;
            }
        }
        FlickerNoise {
            sections,
            white_gain: (floor_power / 2.0).sqrt(),
            base,
            left: 0,
            tick: 0,
            held: Complex::ZERO,
            rng,
        }
    }

    /// The one stepping routine: advances every section due at this
    /// tick (in section order, two deviates each) and re-forms the held
    /// output.
    fn step(&mut self) {
        let mut acc = Complex::ZERO;
        for s in self.sections.iter_mut() {
            if self.tick & s.mask == 0 {
                let w = Complex::new(self.rng.gaussian(), self.rng.gaussian());
                s.state = s.state * s.pole + w * s.sigma;
            }
            acc += s.state;
        }
        self.tick = self.tick.wrapping_add(1);
        self.held = acc * self.white_gain;
        self.left = self.base;
    }

    /// Next flicker-noise sample.
    pub fn next_sample(&mut self) -> Complex {
        if self.left == 0 {
            self.step();
        }
        self.left -= 1;
        self.held
    }

    /// Adds `next_sample() * scale` to every element of `buf`, a held
    /// run at a time: no deviate and no branch per sample.
    pub fn add_scaled_to(&mut self, buf: &mut [Complex], scale: f64) {
        let mut rest = buf;
        while !rest.is_empty() {
            if self.left == 0 {
                self.step();
            }
            let (run, tail) = rest.split_at_mut(self.left.min(rest.len()));
            let add = self.held * scale;
            for v in run.iter_mut() {
                *v += add;
            }
            self.left -= run.len();
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::math::watts_to_dbm;
    use wlan_dsp::spectrum::welch_psd;

    #[test]
    fn added_noise_matches_nf_definition() {
        // NF 3 dB → F = 2 → added = source floor.
        let fs = 20e6;
        let added = added_noise_power(Db(3.0103), fs);
        let source = source_noise_power(fs);
        assert!((added / source - 1.0).abs() < 1e-3);
        // NF 0 dB → no added noise.
        assert!(added_noise_power(Db(0.0), fs).abs() < 1e-30);
    }

    #[test]
    fn thermal_power_statistics() {
        let mut src = ThermalNoise::new(1e-8, Rng::new(1));
        let n = 100_000;
        let p: f64 = (0..n).map(|_| src.next_sample().norm_sqr()).sum::<f64>() / n as f64;
        assert!((p / 1e-8 - 1.0).abs() < 0.03, "power ratio {}", p / 1e-8);
    }

    #[test]
    fn noise_floor_dbm_20mhz() {
        // kT₀B at 20 MHz ≈ −101 dBm.
        let p = source_noise_power(20e6);
        assert!((watts_to_dbm(p / 2.0) - (-100.98)).abs() < 0.1);
    }

    #[test]
    fn zero_power_emits_zero() {
        let mut src = ThermalNoise::new(0.0, Rng::new(2));
        assert_eq!(src.next_sample(), Complex::ZERO);
    }

    #[test]
    fn flicker_spectrum_slopes_down() {
        let fs = 1e6;
        let mut f = FlickerNoise::new(1e-6, 50e3, fs, Rng::new(3));
        let x: Vec<Complex> = (0..1 << 17).map(|_| f.next_sample()).collect();
        let (freqs, psd) = welch_psd(&x, 4096, fs);
        let density_at = |f0: f64| -> f64 {
            let mut acc = 0.0;
            let mut n = 0;
            for (fr, p) in freqs.iter().zip(psd.iter()) {
                if (fr.abs() - f0).abs() < f0 * 0.2 {
                    acc += p;
                    n += 1;
                }
            }
            acc / n as f64
        };
        let low = density_at(2e3);
        let mid = density_at(10e3);
        let high = density_at(200e3);
        assert!(low > 3.0 * mid, "no 1/f slope: {low} vs {mid}");
        assert!(mid > 2.0 * high, "corner missing: {mid} vs {high}");
    }

    /// Step period in samples of each section.
    fn periods(f: &FlickerNoise) -> Vec<usize> {
        f.sections
            .iter()
            .map(|s| f.base * (s.mask as usize + 1))
            .collect()
    }

    #[test]
    fn flicker_sections_step_at_their_own_rate() {
        // Default mixer 2: fs/corner = 800, so section k (fs/f_k =
        // 800·2^k) steps every 32·2^k samples.
        let f = FlickerNoise::new(1e-9, 100e3, 80e6, Rng::new(1));
        let want: Vec<usize> = (0..11).map(|k| 32 << k).collect();
        assert_eq!(periods(&f), want);
        // Near Nyquist (fs/corner = 4) the fast sections keep stepping
        // every sample: a 2-sample step needs fs/f_k = 4·2^k > 32, so
        // k ≥ 4.
        let f = FlickerNoise::new(1e-9, 1e6, 4e6, Rng::new(1));
        assert_eq!(&periods(&f)[..6], &[1, 1, 1, 1, 2, 4]);
        for (k, p) in periods(&f).iter().enumerate() {
            let fk = 1e6 / f64::powi(2.0, k as i32);
            assert!(*p == 1 || 4e6 / (*p as f64 * fk) > FLICKER_MARGIN);
            assert!(4e6 / (2.0 * *p as f64 * fk) <= FLICKER_MARGIN);
        }
    }

    #[test]
    fn decimated_transition_keeps_each_section_variance() {
        let (fs, corner) = (80e6, 100e3);
        let f = FlickerNoise::new(1e-9, corner, fs, Rng::new(1));
        for (k, s) in f.sections.iter().enumerate() {
            let p = (-2.0 * std::f64::consts::PI * corner / f64::powi(2.0, k as i32) / fs).exp();
            let gain = (1.0 - p) * std::f64::consts::SQRT_2.powi(k as i32);
            let var = gain * gain / (1.0 - p * p);
            let decimated = s.sigma * s.sigma / (1.0 - s.pole * s.pole);
            assert!(
                (decimated / var - 1.0).abs() < 1e-9,
                "section {k}: {decimated} vs {var}"
            );
        }
        // A per-sample section is the original recursion, bit for bit.
        let f = FlickerNoise::new(1e-9, 1e6, 4e6, Rng::new(1));
        let p = (-2.0 * std::f64::consts::PI * 1e6 / 4e6).exp();
        assert_eq!(f.sections[0].pole.to_bits(), p.to_bits());
        assert_eq!(f.sections[0].sigma.to_bits(), (1.0 - p).to_bits());
    }

    #[test]
    fn flicker_next_sample_matches_add_scaled_to_across_ragged_frames() {
        let mut a = FlickerNoise::new(1e-9, 100e3, 80e6, Rng::new(5));
        let mut b = a.clone();
        for len in [31usize, 1, 64, 2000, 5] {
            let mut got = vec![Complex::ZERO; len];
            a.add_scaled_to(&mut got, 2.0);
            for g in &got {
                let w = Complex::ZERO + b.next_sample() * 2.0;
                assert_eq!(
                    (g.re.to_bits(), g.im.to_bits()),
                    (w.re.to_bits(), w.im.to_bits())
                );
            }
        }
    }

    #[test]
    fn flicker_output_is_held_between_ticks() {
        let mut f = FlickerNoise::new(1e-9, 100e3, 80e6, Rng::new(6));
        let x: Vec<Complex> = (0..128).map(|_| f.next_sample()).collect();
        for run in x.chunks(32) {
            assert!(run.iter().all(|&v| v == run[0]));
        }
        assert_ne!(x[0], x[32]);
    }

    #[test]
    #[should_panic]
    fn flicker_bad_corner_panics() {
        let _ = FlickerNoise::new(1e-6, 1e6, 1e6, Rng::new(4));
    }
}

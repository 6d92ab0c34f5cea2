//! Integer-factor resampling with polyphase anti-alias/anti-image FIR
//! filtering.
//!
//! The paper's system testbench runs the DSP PHY at 20 Msps and the RF
//! subsystem at an oversampled rate so the +20 MHz adjacent channel is
//! representable ("the baseband signal was over-sampled to fulfill the
//! sampling theorem", §4.1). These converters provide that rate change.

use crate::complex::Complex;
use crate::fir::{lowpass, Fir};
use crate::window::Window;

/// Gain-scaled anti-imaging prototype of an interpolator by `factor`
/// with `taps_per_branch` taps per polyphase branch: `factor·h[i]` for
/// the `factor·taps_per_branch`-tap lowpass `h`, in natural order.
/// Polyphase branch `p` is taps `p, p + factor, p + 2·factor, …`.
///
/// # Panics
///
/// Panics if `factor < 2` or `taps_per_branch == 0`.
pub fn interpolator_taps(factor: usize, taps_per_branch: usize) -> Vec<f64> {
    assert!(factor >= 2, "an interpolating prototype needs factor >= 2");
    assert!(taps_per_branch > 0, "need at least one tap per branch");
    // Cutoff at the original Nyquist (0.5/factor of the new rate) with
    // a little margin; Kaiser beta 8 gives ~ -80 dB images.
    let h = lowpass(
        0.5 / factor as f64 * 0.92,
        factor * taps_per_branch,
        Window::Kaiser(8.0),
    );
    h.into_iter().map(|t| t * factor as f64).collect()
}

/// Output phases one interpolation pass computes together.
const LANES: usize = 4;

/// Polyphase interpolator (upsampler) by an integer factor.
///
/// Zero-stuffs by `factor` and applies an anti-imaging lowpass with a
/// passband gain of `factor` so signal amplitude (and hence power of the
/// in-band component) is preserved.
///
/// Output phases are computed four at a time: each group walks the
/// taps once with four independent accumulators, so the adds of
/// different phases overlap instead of forming one dependency chain.
/// Every phase still sums its taps newest-first from zero, the order of
/// the one-accumulator loop kept as `wlan_conformance`'s
/// `upsample_reference`, so the output is bit-identical to it.
///
/// # Example
///
/// ```
/// use wlan_dsp::{Complex, resample::Upsampler};
/// let mut up = Upsampler::new(4, 64);
/// let y = up.process(&[Complex::ONE; 16]);
/// assert_eq!(y.len(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct Upsampler {
    factor: usize,
    /// Tap-major coefficient table, [`interpolator_taps`]: row `k`
    /// (`coefs[k·factor..(k + 1)·factor]`) holds tap `k` of every
    /// branch, so a group of phases reads adjacent coefficients.
    coefs: Vec<f64>,
    /// The last `taps_per_branch` inputs, newest first, stored twice:
    /// `history[pos..pos + taps_per_branch]` is always the whole window.
    history: Vec<Complex>,
    pos: usize,
}

impl Upsampler {
    /// Creates an upsampler by `factor` with `taps_per_branch` taps in
    /// each polyphase branch (total FIR length `factor·taps_per_branch`).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1` or `taps_per_branch == 0`.
    pub fn new(factor: usize, taps_per_branch: usize) -> Self {
        assert!(factor >= 1, "factor must be >= 1");
        assert!(taps_per_branch > 0, "need at least one tap per branch");
        if factor == 1 {
            return Upsampler {
                factor,
                coefs: vec![1.0],
                history: vec![Complex::ZERO; 2],
                pos: 0,
            };
        }
        Upsampler {
            factor,
            coefs: interpolator_taps(factor, taps_per_branch),
            history: vec![Complex::ZERO; 2 * taps_per_branch],
            pos: 0,
        }
    }

    /// Upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.history.fill(Complex::ZERO);
        self.pos = 0;
    }

    /// Converts a frame of input samples to `factor·len` output samples.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(x.len() * self.factor);
        self.process_into(x, &mut out);
        out
    }

    /// [`Upsampler::process`] into a caller-owned buffer (cleared first);
    /// the only heap traffic is capacity growth.
    pub fn process_into(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        out.clear();
        if self.factor == 1 {
            out.extend_from_slice(x);
            return;
        }
        let l = self.factor;
        let taps = self.history.len() / 2;
        let grouped = l - l % LANES;
        out.reserve(x.len() * l);
        for &v in x {
            self.pos = if self.pos == 0 {
                taps - 1
            } else {
                self.pos - 1
            };
            self.history[self.pos] = v;
            self.history[self.pos + taps] = v;
            let window = &self.history[self.pos..self.pos + taps];
            for p in (0..grouped).step_by(LANES) {
                let mut acc = [Complex::ZERO; LANES];
                for (&h, row) in window.iter().zip(self.coefs.chunks_exact(l)) {
                    let c = &row[p..p + LANES];
                    acc[0] += h * c[0];
                    acc[1] += h * c[1];
                    acc[2] += h * c[2];
                    acc[3] += h * c[3];
                }
                out.extend_from_slice(&acc);
            }
            for p in grouped..l {
                let mut acc = Complex::ZERO;
                for (&h, row) in window.iter().zip(self.coefs.chunks_exact(l)) {
                    acc += h * row[p];
                }
                out.push(acc);
            }
        }
    }
}

/// Decimator by an integer factor with anti-alias lowpass filtering.
#[derive(Debug, Clone)]
pub struct Downsampler {
    factor: usize,
    fir: Fir,
    phase: usize,
}

impl Downsampler {
    /// Creates a decimator by `factor` with a `taps`-long anti-alias FIR.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1` or `taps == 0`.
    pub fn new(factor: usize, taps: usize) -> Self {
        assert!(factor >= 1, "factor must be >= 1");
        assert!(taps > 0, "need at least one tap");
        let fir = if factor == 1 {
            Fir::new(vec![1.0])
        } else {
            Fir::new(lowpass(
                0.5 / factor as f64 * 0.92,
                taps,
                Window::Kaiser(8.0),
            ))
        };
        Downsampler {
            factor,
            fir,
            phase: 0,
        }
    }

    /// Decimation factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Resets the filter state.
    pub fn reset(&mut self) {
        self.fir.reset();
        self.phase = 0;
    }

    /// Filters and keeps every `factor`-th sample.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(x.len() / self.factor + 1);
        for &v in x {
            let y = self.fir.push(v);
            if self.phase == 0 {
                out.push(y);
            }
            self.phase = (self.phase + 1) % self.factor;
        }
        out
    }
}

/// Frequency shifter: multiplies by `e^{j2π·f·n/fs}` with persistent phase.
#[derive(Debug, Clone)]
pub struct FrequencyShifter {
    phase_inc: f64,
    phase: f64,
}

impl FrequencyShifter {
    /// Creates a shifter moving the spectrum by `shift_hz` at sample rate
    /// `sample_rate_hz`.
    pub fn new(shift_hz: f64, sample_rate_hz: f64) -> Self {
        FrequencyShifter {
            phase_inc: 2.0 * std::f64::consts::PI * shift_hz / sample_rate_hz,
            phase: 0.0,
        }
    }

    /// Shifts one sample.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let y = x * Complex::cis(self.phase);
        self.phase += self.phase_inc;
        if self.phase.abs() > 1e12 {
            self.phase %= 2.0 * std::f64::consts::PI;
        }
        y
    }

    /// Shifts a frame.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Shifts a frame in place.
    pub fn process_in_place(&mut self, x: &mut [Complex]) {
        for v in x.iter_mut() {
            *v = self.push(*v);
        }
    }

    /// Resets the oscillator phase.
    pub fn reset(&mut self) {
        self.phase = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::spectrum::welch_psd;

    fn tone(freq_norm: f64, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * freq_norm * i as f64))
            .collect()
    }

    #[test]
    fn upsample_length_and_power() {
        let mut up = Upsampler::new(4, 32);
        let x = tone(0.05, 512);
        let y = up.process(&x);
        assert_eq!(y.len(), 2048);
        // Skip the filter transient, then power should be ~1.
        let p = mean_power(&y[512..]);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn upsample_tone_stays_at_same_absolute_freq() {
        // 0.1 cycles/sample at fs becomes 0.025 at 4fs.
        let mut up = Upsampler::new(4, 48);
        let x = tone(0.1, 2048);
        let y = up.process(&x);
        let (freqs, psd) = welch_psd(&y[1024..], 512, 4.0);
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((freqs[peak] - 0.1).abs() < 0.02, "peak at {}", freqs[peak]);
    }

    #[test]
    fn upsample_images_suppressed() {
        let mut up = Upsampler::new(4, 48);
        let x = tone(0.1, 4096);
        let y = up.process(&x);
        let (freqs, psd) = welch_psd(&y[1024..], 1024, 4.0);
        let sig: f64 = freqs
            .iter()
            .zip(psd.iter())
            .filter(|(f, _)| (**f - 0.1).abs() < 0.05)
            .map(|(_, p)| *p)
            .sum();
        // Image would sit at 4·0.025 + k — check around 0.9 & 1.1 region (±(1-0.1)).
        let img: f64 = freqs
            .iter()
            .zip(psd.iter())
            .filter(|(f, _)| (f.abs() - 0.9).abs() < 0.05 || (f.abs() - 1.1).abs() < 0.05)
            .map(|(_, p)| *p)
            .sum();
        assert!(img < sig * 1e-5, "images not suppressed: {img} vs {sig}");
    }

    #[test]
    fn factor_one_is_passthrough() {
        let mut up = Upsampler::new(1, 8);
        let mut dn = Downsampler::new(1, 8);
        let x = tone(0.3, 32);
        assert_eq!(up.process(&x), x);
        assert_eq!(dn.process(&x), x);
    }

    #[test]
    fn downsample_length_and_tone() {
        let mut dn = Downsampler::new(4, 128);
        let x = tone(0.02, 4096);
        let y = dn.process(&x);
        assert_eq!(y.len(), 1024);
        // Tone at 0.02 → 0.08 after decimation; power preserved.
        let p = mean_power(&y[256..]);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn downsample_rejects_out_of_band() {
        let mut dn = Downsampler::new(4, 128);
        // Tone at 0.3 cycles/sample is beyond 0.125 → must be filtered out.
        let x = tone(0.3, 4096);
        let y = dn.process(&x);
        let p = mean_power(&y[256..]);
        assert!(p < 1e-6, "aliased power {p}");
    }

    #[test]
    fn up_down_roundtrip() {
        let mut up = Upsampler::new(4, 48);
        let mut dn = Downsampler::new(4, 192);
        let x = tone(0.05, 2048);
        let y = dn.process(&up.process(&x));
        assert_eq!(y.len(), x.len());
        // After transients the roundtrip is a pure delay; compare power.
        let p = mean_power(&y[512..]);
        assert!((p - 1.0).abs() < 0.05, "power {p}");
    }

    #[test]
    fn frequency_shifter_moves_tone() {
        let mut sh = FrequencyShifter::new(0.2, 1.0);
        let x = tone(0.1, 4096);
        let y = sh.process(&x);
        let (freqs, psd) = welch_psd(&y, 1024, 1.0);
        let peak = psd
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((freqs[peak] - 0.3).abs() < 0.01, "peak at {}", freqs[peak]);
    }

    #[test]
    fn frequency_shifter_preserves_power() {
        let mut sh = FrequencyShifter::new(1e6, 80e6);
        let x = tone(0.07, 1000);
        let y = sh.process(&x);
        assert!((mean_power(&y) - mean_power(&x)).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_factor_panics() {
        let _ = Upsampler::new(0, 8);
    }
}

//! Local-oscillator phase noise: Wiener (random-walk) phase model, the
//! standard behavioral model for a free-running VCO disciplined by a PLL
//! with loop bandwidth well below the subcarrier spacing.

use wlan_dsp::{Complex, Rng};

/// Wiener phase-noise process.
///
/// The phase performs a random walk with per-sample variance
/// `σ² = 2π·linewidth/fs`, giving a Lorentzian phase-noise spectrum
/// with the given 3 dB linewidth.
///
/// The LO is generated a block of [`PhaseNoise::BLOCK`] samples at a
/// time: the block starts from the exact `cis(phase)` and steps a
/// rotor by each sample's small increment `cis(σ·g)`, evaluated as a
/// short Taylor polynomial instead of two libm calls. The walk itself
/// is the per-sample recursion (same draws, same summation order), so
/// every sample's phase, and with it the packet-level outcomes of a
/// link, are those of a per-sample `cis(phase)` LO up to rounding;
/// restarting each block from `cis(phase)` bounds the rotor's drift to
/// a few ulps.
#[derive(Debug, Clone)]
pub struct PhaseNoise {
    sigma: f64,
    phase: f64,
    /// LO phasors of the current block.
    rotors: [Complex; Self::BLOCK],
    /// Samples left in the current block.
    left: usize,
    rng: Rng,
    enabled: bool,
}

/// Largest per-sample increment the rotor steps by polynomial; a
/// larger one restarts the rotor from the exact `cis(phase)`. At 0.05
/// rad the first omitted Taylor terms (`θ⁹/9!`, `θ¹⁰/10!`) are under
/// 10⁻¹⁷, below the rounding of the result. At 80 Msps a 200 Hz
/// linewidth has σ = 0.004 rad, so the fallback is a >12σ event.
const SMALL_STEP_RAD: f64 = 0.05;

/// `cis(θ)` for `|θ| ≤ SMALL_STEP_RAD` from its Taylor series.
#[inline]
fn small_cis(t: f64) -> Complex {
    let t2 = t * t;
    let cos = 1.0 - t2 / 2.0 * (1.0 - t2 / 12.0 * (1.0 - t2 / 30.0 * (1.0 - t2 / 56.0)));
    let sin = t * (1.0 - t2 / 6.0 * (1.0 - t2 / 20.0 * (1.0 - t2 / 42.0)));
    Complex::new(cos, sin)
}

impl PhaseNoise {
    /// Samples per LO block: one exact `cis` per block bounds the rotor
    /// drift, and the block's rotors fit in four cache lines.
    pub const BLOCK: usize = 16;

    /// Creates a phase-noise source with `linewidth_hz` Lorentzian
    /// linewidth at sample rate `sample_rate_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `linewidth_hz` is negative.
    pub fn new(linewidth_hz: f64, sample_rate_hz: f64, rng: Rng) -> Self {
        assert!(linewidth_hz >= 0.0, "linewidth must be non-negative");
        PhaseNoise {
            sigma: (2.0 * std::f64::consts::PI * linewidth_hz / sample_rate_hz).sqrt(),
            phase: 0.0,
            rotors: [Complex::ONE; Self::BLOCK],
            left: 0,
            rng,
            enabled: linewidth_hz > 0.0,
        }
    }

    /// A disabled (zero phase noise) source.
    pub fn off() -> Self {
        PhaseNoise::new(0.0, 1.0, Rng::new(0))
    }

    /// Enables or disables the noise process.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The one stepping routine: fills the next block's LO phasors and
    /// advances the walk over it. The block's deviates come from one
    /// [`Rng::fill_gaussian`], the same values per-sample draws give.
    fn step(&mut self) {
        let mut g = [0.0; Self::BLOCK];
        self.rng.fill_gaussian(&mut g);
        let mut r = Complex::cis(self.phase);
        for (slot, &z) in self.rotors.iter_mut().zip(&g) {
            *slot = r;
            let d = self.sigma * z;
            self.phase += d;
            r = if d.abs() <= SMALL_STEP_RAD {
                r * small_cis(d)
            } else {
                Complex::cis(self.phase)
            };
        }
        self.left = Self::BLOCK;
    }

    /// Applies the oscillator phase to one sample and advances the walk.
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        if !self.enabled {
            return x;
        }
        if self.left == 0 {
            self.step();
        }
        let y = x * self.rotors[Self::BLOCK - self.left];
        self.left -= 1;
        y
    }

    /// Applies to a frame.
    pub fn process(&mut self, x: &[Complex]) -> Vec<Complex> {
        x.iter().map(|&v| self.push(v)).collect()
    }

    /// Applies the oscillator to a frame in place, a block of phasors at
    /// a time; the same steps as per-sample [`PhaseNoise::push`], so
    /// bit-identical.
    pub fn process_in_place(&mut self, x: &mut [Complex]) {
        if !self.enabled {
            return;
        }
        let mut rest = x;
        while !rest.is_empty() {
            if self.left == 0 {
                self.step();
            }
            let (run, tail) = rest.split_at_mut(self.left.min(rest.len()));
            let rotors = &self.rotors[Self::BLOCK - self.left..];
            for (v, r) in run.iter_mut().zip(rotors) {
                *v *= *r;
            }
            self.left -= run.len();
            rest = tail;
        }
    }

    /// Walk phase at the end of the current block (radians).
    pub fn phase(&self) -> f64 {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_identity() {
        let mut pn = PhaseNoise::off();
        let x = Complex::new(1.0, 2.0);
        assert_eq!(pn.push(x), x);
    }

    #[test]
    fn preserves_magnitude() {
        let mut pn = PhaseNoise::new(1e3, 20e6, Rng::new(1));
        for i in 0..1000 {
            let x = Complex::from_polar(2.0, i as f64);
            assert!((pn.push(x).abs() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase_variance_grows_linearly() {
        // Wiener process: Var[φ(n)] = n·σ².
        let fs = 20e6;
        let lw = 10e3;
        let n = 2000usize;
        let trials = 400;
        let mut var = 0.0;
        for t in 0..trials {
            let mut pn = PhaseNoise::new(lw, fs, Rng::new(t as u64));
            for _ in 0..n {
                pn.push(Complex::ONE);
            }
            var += pn.phase() * pn.phase();
        }
        var /= trials as f64;
        let expect = n as f64 * 2.0 * std::f64::consts::PI * lw / fs;
        assert!(
            (var / expect - 1.0).abs() < 0.15,
            "var {var} vs expected {expect}"
        );
    }

    #[test]
    fn push_matches_process_in_place_across_ragged_frames() {
        let mut a = PhaseNoise::new(5e3, 20e6, Rng::new(7));
        let mut b = PhaseNoise::new(5e3, 20e6, Rng::new(7));
        let mut rng = Rng::new(8);
        for len in [5usize, 16, 40, 1, 100] {
            let x: Vec<Complex> = (0..len).map(|_| rng.complex_gaussian(1.0)).collect();
            let mut got = x.clone();
            a.process_in_place(&mut got);
            let want = b.process(&x);
            assert_eq!(got, want, "frame of {len}");
        }
        assert_eq!(a.phase().to_bits(), b.phase().to_bits());
    }

    #[test]
    fn rotor_tracks_the_per_sample_walk() {
        // Reference: cis of the same walk, one libm call per sample.
        let (lw, fs) = (200.0, 80e6);
        let mut pn = PhaseNoise::new(lw, fs, Rng::new(9));
        let mut rng = Rng::new(9);
        let sigma = (2.0 * std::f64::consts::PI * lw / fs).sqrt();
        let mut y = vec![Complex::ONE; 100 * PhaseNoise::BLOCK];
        pn.process_in_place(&mut y);
        let mut phase = 0.0;
        for v in &y {
            assert!((*v - Complex::cis(phase)).abs() < 1e-13);
            phase += sigma * rng.gaussian();
        }
        assert_eq!(pn.phase().to_bits(), f64::to_bits(phase));
    }

    #[test]
    fn small_cis_matches_libm() {
        for i in -100..=100 {
            let t = SMALL_STEP_RAD * i as f64 / 100.0;
            assert!((small_cis(t) - Complex::cis(t)).abs() < 4e-16, "{t}");
        }
    }

    #[test]
    fn linewidth_broadening_visible_in_spectrum() {
        // A tone through heavy phase noise spreads energy out of its bin.
        use wlan_dsp::goertzel::tone_power;
        let fs = 1e6;
        let f0 = 100e3;
        let clean: Vec<Complex> = (0..65536)
            .map(|n| Complex::cis(2.0 * std::f64::consts::PI * f0 * n as f64 / fs))
            .collect();
        let mut pn = PhaseNoise::new(2e3, fs, Rng::new(5));
        let dirty = pn.process(&clean);
        let p_clean = tone_power(&clean, f0, fs);
        let p_dirty = tone_power(&dirty, f0, fs);
        assert!(
            p_dirty < 0.7 * p_clean,
            "no broadening: {p_dirty} vs {p_clean}"
        );
    }
}

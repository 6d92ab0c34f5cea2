//! Fixed-step continuous-time integration of state-space sections.
//!
//! Analog filters are represented as cascades of first/second-order
//! state-space systems in controllable canonical form and integrated
//! with classic RK4 under a zero-order-hold input — the "analog solver"
//! whose fine timestep makes co-simulation expensive (paper §5.3).
//!
//! For a linear section with a held input the four RK4 stages collapse
//! exactly to one affine map, `x ← Φ·x + Γ·u` with
//! `Φ = Σ_{k≤4} (hA)^k/k!` and `Γ = h·Σ_{k≤3} (hA)^k/(k+1)!·B`. Each
//! section builds `(Φ, Γ)` once per step size and applies them per
//! sub-step, which is the same RK4 step up to rounding (the
//! four-stage form is kept as the test reference). Filters run
//! section-major over blocks ([`StateSpaceFilter::step_block`]),
//! bit-identical to the per-sample [`StateSpaceFilter::step`].

use wlan_dsp::design::{AnalogFilter, AnalogSection};
use wlan_dsp::Complex;

/// A single state-space section (order ≤ 2) over complex signals.
///
/// Controllable canonical form of `H(s) = N(s)/D(s)` with `D` normalized
/// monic.
#[derive(Debug, Clone)]
pub struct StateSpaceSection {
    order: usize,
    /// Denominator coefficients: x'' = −α0·x − α1·x' + u.
    alpha: [f64; 2],
    /// Output map: y = c·x + d·u.
    c: [f64; 2],
    d: f64,
    /// State (x, x').
    state: [Complex; 2],
    /// RK4 transition matrices for the last `dt` used.
    rk4: Rk4Step,
}

/// One classic RK4 step of an LTI section under a held input, written
/// as its transition matrices: `x ← (x + Γ·u) + E·x` with `E = Φ − I`.
///
/// For `x' = A·x + B·u` with `u` constant over the step, the four RK4
/// stages collapse exactly to `Φ = Σ_{k≤4} (hA)^k/k!` and
/// `Γ = h·Σ_{k≤3} (hA)^k/(k+1)!·B`. Keeping `E` instead of `Φ` adds the
/// increment to the old state, as the four-stage form does, so a slow
/// pole at a fine step (`E` ≪ 1) keeps its full precision.
#[derive(Debug, Clone, Copy)]
struct Rk4Step {
    /// Step the matrices were built for (NaN before the first step).
    dt: f64,
    e: [[f64; 2]; 2],
    gamma: [f64; 2],
}

impl Rk4Step {
    const UNSET: Rk4Step = Rk4Step {
        dt: f64::NAN,
        e: [[0.0; 2]; 2],
        gamma: [0.0; 2],
    };

    /// Transition matrices of one RK4 step of length `dt` for the
    /// section with denominator `alpha` and order `order`.
    fn new(order: usize, alpha: [f64; 2], dt: f64) -> Self {
        // M = h·A, with A = [[0, 1], [−α0, −α1]] (order 2) or [−α0].
        let m = if order == 2 {
            [[0.0, dt], [-alpha[0] * dt, -alpha[1] * dt]]
        } else {
            [[-alpha[0] * dt, 0.0], [0.0, 0.0]]
        };
        let mul = |a: [[f64; 2]; 2], b: [[f64; 2]; 2]| {
            let mut r = [[0.0; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    r[i][j] = a[i][0] * b[0][j] + a[i][1] * b[1][j];
                }
            }
            r
        };
        // Horner: P = I + M/2·(I + M/3·(I + M/4)), then E = M·P and
        // Γ = h·P·B.
        let mut p = [[1.0, 0.0], [0.0, 1.0]];
        for k in [4.0, 3.0, 2.0] {
            p = mul(m, p);
            for (i, row) in p.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = *v / k + if i == j { 1.0 } else { 0.0 };
                }
            }
        }
        let e = mul(m, p);
        // B = [0, 1] (order 2) or [1].
        let gamma = if order == 2 {
            [p[0][1] * dt, p[1][1] * dt]
        } else {
            [p[0][0] * dt, 0.0]
        };
        Rk4Step { dt, e, gamma }
    }
}

impl StateSpaceSection {
    /// Builds from an [`AnalogSection`].
    ///
    /// # Panics
    ///
    /// Panics on a zeroth-order (pure gain) section with zero
    /// denominator dynamics.
    pub fn from_analog(sec: &AnalogSection) -> Self {
        if sec.a[2] != 0.0 {
            // Second order: normalize by a2.
            let a0 = sec.a[0] / sec.a[2];
            let a1 = sec.a[1] / sec.a[2];
            let b0 = sec.b[0] / sec.a[2];
            let b1 = sec.b[1] / sec.a[2];
            let b2 = sec.b[2] / sec.a[2];
            StateSpaceSection {
                order: 2,
                alpha: [a0, a1],
                c: [b0 - b2 * a0, b1 - b2 * a1],
                d: b2,
                state: [Complex::ZERO; 2],
                rk4: Rk4Step::UNSET,
            }
        } else {
            assert!(sec.a[1] != 0.0, "static section has no dynamics");
            // First order: normalize by a1.
            let a0 = sec.a[0] / sec.a[1];
            let b0 = sec.b[0] / sec.a[1];
            let b1 = sec.b[1] / sec.a[1];
            StateSpaceSection {
                order: 1,
                alpha: [a0, 0.0],
                c: [b0 - b1 * a0, 0.0],
                d: b1,
                state: [Complex::ZERO; 2],
                rk4: Rk4Step::UNSET,
            }
        }
    }

    /// Section order (1 or 2).
    pub fn order(&self) -> usize {
        self.order
    }

    /// The RK4 transition matrices for `dt`, rebuilt only when the step
    /// changes.
    fn rk4_for(&mut self, dt: f64) -> Rk4Step {
        if self.rk4.dt != dt {
            self.rk4 = Rk4Step::new(self.order, self.alpha, dt);
        }
        self.rk4
    }

    /// Advances the section by `dt` with input `u` held constant (ZOH),
    /// returning the output at the end of the step: one classic RK4
    /// step, applied as its cached transition matrices.
    pub fn step(&mut self, u: Complex, dt: f64) -> Complex {
        let m = self.rk4_for(dt);
        let (c, d) = (self.c, self.d);
        if self.order == 2 {
            step2(&m, c, d, &mut self.state, u)
        } else {
            step1(&m, c[0], d, &mut self.state[0], u)
        }
    }

    /// [`StateSpaceSection::step`] over a block in place: `buf[i]` is
    /// replaced by the output of the `i`-th step. The state and the
    /// matrices stay in registers for the whole block; the result is
    /// bit-identical to stepping sample by sample.
    pub fn step_block(&mut self, buf: &mut [Complex], dt: f64) {
        let m = self.rk4_for(dt);
        let (c, d) = (self.c, self.d);
        if self.order == 2 {
            let mut x = self.state;
            for v in buf.iter_mut() {
                *v = step2(&m, c, d, &mut x, *v);
            }
            self.state = x;
        } else {
            let mut x = self.state[0];
            for v in buf.iter_mut() {
                *v = step1(&m, c[0], d, &mut x, *v);
            }
            self.state[0] = x;
        }
    }

    /// Clears the state.
    pub fn reset(&mut self) {
        self.state = [Complex::ZERO; 2];
    }
}

/// One second-order RK4 step: the single definition both the per-sample
/// and the block paths inline, so they round identically. The input
/// term joins the old state off the critical path, so each state's
/// sample-to-sample recurrence is one multiply and two adds deep.
#[inline(always)]
fn step2(m: &Rk4Step, c: [f64; 2], d: f64, x: &mut [Complex; 2], u: Complex) -> Complex {
    let [x0, x1] = *x;
    let n0 = (x0 + u * m.gamma[0]) + (x0 * m.e[0][0] + x1 * m.e[0][1]);
    let n1 = (x1 + u * m.gamma[1]) + (x0 * m.e[1][0] + x1 * m.e[1][1]);
    *x = [n0, n1];
    n0 * c[0] + n1 * c[1] + u * d
}

/// One first-order RK4 step (see [`step2`]).
#[inline(always)]
fn step1(m: &Rk4Step, c: f64, d: f64, x: &mut Complex, u: Complex) -> Complex {
    let n = (*x + u * m.gamma[0]) + *x * m.e[0][0];
    *x = n;
    n * c + u * d
}

/// A full continuous-time filter: gain plus cascaded sections.
#[derive(Debug, Clone)]
pub struct StateSpaceFilter {
    gain: f64,
    sections: Vec<StateSpaceSection>,
}

impl StateSpaceFilter {
    /// Builds from a designed [`AnalogFilter`].
    pub fn from_analog(filter: &AnalogFilter) -> Self {
        StateSpaceFilter {
            gain: filter.gain(),
            sections: filter
                .sections()
                .iter()
                .map(StateSpaceSection::from_analog)
                .collect(),
        }
    }

    /// Total state count.
    pub fn state_count(&self) -> usize {
        self.sections.iter().map(|s| s.order()).sum()
    }

    /// Advances the cascade by `dt` with ZOH input.
    pub fn step(&mut self, u: Complex, dt: f64) -> Complex {
        let mut v = u * self.gain;
        for s in self.sections.iter_mut() {
            v = s.step(v, dt);
        }
        v
    }

    /// [`StateSpaceFilter::step`] over a block in place, section-major:
    /// the gain is applied to the whole block, then each section runs
    /// over it in turn. Every section is a per-sample state machine that
    /// sees the same input sequence either way, so this is bit-identical
    /// to stepping the cascade sample by sample.
    pub fn step_block(&mut self, buf: &mut [Complex], dt: f64) {
        let gain = self.gain;
        for v in buf.iter_mut() {
            *v *= gain;
        }
        for s in self.sections.iter_mut() {
            s.step_block(buf, dt);
        }
    }

    /// Clears all states.
    pub fn reset(&mut self) {
        for s in self.sections.iter_mut() {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::design::FilterKind;

    fn tone_gain(filter: &mut StateSpaceFilter, f_hz: f64, dt: f64, n: usize) -> f64 {
        let mut p_out = 0.0;
        let mut count = 0usize;
        for i in 0..n {
            let t = i as f64 * dt;
            let u = Complex::cis(2.0 * std::f64::consts::PI * f_hz * t);
            let y = filter.step(u, dt);
            if i > n / 2 {
                p_out += y.norm_sqr();
                count += 1;
            }
        }
        (p_out / count as f64).sqrt()
    }

    #[test]
    fn first_order_lowpass_dc_gain() {
        let af = AnalogFilter::butterworth(1, FilterKind::Lowpass, 1e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        assert_eq!(ss.state_count(), 1);
        let dt = 1.0 / 320e6;
        let mut y = Complex::ZERO;
        for _ in 0..200_000 {
            y = ss.step(Complex::ONE, dt);
        }
        assert!((y.re - 1.0).abs() < 1e-6, "dc gain {}", y.re);
    }

    #[test]
    fn matches_analog_response_across_band() {
        let af = AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 8e6);
        let dt = 1.0 / 640e6;
        for f in [1e6, 4e6, 8e6, 16e6, 24e6] {
            let mut ss = StateSpaceFilter::from_analog(&af);
            let got = tone_gain(&mut ss, f, dt, 400_000);
            let expect = af.response(f).abs();
            assert!(
                (got - expect).abs() < 0.02 * expect.max(0.01),
                "f = {f}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn highpass_blocks_dc() {
        let af = AnalogFilter::butterworth(2, FilterKind::Highpass, 150e3);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1.0 / 320e6;
        let mut y = Complex::ONE;
        for _ in 0..3_000_000 {
            y = ss.step(Complex::ONE, dt);
        }
        assert!(y.abs() < 1e-2, "residual dc {}", y.abs());
    }

    #[test]
    fn complex_signals_filtered_per_axis() {
        // A purely imaginary input yields a purely imaginary output
        // (real coefficients).
        let af = AnalogFilter::butterworth(3, FilterKind::Lowpass, 5e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1.0 / 320e6;
        for _ in 0..10_000 {
            let y = ss.step(Complex::new(0.0, 1.0), dt);
            assert!(y.re.abs() < 1e-12);
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let af = AnalogFilter::butterworth(2, FilterKind::Lowpass, 1e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1e-9;
        let a = ss.step(Complex::ONE, dt);
        ss.reset();
        let b = ss.step(Complex::ONE, dt);
        assert_eq!(a, b);
    }

    #[test]
    fn rk4_diverges_past_its_stability_boundary() {
        // A 10 MHz pole stepped at dt = 1/16 MHz: |pole·dt| ≈ 3.9, past
        // RK4's stability boundary (~2.8). The transition matrix is the
        // same degree-4 stability polynomial, so it diverges too.
        let af = AnalogFilter::butterworth(1, FilterKind::Lowpass, 10e6);
        let dt = 1.0 / 16e6;
        let mut ss = StateSpaceFilter::from_analog(&af);
        let mut peak = 0.0f64;
        for _ in 0..2000 {
            peak = peak.max(ss.step(Complex::ONE, dt).abs());
            if !peak.is_finite() || peak > 1e12 {
                break;
            }
        }
        assert!(peak > 1e6, "RK4 unexpectedly stable: peak {peak}");
    }

    /// The four-stage RK4 step the transition matrices replace: the
    /// reference the differential test holds them to.
    fn rk4_reference_step(s: &mut StateSpaceSection, u: Complex, dt: f64) -> Complex {
        let derivative = |x: [Complex; 2]| {
            if s.order == 2 {
                [x[1], u - x[0] * s.alpha[0] - x[1] * s.alpha[1]]
            } else {
                [u - x[0] * s.alpha[0], Complex::ZERO]
            }
        };
        let x = s.state;
        let k1 = derivative(x);
        let k2 = derivative([x[0] + k1[0] * (dt / 2.0), x[1] + k1[1] * (dt / 2.0)]);
        let k3 = derivative([x[0] + k2[0] * (dt / 2.0), x[1] + k2[1] * (dt / 2.0)]);
        let k4 = derivative([x[0] + k3[0] * dt, x[1] + k3[1] * dt]);
        let mut next = x;
        for i in 0..2 {
            next[i] = x[i] + (k1[i] + k2[i] * 2.0 + k3[i] * 2.0 + k4[i]) * (dt / 6.0);
        }
        s.state = next;
        next[0] * s.c[0] + next[1] * s.c[1] + u * s.d
    }

    fn rk4_reference_filter_step(f: &mut StateSpaceFilter, u: Complex, dt: f64) -> Complex {
        let mut v = u * f.gain;
        for s in f.sections.iter_mut() {
            v = rk4_reference_step(s, v, dt);
        }
        v
    }

    #[test]
    fn transition_matrix_matches_four_stage_rk4() {
        let system_rate = 80e6;
        let cases = [
            (
                "cheb5 10 MHz osr 16",
                AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 10e6),
                16,
            ),
            (
                "cheb5 3 MHz osr 1",
                AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 3e6),
                1,
            ),
            (
                "butter2 hpf 150 kHz osr 16",
                AnalogFilter::butterworth(2, FilterKind::Highpass, 150e3),
                16,
            ),
            (
                "butter1 lpf 5 MHz osr 4",
                AnalogFilter::butterworth(1, FilterKind::Lowpass, 5e6),
                4,
            ),
        ];
        let mut rng = wlan_dsp::Rng::new(0x5ec7);
        for (name, af, osr) in cases {
            let dt = 1.0 / (system_rate * osr as f64);
            let mut fast = StateSpaceFilter::from_analog(&af);
            let mut reference = StateSpaceFilter::from_analog(&af);
            let (mut max_diff, mut max_y) = (0.0f64, 0.0f64);
            let mut u = Complex::ZERO;
            for i in 0..120_000 {
                // White noise held over each system sample (ZOH).
                if i % osr == 0 {
                    u = rng.complex_gaussian(1.0);
                }
                let y = fast.step(u, dt);
                let want = rk4_reference_filter_step(&mut reference, u, dt);
                max_diff = max_diff.max((y - want).abs());
                max_y = max_y.max(want.abs());
            }
            assert!(
                max_diff <= 1e-12 * max_y,
                "{name}: max |Δy| {max_diff:e} vs max |y| {max_y:e}"
            );
        }
    }

    #[test]
    fn step_block_bit_identical_to_step() {
        let af = AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 10e6);
        let dt = 1.0 / 1.28e9;
        let mut rng = wlan_dsp::Rng::new(7);
        let x: Vec<Complex> = (0..3000).map(|_| rng.complex_gaussian(1.0)).collect();
        let mut block = StateSpaceFilter::from_analog(&af);
        let mut serial = StateSpaceFilter::from_analog(&af);
        // Ragged blocks carry the section states across calls.
        for chunk in x.chunks(700) {
            let mut got = chunk.to_vec();
            block.step_block(&mut got, dt);
            for (g, &u) in got.iter().zip(chunk) {
                let want = serial.step(u, dt);
                assert_eq!(g.re.to_bits(), want.re.to_bits());
                assert_eq!(g.im.to_bits(), want.im.to_bits());
            }
        }
    }

    #[test]
    fn rk4_stable_at_practical_step() {
        // 10 MHz edge integrated at 320 MHz must not blow up.
        let af = AnalogFilter::chebyshev1(5, 0.5, FilterKind::Lowpass, 10e6);
        let mut ss = StateSpaceFilter::from_analog(&af);
        let dt = 1.0 / 320e6;
        let mut peak = 0.0f64;
        for i in 0..100_000 {
            let u = Complex::cis(0.3 * i as f64);
            peak = peak.max(ss.step(u, dt).abs());
        }
        assert!(peak < 10.0, "unstable: peak {peak}");
    }
}

//! Deterministic random number generation for reproducible simulations.
//!
//! Monte-Carlo BER experiments must be bit-exactly reproducible across
//! machines and library versions, so the workspace ships its own small
//! generator instead of depending on an external crate: xoshiro256**
//! (Blackman & Vigna, 2018) seeded through SplitMix64, with uniform,
//! Gaussian (polar Box-Muller) and complex-Gaussian output.

use crate::complex::Complex;

/// xoshiro256** pseudo-random generator.
///
/// # Example
///
/// ```
/// use wlan_dsp::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second Box-Muller deviate.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The state is expanded with SplitMix64 so that similar seeds give
    /// uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator (for per-block noise
    /// sources that must not share a stream).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via rejection-free Lemire reduction.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// A random bit.
    pub fn bit(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fills `buf` with random bits.
    pub fn bits(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = self.bit() as u8;
        }
    }

    /// Fills `buf` with random bytes.
    pub fn bytes(&mut self, buf: &mut [u8]) {
        for b in buf.iter_mut() {
            *b = (self.next_u64() >> 32) as u8;
        }
    }

    /// Standard-normal deviate (zero mean, unit variance) via the polar
    /// Box-Muller method.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(g) = self.gauss_spare.take() {
            return g;
        }
        loop {
            let (u, v, s) = self.polar_candidate();
            if polar_accept(s) {
                let k = polar_scale(s);
                self.gauss_spare = Some(v * k);
                return u * k;
            }
        }
    }

    /// Fills `out` with standard-normal deviates: the values, in order,
    /// that `out.len()` calls of [`Rng::gaussian`] return, leaving the
    /// generator in the same state (spare included).
    ///
    /// The polar method runs in blocks of up to 32 pairs.
    /// Each candidate `(u, v, s)` is stored unconditionally and the
    /// write index advances by the accept flag, so a rejection costs no
    /// mispredicted branch; the scale `k` then runs as one straight
    /// loop over the accepted pairs. The uniforms, their order and the
    /// arithmetic are those of `gaussian()`, so the deviates are too.
    pub fn fill_gaussian(&mut self, out: &mut [f64]) {
        let mut out = out;
        if out.is_empty() {
            return;
        }
        if let Some(g) = self.gauss_spare.take() {
            out[0] = g;
            out = &mut out[1..];
        }
        let mut us = [0.0; FILL_PAIRS];
        let mut vs = [0.0; FILL_PAIRS];
        let mut ss = [0.0; FILL_PAIRS];
        while out.len() >= 2 {
            let pairs = (out.len() / 2).min(FILL_PAIRS);
            let mut n = 0;
            while n < pairs {
                let (u, v, s) = self.polar_candidate();
                us[n] = u;
                vs[n] = v;
                ss[n] = s;
                n += polar_accept(s) as usize;
            }
            let (head, rest) = out.split_at_mut(2 * pairs);
            for (d, ((&u, &v), &s)) in head.chunks_exact_mut(2).zip(us.iter().zip(&vs).zip(&ss)) {
                let k = polar_scale(s);
                d[0] = u * k;
                d[1] = v * k;
            }
            out = rest;
        }
        if let [last] = out {
            // Odd length: the pair's second deviate becomes the spare.
            *last = self.gaussian();
        }
    }

    /// One polar-method candidate: a point `(u, v)` uniform in the
    /// square `[-1, 1)²` and its squared radius `s`.
    #[inline]
    fn polar_candidate(&mut self) -> (f64, f64, f64) {
        let u = 2.0 * self.uniform() - 1.0;
        let v = 2.0 * self.uniform() - 1.0;
        (u, v, u * u + v * v)
    }

    /// Circularly-symmetric complex Gaussian sample with total variance
    /// `E[|z|²] = variance` (i.e. `variance/2` per real dimension).
    pub fn complex_gaussian(&mut self, variance: f64) -> Complex {
        let sigma = (variance / 2.0).sqrt();
        Complex::new(sigma * self.gaussian(), sigma * self.gaussian())
    }

    /// Adds one [`Rng::complex_gaussian`]`(variance)` draw to every
    /// element of `buf`, in order — the one white-noise loop behind the
    /// channel AWGN and the RF thermal sources. The per-dimension sigma
    /// is hoisted out of the loop; it is the value `complex_gaussian`
    /// recomputes per call, and the deviates come from
    /// [`Rng::fill_gaussian`] a stack chunk at a time in the same order,
    /// so the result is bit-identical to the per-sample form.
    pub fn add_complex_gaussian(&mut self, buf: &mut [Complex], variance: f64) {
        let sigma = (variance / 2.0).sqrt();
        let mut g = [0.0; 2 * FILL_PAIRS];
        for chunk in buf.chunks_mut(FILL_PAIRS) {
            let g = &mut g[..2 * chunk.len()];
            self.fill_gaussian(g);
            for (v, d) in chunk.iter_mut().zip(g.chunks_exact(2)) {
                *v += Complex::new(sigma * d[0], sigma * d[1]);
            }
        }
    }
}

/// Pairs per [`Rng::fill_gaussian`] block: the candidate arrays fill
/// 768 bytes of stack.
const FILL_PAIRS: usize = 32;

/// The polar method's accept test: the candidate lies strictly inside
/// the unit circle and off its centre.
#[inline]
fn polar_accept(s: f64) -> bool {
    s > 0.0 && s < 1.0
}

/// The polar method's scale `k = sqrt(−2·ln s / s)`; an accepted pair
/// `(u, v)` gives the deviates `u·k` and `v·k`.
#[inline]
fn polar_scale(s: f64) -> f64 {
    (-2.0 * s.ln() / s).sqrt()
}

impl Default for Rng {
    fn default() -> Self {
        Rng::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_and_variance() {
        let mut rng = Rng::new(99);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01);
        assert!((var - 1.0 / 12.0).abs() < 0.01);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let kurt = xs.iter().map(|x| x.powi(4)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01);
        assert!((var - 1.0).abs() < 0.02);
        assert!((kurt - 3.0).abs() < 0.1); // Gaussian kurtosis
    }

    #[test]
    fn complex_gaussian_power() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let p: f64 = (0..n)
            .map(|_| rng.complex_gaussian(2.5).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((p - 2.5).abs() < 0.05);
    }

    #[test]
    fn add_complex_gaussian_matches_per_sample_draws() {
        // Start with a Box-Muller spare pending so the pairing of the
        // deviates across samples is covered too.
        let mut a = Rng::new(9);
        let mut b = Rng::new(9);
        a.gaussian();
        b.gaussian();
        let mut got = vec![Complex::new(0.5, -1.0); 7];
        a.add_complex_gaussian(&mut got, 3e-3);
        for g in &got {
            let want = Complex::new(0.5, -1.0) + b.complex_gaussian(3e-3);
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits())
            );
        }
        assert_eq!(a, b);
    }

    /// A generator whose next two outputs are `first` and `second`.
    /// xoshiro256** outputs `rotl(s₁·5, 7)·9`, and after one step `s₁`
    /// becomes `s₁ ^ s₂ ^ s₀`, so both words invert in closed form.
    fn rng_emitting(first: u64, second: u64) -> Rng {
        let inv = |x: u64| {
            // Inverse of an odd multiplier mod 2⁶⁴ by Newton iteration.
            let mut y = x;
            for _ in 0..6 {
                y = y.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(y)));
            }
            y
        };
        let s1_for = |out: u64| {
            out.wrapping_mul(inv(9))
                .rotate_right(7)
                .wrapping_mul(inv(5))
        };
        let (s1, s1_next) = (s1_for(first), s1_for(second));
        let rng = Rng {
            s: [s1_next ^ s1, s1, 0, 1],
            gauss_spare: None,
        };
        let mut probe = rng.clone();
        assert_eq!((probe.next_u64(), probe.next_u64()), (first, second));
        rng
    }

    #[test]
    fn polar_candidates_on_the_accept_boundary_are_rejected() {
        // uniform() is 0 for an output of 0 and 0.5 for 2⁶³, so the
        // first candidate is (u, v) = (-1, 0), s = 1, or (0, 0), s = 0.
        // Both must be rejected: the deviates are those of a generator
        // that skipped the candidate's two words.
        for (first, second) in [(0, 1 << 63), (1 << 63, 1 << 63)] {
            let mut scalar = rng_emitting(first, second);
            let mut filled = scalar.clone();
            let mut skipped = scalar.clone();
            skipped.next_u64();
            skipped.next_u64();
            let want = [skipped.gaussian(), skipped.gaussian()];
            let got = [scalar.gaussian(), scalar.gaussian()];
            let mut fill = [0.0; 2];
            filled.fill_gaussian(&mut fill);
            for ((g, f), w) in got.iter().zip(&fill).zip(&want) {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "gaussian() accepted s = {first:#x}"
                );
                assert_eq!(
                    f.to_bits(),
                    w.to_bits(),
                    "fill_gaussian accepted s = {first:#x}"
                );
            }
            assert_eq!(scalar, skipped);
            assert_eq!(filled, skipped);
        }
    }

    /// One generator runs a seeded random mix of scalar and batched
    /// draws; a second makes the same draws through `gaussian()` alone.
    /// Every deviate, the spare carried between calls and the raw state
    /// afterwards must agree bit for bit.
    #[test]
    fn batched_and_scalar_draws_interleave_bit_identically() {
        const LENS: [usize; 10] = [0, 1, 2, 31, 32, 33, 63, 64, 65, 1001];
        let mut ops = Rng::new(0xd1ce);
        let mut batched = Rng::new(77);
        let mut scalar = Rng::new(77);
        let mut buf = Vec::new();
        let mut cbuf = Vec::new();
        for step in 0..400 {
            let len = LENS[ops.below(LENS.len() as u64) as usize];
            let what = format!("step {step}, len {len}");
            match ops.below(4) {
                0 => {
                    let (b, s) = (batched.gaussian(), scalar.gaussian());
                    assert_eq!(b.to_bits(), s.to_bits(), "gaussian, {what}");
                }
                1 => {
                    let (b, s) = (batched.complex_gaussian(0.3), scalar.complex_gaussian(0.3));
                    assert_eq!(
                        (b.re.to_bits(), b.im.to_bits()),
                        (s.re.to_bits(), s.im.to_bits())
                    );
                }
                2 => {
                    buf.clear();
                    buf.resize(len, f64::NAN);
                    batched.fill_gaussian(&mut buf);
                    for (i, b) in buf.iter().enumerate() {
                        let s = scalar.gaussian();
                        assert_eq!(b.to_bits(), s.to_bits(), "fill_gaussian[{i}], {what}");
                    }
                }
                _ => {
                    cbuf.clear();
                    cbuf.extend((0..len).map(|i| Complex::new(i as f64, -0.5)));
                    batched.add_complex_gaussian(&mut cbuf, 2e-3);
                    for (i, b) in cbuf.iter().enumerate() {
                        let s = Complex::new(i as f64, -0.5) + scalar.complex_gaussian(2e-3);
                        assert_eq!(
                            (b.re.to_bits(), b.im.to_bits()),
                            (s.re.to_bits(), s.im.to_bits()),
                            "add_complex_gaussian[{i}], {what}"
                        );
                    }
                }
            }
            assert_eq!(batched, scalar, "state after {what}");
        }
        assert_eq!(batched.next_u64(), scalar.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_gives_independent_stream() {
        let mut a = Rng::new(10);
        let mut c = a.fork();
        // Child stream should not track the parent.
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn bits_are_roughly_balanced() {
        let mut rng = Rng::new(21);
        let mut buf = vec![0u8; 10_000];
        rng.bits(&mut buf);
        let ones: usize = buf.iter().map(|&b| b as usize).sum();
        assert!(ones > 4700 && ones < 5300);
    }
}

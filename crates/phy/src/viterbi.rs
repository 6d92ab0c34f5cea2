//! Viterbi decoder for the 802.11a (133, 171) convolutional code.
//!
//! Decodes soft log-likelihood ratios (the receiver's path, with
//! zero-LLR erasures for punctured bits). A reusable [`ViterbiDecoder`]
//! holds two `[f64; 64]` path-metric buffers and a growable decision
//! buffer, so the per-packet hot path performs no heap allocation after
//! the first call.
//!
//! Each trellis step is one add-compare-select (ACS) pass in butterfly
//! form: butterfly `j` reads the predecessor pair `j`, `j + 32` (states
//! that differ only in the oldest bit) and writes next states `2j`
//! (input 0) and `2j + 1` (input 1). Both generators tap the newest and
//! the oldest bit, so one sign pair `(sa[j], sb[j])` gives all four
//! branch costs by exact sign flips. Steps ping-pong between the two
//! metric buffers, two per loop iteration, so no step copies metrics. A
//! step's decision word holds even next states' survivor bits in its
//! low 32 bits and odd ones' in its high 32 (state `s` at bit
//! `((s & 1) << 5) | (s >> 1)`), built four butterflies at a time so the
//! pass vectorises. Only the six warm-up steps need the `INF` sentinel
//! for unreachable states (the state is the last six input bits).
//!
//! The decision arithmetic — `(metric + (±la)) + (±lb)` with the
//! lower-numbered predecessor winning ties — is kept exactly as the
//! original full-search formulation, so decoded bits are bit-identical
//! to the reference implementation in `wlan-conformance::refimpl`.

use crate::convolutional::{branch_output, N_STATES};

/// Log-likelihood ratio convention: positive means bit 0 is more likely
/// (`llr ∝ log P(b=0) − log P(b=1)`). Punctured positions use `0.0`
/// (erasure).
pub type Llr = f64;

/// Sentinel for unreachable states during trellis warm-up.
const INF: f64 = 1e300;

/// Path metrics beyond this magnitude trigger a one-off renormalization
/// (subtract the minimum). Realistic packets never get here — the bound
/// only guards pathologically long or large-LLR streams against the
/// metrics drifting toward the `INF` sentinel.
const NORM_LIMIT: f64 = 1e280;

/// Reusable soft-decision Viterbi decoder.
///
/// Construction precomputes the butterfly sign pairs; each call to
/// [`ViterbiDecoder::decode_soft_into`] then reuses the metric buffers
/// and decision buffer, allocating only when a longer packet than any
/// seen before grows the decision buffer.
///
/// ```
/// use wlan_phy::{convolutional::encode, viterbi::ViterbiDecoder};
/// let mut msg = vec![1u8, 0, 1, 1, 0, 0, 1, 0];
/// msg.extend_from_slice(&[0; 6]); // tail
/// let coded = encode(&msg);
/// let llrs: Vec<f64> = coded.iter().map(|&b| if b == 1 { -1.0 } else { 1.0 }).collect();
/// let mut dec = ViterbiDecoder::new();
/// let mut bits = Vec::new();
/// dec.decode_soft_into(&llrs, &mut bits);
/// assert_eq!(bits, msg);
/// ```
#[derive(Debug, Clone)]
pub struct ViterbiDecoder {
    /// Path metrics after an even (`[0]`) and odd (`[1]`) step count.
    metrics: [[f64; N_STATES]; 2],
    /// Butterfly signs: the branch from predecessor `j` on input 0
    /// costs `(m + sa[j]·la) + sb[j]·lb`; the oldest bit or the input
    /// set flips both signs.
    signs: Signs,
    /// `decisions[t]`: per state, the evicted (oldest) history bit of
    /// its surviving predecessor at step `t` (layout in the module doc).
    decisions: Vec<u64>,
}

/// Per-butterfly branch signs `(sa, sb)`, each ±1.
type Signs = ([f64; N_STATES / 2], [f64; N_STATES / 2]);

impl Default for ViterbiDecoder {
    fn default() -> Self {
        ViterbiDecoder::new()
    }
}

impl ViterbiDecoder {
    /// Creates a decoder (precomputes the butterfly sign pairs).
    pub fn new() -> Self {
        let sign = |bit: u8| if bit == 1 { 1.0 } else { -1.0 };
        let mut signs: Signs = ([0.0; N_STATES / 2], [0.0; N_STATES / 2]);
        for j in 0..N_STATES / 2 {
            let (a, b) = branch_output(j as u32, 0);
            (signs.0[j], signs.1[j]) = (sign(a), sign(b));
        }
        ViterbiDecoder {
            metrics: [[INF; N_STATES]; 2],
            signs,
            decisions: Vec::new(),
        }
    }

    /// Pre-reserves trellis storage for decoding up to `n_steps`
    /// trellis steps (information bits) without reallocating.
    pub fn reserve_steps(&mut self, n_steps: usize) {
        self.decisions.reserve(n_steps);
    }

    /// Decodes a tail-terminated message from soft inputs into `bits`
    /// (cleared and refilled with `llrs.len() / 2` decoded bits).
    ///
    /// `llrs` holds two LLRs per information bit (output A then output B
    /// of each trellis step). The trellis starts in the all-zero state;
    /// traceback begins at the maximum-likelihood end state (802.11a
    /// pads scrambled bits *after* the zero tail, so forced zero-state
    /// termination would be wrong).
    ///
    /// # Panics
    ///
    /// Panics if `llrs.len()` is odd.
    pub fn decode_soft_into(&mut self, llrs: &[Llr], bits: &mut Vec<u8>) {
        assert!(
            llrs.len().is_multiple_of(2),
            "need two LLRs per trellis step"
        );
        let n_steps = llrs.len() / 2;
        bits.clear();
        if n_steps == 0 {
            return;
        }

        self.decisions.clear();
        self.decisions.reserve(n_steps);
        let (sa, sb) = &self.signs;
        let [even, odd] = &mut self.metrics;
        even[0] = 0.0;

        // Warm-up: only states 0..2^t are reachable, and both
        // predecessors of a reachable next state have their evicted bit
        // 0, so the survivor is always the lower one.
        let warm = n_steps.min(6);
        for (t, pair) in llrs[..2 * warm].chunks_exact(2).enumerate() {
            let (src, dst) = if t % 2 == 0 {
                (&*even, &mut *odd)
            } else {
                (&*odd, &mut *even)
            };
            dst.fill(INF);
            for (ns, d) in dst.iter_mut().enumerate().take(2 << t) {
                let (j, flip) = (ns >> 1, 1.0 - 2.0 * (ns & 1) as f64);
                *d = (src[j] + flip * sa[j] * pair[0]) + flip * sb[j] * pair[1];
            }
            self.decisions.push(0);
        }

        // Steady state, two steps per iteration. The pairs start at the
        // even step 6, so renormalization still follows steps 4095,
        // 8191, … and the odd remainder step never needs it.
        let mut quads = llrs[2 * warm..].chunks_exact(4);
        for (k, q) in (&mut quads).enumerate() {
            let d0 = acs(even, odd, &self.signs, q[0], q[1]);
            let d1 = acs(odd, even, &self.signs, q[2], q[3]);
            self.decisions.extend_from_slice(&[d0, d1]);
            if (warm + 2 * k + 2).is_multiple_of(4096) {
                renormalize_if_needed(even);
            }
        }
        if let &[la, lb] = quads.remainder() {
            self.decisions.push(acs(even, odd, &self.signs, la, lb));
        }

        // Traceback from the maximum-likelihood end state (first state
        // wins ties, as in a forward minimum scan).
        let last = &self.metrics[n_steps % 2];
        let (mut state, mut best) = (0usize, last[0]);
        for (s, &m) in last.iter().enumerate().skip(1) {
            if m < best {
                best = m;
                state = s;
            }
        }
        bits.resize(n_steps, 0);
        for t in (0..n_steps).rev() {
            bits[t] = (state & 1) as u8; // the input that created this state
            let evicted = (self.decisions[t] >> (((state & 1) << 5) | (state >> 1))) & 1;
            state = (state >> 1) | ((evicted as usize) << 5);
        }
    }
}

/// One steady-state trellis step from `src` into `dst`: the butterfly
/// ACS over all 32 predecessor pairs. Returns the step's decision word.
#[inline(always)]
fn acs(src: &[f64; N_STATES], dst: &mut [f64; N_STATES], s: &Signs, la: Llr, lb: Llr) -> u64 {
    let (mut lo_word, mut hi_word) = (0u64, 0u64);
    for g in (0..N_STATES / 2).step_by(4) {
        let (mut ge, mut go) = (0u64, 0u64);
        for k in 0..4 {
            let j = g + k;
            let (a, b) = (s.0[j] * la, s.1[j] * lb);
            let (lo, hi) = (src[j], src[j + 32]);
            let (e1, e2) = ((lo + a) + b, (hi - a) - b);
            let (o1, o2) = ((lo - a) - b, (hi + a) + b);
            // Strict `<`: ties keep the lower predecessor, matching
            // ascending-order full search.
            let (te, to) = (e2 < e1, o2 < o1);
            dst[2 * j] = if te { e2 } else { e1 };
            dst[2 * j + 1] = if to { o2 } else { o1 };
            ge |= (te as u64) << k;
            go |= (to as u64) << k;
        }
        lo_word |= ge << g;
        hi_word |= go << g;
    }
    lo_word | (hi_word << 32)
}

/// Subtracts the minimum path metric from every state when the metrics
/// have drifted dangerously close to the sentinel. No-op on realistic
/// inputs (bit-identity with the reference is preserved whenever the
/// guard never fires).
fn renormalize_if_needed(metric: &mut [f64; N_STATES]) {
    let min = metric.iter().copied().fold(f64::INFINITY, f64::min);
    if min.abs() > NORM_LIMIT && min.is_finite() {
        for m in metric.iter_mut() {
            *m -= min;
        }
    }
}

/// Decodes a tail-terminated message from soft inputs.
///
/// One-shot convenience over [`ViterbiDecoder::decode_soft_into`] —
/// constructs a fresh decoder and allocates the output. Hot paths
/// should hold a [`ViterbiDecoder`] instead.
///
/// # Panics
///
/// Panics if `llrs.len()` is odd.
///
/// ```
/// use wlan_phy::{convolutional::encode, viterbi::decode_soft};
/// let mut msg = vec![1u8, 0, 1, 1, 0, 0, 1, 0];
/// msg.extend_from_slice(&[0; 6]); // tail
/// let coded = encode(&msg);
/// // Perfect-channel LLRs: +1 for bit 0, −1 for bit 1.
/// let llrs: Vec<f64> = coded.iter().map(|&b| if b == 1 { -1.0 } else { 1.0 }).collect();
/// assert_eq!(decode_soft(&llrs), msg);
/// ```
pub fn decode_soft(llrs: &[Llr]) -> Vec<u8> {
    let mut dec = ViterbiDecoder::new();
    let mut bits = Vec::new();
    dec.decode_soft_into(llrs, &mut bits);
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::encode;
    use wlan_dsp::rng::Rng;

    /// Hard-decision LLRs: +1 for bit 0, −1 for bit 1.
    fn bpsk(coded: &[u8]) -> Vec<Llr> {
        coded
            .iter()
            .map(|&b| if b == 1 { -1.0 } else { 1.0 })
            .collect()
    }

    impl ViterbiDecoder {
        /// Decision-buffer capacity, for the receiver's no-growth checks.
        pub(crate) fn decision_capacity(&self) -> usize {
            self.decisions.capacity()
        }
    }

    fn tailed_message(rng: &mut Rng, len: usize) -> Vec<u8> {
        let mut msg = vec![0u8; len];
        rng.bits(&mut msg[..len - 6]);
        msg
    }

    #[test]
    fn decodes_clean_channel() {
        let mut rng = Rng::new(1);
        for len in [10usize, 50, 333] {
            let msg = tailed_message(&mut rng, len);
            let coded = encode(&msg);
            assert_eq!(decode_soft(&bpsk(&coded)), msg, "len {len}");
        }
    }

    #[test]
    fn corrects_scattered_errors() {
        // Free distance 10 → any 4 errors spread apart are correctable.
        let mut rng = Rng::new(2);
        let msg = tailed_message(&mut rng, 200);
        let mut coded = encode(&msg);
        for pos in [10usize, 90, 170, 310] {
            coded[pos] ^= 1;
        }
        assert_eq!(decode_soft(&bpsk(&coded)), msg);
    }

    #[test]
    fn soft_beats_hard_with_erasures() {
        // Erase (zero-LLR) a burst; soft decoding must still recover.
        let mut rng = Rng::new(3);
        let msg = tailed_message(&mut rng, 100);
        let coded = encode(&msg);
        let mut llrs = bpsk(&coded);
        for l in llrs.iter_mut().skip(40).take(8) {
            *l = 0.0;
        }
        assert_eq!(decode_soft(&llrs), msg);
    }

    #[test]
    fn soft_weights_reliability() {
        let mut rng = Rng::new(4);
        let msg = tailed_message(&mut rng, 120);
        let coded = encode(&msg);
        // Flip several bits but mark them as unreliable (small LLR).
        let mut llrs: Vec<Llr> = coded
            .iter()
            .map(|&b| if b == 1 { -2.0 } else { 2.0 })
            .collect();
        for pos in [11usize, 12, 61, 62, 130, 131, 200] {
            llrs[pos] = -llrs[pos].signum() * 0.1 * llrs[pos].abs();
        }
        assert_eq!(decode_soft(&llrs), msg);
    }

    #[test]
    fn awgn_monte_carlo_better_than_uncoded() {
        // At Eb/N0 = 4 dB the rate-1/2 coded BER must be far below the
        // uncoded BPSK BER (~1.25e-2).
        let mut rng = Rng::new(5);
        let ebn0_db: f64 = 4.0;
        // Rate 1/2: Es/N0 = Eb/N0 − 3 dB per coded bit.
        let esn0 = wlan_dsp::math::db_to_lin(ebn0_db - 3.01);
        let sigma = (1.0 / (2.0 * esn0)).sqrt();
        let mut errors = 0usize;
        let mut total = 0usize;
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        for _ in 0..40 {
            let msg = tailed_message(&mut rng, 500);
            let coded = encode(&msg);
            let llrs: Vec<Llr> = coded
                .iter()
                .map(|&b| {
                    let tx = if b == 1 { -1.0 } else { 1.0 };
                    let y = tx + sigma * rng.gaussian();
                    2.0 * y / (sigma * sigma)
                })
                .collect();
            dec.decode_soft_into(&llrs, &mut bits);
            errors += bits.iter().zip(msg.iter()).filter(|(a, b)| a != b).count();
            total += msg.len();
        }
        let ber = errors as f64 / total as f64;
        assert!(ber < 2e-3, "coded BER {ber} at Eb/N0 = {ebn0_db} dB");
    }

    #[test]
    fn renormalization_guard_keeps_huge_llr_decodes_exact() {
        // |LLR| = 1e277: the best path metric falls by 2e277 per step,
        // so |min metric| passes NORM_LIMIT after 4,096 steps and the
        // guard fires after steps 4095 and 8191.
        let mut rng = Rng::new(277);
        let msg = tailed_message(&mut rng, 8_600);
        let llrs: Vec<Llr> = bpsk(&encode(&msg)).iter().map(|l| l * 1e277).collect();
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        dec.decode_soft_into(&llrs, &mut bits);
        assert_eq!(bits, msg);
        // Unguarded, the best metric would end near −1.7e281; renormalized
        // at step 8191 it is only 408 steps deep.
        let best = dec.metrics[msg.len() % 2]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(best.abs() < NORM_LIMIT, "guard never fired: best {best:e}");
    }

    #[test]
    fn empty_input() {
        assert!(decode_soft(&[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn odd_length_panics() {
        let _ = decode_soft(&[1.0, -1.0, 0.5]);
    }

    #[test]
    fn falls_back_when_tail_missing() {
        // Encode without tail: final state nonzero. The decoder should
        // still return mostly correct bits via best-state fallback.
        let msg = vec![1u8; 40];
        let coded = encode(&msg);
        let dec = decode_soft(&bpsk(&coded));
        // Only the final constraint length or so of bits may be wrong.
        let head_errs = dec[..30]
            .iter()
            .zip(&msg[..30])
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(head_errs, 0, "errors before the unterminated tail");
    }

    #[test]
    fn reused_decoder_matches_fresh() {
        // State from one call must not leak into the next.
        let mut rng = Rng::new(6);
        let mut dec = ViterbiDecoder::new();
        let mut bits = Vec::new();
        for len in [40usize, 8, 333, 12] {
            let msg = tailed_message(&mut rng, len);
            let coded = encode(&msg);
            let llrs: Vec<Llr> = coded
                .iter()
                .map(|&b| {
                    let tx = if b == 1 { -1.0 } else { 1.0 };
                    tx + 0.3 * rng.gaussian()
                })
                .collect();
            dec.decode_soft_into(&llrs, &mut bits);
            assert_eq!(bits, decode_soft(&llrs), "len {len}");
        }
    }

    #[test]
    fn short_packets_without_full_warmup() {
        // Fewer than 6 trellis steps: the warm-up reachability logic is
        // the whole decode.
        for steps in 1..=6usize {
            let msg: Vec<u8> = (0..steps).map(|i| (i % 2) as u8).collect();
            let coded = encode(&msg);
            let dec = decode_soft(&bpsk(&coded));
            assert_eq!(dec.len(), steps);
        }
    }
}

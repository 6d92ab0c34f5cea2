//! Bit-identity gates for the allocation-free hot-path kernels: the
//! differential test layer.
//!
//! The `_into` refactor (reusable Viterbi trellis, specialized 64-point
//! FFT, scratch-arena RF chain and link loop) is only legal because it
//! is *bit-identical* to the code it replaced. The `LinkReport`
//! literals below were measured on the pre-refactor tree; every field
//! is compared with exact `==` — including the `f64` EVM — so any
//! reordered floating-point operation, skipped RNG draw, or altered
//! buffer lifetime in the hot path fails loudly here. Each production
//! kernel is also compared against its reference (the staged RF chain,
//! the conformance Viterbi trellis, the sample-by-sample co-simulation
//! loop, the conformance interpolation loop) with exact `==` on bits and
//! `f64::to_bits` on samples: "close" is failure here.

use wlan_ams::CosimReceiver;
use wlan_dsp::{Complex, Rng};
use wlan_phy::convolutional::encode;
use wlan_phy::puncture::{depuncture_into, puncture};
use wlan_phy::viterbi::{decode_soft, Llr, ViterbiDecoder};
use wlan_phy::Rate;
use wlan_rf::nonlinearity::Nonlinearity;
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation};

fn assert_bits_eq(got: &[Complex], want: &[Complex], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            g.re.to_bits(),
            w.re.to_bits(),
            "{what}: re diverges at sample {i}: {} vs {}",
            g.re,
            w.re
        );
        assert_eq!(
            g.im.to_bits(),
            w.im.to_bits(),
            "{what}: im diverges at sample {i}: {} vs {}",
            g.im,
            w.im
        );
    }
}

fn noise_burst(rng: &mut Rng, n: usize, power: f64) -> Vec<Complex> {
    (0..n).map(|_| rng.complex_gaussian(power)).collect()
}

/// Ideal-front-end link at 11.5 dB SNR: enough errors (568 of 11520
/// bits) that the whole soft-decision path — demap, deinterleave,
/// depuncture, Viterbi, descramble — is exercised on non-trivial LLRs.
#[test]
fn link_report_pins_ideal_seed_behavior() {
    let report = LinkSimulation::new(LinkConfig {
        rate: Rate::R36,
        psdu_len: 120,
        packets: 12,
        seed: 77,
        snr_db: Some(11.5),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    })
    .run();

    assert_eq!(report.meter.errors(), 568);
    assert_eq!(report.meter.bits(), 11520);
    assert_eq!(report.meter.packets(), 12);
    assert_eq!(report.meter.packet_errors(), 10);
    assert_eq!(report.decoded_packets, 12);
    // Exact f64 equality on purpose: the kernels must be bit-identical,
    // not merely close.
    assert_eq!(report.evm_db, Some(-11.193553718128795));
}

/// RF-baseband link near sensitivity with an adjacent-channel
/// interferer: pins the fused front-end chain (LNA → mixers → filters →
/// AGC → ADC → decimation) plus the scene builder's RNG draw order.
/// Re-pinned once, when the flicker generator moved to per-section
/// rates (a deliberate change of its random stream, vouched for by the
/// statistical gates in `rf_noise_model.rs`): errors 1322 → 1299, EVM
/// −7.230632560856826 → −7.223434479088331 dB.
#[test]
fn link_report_pins_rf_baseband_seed_behavior() {
    let report = LinkSimulation::new(LinkConfig {
        rate: Rate::R48,
        psdu_len: 80,
        packets: 4,
        seed: 33,
        rx_level_dbm: -86.0,
        adjacent: Some(AdjacentChannel::first()),
        front_end: FrontEnd::RfBaseband(RfConfig::default()),
        ..LinkConfig::default()
    })
    .run();

    assert_eq!(report.meter.errors(), 1299);
    assert_eq!(report.meter.bits(), 2560);
    assert_eq!(report.meter.packets(), 4);
    assert_eq!(report.meter.packet_errors(), 4);
    assert_eq!(report.decoded_packets, 4);
    assert_eq!(report.evm_db, Some(-7.223434479088331));
}

/// Noisy LLRs for a random terminated codeword.
fn noisy_llrs(message_bits: usize, noise: f64, rng: &mut Rng) -> Vec<Llr> {
    let mut bits: Vec<u8> = (0..message_bits)
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();
    bits.extend_from_slice(&[0; 6]);
    wlan_phy::convolutional::encode(&bits)
        .iter()
        .map(|&b| (1.0 - 2.0 * b as f64) + noise * rng.gaussian())
        .collect()
}

/// Property: a reused `ViterbiDecoder` matches the allocating
/// `decode_soft` on random LLR streams of many lengths and noise
/// levels, with no state leaking between consecutive decodes.
#[test]
fn reused_decoder_matches_decode_soft_on_random_streams() {
    let mut rng = Rng::new(2026);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    for trial in 0..40 {
        let message_bits = 1 + (rng.next_u64() % 600) as usize;
        let noise = [0.0, 0.3, 0.8, 1.5][trial % 4];
        let llrs = noisy_llrs(message_bits, noise, &mut rng);
        dec.decode_soft_into(&llrs, &mut got);
        let want = decode_soft(&llrs);
        assert_eq!(
            got, want,
            "trial {trial}: {message_bits} bits, noise {noise}"
        );
    }
}

/// Property: both soft decoders agree with the conformance reference
/// trellis, so the production kernel is anchored to an independent
/// implementation, not merely to itself. The last stream is longer than
/// 8,192 trellis steps, so it passes the renormalization check (every
/// 4,096 steps) twice.
#[test]
fn soft_decoders_match_conformance_reference() {
    let mut rng = Rng::new(31);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    let lengths = (0..10).map(|trial| 120 + 40 * trial).chain([8_300]);
    for (trial, message_bits) in lengths.enumerate() {
        let llrs = noisy_llrs(message_bits, 0.6, &mut rng);
        dec.decode_soft_into(&llrs, &mut got);
        let reference = wlan_conformance::refimpl::viterbi_reference(&llrs);
        assert_eq!(got, reference, "trial {trial}");
    }
}

/// Pure noise (no codeword structure) must still decode identically —
/// the traceback tie-breaking rules are part of the bit contract. The
/// 6–9-step streams end with an arbitrary best state right after the
/// warm-up, the two-step unroll and its one-step remainder.
#[test]
fn decoders_agree_on_pure_noise() {
    let mut rng = Rng::new(97);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    for steps in [240; 10].into_iter().chain(6..=9) {
        let llrs: Vec<Llr> = (0..2 * steps).map(|_| 2.0 * rng.gaussian()).collect();
        dec.decode_soft_into(&llrs, &mut got);
        assert_eq!(got, decode_soft(&llrs));
        assert_eq!(got, wlan_conformance::refimpl::viterbi_reference(&llrs));
    }
}

/// Messages of 0–3 and 5 bits (plus the six tail bits) give trellis
/// lengths 6–9 and 11: the six-step warm-up, where only part of the
/// state space is reachable, then the two-step steady-state unroll and
/// its one-step remainder. All must match the reference trellis.
#[test]
fn decoder_matches_reference_at_warm_up_edges() {
    let mut rng = Rng::new(0xdec0de);
    let mut dec = ViterbiDecoder::new();
    let mut got = Vec::new();
    for message_bits in [0usize, 1, 2, 3, 5] {
        for trial in 0..5 {
            let llrs = noisy_llrs(message_bits, 0.7, &mut rng);
            dec.decode_soft_into(&llrs, &mut got);
            let reference = wlan_conformance::refimpl::viterbi_reference(&llrs);
            assert_eq!(got, reference, "{message_bits} bits, trial {trial}");
        }
    }
}

/// Punctured R48 (2/3) and R54 (3/4) streams through `depuncture_into`:
/// the zero-LLR erasures make candidate costs tie exactly, so the
/// lower-predecessor tie rule decides survivors and the decoded bits.
#[test]
fn decoder_matches_reference_on_punctured_streams() {
    let mut rng = Rng::new(4854);
    let mut dec = ViterbiDecoder::new();
    let (mut got, mut full) = (Vec::new(), Vec::new());
    for rate in [Rate::R48, Rate::R54] {
        for trial in 0..20 {
            // Message plus tail a multiple of 6, so both puncturing
            // periods (2 and 3 information bits) divide it.
            let mut bits = vec![0u8; 6 * (2 + (rng.next_u64() % 80) as usize)];
            let payload = bits.len() - 6;
            rng.bits(&mut bits[..payload]);
            let coded = puncture(&encode(&bits), rate.code_rate());
            // Integer-valued LLRs (hard decisions with errors and
            // extra erasures) make exact ties common on noisy streams.
            let noise = [0.0, 0.5, 1.0, 2.0][trial % 4];
            let llrs: Vec<Llr> = coded
                .iter()
                .map(|&b| ((1.0 - 2.0 * b as f64) + noise * rng.gaussian()).round())
                .collect();
            depuncture_into(&llrs, rate.code_rate(), &mut full);
            dec.decode_soft_into(&full, &mut got);
            let reference = wlan_conformance::refimpl::viterbi_reference(&full);
            assert_eq!(got, reference, "{rate:?} trial {trial}, noise {noise}");
        }
    }
}

/// RF chain: the in-place production chain `process_into` equals the
/// staged reference walk `process_staged` over several front-end
/// configs, frame by frame across ragged consecutive frames (including
/// a 4-sample tail shorter than the OSR), so the state carried between
/// frames — filters, noise streams, decimator phase, DC correction —
/// is covered too.
#[test]
fn rf_chain_matches_staged_reference_across_frames() {
    let configs = vec![
        ("default", RfConfig::default()),
        (
            "noiseless",
            RfConfig {
                noise_enabled: false,
                ..RfConfig::default()
            },
        ),
        (
            "narrow-filter-rapp-lna",
            RfConfig {
                channel_filter_edge_hz: wlan_units::Hz(6e6),
                lna_nonlinearity: Nonlinearity::rapp(wlan_units::Dbm(-25.0)),
                ..RfConfig::default()
            },
        ),
    ];
    let mut rng = Rng::new(0x5eed);
    for (name, cfg) in &configs {
        let mut fused = DoubleConversionReceiver::new(*cfg, 0xabc);
        let mut staged = DoubleConversionReceiver::new(*cfg, 0xabc);
        let mut scratch = RfScratch::default();
        let mut got = Vec::new();
        for (frame, len) in [2000usize, 640, 1333, 4].into_iter().enumerate() {
            let x = noise_burst(&mut rng, len, 1e-7);
            fused.process_into(&x, &mut scratch, &mut got);
            let want = staged.process_staged(&x);
            assert_bits_eq(&got, &want, &format!("{name} frame {frame}"));
        }
    }
}

/// Mixed-signal co-simulation: the chunked device-major block path
/// equals the sample-by-sample loop bit for bit across device configs
/// (default netlist at analog osr 16 down to 1, narrowed filter edge)
/// and an input length that straddles chunk boundaries. Two netlists
/// probe the memoryless head the block path runs at the system rate:
/// one starts with a stateful AGC (empty head), one has an amplifier
/// after a filter (the head stops at the first stateful device).
/// A stateful device first: no memoryless head to hoist.
const AGC_FIRST: &str = "\
agc1 agc     rf  n1
lna1 lna     n1  n2  gain=15 p1db=-5
mix1 mixer   n2  n3  gain=8
lpf1 cheb_lp n3  out order=5 ripple=0.5 edge=10M
";

/// The head is `lna1` alone; `amp2` follows a filter and stays at the
/// sub-step rate.
const AMP_AFTER_FILTER: &str = "\
lna1 lna     rf  n1  gain=15 p1db=-5
hpf1 hpf     n1  n2  fc=150k order=2
amp2 amp     n2  n3  gain=6 p1db=0
lpf1 cheb_lp n3  out order=5 ripple=0.5 edge=8M
";

#[test]
fn cosim_block_path_matches_sample_by_sample() {
    let mut rng = Rng::new(0xc0);
    // 2500 samples: spans two 1024-sample chunks plus a ragged tail.
    let x = noise_burst(&mut rng, 2500, 1e-6);
    type Builder = Box<dyn Fn() -> CosimReceiver>;
    let builders: Vec<(&str, Builder)> = vec![
        (
            "default osr=2",
            Box::new(|| CosimReceiver::new(80e6, 2, 4).unwrap()),
        ),
        (
            "default osr=1",
            Box::new(|| CosimReceiver::new(80e6, 1, 4).unwrap()),
        ),
        (
            "default osr=16",
            Box::new(|| CosimReceiver::new(80e6, 16, 4).unwrap()),
        ),
        (
            "narrow filter osr=3",
            Box::new(|| CosimReceiver::with_filter_edge(6e6, 80e6, 3, 4).unwrap()),
        ),
        (
            "agc first osr=4",
            Box::new(|| CosimReceiver::from_netlist(AGC_FIRST, 80e6, 4, 4).unwrap()),
        ),
        (
            "amp after filter osr=4",
            Box::new(|| CosimReceiver::from_netlist(AMP_AFTER_FILTER, 80e6, 4, 4).unwrap()),
        ),
    ];
    for (name, build) in &builders {
        let mut block = build();
        let mut serial = build();
        let mut got = Vec::new();
        let mut want = Vec::new();
        // Two passes so carried state (decimation phase, DC blocker,
        // device internals) stays aligned across calls too.
        for pass in 0..2 {
            block.process_into(&x, &mut got);
            serial.process_into_sample_by_sample(&x, &mut want);
            assert_bits_eq(&got, &want, &format!("{name} pass {pass}"));
            assert_eq!(block.steps_taken(), serial.steps_taken(), "{name} steps");
        }
    }
}

/// Interpolator: the lane-group `Upsampler` equals the one-accumulator
/// conformance loop for every factor that exercises a different mix of
/// four-phase groups and one-lane leftovers (1–5, 8, 16), with branches
/// of one tap (a window of the newest sample alone), an odd tap count,
/// and the scene renderer's 32. Inputs are shorter and longer than the
/// history, so the zero-filled start and the mirror wrap are both hit.
#[test]
fn upsampler_matches_reference_across_factors_and_taps() {
    let mut rng = Rng::new(0x0a55);
    for factor in [1usize, 2, 3, 4, 5, 8, 16] {
        for taps in [1usize, 7, 32] {
            for len in [0usize, 5, 301] {
                let x = noise_burst(&mut rng, len, 1.0);
                let got = wlan_dsp::resample::Upsampler::new(factor, taps).process(&x);
                let want = wlan_conformance::upsample_reference(factor, taps, &x);
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("factor {factor}, taps {taps}, len {len}"),
                );
            }
        }
    }
}

/// Split-call continuity: one `process_into` over a frame equals
/// several over consecutive pieces of it, including empty pieces and
/// pieces shorter than the history, and `reset` mid-stream restarts
/// from zero history exactly like a fresh interpolator.
#[test]
fn upsampler_carries_state_across_calls_and_resets() {
    let mut rng = Rng::new(0x5b1);
    let pieces = [0usize, 3, 0, 1, 40, 5, 0, 31, 32, 33, 120];
    let total: usize = pieces.iter().sum();
    for (factor, taps) in [(4usize, 32usize), (3, 7), (5, 1), (8, 32), (2, 33)] {
        let x = noise_burst(&mut rng, total, 1.0);
        let want = wlan_conformance::upsample_reference(factor, taps, &x);
        let mut up = wlan_dsp::resample::Upsampler::new(factor, taps);
        let (mut got, mut piece_out) = (Vec::new(), Vec::new());
        let mut start = 0;
        for len in pieces {
            up.process_into(&x[start..start + len], &mut piece_out);
            assert_eq!(piece_out.len(), factor * len);
            got.extend_from_slice(&piece_out);
            start += len;
        }
        let what = format!("factor {factor}, taps {taps}");
        assert_bits_eq(&got, &want, &format!("{what}, split"));

        // Reset with a full history at an arbitrary ring position,
        // then a fresh frame.
        up.reset();
        let y = noise_burst(&mut rng, 77, 1.0);
        up.process_into(&y, &mut got);
        let fresh = wlan_conformance::upsample_reference(factor, taps, &y);
        assert_bits_eq(&got, &fresh, &format!("{what}, after reset"));
    }
}

//! `kernel_bench` — ns/op timings of the dominant hot-path kernels
//! (Viterbi decode, 64-point FFT, fused RF front-end chain, the
//! co-simulation's analog engine) against their serial reference
//! implementations, plus the RF chain with its noise sources off,
//! written to `BENCH_kernels.json` as same-process ratios CI can gate
//! on. End-to-end throughput is the `wlanbench` benchmark's job.
//!
//! Every optimized kernel must be *bit-identical* to its reference —
//! the same guarantee the golden files and Annex G gates enforce. The
//! JSON records one `identical` flag that ANDs all of the checks, and
//! the process exits non-zero if any of them fails, so CI can run this
//! binary as a regression gate.
//!
//! Environment:
//! * `WLANSIM_BENCH_SMOKE=1` — short workloads (CI smoke mode).

use std::hint::black_box;
use std::time::{Duration, Instant};
use wlan_ams::CosimReceiver;
use wlan_dsp::fft::Fft;
use wlan_dsp::{Complex, Rng};
use wlan_phy::viterbi::{Llr, ViterbiDecoder};
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};

/// Schema version of `BENCH_kernels.json`. Schema 4 dropped the
/// batch-plane kernel entries (`*_batch_*`) and the
/// `link.batched_identical` flag; schema 5 added `rf_chain_noiseless_ns`
/// (the same `process_into` frame with all RF noise off) and
/// `rf_noise_share`, the fraction of the noisy chain's time spent
/// generating noise; schema 6 drops the end-to-end `link` section,
/// which `wlanbench` measures with spread; schema 7 adds `cosim_block_ns`,
/// `cosim_sample_ns` and `cosim_block_speedup` (the co-simulation
/// bridge's block path against its sample-by-sample reference).
const KERNEL_JSON_SCHEMA: u32 = 7;

/// Co-simulation frame: one `cosim_table2` packet's scene (5,376
/// samples at 80 Msps) at analog osr 16.
const COSIM_FRAME: usize = 5376;
const COSIM_OSR: usize = 16;

/// Timing samples per kernel; each kernel reports their median.
const SAMPLES: usize = 20;

/// Times `f` and prints one `label  ns/iter` line: the median
/// per-iteration time over [`SAMPLES`] samples, each a batch of
/// iterations calibrated on untimed warm-up runs to cover ~10 ms.
/// Returns the median in seconds.
fn median_time<O>(label: &str, mut f: impl FnMut() -> O) -> f64 {
    let mut batch = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        if t0.elapsed() >= Duration::from_millis(10) || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = times[times.len() / 2];
    println!("{label:<42} {:>14.1} ns/iter", median * 1e9);
    median
}

/// Noisy LLR stream for a random terminated convolutional codeword.
fn viterbi_workload(message_bits: usize, seed: u64) -> Vec<Llr> {
    let mut rng = Rng::new(seed);
    let mut bits: Vec<u8> = (0..message_bits)
        .map(|_| (rng.next_u64() & 1) as u8)
        .collect();
    // Terminate the trellis like the PHY does (six tail zeros).
    bits.extend_from_slice(&[0; 6]);
    let coded = wlan_phy::convolutional::encode(&bits);
    coded
        .iter()
        .map(|&b| (1.0 - 2.0 * b as f64) + 0.5 * rng.gaussian())
        .collect()
}

fn tone_dbm(f: f64, fs: f64, dbm: f64, n: usize) -> Vec<Complex> {
    let a = (2.0 * wlan_dsp::math::dbm_to_watts(dbm)).sqrt();
    (0..n)
        .map(|i| Complex::from_polar(a, 2.0 * std::f64::consts::PI * f * i as f64 / fs))
        .collect()
}

fn main() {
    let smoke = std::env::var("WLANSIM_BENCH_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let (vit_bits, rf_len) = if smoke { (240, 2000) } else { (1200, 8000) };
    eprintln!(
        "kernel_bench: viterbi {vit_bits} bits, rf {rf_len} samples, \
         {SAMPLES} timing samples{}",
        if smoke { " [smoke]" } else { "" }
    );
    let mut identical = true;

    // --- Viterbi: reusable decoder vs the conformance reference. ---
    let llrs = viterbi_workload(vit_bits, 7);
    let mut dec = ViterbiDecoder::new();
    let mut bits = Vec::new();
    dec.decode_soft_into(&llrs, &mut bits);
    let reference = wlan_conformance::refimpl::viterbi_reference(&llrs);
    let vit_ok = bits == reference;
    identical &= vit_ok;

    let vit_opt_s = median_time("viterbi/decode_soft_into", || {
        dec.decode_soft_into(&llrs, &mut bits);
        bits.len()
    });
    let vit_ref_s = median_time("viterbi/reference", || {
        wlan_conformance::refimpl::viterbi_reference(&llrs).len()
    });

    // --- FFT: specialized 64-point kernel vs the generic radix-2 loop. ---
    let fft = Fft::new(64);
    let mut rng = Rng::new(64);
    let x64: Vec<Complex> = (0..64).map(|_| rng.complex_gaussian(1.0)).collect();
    let mut fast = x64.clone();
    let mut generic = x64.clone();
    fft.forward(&mut fast);
    fft.forward_radix2(&mut generic);
    let mut fft_ok = fast == generic;
    fft.inverse(&mut fast);
    fft.inverse_radix2(&mut generic);
    fft_ok &= fast == generic;
    identical &= fft_ok;

    let mut buf = x64.clone();
    let fft_opt_s = median_time("fft64/forward", || {
        buf.copy_from_slice(&x64);
        fft.forward(&mut buf);
        buf[0]
    });
    let fft_ref_s = median_time("fft64/forward_radix2", || {
        buf.copy_from_slice(&x64);
        fft.forward_radix2(&mut buf);
        buf[0]
    });

    // --- RF chain: fused per-sample loop vs the staged Vec pipeline. ---
    let scene = tone_dbm(2e6, 80e6, -45.0, rf_len);
    let mut fused = DoubleConversionReceiver::new(RfConfig::default(), 42);
    let mut staged = DoubleConversionReceiver::new(RfConfig::default(), 42);
    let mut scratch = RfScratch::default();
    let mut y = Vec::new();
    fused.process_into(&scene, &mut scratch, &mut y);
    let want = staged.process_staged(&scene);
    let rf_ok = y.len() == want.len()
        && y.iter()
            .zip(&want)
            .all(|(a, b)| a.re == b.re && a.im == b.im);
    identical &= rf_ok;

    let rf_opt_s = median_time("rf_chain/process_into", || {
        fused.process_into(&scene, &mut scratch, &mut y);
        y.len()
    });
    let rf_ref_s = median_time("rf_chain/process_staged", || {
        staged.process_staged(&scene).len()
    });
    // The same frame through the same chain with every noise source
    // off: what is left of `process_into` once noise generation is gone.
    let mut noiseless = DoubleConversionReceiver::new(
        RfConfig {
            noise_enabled: false,
            ..RfConfig::default()
        },
        42,
    );
    let rf_quiet_s = median_time("rf_chain/process_into_noiseless", || {
        noiseless.process_into(&scene, &mut scratch, &mut y);
        y.len()
    });

    // --- Co-simulation: block path (memoryless head at the system rate,
    // section-major filters) vs the sample-by-sample reference loop. ---
    let frame = tone_dbm(2e6, 80e6, -45.0, COSIM_FRAME);
    let cosim = || CosimReceiver::new(80e6, COSIM_OSR, 4).expect("default netlist");
    let (mut block, mut serial) = (cosim(), cosim());
    let mut want = Vec::new();
    block.process_into(&frame, &mut y);
    serial.process_into_sample_by_sample(&frame, &mut want);
    let cosim_ok = y.len() == want.len()
        && y.iter()
            .zip(&want)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
    identical &= cosim_ok;

    let cosim_block_s = median_time("cosim/process_into", || {
        block.process_into(&frame, &mut y);
        y.len()
    });
    let cosim_sample_s = median_time("cosim/process_into_sample_by_sample", || {
        serial.process_into_sample_by_sample(&frame, &mut want);
        want.len()
    });

    let vit_speedup = vit_ref_s / vit_opt_s.max(1e-12);
    let fft_speedup = fft_ref_s / fft_opt_s.max(1e-12);
    let rf_speedup = rf_ref_s / rf_opt_s.max(1e-12);
    let rf_noise_share = (1.0 - rf_quiet_s / rf_opt_s.max(1e-12)).max(0.0);
    let cosim_speedup = cosim_sample_s / cosim_block_s.max(1e-12);
    println!("viterbi  {vit_speedup:.2}x vs reference, bit-identical: {vit_ok}");
    println!("fft64    {fft_speedup:.2}x vs radix-2 loop, bit-identical: {fft_ok}");
    println!("rf_chain {rf_speedup:.2}x vs staged, bit-identical: {rf_ok}");
    println!(
        "rf_chain noise generation: {:.0}% of process_into",
        100.0 * rf_noise_share
    );
    println!("cosim    {cosim_speedup:.2}x vs sample-by-sample, bit-identical: {cosim_ok}");
    println!("identical: {identical}");
    if !identical {
        eprintln!("ERROR: an optimized kernel diverged from its reference");
    }

    let json = format!(
        "{{\n  \"schema\": {KERNEL_JSON_SCHEMA},\n  \"bench\": \"kernels\",\n  \
         \"smoke\": {smoke},\n  \"samples\": {SAMPLES},\n  \"kernels\": {{\n    \
         \"viterbi_opt_ns\": {:.1},\n    \"viterbi_ref_ns\": {:.1},\n    \
         \"viterbi_speedup\": {vit_speedup:.4},\n    \
         \"fft64_opt_ns\": {:.1},\n    \"fft64_ref_ns\": {:.1},\n    \
         \"fft64_speedup\": {fft_speedup:.4},\n    \
         \"rf_chain_opt_ns\": {:.1},\n    \"rf_chain_ref_ns\": {:.1},\n    \
         \"rf_chain_speedup\": {rf_speedup:.4},\n    \
         \"rf_chain_noiseless_ns\": {:.1},\n    \
         \"rf_noise_share\": {rf_noise_share:.4},\n    \
         \"cosim_block_ns\": {:.1},\n    \"cosim_sample_ns\": {:.1},\n    \
         \"cosim_block_speedup\": {cosim_speedup:.4}\n  }},\n  \
         \"identical\": {identical}\n}}\n",
        vit_opt_s * 1e9,
        vit_ref_s * 1e9,
        fft_opt_s * 1e9,
        fft_ref_s * 1e9,
        rf_opt_s * 1e9,
        rf_ref_s * 1e9,
        rf_quiet_s * 1e9,
        cosim_block_s * 1e9,
        cosim_sample_s * 1e9,
    );
    match std::fs::write("BENCH_kernels.json", &json) {
        Ok(()) => println!("(BENCH_kernels.json written)"),
        Err(e) => eprintln!("warning: could not write BENCH_kernels.json: {e}"),
    }

    if !identical {
        std::process::exit(1);
    }
}

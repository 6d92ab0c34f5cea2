//! `kernel_bench` — ns/op timings of the dominant hot-path kernels
//! (Viterbi decode, 64-point FFT, fused RF front-end chain, the
//! co-simulation's analog engine, batched normal deviates, polyphase
//! interpolation) against their serial reference implementations,
//! plus the RF chain with its noise sources off, written to
//! `BENCH_kernels.json` as same-process ratios CI can gate on. Every
//! time is recorded as the median and quartiles of its timing samples,
//! with the host's CPU count and model. End-to-end throughput is the
//! `wlanbench` benchmark's job.
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
use wlan_conformance::upsample_reference;
use wlan_dsp::fft::Fft;
use wlan_dsp::resample::Upsampler;
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
/// bridge's block path against its sample-by-sample reference); schema
/// 8 adds a `_p25`/`_p75` quartile beside every `*_ns` median, a `host`
/// fingerprint (`nproc`, CPU model), and the `normal_fill_*` and
/// `upsample_*` kernels with their speedups.
const KERNEL_JSON_SCHEMA: u32 = 8;

/// Co-simulation frame: one `cosim_table2` packet's scene (5,376
/// samples at 80 Msps) at analog osr 16.
const COSIM_FRAME: usize = 5376;
const COSIM_OSR: usize = 16;

/// Normal deviates per `normal_fill` iteration.
const NORMALS: usize = 4096;

/// Interpolator workload: one `fig5_sweep` adjacent-channel frame
/// (2,704 samples at 20 Msps) up to 80 Msps through the scene
/// renderer's 32 taps per branch.
const UPSAMPLE_FRAME: usize = 2704;
const UPSAMPLE_FACTOR: usize = 4;
const UPSAMPLE_TAPS: usize = 32;

/// Timing samples per kernel; each kernel reports their median and
/// quartiles.
const SAMPLES: usize = 20;

/// Per-iteration time of one kernel over [`SAMPLES`] samples: the
/// median and quartiles, in seconds.
#[derive(Debug, Clone, Copy)]
struct Timing {
    p25: f64,
    p50: f64,
    p75: f64,
}

/// Times `f` and prints one `label  ns/iter` line: the median
/// per-iteration time over [`SAMPLES`] samples, each a batch of
/// iterations calibrated on untimed warm-up runs to cover ~10 ms, with
/// its interquartile range.
fn median_time<O>(label: &str, mut f: impl FnMut() -> O) -> Timing {
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
    let t = Timing {
        p25: times[SAMPLES / 4],
        p50: times[SAMPLES / 2],
        p75: times[3 * SAMPLES / 4],
    };
    println!(
        "{label:<42} {:>14.1} ns/iter  [{:.1}, {:.1}]",
        t.p50 * 1e9,
        t.p25 * 1e9,
        t.p75 * 1e9
    );
    t
}

/// The host fingerprint, CPU count and model, as a JSON object.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Drop what would need escaping in a JSON string.
    let cpu: String = cpu
        .chars()
        .filter(|c| !c.is_control() && !matches!(c, '"' | '\\'))
        .collect();
    format!("{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\"}}")
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

    let vit_opt_t = median_time("viterbi/decode_soft_into", || {
        dec.decode_soft_into(&llrs, &mut bits);
        bits.len()
    });
    let vit_ref_t = median_time("viterbi/reference", || {
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
    let fft_opt_t = median_time("fft64/forward", || {
        buf.copy_from_slice(&x64);
        fft.forward(&mut buf);
        buf[0]
    });
    let fft_ref_t = median_time("fft64/forward_radix2", || {
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

    let rf_opt_t = median_time("rf_chain/process_into", || {
        fused.process_into(&scene, &mut scratch, &mut y);
        y.len()
    });
    let rf_ref_t = median_time("rf_chain/process_staged", || {
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
    let rf_quiet_t = median_time("rf_chain/process_into_noiseless", || {
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

    let cosim_block_t = median_time("cosim/process_into", || {
        block.process_into(&frame, &mut y);
        y.len()
    });
    let cosim_sample_t = median_time("cosim/process_into_sample_by_sample", || {
        serial.process_into_sample_by_sample(&frame, &mut want);
        want.len()
    });

    // --- Normal deviates: batched polar fill vs scalar gaussian(). ---
    let mut fill_rng = Rng::new(0x6e);
    let mut scalar_rng = fill_rng.clone();
    let mut normals = vec![0.0; NORMALS];
    fill_rng.fill_gaussian(&mut normals);
    let normal_ok = normals
        .iter()
        .all(|g| g.to_bits() == scalar_rng.gaussian().to_bits())
        && fill_rng == scalar_rng;
    identical &= normal_ok;

    let normal_fill_t = median_time("normal/fill_gaussian", || {
        fill_rng.fill_gaussian(&mut normals);
        normals[0]
    });
    let normal_scalar_t = median_time("normal/gaussian_loop", || {
        for g in normals.iter_mut() {
            *g = scalar_rng.gaussian();
        }
        normals[0]
    });

    // --- Interpolator: lane-group Upsampler vs the one-accumulator
    // conformance loop (fresh history each frame, as the scene renders
    // every emitter). ---
    let mut rng = Rng::new(2704);
    let frame: Vec<Complex> = (0..UPSAMPLE_FRAME)
        .map(|_| rng.complex_gaussian(1.0))
        .collect();
    let mut up = Upsampler::new(UPSAMPLE_FACTOR, UPSAMPLE_TAPS);
    up.process_into(&frame, &mut y);
    let want = upsample_reference(UPSAMPLE_FACTOR, UPSAMPLE_TAPS, &frame);
    let upsample_ok = y.len() == want.len()
        && y.iter()
            .zip(&want)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
    identical &= upsample_ok;

    let upsample_opt_t = median_time("upsample/process_into", || {
        up.reset();
        up.process_into(&frame, &mut y);
        y.len()
    });
    let upsample_ref_t = median_time("upsample/reference", || {
        upsample_reference(UPSAMPLE_FACTOR, UPSAMPLE_TAPS, &frame).len()
    });

    let speedup = |reference: Timing, opt: Timing| reference.p50 / opt.p50.max(1e-12);
    let vit_speedup = speedup(vit_ref_t, vit_opt_t);
    let fft_speedup = speedup(fft_ref_t, fft_opt_t);
    let rf_speedup = speedup(rf_ref_t, rf_opt_t);
    let rf_noise_share = (1.0 - rf_quiet_t.p50 / rf_opt_t.p50.max(1e-12)).max(0.0);
    let cosim_speedup = speedup(cosim_sample_t, cosim_block_t);
    let normal_speedup = speedup(normal_scalar_t, normal_fill_t);
    let upsample_speedup = speedup(upsample_ref_t, upsample_opt_t);
    println!("viterbi  {vit_speedup:.2}x vs reference, bit-identical: {vit_ok}");
    println!("fft64    {fft_speedup:.2}x vs radix-2 loop, bit-identical: {fft_ok}");
    println!("rf_chain {rf_speedup:.2}x vs staged, bit-identical: {rf_ok}");
    println!(
        "rf_chain noise generation: {:.0}% of process_into",
        100.0 * rf_noise_share
    );
    println!("cosim    {cosim_speedup:.2}x vs sample-by-sample, bit-identical: {cosim_ok}");
    println!("normal   {normal_speedup:.2}x vs scalar gaussian(), bit-identical: {normal_ok}");
    println!("upsample {upsample_speedup:.2}x vs reference, bit-identical: {upsample_ok}");
    println!("identical: {identical}");
    if !identical {
        eprintln!("ERROR: an optimized kernel diverged from its reference");
    }

    // Every `*_ns` entry is a median with its quartiles; CI gates on
    // the ratios of medians.
    let mut kernels: Vec<(String, String)> = Vec::new();
    let mut time = |name: &str, t: Timing| {
        for (suffix, v) in [("", t.p50), ("_p25", t.p25), ("_p75", t.p75)] {
            kernels.push((format!("{name}_ns{suffix}"), format!("{:.1}", v * 1e9)));
        }
    };
    time("viterbi_opt", vit_opt_t);
    time("viterbi_ref", vit_ref_t);
    time("fft64_opt", fft_opt_t);
    time("fft64_ref", fft_ref_t);
    time("rf_chain_opt", rf_opt_t);
    time("rf_chain_ref", rf_ref_t);
    time("rf_chain_noiseless", rf_quiet_t);
    time("cosim_block", cosim_block_t);
    time("cosim_sample", cosim_sample_t);
    time("normal_fill", normal_fill_t);
    time("normal_scalar", normal_scalar_t);
    time("upsample_opt", upsample_opt_t);
    time("upsample_ref", upsample_ref_t);
    for (name, ratio) in [
        ("viterbi_speedup", vit_speedup),
        ("fft64_speedup", fft_speedup),
        ("rf_chain_speedup", rf_speedup),
        ("rf_noise_share", rf_noise_share),
        ("cosim_block_speedup", cosim_speedup),
        ("normal_fill_speedup", normal_speedup),
        ("upsample_speedup", upsample_speedup),
    ] {
        kernels.push((name.to_string(), format!("{ratio:.4}")));
    }
    let kernels: Vec<String> = kernels
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    let json = format!(
        "{{\n  \"schema\": {KERNEL_JSON_SCHEMA},\n  \"bench\": \"kernels\",\n  \
         \"smoke\": {smoke},\n  \"samples\": {SAMPLES},\n  \"host\": {},\n  \
         \"kernels\": {{\n{}\n  }},\n  \"identical\": {identical}\n}}\n",
        host_json(),
        kernels.join(",\n"),
    );
    match std::fs::write("BENCH_kernels.json", &json) {
        Ok(()) => println!("(BENCH_kernels.json written)"),
        Err(e) => eprintln!("warning: could not write BENCH_kernels.json: {e}"),
    }

    if !identical {
        std::process::exit(1);
    }
}

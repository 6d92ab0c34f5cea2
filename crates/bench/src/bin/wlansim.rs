//! `wlansim` — the registry-driven experiment runner.
//!
//! One CLI replaces the former one-binary-per-experiment layout:
//!
//! ```text
//! wlansim list                      # every registered experiment
//! wlansim run <name> [flags]        # one experiment
//! wlansim all [flags]               # the full paper evaluation
//! wlansim serve [flags]             # streaming session engine
//! wlansim check-manifest [path]     # validate a run manifest
//! ```
//!
//! Flags for `run` / `all`:
//!
//! * `--packets N` / `--psdu N` — Monte-Carlo effort (same semantics
//!   as `WLANSIM_PACKETS` / `WLANSIM_PSDU`, which remain the defaults)
//! * `--seed S` — master seed (default 42)
//! * `--threads T` — engine worker count (default `WLANSIM_THREADS`
//!   or available parallelism)
//! * `--serial` — the reference estimator, `Engine::reference()` (the
//!   bit-reproducible path the pinned goldens use; one worker)
//! * `--profile P` — OFDM numerology for the profile-aware
//!   experiments (`ber_snr`, `ip3`, `blocking`); `wlansim list` names
//!   the choices (default `ieee-802-11a`)
//! * `--lo X` / `--hi X` / `--points N` (`run` only) — sweep-bounds
//!   overrides, parsed into the unit newtype the sweep's config
//!   carries (dBm for ip3/level_sweep/fig6 and the noise_figure
//!   receive level, dB for blocking, Hz for the cfo maximum offset)
//! * `--json` — print the run manifest to stdout as well
//! * `--manifest PATH` — manifest location (default
//!   `RUN_MANIFEST.json` in the working directory)
//!
//! Every `run`/`all` invocation writes the schema-versioned run
//! manifest next to the `BENCH_*.json` files; `check-manifest` gates
//! it in CI via `wlan_conformance::manifest`. With `--baseline` it
//! additionally diffs the manifest's per-point elapsed-per-packet
//! against a committed baseline manifest and exits non-zero when any
//! shared point regresses beyond `--tolerance` (default +50%).
//!
//! `wlansim serve` runs the streaming session engine
//! (`wlan_sim::serve`): it admits `--sessions` concurrent quick-effort
//! links, feeds each `--packets` packets through its preallocated ring,
//! and drives them on `--workers` pool workers, printing sessions/s,
//! aggregate packets/s and the p50/p99 chunk service latency. With
//! `--verify`, every session's report is compared bit-for-bit against
//! a serial [`LinkSimulation::run`] over the same traffic.

use std::process::ExitCode;
use wlan_exec::{split_seed, ThreadPool};
use wlan_phy::Rate;
use wlan_sim::experiments::{self, execute, Experiment, RunContext, SweepBounds};
use wlan_sim::link::{FrontEnd, LinkConfig, LinkSimulation};
use wlan_sim::manifest::{RunManifest, MANIFEST_DEFAULT_PATH};
use wlan_sim::serve::{ServeConfig, SessionEngine};

const USAGE: &str = "usage:
  wlansim list
  wlansim run <name> [--packets N] [--psdu N] [--seed S] [--threads T] [--serial] [--json] [--manifest PATH]
                     [--profile P] [--lo X] [--hi X] [--points N]
  wlansim all [same flags except --lo/--hi/--points]
  wlansim serve [--sessions N] [--workers T] [--chunk N] [--ring N] [--packets N] [--psdu N]
                [--seed S] [--verify]
  wlansim check-manifest [PATH] [--baseline BASE] [--tolerance FRAC]

run `wlansim list` for the experiment names.";

/// Parsed `run`/`all` flags.
#[derive(Debug, Default)]
struct Flags {
    packets: Option<usize>,
    psdu: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    serial: bool,
    json: bool,
    manifest: Option<String>,
    profile: Option<String>,
    bounds: SweepBounds,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--packets" => f.packets = Some(parse_num(&value("--packets")?)?),
            "--psdu" => f.psdu = Some(parse_num(&value("--psdu")?)?),
            "--seed" => f.seed = Some(parse_num(&value("--seed")?)?),
            "--threads" => f.threads = Some(parse_num(&value("--threads")?)?),
            "--serial" => f.serial = true,
            "--json" => f.json = true,
            "--manifest" => f.manifest = Some(value("--manifest")?),
            "--profile" => f.profile = Some(value("--profile")?),
            "--lo" => f.bounds.lo = Some(parse_num(&value("--lo")?)?),
            "--hi" => f.bounds.hi = Some(parse_num(&value("--hi")?)?),
            "--points" => f.bounds.points = Some(parse_num(&value("--points")?)?),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(f)
}

fn parse_num<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("invalid number '{text}'"))
}

/// Builds the run context: environment defaults, then flag overrides.
fn context(f: &Flags) -> Result<RunContext, String> {
    let mut ctx = RunContext::from_env();
    if let Some(name) = &f.profile {
        ctx.profile = wlan_phy::find_profile(name).ok_or_else(|| {
            let known: Vec<&str> = wlan_phy::ALL_PROFILES.iter().map(|p| p.name).collect();
            format!("unknown profile '{name}' (known: {})", known.join(", "))
        })?;
    }
    if let Some(p) = f.packets {
        ctx.effort.packets = p.max(1);
    }
    if let Some(p) = f.psdu {
        ctx.effort.psdu_len = p.max(1);
    }
    if let Some(s) = f.seed {
        ctx.seed = s;
    }
    if let Some(t) = f.threads {
        ctx.engine.pool = ThreadPool::new(t);
    }
    if f.serial {
        ctx.engine = wlan_sim::experiments::Engine::reference();
    }
    Ok(ctx)
}

/// Runs one experiment under `ctx`: prints its tables and notes, saves
/// CSVs and artifacts under `results/`, and reports per-point timing
/// in the bench-harness line format when the experiment measured it.
fn run_one(exp: &dyn Experiment, ctx: &mut RunContext) {
    eprintln!(
        "wlansim: {} ({}) with {:?}, profile {}, seed {}, {} thread(s){}",
        exp.name(),
        exp.paper_ref(),
        ctx.effort,
        ctx.profile.name,
        ctx.seed,
        ctx.engine.pool.threads(),
        if ctx.engine.mc.is_none() {
            ", serial estimator"
        } else {
            ""
        }
    );
    let out = execute(exp, ctx);
    for (i, t) in out.tables.iter().enumerate() {
        println!("{t}");
        let stem = if i == 0 {
            exp.name().to_string()
        } else {
            format!("{}_{}", exp.name(), i + 1)
        };
        wlan_bench::save_csv(t, &stem);
    }
    let timed: Vec<(String, std::time::Duration)> = out
        .points
        .iter()
        .filter_map(|p| p.elapsed.map(|e| (p.label.clone(), e)))
        .collect();
    if !timed.is_empty() {
        wlan_bench::harness::report_point_timing(exp.name(), &timed);
    }
    for note in &out.notes {
        println!("{note}");
    }
    for (name, content) in &out.artifacts {
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(name);
            match std::fs::write(&path, content) {
                Ok(()) => println!("(artifact written to {})", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
        }
    }
    println!();
}

/// Writes (and optionally prints) the manifest collected in `ctx`.
fn finish(ctx: &RunContext, flags: &Flags) -> ExitCode {
    let manifest = RunManifest::from_sink(&ctx.telemetry);
    let path = flags.manifest.as_deref().unwrap_or(MANIFEST_DEFAULT_PATH);
    if flags.json {
        print!("{}", manifest.render());
    }
    match manifest.write(path) {
        Ok(()) => {
            eprintln!("wlansim: manifest written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wlansim: could not write manifest {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed `serve` flags.
#[derive(Debug)]
struct ServeFlags {
    sessions: usize,
    workers: usize,
    chunk: usize,
    ring: usize,
    packets: usize,
    psdu: usize,
    seed: u64,
    verify: bool,
}

impl Default for ServeFlags {
    fn default() -> Self {
        ServeFlags {
            sessions: 16,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            chunk: 4,
            ring: 4,
            packets: 16,
            psdu: 60,
            seed: 2003,
            verify: false,
        }
    }
}

fn parse_serve_flags(args: &[String]) -> Result<ServeFlags, String> {
    let mut f = ServeFlags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--sessions" => f.sessions = parse_num(&value("--sessions")?)?,
            "--workers" => f.workers = parse_num(&value("--workers")?)?,
            "--chunk" => f.chunk = parse_num(&value("--chunk")?)?,
            "--ring" => f.ring = parse_num(&value("--ring")?)?,
            "--packets" => f.packets = parse_num(&value("--packets")?)?,
            "--psdu" => f.psdu = parse_num(&value("--psdu")?)?,
            "--seed" => f.seed = parse_num(&value("--seed")?)?,
            "--verify" => f.verify = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    for (name, v) in [
        ("--sessions", f.sessions),
        ("--workers", f.workers),
        ("--chunk", f.chunk),
        ("--ring", f.ring),
        ("--packets", f.packets),
        ("--psdu", f.psdu),
    ] {
        if v == 0 {
            return Err(format!("{name} must be at least 1"));
        }
    }
    Ok(f)
}

/// The session mix `wlansim serve` admits: rate and SNR vary with the
/// session index.
fn serve_link(f: &ServeFlags, session: usize) -> LinkConfig {
    let rate = match session % 3 {
        0 => Rate::R24,
        1 => Rate::R36,
        _ => Rate::R48,
    };
    LinkConfig {
        rate,
        psdu_len: f.psdu,
        packets: f.packets,
        seed: split_seed(f.seed, session as u64, 0),
        snr_db: Some(16.0 + (session % 4) as f64),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    }
}

/// `wlansim serve`: admit, drive, report — optionally verifying every
/// session bit-for-bit against the serial reference.
fn cmd_serve(f: &ServeFlags) -> ExitCode {
    let cfg = ServeConfig {
        max_sessions: f.sessions,
        chunk_packets: f.chunk,
        ring_chunks: f.ring,
    };
    let mut eng = SessionEngine::new(cfg);
    for s in 0..f.sessions {
        if let Err(e) = eng.admit(serve_link(f, s), f.packets) {
            eprintln!("wlansim serve: admission of session {s} failed: {e:?}");
            return ExitCode::FAILURE;
        }
    }
    let pool = ThreadPool::new(f.workers);
    eprintln!(
        "wlansim serve: {} sessions × {} packets ({}-byte PSDUs), {} worker(s), \
         chunk {}, ring {}",
        f.sessions,
        f.packets,
        f.psdu,
        pool.threads(),
        f.chunk,
        f.ring
    );
    let stats = eng.drive(&pool);
    println!(
        "serve    {} sessions in {:.3} s — {:.1} sessions/s, {:.1} packets/s",
        stats.sessions,
        stats.wall.as_secs_f64(),
        stats.sessions_per_s(),
        stats.packets_per_s()
    );
    println!(
        "latency  chunk service p50 {:.1} µs, p99 {:.1} µs ({} chunks, {} backpressure parks)",
        stats.service_p50.as_secs_f64() * 1e6,
        stats.service_p99.as_secs_f64() * 1e6,
        stats.chunks,
        stats.parks
    );
    if !f.verify {
        return ExitCode::SUCCESS;
    }
    let mut diverged = 0usize;
    for s in 0..f.sessions {
        let got = eng.report(s);
        let want = LinkSimulation::new(serve_link(f, s)).run();
        let same = got.meter == want.meter
            && got.decoded_packets == want.decoded_packets
            && got.packets == want.packets
            && got.evm_db.map(f64::to_bits) == want.evm_db.map(f64::to_bits);
        if !same {
            eprintln!("wlansim serve: session {s} diverged from the serial reference");
            diverged += 1;
        }
    }
    if diverged == 0 {
        println!(
            "identity serve == serial run() for all {} sessions",
            f.sessions
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("wlansim serve: {diverged} session(s) diverged");
        ExitCode::FAILURE
    }
}

/// The Annex G gate `run_all` used to apply: refuse to produce paper
/// numbers from a transmitter that no longer matches the standard.
fn annex_g_gate() -> bool {
    let kat = wlan_conformance::annex_g::run_all();
    for r in &kat {
        eprintln!(
            "annex-g [{}] {}: {}",
            if r.ok { "ok" } else { "FAIL" },
            r.stage,
            r.detail
        );
    }
    let ok = wlan_conformance::annex_g::all_pass(&kat);
    if !ok {
        eprintln!("wlansim: Annex G conformance failed — results would not be 802.11a");
    }
    eprintln!();
    ok
}

/// `wlansim check-manifest [PATH] [--baseline BASE] [--tolerance T]`:
/// schema validation, plus the per-point elapsed-per-packet regression
/// diff when a baseline manifest is given.
fn cmd_check_manifest(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut tolerance = wlan_conformance::manifest::BASELINE_DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let step = match arg.as_str() {
            "--baseline" => value("--baseline").map(|v| baseline = Some(v)),
            "--tolerance" => value("--tolerance")
                .and_then(|v| parse_num(&v))
                .map(|v| tolerance = v),
            other if other.starts_with('-') => Err(format!("unknown flag '{other}'")),
            other if path.is_none() => {
                path = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("unexpected argument '{other}'")),
        };
        if let Err(e) = step {
            eprintln!("wlansim check-manifest: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    if tolerance < 0.0 {
        eprintln!("wlansim check-manifest: --tolerance must be non-negative");
        return ExitCode::FAILURE;
    }
    let path = path.unwrap_or_else(|| MANIFEST_DEFAULT_PATH.to_string());
    let fresh = std::path::Path::new(&path);
    if let Err(errs) = wlan_conformance::manifest::validate_file(fresh) {
        eprintln!("{path}: {} violation(s)", errs.len());
        for e in &errs {
            eprintln!("  - {e}");
        }
        return ExitCode::FAILURE;
    }
    println!("{path}: manifest conforms to schema");
    let Some(base) = baseline else {
        return ExitCode::SUCCESS;
    };
    match wlan_conformance::manifest::compare_files(fresh, std::path::Path::new(&base), tolerance) {
        Ok((regressions, compared)) if regressions.is_empty() => {
            println!(
                "{path}: {compared} point(s) within +{:.0}% of baseline {base}",
                tolerance * 100.0
            );
            ExitCode::SUCCESS
        }
        Ok((regressions, compared)) => {
            eprintln!(
                "{path}: {} of {compared} point(s) regressed vs baseline {base}",
                regressions.len()
            );
            for r in &regressions {
                eprintln!("  - {r}");
            }
            ExitCode::FAILURE
        }
        Err(errs) => {
            eprintln!("{path}: baseline diff failed");
            for e in &errs {
                eprintln!("  - {e}");
            }
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{}", experiments::registry_table());
            println!("{}", experiments::profiles_table());
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(name) = args.get(1) else {
                eprintln!("wlansim run: missing experiment name\n{USAGE}");
                return ExitCode::FAILURE;
            };
            let flags = match parse_flags(&args[2..]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("wlansim run: {e}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            // With bounds overrides, an owned sweep instance replaces
            // the static registry entry (the override numbers are
            // parsed into the sweep's unit newtypes).
            let owned: Option<Box<dyn Experiment>> = if flags.bounds.is_empty() {
                None
            } else {
                match experiments::find_with_bounds(name, flags.bounds) {
                    Ok(exp) => Some(exp),
                    Err(e) => {
                        eprintln!("wlansim run: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let exp: &dyn Experiment = match &owned {
                Some(b) => &**b,
                None => match experiments::find(name) {
                    Some(e) => e,
                    None => {
                        eprintln!("wlansim: unknown experiment '{name}' — try `wlansim list`");
                        return ExitCode::FAILURE;
                    }
                },
            };
            let mut ctx = match context(&flags) {
                Ok(ctx) => ctx,
                Err(e) => {
                    eprintln!("wlansim run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            run_one(exp, &mut ctx);
            finish(&ctx, &flags)
        }
        Some("all") => {
            let flags = match parse_flags(&args[1..]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("wlansim all: {e}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            };
            if !flags.bounds.is_empty() {
                eprintln!("wlansim all: --lo/--hi/--points only apply to `wlansim run <name>`");
                return ExitCode::FAILURE;
            }
            if !annex_g_gate() {
                return ExitCode::FAILURE;
            }
            let mut ctx = match context(&flags) {
                Ok(ctx) => ctx,
                Err(e) => {
                    eprintln!("wlansim all: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for exp in experiments::registry() {
                run_one(*exp, &mut ctx);
            }
            finish(&ctx, &flags)
        }
        Some("serve") => match parse_serve_flags(&args[1..]) {
            Ok(f) => cmd_serve(&f),
            Err(e) => {
                eprintln!("wlansim serve: {e}\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("check-manifest") => cmd_check_manifest(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("wlansim: unknown command '{other}'\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn serve_flags_reject_zero_workers() {
        let err = parse_serve_flags(&args(&["--workers", "0"])).unwrap_err();
        assert_eq!(err, "--workers must be at least 1");
    }

    #[test]
    fn serve_flags_accept_positive_workers() {
        let f = parse_serve_flags(&args(&["--sessions", "8", "--workers", "4"])).unwrap();
        assert_eq!((f.sessions, f.workers), (8, 4));
    }
}

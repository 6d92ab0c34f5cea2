//! Command line of the wlansim benchmark:
//!
//! ```text
//! wlanbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one detail line (provenance and checked simulation outputs)
//! and, last, the result line `{"correct", "attempted", "failed",
//! "metrics"}`. `--workload all` runs every workload in turn, each
//! isolated from a panic in another.

use std::panic::catch_unwind;
use std::process::ExitCode;
use wlanbench::json::Obj;
use wlanbench::workloads::Workload;
use wlanbench::{run, SETUP_REPEATS};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: wlanbench --workload <fig5_sweep|ideal_fading|cosim_table2|serve_mixed|all> \
     [--seed N] [--seconds 1..=60] [--trace 0|1]";

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_ran = true;
    for &w in &args.workloads {
        let seconds = args.seconds as f64;
        let head = provenance(w.name(), args.seed, seconds, args.trace);
        match catch_unwind(|| run(w, args.seed, seconds, args.trace)) {
            Ok(o) => {
                println!(
                    "{}",
                    head.obj("sim", o.sim).obj("detail", o.detail).finish()
                );
                let result = Obj::new()
                    .bool("correct", o.correct)
                    .int("attempted", o.attempted)
                    .int("failed", o.failed)
                    .obj("metrics", Obj::metrics(&o.metrics));
                println!("{}", result.finish());
            }
            Err(_) => {
                all_ran = false;
                eprintln!("workload {} panicked outside its ops", w.name());
                println!("{}", head.finish());
            }
        }
    }
    if all_ran {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where and with what a result was produced.
fn provenance(w: &str, seed: u64, seconds: f64, traced: bool) -> Obj {
    Obj::new()
        .str("workload", w)
        .int("seed", seed)
        .num("seconds", seconds)
        .bool("trace", traced)
        .int("setup_repeats", SETUP_REPEATS as u64)
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .str("cpu", &cpu_model())
        .str("rustc", env!("WLANBENCH_RUSTC"))
        .str("git", &git_revision())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (a plain source tree has none and reads "unknown").
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").map(|h| h.trim().to_string());
    let rev = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
        None => head,
    };
    rev.unwrap_or_else(|| "unknown".to_string())
}

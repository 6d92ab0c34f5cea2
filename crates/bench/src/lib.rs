//! Experiment runner and kernel identity gates.
//!
//! Binaries (`cargo run -p wlan-bench --release --bin <name>`):
//!
//! | binary | purpose |
//! |---|---|
//! | `wlansim` | the registry-driven experiment runner: `wlansim list`, `wlansim run <name>`, `wlansim all`, `wlansim check-manifest` |
//! | `kernel_bench` | optimized-vs-reference kernel identity and same-process speedup ratios → `BENCH_kernels.json` |
//!
//! Every experiment of the paper is registered in
//! `wlan_sim::experiments::registry()` and runnable by name; each
//! `wlansim run`/`all` writes the schema-versioned run manifest
//! (`RUN_MANIFEST.json`) next to `BENCH_kernels.json`. Effort is
//! controlled by `WLANSIM_PACKETS` / `WLANSIM_PSDU` (or `--packets` /
//! `--psdu`).
//!
//! End-to-end and per-layer throughput is measured by the separate
//! `wlanbench` crate (`BENCHMARK.json`), not here.

pub mod harness;

/// Writes a table's CSV next to the current directory under `results/`.
pub fn save_csv(table: &wlan_sim::Table, name: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = table.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(csv written to {})", path.display());
        }
    }
}

//! The wlansim benchmark: four workloads measured end to end through the
//! public entry points, and a separate traced run that times every layer
//! of the packet pipeline from outside the program. See `README.md`.

pub mod heap;
pub mod json;
pub mod layers;
pub mod link;
pub mod replica;
pub mod serve;
pub mod stats;
pub mod timing;
pub mod workloads;

use json::{Metric, Obj};
use workloads::Workload;

/// Set-up is repeated this many times per run and the median reported.
pub const SETUP_REPEATS: usize = 101;

/// No run measures past this many seconds, whatever `--seconds` says,
/// so a run always ends within three minutes.
pub const HARD_CAP_S: f64 = 120.0;

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Every check on the simulated outputs passed.
    pub correct: bool,
    /// Ops attempted: packets on link workloads, sessions on `serve_mixed`.
    pub attempted: u64,
    /// Ops that panicked, failed a check, or came back short.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The checked simulated outputs (`sim.*`); they repeat exactly at a
    /// fixed seed.
    pub sim: Obj,
    /// Measurement details.
    pub detail: Obj,
}

/// Runs one workload for about `seconds`, traced or not.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    match (w, traced) {
        (Workload::ServeMixed, false) => serve::run_e2e(seed, seconds),
        (Workload::ServeMixed, true) => serve::run_trace(seed, seconds),
        (_, false) => link::run_e2e(w, seed, seconds),
        (_, true) => link::run_trace(w, seed, seconds),
    }
}

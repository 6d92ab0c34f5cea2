//! The four workloads and the inputs each one derives from `--seed`.
//! Why each workload exists is recorded in `README.md`.

use wlan_exec::split_seed;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig};
use wlan_units::Hz;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `RfBaseband` with the adjacent channel over the 12 Fig 5 filter edges.
    Fig5Sweep,
    /// `Ideal` R54 1500 B over 50 ns Rayleigh multipath at 25 dB SNR.
    IdealFading,
    /// `RfCosim` at analog osr 16, the Table 2 run.
    CosimTable2,
    /// `SessionEngine` with a 3:1 mix of `Ideal` and `RfBaseband` sessions.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Sweep,
        Workload::IdealFading,
        Workload::CosimTable2,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Sweep => "fig5_sweep",
            Workload::IdealFading => "ideal_fading",
            Workload::CosimTable2 => "cosim_table2",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The share of this workload's wave time that follows the
    /// host-speed probe ([`crate::timing::host_probe_ms`]) when a
    /// neighbour slows the shared core. Chosen as the value that made the
    /// medians of runs made in different host speed states agree: the
    /// co-simulation's solver streams a large sub-step buffer and follows
    /// the probe only in part; the long 64-QAM decodes of `ideal_fading`
    /// slow a little more than the probe does.
    pub fn probe_share(self) -> f64 {
        match self {
            Workload::IdealFading => 1.2,
            Workload::CosimTable2 => 0.4,
            Workload::Fig5Sweep | Workload::ServeMixed => 1.0,
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Distinct input sets per link workload. Round `r` uses slot
/// `r % INPUT_SLOTS`, so every later round repeats an earlier one and
/// must reproduce its results exactly; the checked `sim.*` outputs are
/// taken over the first pass through the slots.
pub const INPUT_SLOTS: usize = 6;

/// Packets per Fig 5 sweep point in one round (one round is the whole
/// 12-point sweep).
pub const FIG5_PACKETS_PER_POINT: usize = 2;
/// `ideal_fading` rounds are this many runs of [`IDEAL_PACKETS`] each,
/// so the host-speed probe brackets every ~25 ms of work.
pub const IDEAL_RUNS: usize = 6;
/// Packets per `ideal_fading` run.
pub const IDEAL_PACKETS: usize = 8;
/// Packets per `cosim_table2` round.
pub const COSIM_PACKETS: usize = 8;

/// The paper's Fig 5 channel-filter edges: 12 points from 3 to 16 MHz.
pub fn fig5_edges_hz() -> [f64; 12] {
    std::array::from_fn(|i| 3e6 + 13e6 * i as f64 / 11.0)
}

/// The link configurations of one round of a link workload, for input
/// slot `slot` (see [`INPUT_SLOTS`]).
///
/// # Panics
///
/// Panics for [`Workload::ServeMixed`], which has sessions, not rounds.
pub fn round_configs(w: Workload, seed: u64, slot: usize) -> Vec<LinkConfig> {
    let slot = slot as u64;
    match w {
        Workload::Fig5Sweep => fig5_edges_hz()
            .iter()
            .enumerate()
            .map(|(i, &edge)| LinkConfig {
                rate: Rate::R24,
                psdu_len: 300,
                packets: FIG5_PACKETS_PER_POINT,
                seed: split_seed(seed, i as u64, slot),
                rx_level_dbm: -55.0,
                adjacent: Some(AdjacentChannel::first()),
                front_end: FrontEnd::RfBaseband(RfConfig {
                    channel_filter_edge_hz: Hz(edge),
                    ..RfConfig::default()
                }),
                osr: 4,
                ..LinkConfig::default()
            })
            .collect(),
        Workload::IdealFading => (0..IDEAL_RUNS as u64)
            .map(|i| LinkConfig {
                rate: Rate::R54,
                psdu_len: 1500,
                packets: IDEAL_PACKETS,
                seed: split_seed(seed, i, slot),
                snr_db: Some(25.0),
                multipath_trms_s: Some(50e-9),
                front_end: FrontEnd::Ideal,
                ..LinkConfig::default()
            })
            .collect(),
        Workload::CosimTable2 => vec![LinkConfig {
            rate: Rate::R24,
            psdu_len: 100,
            packets: COSIM_PACKETS,
            seed: split_seed(seed, 0, slot),
            rx_level_dbm: -50.0,
            adjacent: None,
            front_end: FrontEnd::RfCosim {
                filter_edge_hz: 10e6,
                analog_osr: 16,
                noise_workaround: false,
            },
            osr: 4,
            ..LinkConfig::default()
        }],
        Workload::ServeMixed => panic!("serve_mixed has sessions, not link rounds"),
    }
}

/// Packet budget of every `serve_mixed` session.
pub const SESSION_PACKETS: usize = 16;
/// Distinct session configurations; admission cycles through them, so
/// each serial reference run is computed once.
pub const SESSION_CONFIGS: usize = 32;

/// The `index`-th `serve_mixed` session: every fourth one is an
/// `RfBaseband` session with the adjacent channel at the 7 MHz
/// mid-bathtub edge, the rest are `Ideal` R54 sessions at 25 dB.
pub fn session_config(seed: u64, index: usize) -> LinkConfig {
    let index = index % SESSION_CONFIGS;
    let seed = split_seed(seed, 1000, index as u64);
    if index % 4 == 3 {
        LinkConfig {
            rate: Rate::R24,
            psdu_len: 300,
            packets: SESSION_PACKETS,
            seed,
            rx_level_dbm: -55.0,
            adjacent: Some(AdjacentChannel::first()),
            front_end: FrontEnd::RfBaseband(RfConfig {
                channel_filter_edge_hz: Hz(7e6),
                ..RfConfig::default()
            }),
            osr: 4,
            ..LinkConfig::default()
        }
    } else {
        LinkConfig {
            rate: Rate::R54,
            psdu_len: 300,
            packets: SESSION_PACKETS,
            seed,
            snr_db: Some(25.0),
            front_end: FrontEnd::Ideal,
            ..LinkConfig::default()
        }
    }
}

//! The experiment registry contract: every paper experiment is
//! reachable through the `Experiment` trait exactly once, the
//! `wlansim list` table mirrors the registry, snapshot keys are unique
//! within a run, and the trait path is bit-identical to the legacy
//! free-function estimators the goldens were blessed against.

use wlan_phy::Rate;
use wlan_sim::experiments::*;

/// The module list from the paper-mapping table in
/// `experiments/mod.rs`, plus the design-flow driver. One registry
/// entry per module, no more, no less.
const EXPECTED: &[&str] = &[
    "table1",
    "fading",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "ip3",
    "noise_figure",
    "evm",
    "rf_char",
    "level_sweep",
    "blocking",
    "cfo",
    "constellation",
    "ber_snr",
    "design_flow",
];

#[test]
fn every_paper_module_registered_exactly_once() {
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    for want in EXPECTED {
        let hits = names.iter().filter(|n| *n == want).count();
        assert_eq!(hits, 1, "experiment '{want}' registered {hits} times");
    }
    assert_eq!(
        names.len(),
        EXPECTED.len(),
        "unexpected registry entries: {names:?}"
    );
}

#[test]
fn find_resolves_every_registered_name() {
    for e in registry() {
        let found = find(e.name()).expect("find() resolves a registered name");
        assert_eq!(found.name(), e.name());
        assert!(!e.paper_ref().is_empty(), "{} paper_ref", e.name());
        assert!(!e.describe().is_empty(), "{} describe", e.name());
    }
    assert!(find("no_such_experiment").is_none());
}

#[test]
fn list_table_matches_registry() {
    // `wlansim list` prints exactly this table; its rows must be the
    // registry in registry order.
    let t = registry_table();
    assert_eq!(t.len(), registry().len());
    for (row, e) in t.rows().iter().zip(registry()) {
        assert_eq!(row[0], e.name());
        assert_eq!(row[1], e.paper_ref());
        assert_eq!(row[2], e.describe());
    }
}

/// Cheap stand-ins for the experiments whose defaults are too slow for
/// a unit gate: same code paths, minimal sweep sizes.
fn cheap_instances() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(table1::Table1),
        Box::new(fading::FadingSweep {
            rate: Rate::R12,
            snr_db: wlan_units::Db(30.0),
            trms_list: &[50e-9, 100e-9],
        }),
        Box::new(fig4::Fig4Spectrum),
        Box::new(fig6::Fig6Sweep {
            lo_dbm: wlan_units::Dbm(-45.0),
            hi_dbm: wlan_units::Dbm(-10.0),
            points: 2,
        }),
        Box::new(ip3::Ip3Sweep {
            lo_dbm: wlan_units::Dbm(-35.0),
            hi_dbm: wlan_units::Dbm(-5.0),
            points: 2,
        }),
        Box::new(noise_figure::NfSweep {
            rx_level_dbm: wlan_units::Dbm(-80.0),
            points: 2,
        }),
        Box::new(evm::EvmSweep {
            rates: &[Rate::R12, Rate::R24],
            snrs_db: &[20.0, 30.0],
            psdu_len: 100,
        }),
        Box::new(rf_char::RfChar),
        Box::new(level_sweep::LevelSweep {
            rate: Rate::R12,
            lo_dbm: wlan_units::Dbm(-90.0),
            hi_dbm: wlan_units::Dbm(-40.0),
            points: 2,
        }),
        Box::new(blocking::BlockingSweep {
            rate: Rate::R12,
            lo_db: wlan_units::Db(10.0),
            hi_db: wlan_units::Db(30.0),
            points: 2,
        }),
        Box::new(cfo::CfoSweep {
            rate: Rate::R24,
            max_hz: wlan_units::Hz(400e3),
            points: 3,
        }),
        Box::new(ber_snr::BerSnrGrid {
            snrs_db: &[12.0, 24.0],
        }),
    ]
}

#[test]
fn snapshot_keys_unique_and_finite_shape() {
    for exp in cheap_instances() {
        let mut ctx = RunContext::serial_reference(Effort::quick(), 11);
        let out = execute(exp.as_ref(), &mut ctx);
        // table1 is a static standards table: no numeric fields.
        if exp.name() != "table1" {
            assert!(!out.snapshot.is_empty(), "{} empty snapshot", exp.name());
        }
        let mut keys: Vec<&str> = out.snapshot.iter().map(|(k, _)| k.as_str()).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            n,
            "{} has duplicate snapshot keys: {:?}",
            exp.name(),
            out.snapshot.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
        // One telemetry record per executed experiment.
        assert_eq!(ctx.telemetry.records.len(), 1);
        assert_eq!(ctx.telemetry.records[0].name, exp.name());
    }
}

#[test]
fn trait_run_bit_identical_to_legacy_level_sweep() {
    const EXP: level_sweep::LevelSweep = level_sweep::LevelSweep {
        rate: Rate::R12,
        lo_dbm: wlan_units::Dbm(-90.0),
        hi_dbm: wlan_units::Dbm(-40.0),
        points: 3,
    };
    let mut ctx = RunContext::serial_reference(Effort::quick(), 3);
    let via_trait = execute(&EXP, &mut ctx).snapshot;
    let legacy = level_sweep::run(
        Effort::quick(),
        Rate::R12,
        -90.0,
        -40.0,
        3,
        3,
        &Engine::reference(),
    )
    .snapshot();
    assert_eq!(via_trait, legacy);
}

#[test]
fn trait_run_bit_identical_to_legacy_evm() {
    // Single-rate EvmSweep must keep the legacy un-prefixed keys the
    // pinned goldens were blessed with.
    const EXP: evm::EvmSweep = evm::EvmSweep {
        rates: &[Rate::R36],
        snrs_db: &[15.0, 35.0],
        psdu_len: 100,
    };
    let mut ctx = RunContext::serial_reference(Effort::quick(), 1);
    let via_trait = execute(&EXP, &mut ctx).snapshot;
    let legacy = evm::run(Rate::R36, &[15.0, 35.0], 100, 1).snapshot();
    assert_eq!(via_trait, legacy);
    assert!(via_trait.iter().all(|(k, _)| !k.starts_with("r36.")));
}

#[test]
fn trait_run_bit_identical_to_legacy_blocking() {
    const EXP: blocking::BlockingSweep = blocking::BlockingSweep {
        rate: Rate::R12,
        lo_db: wlan_units::Db(10.0),
        hi_db: wlan_units::Db(30.0),
        points: 2,
    };
    let mut ctx = RunContext::serial_reference(Effort::quick(), 5);
    let via_trait = execute(&EXP, &mut ctx).snapshot;
    let legacy = blocking::run(
        Effort::quick(),
        Rate::R12,
        10.0,
        30.0,
        2,
        5,
        &wlan_phy::IEEE_802_11A,
        &Engine::reference(),
    )
    .snapshot();
    assert_eq!(via_trait, legacy);
}

/// The registry path under `serial_reference` is bit-identical to a
/// direct `run(…, &Engine::reference())` for the reference-engine
/// sweeps the pinned goldens do not cover.
#[test]
fn trait_run_bit_identical_to_reference_engine_sweeps() {
    let e = Engine::reference();
    let q = Effort::quick();
    type Case = (Box<dyn Experiment>, u64, Vec<(String, f64)>);
    let cases: Vec<Case> = vec![
        (
            Box::new(fig5::Fig5Sweep { points: 3 }),
            4,
            fig5::run(q, 3, 4, &e).snapshot(),
        ),
        (
            Box::new(fig6::Fig6Sweep {
                lo_dbm: wlan_units::Dbm(-45.0),
                hi_dbm: wlan_units::Dbm(-10.0),
                points: 2,
            }),
            6,
            fig6::run(q, -45.0, -10.0, 2, 6, &e).snapshot(),
        ),
        (
            Box::new(noise_figure::NfSweep {
                rx_level_dbm: wlan_units::Dbm(-80.0),
                points: 2,
            }),
            9,
            noise_figure::run(q, -80.0, 2, 9, &e).snapshot(),
        ),
        (
            Box::new(fading::FadingSweep {
                rate: Rate::R12,
                snr_db: wlan_units::Db(30.0),
                trms_list: &[50e-9, 400e-9],
            }),
            13,
            fading::run(q, Rate::R12, 30.0, &[50e-9, 400e-9], 13, &e).snapshot(),
        ),
        (
            Box::new(cfo::CfoSweep {
                rate: Rate::R24,
                max_hz: wlan_units::Hz(400e3),
                points: 3,
            }),
            23,
            cfo::run(q, Rate::R24, 400e3, 3, 23, &e).snapshot(),
        ),
    ];
    for (exp, seed, direct) in cases {
        let mut ctx = RunContext::serial_reference(q, seed);
        let via_trait = execute(exp.as_ref(), &mut ctx).snapshot;
        assert_eq!(via_trait, direct, "{}", exp.name());
    }
}

#[test]
fn execute_records_manifest_ready_telemetry() {
    const EXP: ip3::Ip3Sweep = ip3::Ip3Sweep {
        lo_dbm: wlan_units::Dbm(-35.0),
        hi_dbm: wlan_units::Dbm(-5.0),
        points: 2,
    };
    let mut ctx = RunContext::serial_reference(Effort::quick(), 7);
    let out = execute(&EXP, &mut ctx);
    let rec = &ctx.telemetry.records[0];
    assert_eq!(rec.points.len(), out.points.len());
    assert!(rec.wall >= std::time::Duration::ZERO);
    assert!(rec.serial);
    assert!(!rec.early_stop, "a reference run never early-stops");
    assert_eq!(rec.threads, 1);
    // The manifest produced from this sink must pass the conformance
    // validator — the same gate CI applies to `wlansim` output.
    let manifest = wlan_sim::manifest::RunManifest::from_sink(&ctx.telemetry);
    let errs = wlan_conformance::manifest::validate(&manifest.render());
    assert!(errs.is_empty(), "{errs:?}");
}

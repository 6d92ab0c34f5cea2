//! Self-tests of the benchmark: the traced replica is faithful, the
//! loss tally adds up, the checked outputs are deterministic, a
//! panicking op is isolated, and every metric of `BENCHMARK.json` is
//! emitted with its unit.

use wlan_sim::link::LinkConfig;
use wlanbench::json::Metric;
use wlanbench::layers::layer_metrics;
use wlanbench::link::{checked_pair, trace_pair};
use wlanbench::replica::Trace;
use wlanbench::run;
use wlanbench::serve::ServeLayer;
use wlanbench::timing::Timings;
use wlanbench::workloads::{round_configs, session_config, Workload};

const LINK: [Workload; 3] = [
    Workload::Fig5Sweep,
    Workload::IdealFading,
    Workload::CosimTable2,
];

fn shortened(mut cfg: LinkConfig, packets: usize) -> LinkConfig {
    cfg.packets = cfg.packets.min(packets);
    cfg
}

#[test]
fn replica_reproduces_link_simulation_bit_for_bit() {
    for w in LINK {
        let mut trace = Trace::default();
        for cfg in round_configs(w, 11, 0) {
            let cfg = shortened(cfg, 3);
            let (plain, traced) = trace_pair(&mut trace, &cfg, true);
            assert_eq!(plain, traced, "{}", w.name());
        }
        assert!(
            trace.faithful,
            "{}: RF block probe differs from the chain",
            w.name()
        );
        // Loss causes are tallied from outside, one per lost packet.
        assert_eq!(
            trace.losses.iter().sum::<u64>(),
            trace.packets - trace.decoded,
            "{}",
            w.name()
        );
        if w == Workload::Fig5Sweep {
            // Both ends of the bathtub lose packets, so the tally above
            // is not vacuous.
            assert!(trace.decoded < trace.packets);
        }
    }
    // Both session kinds of serve_mixed.
    let mut trace = Trace::default();
    for index in [0, 3] {
        let cfg = shortened(session_config(11, index), 4);
        let (plain, traced) = trace_pair(&mut trace, &cfg, false);
        assert_eq!(plain, traced, "session {index}");
    }
    assert!(trace.faithful);
}

#[test]
fn sim_outputs_repeat_at_a_seed_and_change_with_it() {
    for w in LINK.into_iter().chain([Workload::ServeMixed]) {
        let a = run(w, 3, 1.0, false);
        let b = run(w, 3, 1.0, false);
        let c = run(w, 4, 1.0, false);
        for o in [&a, &b, &c] {
            assert!(o.correct && o.failed == 0, "{}: {:?}", w.name(), o);
        }
        let (a, b, c) = (a.sim.finish(), b.sim.finish(), c.sim.finish());
        assert!(a.contains("sim.ber"), "{}: {a}", w.name());
        assert_eq!(a, b, "{}", w.name());
        assert_ne!(a, c, "{}", w.name());
    }
}

#[test]
fn a_panicking_op_is_counted_and_the_run_goes_on() {
    let cfg = round_configs(Workload::IdealFading, 1, 0).remove(0);
    let mut trace = Trace::default();
    let empty_psdu = LinkConfig {
        psdu_len: 0,
        ..cfg.clone()
    };
    assert!(!checked_pair(&mut trace, &empty_psdu, true));
    assert!(checked_pair(&mut trace, &shortened(cfg, 2), true));
    assert!(trace.faithful);
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let open = at + entry[at..].find('"').expect("value opens") + 1;
        entry[open..open + entry[open..].find('"').expect("value closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let mut timings = Timings::new(1.0);
    timings.setup(1e-3, 0.2);
    timings.wave(&[(0.1, 0.2)], 8.0);
    timings.wave(&[(0.05, 0.2), (0.05, 0.3)], 8.0);
    let (e2e, _) = timings.metrics();
    assert_eq!(emitted(&e2e), listed("end_to_end"));
    let layer = listed("per_layer");
    assert_eq!(emitted(&layer_metrics(&Trace::default(), None)), layer);
    assert_eq!(
        emitted(&layer_metrics(
            &Trace::default(),
            Some(&ServeLayer::default())
        )),
        layer
    );
    // The metrics the benchmark was specified with are all there.
    let names: Vec<String> = listed("end_to_end")
        .into_iter()
        .chain(layer)
        .map(|(n, _)| n)
        .collect();
    let specified = [
        "packets_per_s",
        "setup_s",
        "peak_heap_mb",
        "wave_p50_ms",
        "wave_tail_ms",
        "tx.us_per_packet",
        "tx.calls_per_packet",
        "fading.us_per_packet",
        "scene.us_per_packet",
        "scene.samples_per_packet",
        "awgn.us_per_packet",
        "rf.us_per_packet",
        "rf.ns_per_sample",
        "rf.lna.us_per_packet",
        "rf.mixer1.us_per_packet",
        "rf.hpf.us_per_packet",
        "rf.mixer2.us_per_packet",
        "rf.chanfilt.us_per_packet",
        "rf.agc_adc.us_per_packet",
        "rf.block_coverage",
        "rf.noise_share",
        "ams.us_per_packet",
        "ams.steps_per_packet",
        "ams.ns_per_step",
        "rx.us_per_packet",
        "rx.sync.us_per_packet",
        "rx.decode.us_per_packet",
        "rx.decoded_ratio",
        "rx.loss.not_detected",
        "rx.loss.ltf_not_found",
        "rx.loss.signal",
        "rx.loss.truncated",
        "rx.loss.scrambler_sync",
        "rx.loss.length_mismatch",
        "link.self.us_per_packet",
        "trace.overhead",
        "trace_faithful",
        "serve.admit_us",
        "serve.sessions_per_s",
        "serve.recycled_slots",
        "serve.parks",
        "serve.chunk_p50_us",
        "serve.chunk_p99_us",
        "serve.busy_ratio",
    ];
    for name in specified {
        assert!(names.iter().any(|n| n == name), "{name} missing");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "metric names are unique");
}

#[test]
fn cli_prints_a_result_line_per_workload_and_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_wlanbench");
    let out = std::process::Command::new(bin)
        .args([
            "--workload",
            "all",
            "--seed",
            "2",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2 * Workload::ALL.len());
    for (w, pair) in Workload::ALL.iter().zip(lines.chunks(2)) {
        assert!(pair[0].contains(&format!("\"workload\": \"{}\"", w.name())));
        assert!(
            pair[1].starts_with("{\"correct\": true, \"attempted\": "),
            "{}",
            pair[1]
        );
        assert!(pair[1].contains("\"failed\": 0, \"metrics\": {\"packets_per_s\""));
    }
    let bad = std::process::Command::new(bin)
        .args(["--workload", "fig5_sweep", "--trace", "2"])
        .output()
        .expect("benchmark runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}

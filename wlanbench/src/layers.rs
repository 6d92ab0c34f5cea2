//! The per-layer metrics of a traced run.

use crate::json::Metric;
use crate::replica::{Span, Trace, PIPELINE, RF_BLOCKS};
use crate::serve::{ServeLayer, WORKERS};
use crate::stats::median;
use std::time::Instant;

/// The per-layer metrics of a traced run. A layer the workload bypasses
/// has no span; its times read the measured cost of an empty span and
/// its counts and ratios read 0.
pub fn layer_metrics(t: &Trace, serve: Option<&ServeLayer>) -> Vec<Metric> {
    let floor_ns = empty_span_ns();
    let packets = t.packets.max(1) as f64;
    let us = |s: Span| {
        if t.calls(s) == 0 {
            floor_ns / 1e3
        } else {
            t.ns(s) as f64 / packets / 1e3
        }
    };
    let per = |num: u64, den: u64| {
        if den == 0 {
            floor_ns
        } else {
            num as f64 / den as f64
        }
    };
    let rf_ns = t.ns(Span::Rf) as f64;
    let has_rf = t.calls(Span::Rf) > 0;
    let blocks_ns: u64 = RF_BLOCKS.iter().map(|&b| t.ns(b)).sum();
    let pipeline_ns: u64 = PIPELINE.iter().map(|&s| t.ns(s)).sum();
    let serve_us = |v: Option<&Vec<f64>>| v.map_or(floor_ns / 1e3, |v| median(v));
    let m = |name, unit, value| Metric { name, unit, value };
    let mut out = vec![
        m("tx.us_per_packet", "us", us(Span::Tx)),
        m(
            "tx.calls_per_packet",
            "count",
            t.calls(Span::Tx) as f64 / packets,
        ),
        m("fading.us_per_packet", "us", us(Span::Fading)),
        m("scene.us_per_packet", "us", us(Span::Scene)),
        m(
            "scene.samples_per_packet",
            "count",
            t.scene_samples as f64 / packets,
        ),
        m("awgn.us_per_packet", "us", us(Span::Awgn)),
        m("rf.us_per_packet", "us", us(Span::Rf)),
        m("rf.ns_per_sample", "ns", per(t.ns(Span::Rf), t.rf_samples)),
        m("rf.lna.us_per_packet", "us", us(Span::Lna)),
        m("rf.mixer1.us_per_packet", "us", us(Span::Mixer1)),
        m("rf.hpf.us_per_packet", "us", us(Span::Hpf)),
        m("rf.mixer2.us_per_packet", "us", us(Span::Mixer2)),
        m("rf.chanfilt.us_per_packet", "us", us(Span::ChanFilt)),
        m("rf.agc_adc.us_per_packet", "us", us(Span::AgcAdc)),
        m(
            "rf.block_coverage",
            "ratio",
            if has_rf {
                blocks_ns as f64 / rf_ns
            } else {
                0.0
            },
        ),
        m(
            "rf.noise_share",
            "ratio",
            if has_rf {
                (rf_ns - t.ns(Span::RfNoiseless) as f64) / rf_ns
            } else {
                0.0
            },
        ),
        m("ams.us_per_packet", "us", us(Span::Ams)),
        m(
            "ams.steps_per_packet",
            "count",
            t.ams_steps as f64 / packets,
        ),
        m("ams.ns_per_step", "ns", per(t.ns(Span::Ams), t.ams_steps)),
        m(
            "rx.us_per_packet",
            "us",
            us(Span::RxSync) + us(Span::RxDecode),
        ),
        m("rx.sync.us_per_packet", "us", us(Span::RxSync)),
        m("rx.decode.us_per_packet", "us", us(Span::RxDecode)),
        m("rx.decoded_ratio", "ratio", t.decoded as f64 / packets),
    ];
    let loss_names = [
        "rx.loss.not_detected",
        "rx.loss.ltf_not_found",
        "rx.loss.signal",
        "rx.loss.truncated",
        "rx.loss.scrambler_sync",
        "rx.loss.length_mismatch",
    ];
    for (name, &n) in loss_names.into_iter().zip(&t.losses) {
        out.push(m(name, "count", n as f64));
    }
    out.extend([
        m("link.setup.us_per_packet", "us", us(Span::Setup)),
        m(
            "link.self.us_per_packet",
            "us",
            t.traced_ns.saturating_sub(pipeline_ns) as f64 / packets / 1e3,
        ),
        m(
            "trace.overhead",
            "ratio",
            t.traced_ns as f64 / t.untraced_ns.max(1) as f64 - 1.0,
        ),
        m("trace_faithful", "bool", f64::from(u8::from(t.faithful))),
        m("serve.admit_us", "us", serve_us(serve.map(|s| &s.admit_us))),
        m(
            "serve.sessions_per_s",
            "1/s",
            serve.map_or(0.0, |s| median(&s.sessions_per_s)),
        ),
        m(
            "serve.recycled_slots",
            "count",
            serve.map_or(0.0, |s| s.recycled as f64),
        ),
        m(
            "serve.parks",
            "count",
            serve.map_or(0.0, |s| s.parks as f64),
        ),
        m(
            "serve.chunk_p50_us",
            "us",
            serve_us(serve.map(|s| &s.chunk_p50_us)),
        ),
        m(
            "serve.chunk_p99_us",
            "us",
            serve_us(serve.map(|s| &s.chunk_p99_us)),
        ),
        m(
            "serve.busy_ratio",
            "ratio",
            serve.map_or(0.0, |s| {
                s.busy_ns as f64 / (s.drive_ns.max(1) as f64 * WORKERS as f64)
            }),
        ),
    ]);
    out
}

/// Mean wall time of an empty span on this host, in ns.
fn empty_span_ns() -> f64 {
    const N: u32 = 10_000;
    let total: u128 = (0..N)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos()
        })
        .sum();
    total as f64 / f64::from(N)
}

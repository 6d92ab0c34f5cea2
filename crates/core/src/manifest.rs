//! The schema-versioned JSON **run manifest** `wlansim` writes: one
//! record per executed experiment with per-point wall time (the same
//! figures `wlansim run` prints per sweep point), packets simulated,
//! early-stop decisions and the engine's thread count.
//!
//! The workspace builds offline with no external crates, so the writer
//! emits its JSON by hand (the same approach as `BENCH_kernels.json`);
//! schema *validation* lives in `wlan_conformance::manifest`, which has
//! the in-tree JSON parser.

use crate::experiments::{ExperimentTelemetry, TelemetrySink};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Schema version of the run manifest. Bump on any breaking change to
/// the document shape and teach `wlan_conformance::manifest` the new
/// version in the same commit.
pub const MANIFEST_SCHEMA: u32 = 2;

/// Tool name stamped into every manifest.
pub const MANIFEST_TOOL: &str = "wlansim";

/// Default file name, written into the working directory (the repo
/// root in CI) next to `BENCH_kernels.json`.
pub const MANIFEST_DEFAULT_PATH: &str = "RUN_MANIFEST.json";

/// A complete run manifest: the telemetry of every experiment executed
/// by one `wlansim` invocation.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Per-experiment records, in execution order.
    pub records: Vec<ExperimentTelemetry>,
}

impl RunManifest {
    /// Builds the manifest from a context's telemetry sink.
    pub fn from_sink(sink: &TelemetrySink) -> Self {
        RunManifest {
            records: sink.records.clone(),
        }
    }

    /// Renders the manifest document as JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {MANIFEST_SCHEMA},");
        let _ = writeln!(out, "  \"tool\": \"{MANIFEST_TOOL}\",");
        out.push_str("  \"experiments\": [");
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            render_record(&mut out, rec);
        }
        if self.records.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push_str("}\n");
        out
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.render())
    }
}

fn render_record(out: &mut String, rec: &ExperimentTelemetry) {
    out.push_str("    {\n");
    let _ = writeln!(out, "      \"name\": {},", json_str(rec.name));
    let _ = writeln!(out, "      \"paper_ref\": {},", json_str(rec.paper_ref));
    let _ = writeln!(
        out,
        "      \"effort\": {{\"packets\": {}, \"psdu_len\": {}}},",
        rec.effort.packets, rec.effort.psdu_len
    );
    let _ = writeln!(out, "      \"profile\": {},", json_str(rec.profile));
    let _ = writeln!(out, "      \"seed\": {},", rec.seed);
    let _ = writeln!(out, "      \"threads\": {},", rec.threads);
    let _ = writeln!(out, "      \"serial\": {},", rec.serial);
    let _ = writeln!(out, "      \"early_stop\": {},", rec.early_stop);
    let _ = writeln!(out, "      \"wall_s\": {:.6},", rec.wall.as_secs_f64());
    out.push_str("      \"points\": [");
    for (i, p) in rec.points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n        {");
        let _ = write!(out, "\"label\": {}", json_str(&p.label));
        if let Some(e) = p.elapsed_s {
            let _ = write!(out, ", \"elapsed_s\": {e:.6}");
        }
        if let Some(b) = p.bits {
            let _ = write!(out, ", \"bits\": {b}");
        }
        if let Some(n) = p.packets {
            let _ = write!(out, ", \"packets\": {n}");
        }
        if let Some(s) = p.early_stopped {
            let _ = write!(out, ", \"early_stopped\": {s}");
        }
        out.push('}');
    }
    if rec.points.is_empty() {
        out.push(']');
    } else {
        out.push_str("\n      ]");
    }
    out.push_str("\n    }");
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Effort, PointTelemetry};
    use std::time::Duration;

    fn sample() -> RunManifest {
        RunManifest {
            records: vec![ExperimentTelemetry {
                name: "ip3",
                paper_ref: "§5.1",
                effort: Effort::quick(),
                profile: "802.11a",
                seed: 7,
                threads: 4,
                serial: false,
                early_stop: true,
                wall: Duration::from_millis(1500),
                points: vec![
                    PointTelemetry {
                        label: "-40".into(),
                        elapsed_s: Some(0.25),
                        bits: Some(960),
                        packets: Some(2),
                        early_stopped: Some(false),
                    },
                    PointTelemetry {
                        label: "0".into(),
                        elapsed_s: None,
                        bits: None,
                        packets: None,
                        early_stopped: None,
                    },
                ],
            }],
        }
    }

    #[test]
    fn renders_schema_and_fields() {
        let text = sample().render();
        assert!(text.contains("\"schema\": 2"));
        assert!(text.contains("\"tool\": \"wlansim\""));
        assert!(text.contains("\"name\": \"ip3\""));
        assert!(text.contains("\"profile\": \"802.11a\""));
        assert!(text.contains("\"early_stopped\": false"));
        assert!(text.contains("\"threads\": 4"));
    }

    #[test]
    fn empty_manifest_renders() {
        let text = RunManifest::default().render();
        assert!(text.contains("\"experiments\": []"));
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}

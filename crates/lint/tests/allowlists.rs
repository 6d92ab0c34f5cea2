//! The committed ratchet allowlists may only hold live entries: every
//! `CODE path/suffix.rs` line must name a file the lint scans by
//! default and must suppress at least one finding there. A stale entry
//! is an allowance nothing uses, ready to hide a future regression in
//! a file that happens to reuse the name.

use std::path::{Path, PathBuf};
use wlan_lint::{numerology, units, Report};

/// Workspace root, from this crate's manifest directory.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The scan paths `wlan-lint units|numerology` defaults to.
fn scan_paths() -> Vec<String> {
    ["crates", "tests", "examples"]
        .iter()
        .map(|d| root().join(d).to_string_lossy().into_owned())
        .collect()
}

/// Reads a committed allowlist file.
fn read(name: &str) -> String {
    let path = root().join("crates/lint").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Fails on every `(code, suffix)` entry of allowlist `name` that
/// matches no scanned file, or whose code is not raised in any matching
/// file when `report` was linted without an allowlist.
fn assert_live(name: &str, entries: &[(String, String)], report: &Report) {
    let stale: Vec<String> = entries
        .iter()
        .filter_map(|(code, suffix)| {
            let matches = |path: &str| path.replace('\\', "/").ends_with(suffix.as_str());
            if !report.targets.iter().any(|t| matches(t)) {
                Some(format!("{code} {suffix}: matches no file"))
            } else if !report
                .diagnostics
                .iter()
                .any(|d| d.code == code && matches(&d.target))
            {
                Some(format!("{code} {suffix}: suppresses nothing"))
            } else {
                None
            }
        })
        .collect();
    assert!(stale.is_empty(), "stale {name} entries: {stale:#?}");
}

#[test]
fn numerology_allowlist_entries_are_live() {
    let (allow, bad) = numerology::Allowlist::parse(&read("numerology_allowlist.txt"));
    assert!(bad.is_empty(), "unparseable lines: {bad:?}");
    let entries: Vec<_> = allow
        .entries
        .iter()
        .map(|e| (e.code.clone(), e.path_suffix.clone()))
        .collect();
    let (report, io) = numerology::lint_paths(&scan_paths(), &numerology::Allowlist::default());
    assert!(io.is_empty(), "io errors: {io:?}");
    assert_live("numerology_allowlist.txt", &entries, &report);
}

#[test]
fn units_allowlist_entries_are_live() {
    let (allow, bad) = units::Allowlist::parse(&read("units_allowlist.txt"));
    assert!(bad.is_empty(), "unparseable lines: {bad:?}");
    let entries: Vec<_> = allow
        .entries
        .iter()
        .map(|e| (e.code.clone(), e.path_suffix.clone()))
        .collect();
    let (report, io) = units::lint_paths(&scan_paths(), &units::Allowlist::default());
    assert!(io.is_empty(), "io errors: {io:?}");
    assert_live("units_allowlist.txt", &entries, &report);
}

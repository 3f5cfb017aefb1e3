//! The perf-trajectory floor gate, as a library.
//!
//! `bench_floor` (the CI binary) is a thin wrapper around
//! [`check_floors`]: parsing the committed repo-root `BENCH_*.json` files
//! and comparing every recorded speedup against its declared floor lives
//! here so the gate itself is testable — in particular the regression the
//! guard exists to prevent: a floored key that *disappears* from a
//! regenerated file must count as a violation, never as a silent pass
//! (`crates/bench/tests/bench_floor_guard.rs` pins this with doctored
//! files).

use serde::Value;
use std::path::Path;

/// Every floor: (file, label, minimum recorded speedup). Labels are the
/// stable coordinates of a speedup field inside its file — see the
/// extractors below.
///
/// Floors are intentionally set below the committed values (~15–20% slack
/// for machine-class variation between regenerations) except for the
/// acceptance-anchored entries, which encode hard promises the repo has
/// made.
pub const FLOORS: &[(&str, &str, f64)] = &[
    // BENCH_gar.json — arena kernels vs the frozen pre-arena reference
    // (`reference_ns / arena_ns`).
    ("BENCH_gar.json", "average@d1000", 0.90),
    ("BENCH_gar.json", "average@d10000", 0.90),
    ("BENCH_gar.json", "average@d100000", 0.90),
    ("BENCH_gar.json", "median@d1000", 4.0),
    ("BENCH_gar.json", "median@d10000", 4.0),
    // Acceptance anchor (PR 5): ≥3× over the PR-4 quickselect kernels,
    // which tracked the reference within a few percent at d = 100k.
    ("BENCH_gar.json", "median@d100000", 3.0),
    ("BENCH_gar.json", "trimmed-mean@d1000", 6.0),
    ("BENCH_gar.json", "trimmed-mean@d10000", 5.5),
    ("BENCH_gar.json", "trimmed-mean@d100000", 4.5),
    ("BENCH_gar.json", "krum@d1000", 1.6),
    ("BENCH_gar.json", "krum@d10000", 1.6),
    ("BENCH_gar.json", "krum@d100000", 1.6),
    ("BENCH_gar.json", "multi-krum@d1000", 1.6),
    ("BENCH_gar.json", "multi-krum@d10000", 1.9),
    ("BENCH_gar.json", "multi-krum@d100000", 2.1),
    ("BENCH_gar.json", "bulyan@d1000", 3.3),
    ("BENCH_gar.json", "bulyan@d10000", 3.3),
    ("BENCH_gar.json", "bulyan@d100000", 3.3),
    // BENCH_shard.json — sharded vs unsharded per shard count
    // (`unsharded_ns / sharded_ns`).
    ("BENCH_shard.json", "multi-krum@S1", 1.3),
    ("BENCH_shard.json", "multi-krum@S2", 1.3),
    ("BENCH_shard.json", "multi-krum@S4", 1.3),
    ("BENCH_shard.json", "multi-krum@S8", 1.3),
    ("BENCH_shard.json", "krum@S1", 1.3),
    ("BENCH_shard.json", "krum@S2", 1.3),
    ("BENCH_shard.json", "krum@S4", 1.3),
    ("BENCH_shard.json", "krum@S8", 1.3),
    ("BENCH_shard.json", "bulyan@S1", 1.0),
    ("BENCH_shard.json", "bulyan@S2", 1.0),
    ("BENCH_shard.json", "bulyan@S4", 1.0),
    ("BENCH_shard.json", "bulyan@S8", 1.0),
    // Acceptance anchor (PR 5): coordinate-wise rules never regress under
    // sharding again (the recorded fix was 0.95 → 1.00).
    ("BENCH_shard.json", "median@S1", 0.98),
    ("BENCH_shard.json", "median@S2", 0.98),
    ("BENCH_shard.json", "median@S4", 0.98),
    ("BENCH_shard.json", "median@S8", 0.98),
    ("BENCH_shard.json", "trimmed-mean@S1", 0.98),
    ("BENCH_shard.json", "trimmed-mean@S2", 0.98),
    ("BENCH_shard.json", "trimmed-mean@S4", 0.98),
    ("BENCH_shard.json", "trimmed-mean@S8", 0.98),
    // BENCH_tree.json — the two-level group-wise tier vs the flat GAR at
    // the same n (`flat_ns / tree_ns`), Multi-Krum at both levels, g = 32.
    // Acceptance anchor (PR 9): the tree changes the asymptotics
    // (O(n²d) → O(n·g·d + (n/g)²d)), so from n = 256 the composed round is
    // ≥3× the flat one on one box, growing with n.
    ("BENCH_tree.json", "multi-krum@n128", 1.5),
    ("BENCH_tree.json", "multi-krum@n256", 3.0),
    ("BENCH_tree.json", "multi-krum@n512", 3.0),
    ("BENCH_tree.json", "multi-krum@n1024", 3.0),
];

/// A speedup extracted from a committed bench file.
pub struct Recorded {
    /// The `BENCH_*.json` file the value came from.
    pub file: &'static str,
    /// The stable coordinate of the speedup field inside its file.
    pub label: String,
    /// The recorded speedup.
    pub speedup: f64,
}

/// An extractor turns one parsed `BENCH_*.json` document into labelled
/// speedups.
pub type Extractor = fn(&Value, &mut Vec<Recorded>);

/// Every trajectory file the gate knows, with its extractor.
pub const FILES: &[(&str, Extractor)] = &[
    ("BENCH_gar.json", extract_gar),
    ("BENCH_shard.json", extract_shard),
    ("BENCH_tree.json", extract_tree),
];

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(v) => Some(*v),
        Value::I64(v) => Some(*v as f64),
        Value::U64(v) => Some(*v as f64),
        _ => None,
    }
}

fn field_str(value: &Value, key: &str) -> String {
    match value.get_field(key) {
        Ok(Value::Str(s)) => s.clone(),
        Ok(other) => as_f64(other).map(|v| format!("{v}")).unwrap_or_default(),
        Err(_) => String::new(),
    }
}

fn field_f64(value: &Value, key: &str) -> Option<f64> {
    value.get_field(key).ok().and_then(as_f64)
}

fn seq<'v>(value: &'v Value, key: &str) -> Vec<&'v Value> {
    match value.get_field(key) {
        Ok(Value::Seq(items)) => items.iter().collect(),
        _ => Vec::new(),
    }
}

/// `BENCH_gar.json`: one `{rule, d, speedup}` per cell.
fn extract_gar(doc: &Value, out: &mut Vec<Recorded>) {
    for cell in seq(doc, "results") {
        let rule = field_str(cell, "rule");
        let d = field_str(cell, "d");
        if let Some(speedup) = field_f64(cell, "speedup") {
            out.push(Recorded { file: "BENCH_gar.json", label: format!("{rule}@d{d}"), speedup });
        }
    }
}

/// `BENCH_shard.json`: `{rule, sharded: [{shards, speedup}]}` per rule.
fn extract_shard(doc: &Value, out: &mut Vec<Recorded>) {
    for row in seq(doc, "results") {
        let rule = field_str(row, "rule");
        for arm in seq(row, "sharded") {
            let shards = field_str(arm, "shards");
            if let Some(speedup) = field_f64(arm, "speedup") {
                out.push(Recorded {
                    file: "BENCH_shard.json",
                    label: format!("{rule}@S{shards}"),
                    speedup,
                });
            }
        }
    }
}

/// `BENCH_tree.json`: one `{n, flat_ns, tree_ns, speedup}` per scale point,
/// with the rule named once at the top level.
fn extract_tree(doc: &Value, out: &mut Vec<Recorded>) {
    let rule = field_str(doc, "rule");
    for cell in seq(doc, "results") {
        let n = field_str(cell, "n");
        if let Some(speedup) = field_f64(cell, "speedup") {
            out.push(Recorded { file: "BENCH_tree.json", label: format!("{rule}@n{n}"), speedup });
        }
    }
}

/// The outcome of one gate run, ready to print.
#[derive(Debug)]
pub struct FloorReport {
    /// One `"<file> <label>: <speedup> >= <floor>"` line per floor that held.
    pub held: Vec<String>,
    /// One line per violation — a recorded speedup below its floor, or a
    /// floored key missing from the committed file (a silent hole in the
    /// gate, counted as a failure since PR 9).
    pub violations: Vec<String>,
    /// Recorded speedups with no declared floor, listed so new bench cells
    /// are visibly unguarded until someone declares a floor for them.
    pub unguarded: Vec<String>,
}

impl FloorReport {
    /// True when every declared floor held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks `floors` against the trajectory files under `root`. Only the
/// files named by at least one floor are read; a file that cannot be read
/// or parsed is an error (the trajectory files are committed — a missing
/// one means the gate is not checking what it claims to check).
///
/// # Errors
///
/// Returns a human-readable message when a needed file is unreadable or
/// not valid JSON.
pub fn check_floors_against(
    root: &Path,
    floors: &[(&str, &str, f64)],
) -> Result<FloorReport, String> {
    let mut recorded: Vec<Recorded> = Vec::new();
    for (file, extract) in FILES {
        if !floors.iter().any(|(f, _, _)| f == file) {
            continue;
        }
        let path = root.join(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc: Value = serde_json::from_str(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
        extract(&doc, &mut recorded);
    }

    let mut report =
        FloorReport { held: Vec::new(), violations: Vec::new(), unguarded: Vec::new() };
    for (file, label, floor) in floors {
        match recorded.iter().find(|r| r.file == *file && r.label == *label) {
            Some(r) if r.speedup >= *floor => {
                report.held.push(format!("{file} {label}: {:.2} >= {floor:.2}", r.speedup));
            }
            Some(r) => {
                report.violations.push(format!(
                    "{file} {label}: recorded speedup {:.2} is below the floor {floor:.2}",
                    r.speedup
                ));
            }
            None => {
                // A floor whose field vanished is a silent hole in the gate.
                report
                    .violations
                    .push(format!("{file} {label}: no such speedup field in the committed file"));
            }
        }
    }
    for r in &recorded {
        if !floors.iter().any(|(file, label, _)| r.file == *file && r.label == *label) {
            report
                .unguarded
                .push(format!("{} {}: {:.2} (no declared floor)", r.file, r.label, r.speedup));
        }
    }
    Ok(report)
}

/// [`check_floors_against`] with the full declared [`FLOORS`] list — what
/// the `bench_floor` binary runs.
///
/// # Errors
///
/// Same conditions as [`check_floors_against`].
pub fn check_floors(root: &Path) -> Result<FloorReport, String> {
    check_floors_against(root, FLOORS)
}

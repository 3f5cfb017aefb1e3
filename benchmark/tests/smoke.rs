//! Runs every workload at smoke-test size through the harness binary and
//! pins its output to what `BENCHMARK.json` declares, so the names and units
//! in the two cannot drift apart.

use serde::Value;
use std::process::Command;

fn declared() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn text(value: &Value, key: &str) -> String {
    match value.get_field(key) {
        Ok(Value::Str(s)) => s.clone(),
        other => panic!("{key} must be a string, got {other:?}"),
    }
}

fn number(value: &Value, key: &str) -> f64 {
    match value.get_field(key) {
        Ok(Value::U64(n)) => *n as f64,
        Ok(Value::I64(n)) => *n as f64,
        Ok(Value::F64(x)) => *x,
        other => panic!("{key} must be a number, got {other:?}"),
    }
}

fn entries(value: &Value, key: &str) -> Vec<Value> {
    match value.get_field(key) {
        Ok(Value::Seq(items)) => items.clone(),
        other => panic!("{key} must be a list, got {other:?}"),
    }
}

/// The sorted `(name, unit)` pairs of one declared metric family.
fn declared_metrics(family: &str) -> Vec<(String, String)> {
    let mut pairs: Vec<_> =
        entries(&declared(), family).iter().map(|m| (text(m, "name"), text(m, "unit"))).collect();
    pairs.sort();
    pairs
}

/// Runs the harness the way the driver does, at smoke-test size, and returns
/// its whole standard output.
fn harness(workload: &str, seed: u64, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_agg-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("the harness binary starts");
    let stdout = String::from_utf8(output.stdout).expect("the harness prints UTF-8");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// The sorted `(name, unit)` pairs of the result line, after checking the
/// line's other keys.
fn reported_metrics(stdout: &str) -> Vec<(String, String)> {
    let line = stdout.lines().last().expect("the harness prints a result line");
    let result: Value = serde_json::from_str(line).expect("the last line is one JSON object");
    let Value::Map(fields) = &result else { panic!("the result is an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get_field("correct"), Ok(&Value::Bool(true)), "{stdout}");
    assert!(number(&result, "attempted") >= 1.0);
    assert_eq!(number(&result, "failed"), 0.0);
    let Ok(Value::Map(metrics)) = result.get_field("metrics") else { panic!("metrics is a map") };
    let mut pairs: Vec<_> = metrics
        .iter()
        .map(|(name, metric)| {
            assert!(number(metric, "value").is_finite(), "{name} is not finite");
            (name.clone(), text(metric, "unit"))
        })
        .collect();
    pairs.sort();
    pairs
}

fn digest(stdout: &str) -> &str {
    stdout.lines().find_map(|l| l.strip_prefix("digest ")).expect("the harness prints a digest")
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let workloads: Vec<String> =
        entries(&declared(), "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads.len(), 5);
    for workload in &workloads {
        assert_eq!(
            reported_metrics(&harness(workload, 42, 0)),
            declared_metrics("end_to_end"),
            "{workload}: end-to-end metrics"
        );
        assert_eq!(
            reported_metrics(&harness(workload, 42, 1)),
            declared_metrics("per_layer"),
            "{workload}: per-layer metrics"
        );
    }
}

#[test]
fn one_seed_gives_one_digest_and_another_seed_another() {
    let first = harness("elastic_tree256", 42, 0);
    assert_eq!(digest(&first), digest(&harness("elastic_tree256", 42, 0)));
    assert_ne!(digest(&first), digest(&harness("elastic_tree256", 43, 0)));
}

//! Smoke runs of every workload at a tiny size, through the same code
//! path as a measured run, and the check that every metric named in
//! `BENCHMARK.json` is printed, with its unit, under a valid name.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use mrlr_core::io::{parse_json, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn catalogue(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{list}`"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn workloads(doc: &JsonValue) -> Vec<String> {
    doc.get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs one tiny workload and checks its result line against `wanted`.
fn smoke(workload: &str, trace: bool, wanted: &[(String, String)]) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
    let JsonValue::Obj(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = wanted.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        printed, names,
        "{workload}: printed metrics differ from BENCHMARK.json"
    );
    for ((name, unit), (_, value)) in wanted.iter().zip(metrics) {
        assert_eq!(
            value.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = value
            .get("value")
            .and_then(JsonValue::as_f64)
            .expect("numeric value");
        assert!(v.is_finite(), "{workload}: {name} = {v}");
        // Every stdout line before the result names the metric with its
        // sample count.
        assert!(
            stdout.contains(&format!("metric {name} = ")),
            "{workload}: no metric line for {name}"
        );
    }
}

#[test]
fn benchmark_json_names_are_valid() {
    let doc = benchmark_json();
    let mut all: Vec<String> = workloads(&doc);
    for list in ["end_to_end", "per_layer"] {
        all.extend(catalogue(&doc, list).into_iter().map(|(n, _)| n));
    }
    for name in &all {
        assert!(valid_name(name), "invalid name {name}");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let doc = benchmark_json();
    let wanted = catalogue(&doc, "end_to_end");
    for w in workloads(&doc) {
        smoke(&w, false, &wanted);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    let doc = benchmark_json();
    let wanted = catalogue(&doc, "per_layer");
    for w in workloads(&doc) {
        smoke(&w, true, &wanted);
    }
}

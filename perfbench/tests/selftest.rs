//! Self-test of the benchmark: every workload on a tiny grid with a few
//! requests, in both modes, checked against `BENCHMARK.json`.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};

use nrsnn_perfbench::layers::{Profile, StageTotals, MIN_COVERAGE_PCT};
use nrsnn_perfbench::{run, Options, Outcome, Scale, Workload};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn listed(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn results_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join("selftest")
        .join(test)
}

/// Runs one tiny workload; returns the outcome and everything it printed.
fn tiny_run(workload: Workload, seed: u64, trace: bool, test: &str) -> (Outcome, String) {
    let options = Options {
        workload,
        seed,
        seconds: 0.3,
        trace,
        results_dir: results_dir(test),
    };
    let mut out = Vec::new();
    let outcome = run(&options, &Scale::tiny(), &mut out).expect("tiny run completes");
    (outcome, String::from_utf8(out).expect("utf-8 report"))
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    let spec = benchmark_json();
    for listed in spec.get("workloads").and_then(Value::as_array).unwrap() {
        let name = listed.get("name").and_then(Value::as_str).unwrap();
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }

    for workload in Workload::ALL {
        for trace in [false, true] {
            let (outcome, text) = tiny_run(workload, 3, trace, "metrics");
            assert!(
                outcome.correct(),
                "{}: checks failed\n{text}",
                workload.name()
            );

            let last = text.lines().last().expect("output");
            let result: Value = serde_json::from_str(last).expect("last line is JSON");
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            let section = if trace { "per_layer" } else { "end_to_end" };
            let expected = listed(&spec, section);
            let printed = result.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(printed.len(), expected.len(), "{}: {text}", workload.name());
            for (name, unit) in &expected {
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{}: {name} not printed", workload.name()));
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str())
                );
                let value = metric.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{}: {name} reads 0", workload.name());
                    assert!(
                        text.lines()
                            .any(|l| l.contains(name.as_str()) && l.ends_with(unit.as_str())),
                        "{name} missing from the printed table:\n{text}"
                    );
                }
            }
        }
    }
}

#[test]
fn same_seed_same_science() {
    let science = |seed: u64| {
        let (outcome, _) = tiny_run(Workload::MlpDeletionSweep, seed, false, "science");
        let get = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
                .unwrap()
        };
        (get("accuracy_pct"), get("spikes_per_inference"))
    };
    assert_eq!(science(5), science(5));
}

#[test]
fn coverage_check_trips_below_95_percent() {
    let totals = |simulate_ns: u64, staged_ns: u64| StageTotals {
        samples: 1,
        simulate_ns,
        forward_ns: staged_ns,
        ..StageTotals::default()
    };
    let mut profile = Profile::default();
    profile.per_coding[0] = totals(1_000, 960);
    assert!(profile.check_coverage().is_ok());
    profile.per_coding[1] = totals(1_000, 900);
    // (960 + 900) / 2000 = 93 % < 95 %
    assert_eq!(MIN_COVERAGE_PCT, 95.0);
    let message = profile.check_coverage().unwrap_err();
    assert!(message.contains("93.0%"), "{message}");
}

//! The benchmark's own checks: every workload runs correct at a small
//! shape in both modes, deterministic metrics repeat exactly for a seed,
//! a second seed changes the inputs, and the printed metric names match
//! `BENCHMARK.json`.

use mdmp_service::Json;
use perfbench::workloads::{synthetic_pair, Shape};
use perfbench::{metrics, parse_args, run, Report, WORKLOADS};
use std::path::PathBuf;

/// Small enough that a run takes well under a second.
const SMALL: Shape = Shape {
    n: 128,
    d: 2,
    m: 16,
    tiles: 8,
    chunk: 16,
};

fn run_small(workload: &str, seed: u64, trace: bool) -> Report {
    let trace_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-traces");
    let args: Vec<String> = [
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "0.05",
        "--trace",
        if trace { "1" } else { "0" },
        "--trace-dir",
        trace_dir.to_str().expect("utf-8 path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let report = run(&parse_args(&args).expect("valid arguments"), SMALL);
    assert!(
        report.correct,
        "{workload} trace={trace}: {:?}",
        report.errors
    );
    report
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_runs_correct_in_both_modes() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let report = run_small(workload, 3, trace);
            let expected = if trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            let names: Vec<&str> = report.metrics.iter().map(|(n, _)| *n).collect();
            let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, want, "{workload} trace={trace}");
            let line = Json::parse(&report.json_line()).expect("result line is JSON");
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            if !trace {
                for (name, value) in &report.metrics {
                    assert!(*value > 0.0, "{workload}: {name} reads {value}");
                }
            }
        }
    }
}

#[test]
fn deterministic_metrics_repeat_exactly_for_one_seed() {
    let a = run_small("batch-fp32", 11, false);
    let b = run_small("batch-fp32", 11, false);
    for name in ["recall_pct", "modelled_s_per_op"] {
        assert_eq!(
            metric(&a, name).to_bits(),
            metric(&b, name).to_bits(),
            "batch-fp32: {name}"
        );
    }
    let a = run_small("stream-append", 11, true);
    let b = run_small("stream-append", 11, true);
    assert_eq!(
        metric(&a, "wire.bytes_per_cell").to_bits(),
        metric(&b, "wire.bytes_per_cell").to_bits()
    );
    let a = run_small("stream-append", 11, false);
    let b = run_small("stream-append", 11, false);
    for name in ["recall_pct", "modelled_s_per_op"] {
        assert_eq!(metric(&a, name).to_bits(), metric(&b, name).to_bits());
    }
}

#[test]
fn a_second_seed_changes_the_inputs() {
    let (r1, q1) = synthetic_pair(&SMALL, 1);
    let (r2, q2) = synthetic_pair(&SMALL, 2);
    assert_ne!(r1.raw(), r2.raw());
    assert_ne!(q1.raw(), q2.raw());
    let (r1_again, _) = synthetic_pair(&SMALL, 1);
    assert_eq!(r1.raw(), r1_again.raw());
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("{key} entry without {f}"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let bench = Json::parse(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&bench, "end_to_end"), own(metrics::END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), own(metrics::PER_LAYER));
    let workloads: Vec<String> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn bad_arguments_are_rejected() {
    let parse =
        |parts: &[&str]| parse_args(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    assert!(parse(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&[
        "--workload",
        "batch-fp32",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "2"
    ])
    .is_err());
    assert!(parse(&["--workload", "batch-fp32", "--seconds", "1", "--trace", "0"]).is_err());
    assert!(parse(&[
        "--workload",
        "batch-fp32",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_ok());
}

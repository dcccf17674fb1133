//! Self-test of the benchmark: a tiny run of every workload in
//! `BENCHMARK.json` completes with no failed experiment and prints every
//! metric the file lists — the end-to-end metrics untraced, the
//! per-layer metrics traced.

use std::process::{Command, Output};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(section: &str) -> Vec<&'static str> {
    let start = BENCHMARK
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} array"));
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("the array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("the name closes")])
        .collect()
}

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("perfbench runs")
}

#[test]
fn tiny_runs_pass_and_print_every_listed_metric() {
    let workloads = names("workloads");
    assert_eq!(workloads.len(), 4);
    for workload in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = perfbench(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--tiny",
            ]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, "), "{workload}: {last}\n{stderr}");
            assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
            let metrics = names(section);
            assert!(!metrics.is_empty());
            for name in metrics {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}: {last}"
                );
            }
            if trace == "1" {
                assert!(last.contains("\"fail_ratio\": {\"value\": 0, "), "{workload}: {last}");
                assert!(last.contains("\"trace.verify.violations\": {\"value\": 0, "), "{last}");
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "scan_replay", "--seed", "x", "--seconds", "1"],
        &["--workload", "scan_replay", "--seed", "1", "--seconds", "1", "--trace", "2"],
        &["--seed", "1", "--seconds", "1"],
        &["--workload", "scan_replay", "--seed", "1"],
    ] {
        let out = perfbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

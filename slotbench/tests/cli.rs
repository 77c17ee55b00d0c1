//! Tiny runs of the benchmark command: every metric the contract file
//! (`BENCHMARK.json` at the repository root) names is printed exactly once,
//! with its unit, and nothing else is.

use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wdm-slotbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

/// A short run of `workload` with the benchmark's own slot counts: an
/// untraced run still measures its `grant_ratio` slots, a few seconds.
fn run(workload: &str, seed: &str, seconds: &str, trace: &str, extra: &[&str]) -> String {
    let mut args = vec!["--workload", workload, "--seed", seed, "--seconds", seconds];
    args.extend(["--trace", trace]);
    args.extend(extra);
    let out = bench(&args);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "{args:?} failed:\n{stdout}");
    stdout
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().unwrap().to_owned();
            let unit = entry.split("\"unit\": \"").nth(1).unwrap().split('"').next().unwrap();
            (name, unit.to_owned())
        })
        .collect()
}

/// `(name, unit)` of every metric in a result line, in order.
fn printed(result: &str) -> Vec<(String, String)> {
    let metrics = result.split("\"metrics\": {").nth(1).expect("metrics object");
    metrics
        .split("\": {\"value\": ")
        .zip(metrics.split("\": {\"value\": ").skip(1))
        .map(|(before, after)| {
            let name = before.rsplit('"').next().unwrap().to_owned();
            let unit = after.split("\"unit\": \"").nth(1).unwrap().split('"').next().unwrap();
            (name, unit.to_owned())
        })
        .collect()
}

/// The result line is correct and names exactly `want`, each metric also
/// on exactly one human-readable line.
fn check_result(stdout: &str, mut want: Vec<(String, String)>) {
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": ")
            && result.contains(", \"failed\": 0, \"metrics\": {"),
        "{result}"
    );
    let mut got = printed(result);
    assert!(!want.is_empty());
    got.sort();
    want.sort();
    assert_eq!(got, want, "printed metrics differ from the contract");
    for (name, _) in &want {
        let lines = stdout.lines().filter(|l| l.starts_with(&format!("metric {name} = "))).count();
        assert_eq!(lines, 1, "{name} printed {lines} times");
    }
}

#[test]
fn each_workload_prints_every_end_to_end_metric_once() {
    for workload in ["serve_lockstep", "engine_heavy", "sim_coherent"] {
        let stdout = run(workload, "3", "0.2", "0", &[]);
        check_result(&stdout, contract("end_to_end"));
        assert!(stdout.lines().any(|l| l.starts_with("host steal_ticks=")), "{stdout}");
        assert!(stdout.lines().any(|l| l.starts_with("tail verdict_p99_us=")), "{stdout}");
    }
}

#[test]
fn all_runs_every_workload_in_one_command() {
    let stdout = run("all", "4", "0.2", "0", &[]);
    let mut want = Vec::new();
    for workload in ["serve_lockstep", "engine_heavy", "sim_coherent"] {
        assert_eq!(
            stdout.lines().filter(|l| l.starts_with(&format!("result {workload} "))).count(),
            1
        );
        want.extend(
            contract("end_to_end").into_iter().map(|(n, u)| (format!("{workload}.{n}"), u)),
        );
    }
    let result = stdout.lines().last().unwrap();
    let mut got = printed(result);
    got.sort();
    want.sort();
    assert_eq!(got, want);
}

#[test]
fn traced_run_prints_every_per_layer_metric_once_and_writes_its_spans() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans.tsv");
    let stdout = run("engine_heavy", "3", "0.6", "1", &["--spans", path.to_str().unwrap()]);
    check_result(&stdout, contract("per_layer"));
    let spans = std::fs::read_to_string(&path).unwrap();
    for workload in ["serve_lockstep", "engine_heavy", "sim_coherent"] {
        assert!(spans.lines().any(|l| l.starts_with(&format!("{workload}\t"))), "{workload}");
    }
    assert!(spans.lines().all(|l| l.split('\t').count() == 8));
}

#[test]
fn grant_ratio_repeats_exactly_for_a_seed() {
    let grant_ratio = || {
        let stdout = run("engine_heavy", "9", "0.1", "0", &[]);
        let result = stdout.lines().last().unwrap().to_owned();
        let tail = result.split("\"grant_ratio\": {\"value\": ").nth(1).unwrap();
        tail.split(',').next().unwrap().to_owned()
    };
    assert_eq!(grant_ratio(), grant_ratio());
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "sim_coherent", "--seed", "1", "--seconds", "0", "--trace", "0"][..],
        &["--workload", "sim_coherent", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "sim_coherent", "--seed", "1", "--seconds", "1", "--trace", "2"][..],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

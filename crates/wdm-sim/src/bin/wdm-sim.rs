//! `wdm-sim` — run a scenario file through the offline simulator.
//!
//! ```sh
//! # full run with a human-readable breakdown:
//! cargo run --release -p wdm-sim --bin wdm-sim -- --scenario storm.toml
//!
//! # validation only (parse + compile, no slots run):
//! cargo run --release -p wdm-sim --bin wdm-sim -- --scenario storm.toml --check-only
//!
//! # machine-readable report, replay-gated (runs twice, verifies the
//! # reports are identical before writing):
//! cargo run --release -p wdm-sim --bin wdm-sim -- --scenario storm.toml \
//!     --replay-check --out report.json
//! ```

use std::process::ExitCode;

use wdm_scenario::load_plan;
use wdm_sim::scenario::{run_scenario, ScenarioReport, WindowStats};

fn usage() -> &'static str {
    "usage: wdm-sim --scenario <file.toml> [--check-only] [--replay-check] [--out <report.json>]\n\
     \n\
     --scenario <file>  the scenario to run (schema = 1 TOML)\n\
     --check-only       parse + compile only; print the plan shape and exit\n\
     --replay-check     run the scenario twice and fail unless the two\n\
     \x20                  reports are identical (determinism gate)\n\
     --out <file>       write the report as JSON as well"
}

fn window_line(label: &str, w: &WindowStats) -> String {
    format!(
        "  {label:<8} {:>7} slots  offered {:>8}  granted {:>8}  loss {:.4}",
        w.slots,
        w.offered,
        w.granted,
        w.loss_probability(),
    )
}

fn print_report(report: &ScenarioReport) {
    println!(
        "scenario `{}`: N={} k={} d={} seed={}",
        report.name, report.n, report.k, report.degree, report.seed
    );
    println!(
        "throughput {:.4} normalized, loss {:.4}, warm repair rate {:.3}",
        report.normalized_throughput(),
        report.metrics.loss_probability(),
        report.warm.repair_rate(),
    );
    println!("phases:");
    for p in &report.phases {
        println!("{}", window_line(&p.name, &p.stats));
    }
    println!("disruption windows:");
    println!("{}", window_line("before", &report.before));
    println!("{}", window_line("during", &report.during));
    println!("{}", window_line("after", &report.after));
    let s = &report.summary;
    println!(
        "disruption impact: {} connections dropped, {} reservations cancelled",
        s.dropped_connections, s.cancelled_reservations
    );
    println!(
        "fallback: {} engagements, {} reverts, {} slots engaged",
        s.fallback_engagements, s.fallback_reverts, s.engaged_slots
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut check_only = false;
    let mut replay_check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => match it.next() {
                Some(p) => scenario_path = Some(p.clone()),
                None => {
                    eprintln!("--scenario needs a file argument\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("--out needs a file argument\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--check-only" => check_only = true,
            "--replay-check" => replay_check = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(path) = scenario_path else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("{path}: failed to read: {err}");
            return ExitCode::FAILURE;
        }
    };
    let plan = match load_plan(&text) {
        Ok(p) => p,
        Err(err) => {
            eprintln!("{path}: {err}");
            return ExitCode::FAILURE;
        }
    };

    if check_only {
        println!(
            "{path}: OK ({} slots, {} phases, {} disruption events)",
            plan.total_slots(),
            plan.phases().len(),
            plan.events().len(),
        );
        return ExitCode::SUCCESS;
    }

    let report = match run_scenario(&plan) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("{path}: run failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    if replay_check {
        let replay = match run_scenario(&plan) {
            Ok(r) => r,
            Err(err) => {
                eprintln!("{path}: replay failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let a = serde_json::to_string(&report);
        let b = serde_json::to_string(&replay);
        match (a, b) {
            (Ok(a), Ok(b)) if a == b => {
                eprintln!("replay check: OK (bit-identical report)");
            }
            (Ok(_), Ok(_)) => {
                eprintln!("replay check FAILED: two runs of the same plan diverged");
                return ExitCode::FAILURE;
            }
            _ => {
                eprintln!("replay check FAILED: report serialization error");
                return ExitCode::FAILURE;
            }
        }
    }

    print_report(&report);
    if let Some(out) = out_path {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(err) = std::fs::write(&out, json) {
                    eprintln!("{out}: failed to write: {err}");
                    return ExitCode::FAILURE;
                }
            }
            Err(err) => {
                eprintln!("failed to serialize report: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

//! `wdm-scenario` — validate and inspect scenario files.
//!
//! ```sh
//! # typed parse + compile validation (exit 1 on the first invalid file):
//! cargo run -p wdm-scenario -- validate examples/scenarios/*.toml
//!
//! # compiled-plan summary: phases, disruption timeline, fallback rule:
//! cargo run -p wdm-scenario -- show examples/scenarios/converter_storm.toml
//! ```

use std::process::ExitCode;

use wdm_scenario::{load_plan, CompiledPlan, DisruptionChange};

fn usage() -> &'static str {
    "usage: wdm-scenario <validate|show> <scenario.toml>...\n\
     \n\
     validate   parse + compile each file; print one OK/error line per file\n\
     show       validate, then print the compiled plan (phases, timeline, fallback)"
}

fn describe(plan: &CompiledPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "scenario `{}`: N={} k={} d={} policy={}\n",
        plan.name(),
        plan.n(),
        plan.k(),
        plan.conversion().degree(),
        plan.policy().name(),
    ));
    out.push_str(&format!(
        "run: {} warmup + {} measured slots, seed {}, base load {:.3}\n",
        plan.warmup(),
        plan.measured_slots(),
        plan.seed(),
        plan.base_load(),
    ));
    out.push_str("phases:\n");
    for (i, p) in plan.phases().iter().enumerate() {
        out.push_str(&format!(
            "  [{i}] `{}` slots {}..{} (load {:.3} -> {:.3})\n",
            p.name,
            p.start,
            p.end,
            plan.offered_load(p.start),
            plan.offered_load(p.end.saturating_sub(1)),
        ));
    }
    if plan.events().is_empty() {
        out.push_str("disruptions: none\n");
    } else {
        out.push_str("disruptions:\n");
        for e in plan.events() {
            let what = match e.change {
                DisruptionChange::ConverterFailure { degree, .. } => {
                    format!("converter failure (degree -> {degree})")
                }
                DisruptionChange::ConverterRecovery => "converter recovery".to_owned(),
                DisruptionChange::Outage => "outage".to_owned(),
                DisruptionChange::Rejoin => "rejoin".to_owned(),
            };
            out.push_str(&format!("  slot {:>6}: fiber {} {what}\n", e.slot, e.fiber));
        }
    }
    match plan.fallback() {
        None => out.push_str("fallback: none\n"),
        Some(rule) => {
            out.push_str(&format!(
                "fallback: policy={} load_threshold={:?} lag_threshold={:?} on_disruption={} revert_margin={:.3}\n",
                rule.policy.name(),
                rule.load_threshold,
                rule.lag_threshold,
                rule.on_disruption,
                rule.revert_margin,
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, files) = match args.split_first() {
        Some((mode, files)) if !files.is_empty() => (mode.as_str(), files),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if !matches!(mode, "validate" | "show") {
        if matches!(mode, "--help" | "-h") {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        eprintln!("unknown subcommand `{mode}`\n{}", usage());
        return ExitCode::FAILURE;
    }

    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(err) => {
                eprintln!("{path}: failed to read: {err}");
                return ExitCode::FAILURE;
            }
        };
        match load_plan(&text) {
            Ok(plan) => {
                if mode == "show" {
                    print!("{}", describe(&plan));
                } else {
                    println!(
                        "{path}: OK ({} slots, {} phases, {} disruption events)",
                        plan.total_slots(),
                        plan.phases().len(),
                        plan.events().len(),
                    );
                }
            }
            Err(err) => {
                eprintln!("{path}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

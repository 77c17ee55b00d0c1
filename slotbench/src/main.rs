//! The benchmark command.
//!
//! ```text
//! wdm-slotbench --workload <serve_lockstep|engine_heavy|sim_coherent|all>
//!               --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` measures the workload untraced, checks its outputs and
//! prints every end-to-end metric; the last stdout line is the JSON result.
//! `--trace 1` traces all three workloads (a third of `--seconds` each:
//! an untraced reference pass, then a traced pass replaying every slot
//! layer by layer) and prints every per-layer metric. `--spans` writes the
//! traced spans out as TSV. Exits non-zero when a correctness gate fails.

use std::process::ExitCode;

use wdm_slotbench::metrics::{self, Metric, Workload};
use wdm_slotbench::stats::{chunk_latency, chunk_rate};
use wdm_slotbench::{heavy, serve, sim, spans::Spans, Measured, Traced};

const USAGE: &str =
    "usage: wdm-slotbench --workload <serve_lockstep|engine_heavy|sim_coherent|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <file>]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(if name == "all" {
                    None
                } else {
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?)
                });
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                });
            }
            "--spans" => spans = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Measured, String> {
    match w {
        Workload::ServeLockstep => serve::run(seed, seconds),
        Workload::EngineHeavy => heavy::run(seed, seconds),
        Workload::SimCoherent => sim::run(seed, seconds),
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The three numbers a result line needs, plus the metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// One untraced workload: prints the host record, tail, gates and metrics.
fn untraced(w: Workload, args: &Args) -> Outcome {
    println!(
        "slotbench workload={} seed={} seconds={} trace=0 available_parallelism={}",
        w.name(),
        args.seed,
        args.seconds,
        available_parallelism()
    );
    let m = match run_untraced(w, args.seed, args.seconds) {
        Ok(m) => m,
        Err(e) => {
            println!("error {}: {e}", w.name());
            return Outcome { correct: false, attempted: 1, failed: 1, metrics: Vec::new() };
        }
    };
    let threads = m.host.threads;
    println!(
        "host steal_ticks={} bench_cpu_ms={:.1} bench_run_delay_ms={:.3} daemon_cpu_ms={:.1} daemon_run_delay_ms={:.3} measured_slots={} measured_s={:.2}",
        m.host.steal_ticks,
        threads.own_cpu_ns as f64 / 1e6,
        threads.own_run_delay_ns as f64 / 1e6,
        threads.other_cpu_ns as f64 / 1e6,
        threads.other_run_delay_ns as f64 / 1e6,
        m.measured_slots,
        m.measured_s
    );
    println!("{}", metrics::tail_line(&m));
    let mut correct = m.correct();
    for (name, err) in &m.gates {
        println!("gate {name} {}", err.as_deref().unwrap_or("ok"));
    }
    if m.total.failed > 0 {
        correct = false;
    }
    println!("gate operations failed={} attempted={}", m.total.failed, m.total.attempted);
    let list = metrics::end_to_end(&m);
    for metric in &list {
        println!("{}", metrics::metric_line(metric));
    }
    Outcome { correct, attempted: m.total.attempted, failed: m.total.failed, metrics: list }
}

/// Traces every workload: an untraced reference pass for the overhead,
/// then the traced pass. Failed operations of either pass fail the run.
fn traced(args: &Args) -> Outcome {
    println!(
        "slotbench trace=1 seed={} seconds={} available_parallelism={}",
        args.seed,
        args.seconds,
        available_parallelism()
    );
    let budget = args.seconds / Workload::ALL.len() as f64;
    let mut out = Outcome { correct: true, attempted: 0, failed: 0, metrics: Vec::new() };
    let mut all_spans: Vec<(Workload, Spans)> = Vec::new();
    for w in Workload::ALL {
        match trace_one(w, args, budget) {
            Ok((t, reference)) => {
                println!(
                    "traced {} slots={} slots_per_s={:.1} verdict_p50_us={:.3} verdict_p90_us={:.3} untraced_slots_per_s={:.1} untraced_verdict_p50_us={:.3} steal_ticks={} bench_run_delay_ms={:.3} daemon_run_delay_ms={:.3}",
                    w.name(),
                    t.tally.slots,
                    chunk_rate(&t.chunks),
                    chunk_latency(&t.chunks, |c| c.p50_ns) / 1e3,
                    chunk_latency(&t.chunks, |c| c.p90_ns) / 1e3,
                    chunk_rate(&reference.chunks),
                    chunk_latency(&reference.chunks, |c| c.p50_ns) / 1e3,
                    t.host.steal_ticks,
                    t.host.threads.own_run_delay_ns as f64 / 1e6,
                    t.host.threads.other_run_delay_ns as f64 / 1e6,
                );
                out.attempted += t.total.attempted + reference.total.attempted;
                out.failed += t.total.failed + reference.total.failed;
                out.metrics.extend(metrics::per_layer(w, &t, &reference));
                all_spans.push((w, t.spans));
            }
            Err(e) => {
                println!("error {}: {e}", w.name());
                out.correct = false;
                out.attempted += 1;
                out.failed += 1;
            }
        }
    }
    if out.failed > 0 {
        out.correct = false;
    }
    for m in &out.metrics {
        println!("{}", metrics::metric_line(m));
    }
    if let Some(path) = &args.spans {
        if let Err(e) = write_spans(path, &all_spans) {
            println!("error writing spans to {path}: {e}");
            out.correct = false;
        }
    }
    out
}

fn trace_one(w: Workload, args: &Args, budget: f64) -> Result<(Traced, Measured), String> {
    let seed = args.seed;
    match w {
        Workload::ServeLockstep => wdm_slotbench::trace(serve::open, seed, &serve::PLAN, budget),
        Workload::EngineHeavy => wdm_slotbench::trace(heavy::open, seed, &heavy::PLAN, budget),
        Workload::SimCoherent => wdm_slotbench::trace(sim::open, seed, &sim::PLAN, budget),
    }
}

fn write_spans(path: &str, all: &[(Workload, Spans)]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (workload, spans) in all {
        spans.write_tsv(&mut w, workload.name())?;
    }
    std::io::Write::flush(&mut w)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else if let Some(w) = args.workload {
        untraced(w, &args)
    } else {
        // `--workload all`: every workload in turn, metrics prefixed.
        let mut all = Outcome { correct: true, attempted: 0, failed: 0, metrics: Vec::new() };
        for w in Workload::ALL {
            let o = untraced(w, &args);
            println!(
                "result {} {}",
                w.name(),
                metrics::result_json(o.correct, o.attempted, o.failed, &o.metrics)
            );
            all.correct &= o.correct;
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.metrics.extend(o.metrics.into_iter().map(|mut m| {
                m.name = format!("{}.{}", w.name(), m.name);
                m
            }));
        }
        all
    };
    println!(
        "{}",
        metrics::result_json(outcome.correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

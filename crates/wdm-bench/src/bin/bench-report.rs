//! `bench-report` — measure the scheduling hot path, the sweep runner, and
//! the `wdm-serve` daemon, and emit a machine-readable `BENCH_5.json`.
//!
//! ```sh
//! cargo run --release -p wdm-bench --bin bench-report            # writes BENCH_5.json
//! cargo run --release -p wdm-bench --bin bench-report -- --out custom.json
//! cargo run --release -p wdm-bench --bin bench-report -- --smoke # CI-sized run
//! ```
//!
//! The report covers:
//!
//! * **ns/slot** for FA (non-circular), BFA and the single-break
//!   approximation (circular) at representative `(N, k, d)` points, driven
//!   through [`FiberScheduler::schedule_slot`] with a warm
//!   [`ScratchArena`]. Every row reports the steady-state (post-warmup)
//!   ns/slot and, separately, `cold_start_ns_per_slot` — the per-slot cost
//!   of the warmup pass from a cold scheduler and unprimed arena. BFA rows
//!   additionally carry `bfa_over_fa_ratio`, the BFA/FA ns-per-slot ratio
//!   at the same `(k, d)` point — the paper's `O(dk)` vs `O(k)` constant,
//!   and the number the shared-table BFA rewrite exists to shrink.
//! * **coherent-traffic rows** (`traffic = "coherent"`): the same FA/BFA
//!   points driven by [`coherent_slot_pool`] — long-lived flows whose
//!   slot-to-slot diff is a couple of arrivals/departures — where
//!   `schedule_slot` rides the warm-start repair path. These rows carry
//!   `repair_rate`, the fraction of measured slots served by repairing the
//!   previous matching instead of rescheduling from scratch.
//! * **allocations/slot** over the measured window, observed by the
//!   [`wdm_alloc_count::CountingAlloc`] global allocator. In a plain
//!   release build the run *fails* if any slot allocates; with debug
//!   assertions the per-slot certificate allocates by design and the report
//!   records which build it measured.
//! * **sweep wall-clock** at 1/2/4/8 worker threads through
//!   [`run_sweep_with_threads`]'s persistent cursor-fed workers, with a
//!   bit-identity check of every threaded run against the sequential rows
//!   (the run fails on any mismatch). Speedup is hardware-dependent: on a
//!   single-core runner the threaded figures include coordination overhead
//!   for no gain, and the JSON reports whatever the machine delivered.
//! * **serve-mode grant latency** at `k = 64, d = 7`: an in-process
//!   `wdm-serve` daemon on a loopback socket, free-running its slot clock,
//!   driven closed-loop by `wdm_loadgen::run` for each of FA (non-circular),
//!   BFA and the approximation (circular). The rows report p50/p99 grant
//!   latency (submit → GRANT frame, whole TCP round trip included) and the
//!   observed slots/sec — the end-to-end numbers that sit alongside the
//!   ns-per-slot rows above. A run with any `InvalidRequest` deny fails.
//!
//! `--smoke` shrinks the slot counts ~10× for CI smoke jobs: same checks,
//! same schema, noisier timings.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Serialize;
use wdm_alloc_count::CountingAlloc;
use wdm_bench::{bench_rng, coherent_slot_pool, random_mask, random_request_vector};
use wdm_core::{
    ChannelMask, Conversion, Error, FiberScheduler, Policy, RequestVector, ScratchArena,
};
use wdm_loadgen::{LoadgenConfig, Mode};
use wdm_serve::{EngineConfig, Server, ServerConfig};
use wdm_sim::experiment::{run_sweep_with_threads, DegreeSpec, SweepConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Distinct request/mask patterns cycled through during measurement, so the
/// timings average over slot shapes instead of replaying one instance.
const POOL: usize = 64;
const WARMUP_SLOTS: usize = 256;

/// Timed repetitions per slot spec; `ns_per_slot` is the fastest repeat,
/// which strips scheduler noise on shared hosts (allocation counts cover
/// every repeat — a leak can't hide in a slow one).
const REPEATS: usize = 5;

/// Sweep worker-thread counts reported in the scaling ladder.
const THREAD_LADDER: [usize; 3] = [2, 4, 8];

#[derive(Debug, Serialize)]
struct SlotBench {
    algorithm: String,
    /// `"incoherent"` (i.i.d. per-slot draws) or `"coherent"` (persistent
    /// flows, small slot-to-slot diff).
    traffic: String,
    n: usize,
    k: usize,
    degree: usize,
    circular: bool,
    load: f64,
    slots: usize,
    /// Steady-state (post-warmup) ns per `schedule_slot` call, fastest
    /// timed repeat.
    ns_per_slot: f64,
    /// ns/slot of the warmup pass: cold scheduler, freshly primed arena.
    /// The gap to `ns_per_slot` is what the warm state buys once built.
    cold_start_ns_per_slot: f64,
    allocs_per_slot: f64,
    grant_rate: f64,
    /// Fraction of measured slots served by the warm repair path (`None`
    /// for policies the warm path does not cover).
    repair_rate: Option<f64>,
    /// BFA rows only: this row's ns/slot over FA's at the same `(k, d)`.
    bfa_over_fa_ratio: Option<f64>,
}

#[derive(Debug, Serialize)]
struct ThreadBench {
    threads: usize,
    ms: f64,
    /// Sequential wall-clock over this run's wall-clock.
    speedup: f64,
    /// Whether the rows are bit-identical to the sequential runner's.
    rows_identical: bool,
}

#[derive(Debug, Serialize)]
struct SweepBench {
    grid_points: usize,
    measure_slots: u64,
    sequential_ms: f64,
    threads: Vec<ThreadBench>,
}

#[derive(Debug, Serialize)]
struct ServeBench {
    algorithm: String,
    n: usize,
    k: usize,
    degree: usize,
    circular: bool,
    load: f64,
    batches: u64,
    requests: u64,
    grants: u64,
    slots: u64,
    slots_per_sec: f64,
    p50_grant_latency_ns: u64,
    p99_grant_latency_ns: u64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: String,
    debug_assertions: bool,
    smoke: bool,
    available_parallelism: usize,
    slot_benchmarks: Vec<SlotBench>,
    serve_benchmarks: Vec<ServeBench>,
    sweep: SweepBench,
}

#[derive(Clone, Copy, PartialEq)]
enum Traffic {
    /// Independent draws per pool entry — no slot-to-slot correlation.
    Incoherent,
    /// One coherent chain ([`coherent_slot_pool`]): consecutive entries
    /// differ by a couple of re-drawn input cells and at most one output
    /// channel, so the warm repair path carries almost every slot.
    Coherent,
}

impl Traffic {
    fn label(self) -> &'static str {
        match self {
            Traffic::Incoherent => "incoherent",
            Traffic::Coherent => "coherent",
        }
    }
}

struct SlotSpec {
    algorithm: &'static str,
    policy: Policy,
    circular: bool,
    traffic: Traffic,
    n: usize,
    k: usize,
    degree: usize,
    slots: usize,
}

fn bench_slot(spec: &SlotSpec, load: f64) -> Result<SlotBench, Error> {
    let conv = if spec.circular {
        Conversion::symmetric_circular(spec.k, spec.degree)?
    } else {
        Conversion::symmetric_non_circular(spec.k, spec.degree)?
    };
    let mut scheduler = FiberScheduler::new(conv, spec.policy);
    let mut rng = bench_rng(0xB2_u64.wrapping_add(spec.k as u64));
    let pool: Vec<(RequestVector, ChannelMask)> = match spec.traffic {
        Traffic::Incoherent => (0..POOL)
            .map(|_| {
                (
                    random_request_vector(&mut rng, spec.n, spec.k, load),
                    random_mask(&mut rng, spec.k, 0.2),
                )
            })
            .collect(),
        // Cycling the pool revisits the chain in order, so all but the
        // wrap-around transition (1 in POOL) stay coherent.
        Traffic::Coherent => coherent_slot_pool(&mut rng, spec.n, spec.k, load, 0.2, POOL, 2),
    };

    // The warmup pass doubles as the cold-start measurement: a cold
    // scheduler against a freshly `for_k`-primed arena — the supported
    // zero-allocation starting state — so the figure covers the cold
    // schedules before any warm state exists.
    let mut arena = ScratchArena::for_k(spec.k);
    let cold_start = Instant::now();
    for (rv, mask) in pool.iter().cycle().take(WARMUP_SLOTS) {
        // Warm-up: the stats are deliberately dropped.
        let _ = scheduler.schedule_slot(rv, mask, &mut arena)?;
    }
    let cold_start_ns_per_slot = cold_start.elapsed().as_nanos() as f64 / WARMUP_SLOTS as f64;

    let mut granted = 0usize;
    let mut requested = 0usize;
    let allocs_before = ALLOC.heap_events();
    let warm_before = scheduler.warm_stats();
    let mut best = std::time::Duration::MAX;
    for _ in 0..REPEATS {
        granted = 0;
        requested = 0;
        let start = Instant::now();
        for i in 0..spec.slots {
            let (rv, mask) = &pool[i % POOL];
            let stats = scheduler.schedule_slot(rv, mask, &mut arena)?;
            granted += stats.granted;
            requested += stats.requested;
        }
        best = best.min(start.elapsed());
    }
    let allocs = ALLOC.heap_events() - allocs_before;

    let warm = scheduler.warm_stats();
    let warm_slots = warm.slots() - warm_before.slots();
    // The approximation never takes the warm path (it has no repairable
    // matching), so a repair rate would be vacuous noise on its rows.
    let repair_rate = (spec.policy != Policy::Approximate && warm_slots > 0)
        .then(|| (warm.repaired - warm_before.repaired) as f64 / warm_slots as f64);

    Ok(SlotBench {
        algorithm: spec.algorithm.to_string(),
        traffic: spec.traffic.label().to_string(),
        n: spec.n,
        k: spec.k,
        degree: spec.degree,
        circular: spec.circular,
        load,
        slots: spec.slots,
        ns_per_slot: best.as_nanos() as f64 / spec.slots as f64,
        cold_start_ns_per_slot,
        allocs_per_slot: allocs as f64 / (spec.slots * REPEATS) as f64,
        grant_rate: if requested == 0 { 1.0 } else { granted as f64 / requested as f64 },
        repair_rate,
        bfa_over_fa_ratio: None,
    })
}

/// Fills `bfa_over_fa_ratio` on every BFA row that has an FA row at the same
/// `(k, degree, traffic)` point.
fn fill_ratios(benches: &mut [SlotBench]) {
    let fa: Vec<(usize, usize, String, f64)> = benches
        .iter()
        .filter(|b| b.algorithm == "fa")
        .map(|b| (b.k, b.degree, b.traffic.clone(), b.ns_per_slot))
        .collect();
    for bench in benches.iter_mut().filter(|b| b.algorithm == "bfa") {
        bench.bfa_over_fa_ratio = fa
            .iter()
            .find(|(k, d, t, _)| *k == bench.k && *d == bench.degree && *t == bench.traffic)
            .map(|&(_, _, _, fa_ns)| bench.ns_per_slot / fa_ns);
    }
}

/// Serve-mode grid: the bench hot point (`k = 64, d = 7`) at a small fiber
/// count so the loopback session, not the matching, dominates the cost being
/// measured. FA requires a non-circular converter; BFA and the
/// approximation require a circular one (enforced at engine construction).
const SERVE_N: usize = 2;
const SERVE_K: usize = 64;
const SERVE_DEGREE: usize = 7;
const SERVE_LOAD: f64 = 0.5;

fn bench_serve_one(
    algorithm: &str,
    policy: Policy,
    circular: bool,
    batches: u64,
) -> Result<ServeBench, String> {
    let conv = if circular {
        Conversion::symmetric_circular(SERVE_K, SERVE_DEGREE)
    } else {
        Conversion::symmetric_non_circular(SERVE_K, SERVE_DEGREE)
    }
    .map_err(|err| err.to_string())?;
    let config = ServerConfig {
        engine: EngineConfig::new(SERVE_N, conv, policy),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: None,
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|err| err.to_string())?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let report = wdm_loadgen::run(&LoadgenConfig {
        addr,
        mode: Mode::Closed,
        load: SERVE_LOAD,
        batches,
        seed: 0xB4,
        mean_duration: 2.0,
        reserve_fraction: 0.0,
        reserve_lead: 4,
        shutdown_server: true,
        scenario: None,
    })
    .map_err(|err| err.to_string())?;
    let server_report = handle
        .join()
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(|err| err.to_string())?;

    if server_report.grants != report.grants {
        return Err(format!(
            "{algorithm}: server granted {} but the load generator observed {}",
            server_report.grants, report.grants
        ));
    }
    if !report.clean() {
        return Err(format!(
            "{algorithm}: {} InvalidRequest denies — a protocol or admission bug",
            report.denies_invalid
        ));
    }
    if report.grants == 0 {
        return Err(format!("{algorithm}: a {SERVE_LOAD}-load session granted nothing"));
    }
    Ok(ServeBench {
        algorithm: algorithm.to_string(),
        n: SERVE_N,
        k: SERVE_K,
        degree: SERVE_DEGREE,
        circular,
        load: SERVE_LOAD,
        batches,
        requests: report.requests,
        grants: report.grants,
        slots: report.slots,
        slots_per_sec: report.slots_per_sec,
        p50_grant_latency_ns: report.p50_grant_latency_ns,
        p99_grant_latency_ns: report.p99_grant_latency_ns,
    })
}

fn bench_serve(smoke: bool) -> Result<Vec<ServeBench>, String> {
    let batches: u64 = if smoke { 200 } else { 2_000 };
    [
        ("fa", Policy::FirstAvailable, false),
        ("bfa", Policy::BreakFirstAvailable, true),
        ("approx", Policy::Approximate, true),
    ]
    .into_iter()
    .map(|(algorithm, policy, circular)| bench_serve_one(algorithm, policy, circular, batches))
    .collect()
}

fn sweep_config(smoke: bool) -> SweepConfig {
    let mut config = SweepConfig::uniform_packets(
        8,
        16,
        vec![DegreeSpec::None, DegreeSpec::Circular(3), DegreeSpec::Full],
        vec![0.2, 0.4, 0.6, 0.8, 1.0],
    );
    config.sim.warmup_slots = if smoke { 50 } else { 200 };
    config.sim.measure_slots = if smoke { 200 } else { 2_000 };
    config
}

fn bench_sweep(smoke: bool) -> Result<SweepBench, String> {
    let config = sweep_config(smoke);
    let grid_points = config.degrees.len() * config.loads.len();

    let mut sequential_ms = f64::MAX;
    let mut sequential_json = String::new();
    for _ in 0..REPEATS {
        let start = Instant::now();
        let sequential = run_sweep_with_threads(&config, 1).map_err(|err| err.to_string())?;
        let ms = start.elapsed().as_secs_f64() * 1_000.0;
        sequential_json = serde_json::to_string(&sequential).map_err(|err| err.to_string())?;
        sequential_ms = sequential_ms.min(ms);
    }

    let mut threads = Vec::with_capacity(THREAD_LADDER.len());
    for &n in &THREAD_LADDER {
        let mut best_ms = f64::MAX;
        let mut rows_identical = true;
        for _ in 0..REPEATS {
            let start = Instant::now();
            let parallel = run_sweep_with_threads(&config, n).map_err(|err| err.to_string())?;
            let ms = start.elapsed().as_secs_f64() * 1_000.0;
            best_ms = best_ms.min(ms);
            rows_identical &=
                serde_json::to_string(&parallel).is_ok_and(|json| json == sequential_json);
        }
        threads.push(ThreadBench {
            threads: n,
            ms: best_ms,
            speedup: sequential_ms / best_ms,
            rows_identical,
        });
    }

    Ok(SweepBench { grid_points, measure_slots: config.sim.measure_slots, sequential_ms, threads })
}

fn slot_specs(smoke: bool) -> Vec<SlotSpec> {
    // Smoke runs keep the same grid at ~10× fewer slots.
    let scale = if smoke { 10 } else { 1 };
    let mut specs = vec![
        SlotSpec {
            algorithm: "fa",
            policy: Policy::FirstAvailable,
            circular: false,
            traffic: Traffic::Incoherent,
            n: 8,
            k: 16,
            degree: 3,
            slots: 20_000 / scale,
        },
        SlotSpec {
            algorithm: "fa",
            policy: Policy::FirstAvailable,
            circular: false,
            traffic: Traffic::Incoherent,
            n: 8,
            k: 64,
            degree: 7,
            slots: 10_000 / scale,
        },
        SlotSpec {
            algorithm: "bfa",
            policy: Policy::BreakFirstAvailable,
            circular: true,
            traffic: Traffic::Incoherent,
            n: 8,
            k: 16,
            degree: 3,
            slots: 20_000 / scale,
        },
        SlotSpec {
            algorithm: "bfa",
            policy: Policy::BreakFirstAvailable,
            circular: true,
            traffic: Traffic::Incoherent,
            n: 8,
            k: 64,
            degree: 7,
            slots: 5_000 / scale,
        },
        SlotSpec {
            algorithm: "approx",
            policy: Policy::Approximate,
            circular: true,
            traffic: Traffic::Incoherent,
            n: 8,
            k: 16,
            degree: 3,
            slots: 20_000 / scale,
        },
        SlotSpec {
            algorithm: "approx",
            policy: Policy::Approximate,
            circular: true,
            traffic: Traffic::Incoherent,
            n: 8,
            k: 64,
            degree: 7,
            slots: 10_000 / scale,
        },
    ];
    // Coherent steady-state rows: the warm-capable policies at the same
    // grid points, driven by one coherent chain instead of i.i.d. draws.
    // (The approximation is excluded — it never takes the warm path.)
    specs.extend([
        SlotSpec {
            algorithm: "fa",
            policy: Policy::FirstAvailable,
            circular: false,
            traffic: Traffic::Coherent,
            n: 8,
            k: 16,
            degree: 3,
            slots: 20_000 / scale,
        },
        SlotSpec {
            algorithm: "fa",
            policy: Policy::FirstAvailable,
            circular: false,
            traffic: Traffic::Coherent,
            n: 8,
            k: 64,
            degree: 7,
            slots: 10_000 / scale,
        },
        SlotSpec {
            algorithm: "bfa",
            policy: Policy::BreakFirstAvailable,
            circular: true,
            traffic: Traffic::Coherent,
            n: 8,
            k: 16,
            degree: 3,
            slots: 20_000 / scale,
        },
        SlotSpec {
            algorithm: "bfa",
            policy: Policy::BreakFirstAvailable,
            circular: true,
            traffic: Traffic::Coherent,
            n: 8,
            k: 64,
            degree: 7,
            slots: 5_000 / scale,
        },
    ]);
    specs
}

fn run(out_path: &str, smoke: bool) -> Result<(), String> {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut slot_benchmarks = Vec::new();
    for spec in &slot_specs(smoke) {
        let bench =
            bench_slot(spec, 0.8).map_err(|err| format!("slot bench {}: {err}", spec.algorithm))?;
        eprintln!(
            "{:>6}/{:<10} N={} k={:<2} d={}: {:>8.1} ns/slot (cold-start {:>8.1}), {:.3} allocs/slot, grant rate {:.3}{}",
            bench.algorithm,
            bench.traffic,
            bench.n,
            bench.k,
            bench.degree,
            bench.ns_per_slot,
            bench.cold_start_ns_per_slot,
            bench.allocs_per_slot,
            bench.grant_rate,
            bench
                .repair_rate
                .map_or(String::new(), |r| format!(", repair rate {r:.3}"))
        );
        // The hot path is allocation-free by construction in a plain release
        // build; a nonzero rate is a regression, not noise.
        if !cfg!(debug_assertions) && bench.allocs_per_slot > 0.0 {
            return Err(format!(
                "{} k={} allocated {:.3} times/slot on the zero-allocation hot path",
                bench.algorithm, bench.k, bench.allocs_per_slot
            ));
        }
        // Coherent rows exist to measure the repair path; a coherent chain
        // that mostly falls back means the warm path regressed.
        if spec.traffic == Traffic::Coherent && bench.repair_rate.is_none_or(|r| r < 0.8) {
            return Err(format!(
                "{} k={} coherent traffic repaired {:?} of slots (need > 0.8)",
                bench.algorithm, bench.k, bench.repair_rate
            ));
        }
        slot_benchmarks.push(bench);
    }
    fill_ratios(&mut slot_benchmarks);
    for bench in slot_benchmarks.iter().filter(|b| b.bfa_over_fa_ratio.is_some()) {
        if let Some(ratio) = bench.bfa_over_fa_ratio {
            eprintln!("   bfa/fa ns ratio at k={:<2} d={}: {:.2}", bench.k, bench.degree, ratio);
        }
    }

    let serve_benchmarks = bench_serve(smoke).map_err(|err| format!("serve bench: {err}"))?;
    for bench in &serve_benchmarks {
        eprintln!(
            "serve {:>6} N={} k={} d={}: p50 {:>9} ns, p99 {:>9} ns, {:>8.0} slots/s ({} grants/{} requests)",
            bench.algorithm,
            bench.n,
            bench.k,
            bench.degree,
            bench.p50_grant_latency_ns,
            bench.p99_grant_latency_ns,
            bench.slots_per_sec,
            bench.grants,
            bench.requests
        );
    }

    let sweep = bench_sweep(smoke).map_err(|err| format!("sweep bench: {err}"))?;
    eprintln!(
        "sweep ({} points x {} slots): sequential {:.1} ms",
        sweep.grid_points, sweep.measure_slots, sweep.sequential_ms
    );
    for t in &sweep.threads {
        eprintln!(
            "  {} threads: {:.1} ms (speedup {:.2}, rows identical: {})",
            t.threads, t.ms, t.speedup, t.rows_identical
        );
        if !t.rows_identical {
            return Err(format!(
                "parallel sweep rows at {} threads differ from the sequential rows",
                t.threads
            ));
        }
    }

    let report = BenchReport {
        schema: "wdm-bench/BENCH_5".to_string(),
        debug_assertions: cfg!(debug_assertions),
        smoke,
        available_parallelism: available,
        slot_benchmarks,
        serve_benchmarks,
        sweep,
    };
    let json =
        serde_json::to_string_pretty(&report).map_err(|err| format!("serialize report: {err}"))?;
    std::fs::write(out_path, json).map_err(|err| format!("write {out_path}: {err}"))?;
    eprintln!("wrote {out_path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_5.json".to_string();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("usage: bench-report [--out <file.json>] [--smoke]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!(
                    "unknown argument: {other}\nusage: bench-report [--out <file.json>] [--smoke]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    match run(&out_path, smoke) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("bench-report failed: {err}");
            ExitCode::FAILURE
        }
    }
}

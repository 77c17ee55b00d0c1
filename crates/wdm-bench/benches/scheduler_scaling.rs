//! E7 — the paper's complexity table, measured.
//!
//! | algorithm | claimed | measured here |
//! |-----------|---------|----------------|
//! | First Available | `O(k)` | `fa/k=…` series |
//! | Break and First Available | `O(dk)` | `bfa/k=…` and `bfa_degree/d=…` series |
//! | single-break approximation | `O(k)` | `approx/k=…` series |
//! | Hopcroft–Karp baseline | `O(N^1.5 k^1.5 d)` | `hopcroft_karp/k=…` series |
//! | (independence of N) | per-fiber cost flat in N | `independence_n/N=…` series |
//!
//! Run `cargo bench -p wdm-bench --bench scheduler_scaling`; the series
//! growth rates (linear in k for FA/BFA, superlinear for HK, flat in N)
//! reproduce the paper's Table-less complexity claims.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use wdm_bench::{bench_rng, random_request_vector};
use wdm_core::algorithms::{
    approx_schedule, hopcroft_karp, BreakChoice, BreakFirstAvailable, FirstAvailable, Matcher,
};
use wdm_core::{ChannelMask, Conversion, RequestGraph, RequestVector};

const LOAD: f64 = 0.8;
const BFA: BreakFirstAvailable = BreakFirstAvailable(BreakChoice::FirstRequest);
const N_FIBERS: usize = 16;

fn workloads(k: usize, n: usize, count: usize) -> Vec<RequestVector> {
    let mut rng = bench_rng(0xC0FFEE ^ k as u64 ^ (n as u64) << 32);
    (0..count).map(|_| random_request_vector(&mut rng, n, k, LOAD)).collect()
}

fn bench_fa(c: &mut Criterion) {
    let mut group = c.benchmark_group("fa");
    for k in [8usize, 32, 128, 512] {
        let conv = Conversion::non_circular(k, 1, 1).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &inputs[i % inputs.len()];
                i += 1;
                black_box(FirstAvailable.schedule(&conv, rv, &mask).expect("schedules"))
            });
        });
    }
    group.finish();
}

fn bench_bfa(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfa");
    for k in [8usize, 32, 128, 512] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.throughput(Throughput::Elements(k as u64));
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &inputs[i % inputs.len()];
                i += 1;
                black_box(BFA.schedule(&conv, rv, &mask).expect("schedules"))
            });
        });
    }
    group.finish();

    // O(dk): linear growth in the conversion degree at fixed k.
    let mut group = c.benchmark_group("bfa_degree");
    let k = 128;
    for d in [3usize, 5, 9, 17, 33] {
        let conv = Conversion::symmetric_circular(k, d).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.bench_with_input(BenchmarkId::new("d", d), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &inputs[i % inputs.len()];
                i += 1;
                black_box(BFA.schedule(&conv, rv, &mask).expect("schedules"))
            });
        });
    }
    group.finish();
}

fn bench_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("approx");
    for k in [8usize, 32, 128, 512] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let mask = ChannelMask::all_free(k);
        let inputs = workloads(k, N_FIBERS, 64);
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &inputs[i % inputs.len()];
                i += 1;
                black_box(approx_schedule(&conv, rv, &mask).expect("schedules"))
            });
        });
    }
    group.finish();
}

fn bench_hopcroft_karp(c: &mut Criterion) {
    // Matching only, on prebuilt graphs (flatters the baseline).
    let mut group = c.benchmark_group("hopcroft_karp");
    for k in [8usize, 32, 128] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let inputs: Vec<RequestGraph> = workloads(k, N_FIBERS, 16)
            .iter()
            .map(|rv| RequestGraph::new(conv, rv).expect("valid graph"))
            .collect();
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let g = &inputs[i % inputs.len()];
                i += 1;
                black_box(hopcroft_karp(g).size())
            });
        });
    }
    group.finish();

    // The baseline as it would actually be deployed: build the explicit
    // request graph from the slot's requests, then match.
    let mut group = c.benchmark_group("hopcroft_karp_incl_build");
    for k in [8usize, 32, 128] {
        let conv = Conversion::symmetric_circular(k, 3).expect("valid");
        let inputs = workloads(k, N_FIBERS, 16);
        group.bench_with_input(BenchmarkId::new("k", k), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &inputs[i % inputs.len()];
                i += 1;
                let g = RequestGraph::new(conv, rv).expect("valid graph");
                black_box(hopcroft_karp(&g).size())
            });
        });
    }
    group.finish();

    // Worst case: all N·k input channels request this fiber. The compact
    // BFA stays O(dk); the baseline pays for N·k left vertices.
    let mut group = c.benchmark_group("hotspot_baseline_vs_bfa");
    let k = 64;
    let conv = Conversion::symmetric_circular(k, 3).expect("valid");
    let mask = ChannelMask::all_free(k);
    for n in [4usize, 16, 64] {
        let rv = RequestVector::from_counts(vec![n; k]).expect("valid");
        group.bench_with_input(BenchmarkId::new("hk_N", n), &rv, |b, rv| {
            b.iter(|| {
                let g = RequestGraph::new(conv, rv).expect("valid graph");
                black_box(hopcroft_karp(&g).size())
            });
        });
        group.bench_with_input(BenchmarkId::new("bfa_N", n), &rv, |b, rv| {
            b.iter(|| black_box(BFA.schedule(&conv, rv, &mask).expect("schedules")));
        });
    }
    group.finish();
}

/// The headline claim: per-fiber scheduling cost is independent of the
/// interconnect size N. The offered request vector grows with N (more
/// fibers feed the hot output), yet BFA's time stays flat because counts
/// are clamped at d.
fn bench_independence_of_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("independence_n");
    let k = 32;
    let conv = Conversion::symmetric_circular(k, 3).expect("valid");
    let mask = ChannelMask::all_free(k);
    for n in [4usize, 16, 64, 256] {
        let inputs = workloads(k, n, 32);
        group.bench_with_input(BenchmarkId::new("N", n), &inputs, |b, inputs| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &inputs[i % inputs.len()];
                i += 1;
                black_box(BFA.schedule(&conv, rv, &mask).expect("schedules"))
            });
        });
    }
    group.finish();

    // Worst case: every input channel of every fiber requests this output
    // fiber (N·k requests). Per-wavelength counts are clamped at d inside
    // the scheduler, so time stays flat in N.
    let mut group = c.benchmark_group("independence_n_hotspot");
    for n in [4usize, 16, 64, 256] {
        let rv = RequestVector::from_counts(vec![n; k]).expect("valid");
        group.bench_with_input(BenchmarkId::new("N", n), &rv, |b, rv| {
            b.iter(|| black_box(BFA.schedule(&conv, rv, &mask).expect("schedules")));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fa,
    bench_bfa,
    bench_approx,
    bench_hopcroft_karp,
    bench_independence_of_n
);
criterion_main!(benches);

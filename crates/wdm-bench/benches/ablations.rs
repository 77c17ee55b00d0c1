//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `ablation_break_choice` — breaking-vertex selection (first request vs
//!   densest wavelength): both optimal, constant factors may differ;
//! * `ablation_representation` — compact request-vector scheduler vs the
//!   same algorithm on the explicit adjacency-list graph;
//! * `ablation_hardware` — bit-register hardware model vs the software
//!   scheduler computing the identical schedule;
//! * `ablation_policy` — exact BFA vs the O(k) approximation at equal k.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wdm_bench::{bench_rng, random_request_vector};
use wdm_core::algorithms::{
    approx_schedule, break_fa_matching, BreakChoice, BreakFirstAvailable, Matcher,
};
use wdm_core::{ChannelMask, Conversion, RequestGraph, RequestVector};
use wdm_hardware::BreakFaUnit;

const K: usize = 64;
const N: usize = 16;
const BFA: BreakFirstAvailable = BreakFirstAvailable(BreakChoice::FirstRequest);

fn inputs() -> Vec<RequestVector> {
    let mut rng = bench_rng(0xAB1A);
    (0..48).map(|_| random_request_vector(&mut rng, N, K, 0.8)).collect()
}

fn bench_break_choice(c: &mut Criterion) {
    let conv = Conversion::symmetric_circular(K, 3).expect("valid");
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let mut group = c.benchmark_group("ablation_break_choice");
    for (label, choice) in
        [("first_request", BreakChoice::FirstRequest), ("densest", BreakChoice::DensestWavelength)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(label), &workloads, |b, ws| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &ws[i % ws.len()];
                i += 1;
                black_box(
                    BreakFirstAvailable(choice).schedule(&conv, rv, &mask).expect("schedules"),
                )
            });
        });
    }
    group.finish();
}

fn bench_representation(c: &mut Criterion) {
    let conv = Conversion::symmetric_circular(K, 3).expect("valid");
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let graphs: Vec<RequestGraph> =
        workloads.iter().map(|rv| RequestGraph::new(conv, rv).expect("valid")).collect();
    let mut group = c.benchmark_group("ablation_representation");
    group.bench_function("compact_vector", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            black_box(BFA.schedule(&conv, rv, &mask).expect("schedules"))
        });
    });
    group.bench_function("explicit_graph", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let g = &graphs[i % graphs.len()];
            i += 1;
            black_box(break_fa_matching(g).size())
        });
    });
    group.bench_function("explicit_graph_incl_build", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            let g = RequestGraph::new(conv, rv).expect("valid");
            black_box(break_fa_matching(&g).size())
        });
    });
    group.finish();
}

fn bench_hardware_vs_software(c: &mut Criterion) {
    let conv = Conversion::symmetric_circular(K, 3).expect("valid");
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let unit = BreakFaUnit::new(conv).expect("circular");
    let mut group = c.benchmark_group("ablation_hardware");
    group.bench_function("software_bfa", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            black_box(BFA.schedule(&conv, rv, &mask).expect("schedules"))
        });
    });
    group.bench_function("hardware_model_bfa", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let rv = &workloads[i % workloads.len()];
            i += 1;
            black_box(unit.run(rv, &mask).expect("runs"))
        });
    });
    group.finish();
}

fn bench_exact_vs_approx(c: &mut Criterion) {
    let mask = ChannelMask::all_free(K);
    let workloads = inputs();
    let mut group = c.benchmark_group("ablation_policy");
    for d in [3usize, 9, 33] {
        let conv = Conversion::symmetric_circular(K, d).expect("valid");
        group.bench_with_input(BenchmarkId::new("exact_d", d), &workloads, |b, ws| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &ws[i % ws.len()];
                i += 1;
                black_box(BFA.schedule(&conv, rv, &mask).expect("schedules"))
            });
        });
        group.bench_with_input(BenchmarkId::new("approx_d", d), &workloads, |b, ws| {
            let mut i = 0usize;
            b.iter(|| {
                let rv = &ws[i % ws.len()];
                i += 1;
                black_box(approx_schedule(&conv, rv, &mask).expect("schedules"))
            });
        });
    }
    group.finish();
}

criterion_group!(
    ablation_benches,
    bench_break_choice,
    bench_representation,
    bench_hardware_vs_software,
    bench_exact_vs_approx
);
criterion_main!(ablation_benches);

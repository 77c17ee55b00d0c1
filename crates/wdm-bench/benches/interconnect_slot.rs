//! E8 — whole-interconnect slot latency: distributed O(dk) scheduling vs
//! the Hopcroft–Karp baseline, as N grows.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wdm_bench::bench_rng;

use rand::Rng;
use wdm_core::{Conversion, Policy};
use wdm_interconnect::{ConnectionRequest, Interconnect, InterconnectConfig};

const K: usize = 32;
const LOAD: f64 = 0.8;

fn slot_workloads(n: usize, count: usize) -> Vec<Vec<ConnectionRequest>> {
    let mut rng = bench_rng(7 + n as u64);
    (0..count)
        .map(|_| {
            let mut reqs = Vec::new();
            for fiber in 0..n {
                for w in 0..K {
                    if rng.gen_bool(LOAD) {
                        reqs.push(ConnectionRequest::packet(fiber, w, rng.gen_range(0..n)));
                    }
                }
            }
            reqs
        })
        .collect()
}

fn bench_slot(c: &mut Criterion, name: &str, policy: Policy, sizes: &[usize]) {
    let conv = Conversion::symmetric_circular(K, 3).expect("valid");
    let mut group = c.benchmark_group(name);
    group.sample_size(20);
    for &n in sizes {
        let workloads = slot_workloads(n, 32);
        group.bench_with_input(BenchmarkId::new("N", n), &workloads, |b, workloads| {
            let cfg = InterconnectConfig::packet_switch(n, conv).with_policy(policy);
            let mut ic = Interconnect::new(cfg).expect("valid config");
            let mut i = 0usize;
            b.iter(|| {
                let reqs = &workloads[i % workloads.len()];
                i += 1;
                black_box(ic.advance_slot(reqs).expect("slot"))
            });
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_slot(c, "slot_bfa_seq", Policy::Auto, &[4, 16, 64]);
    bench_slot(c, "slot_hk_seq", Policy::HopcroftKarp, &[4, 16, 64]);
}

criterion_group!(slot_benches, benches);
criterion_main!(slot_benches);

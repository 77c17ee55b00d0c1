//! Experiment E7/E8 (interactive form): the distributed property in action.
//!
//! The paper's complexity claim is that per-fiber scheduling is O(k) / O(dk)
//! *independent of the interconnect size N*, while the general bipartite
//! baseline pays for all `N·k` requests that may converge on one fiber.
//! Part 1 measures exactly that: one output fiber receiving traffic from N
//! input fibers, scheduled by compact Break-and-FA vs Hopcroft–Karp on the
//! explicit request graph.
//!
//! Part 2 runs whole-switch slots and shows when threading the N
//! independent per-fiber schedulers pays off (per-slot work must be large
//! enough to amortize thread hand-off).
//!
//! ```sh
//! cargo run --release --example distributed_scaling
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_optical::core::algorithms::{hopcroft_karp, BreakFirstAvailable, Matcher};
use wdm_optical::core::{ChannelMask, Conversion, RequestGraph, RequestVector};
use wdm_optical::interconnect::{ConnectionRequest, Interconnect, InterconnectConfig};

fn main() {
    part1_per_fiber_cost();
    part2_threaded_slots();
}

/// One hot output fiber: every input channel of every fiber requests it
/// (the worst case the paper's N-independence claim is about).
fn part1_per_fiber_cost() {
    let k = 64;
    let conv = Conversion::symmetric_circular(k, 3).expect("valid conversion");
    let mask = ChannelMask::all_free(k);
    let iters = 2_000;
    println!("part 1: one hot output fiber, k={k}, d=3, all N·k input channels requesting\n");
    println!("{:>5} {:>16} {:>16} {:>10}", "N", "BFA O(dk) (µs)", "Hopcroft-Karp (µs)", "ratio");
    for n in [4usize, 16, 64, 256] {
        let rv = RequestVector::from_counts(vec![n; k]).expect("valid");

        let start = Instant::now();
        for _ in 0..iters {
            let grants =
                BreakFirstAvailable::default().schedule(&conv, &rv, &mask).expect("schedules");
            assert_eq!(grants.len(), k);
        }
        let bfa = start.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let hk_iters = iters / 10;
        let start = Instant::now();
        for _ in 0..hk_iters {
            let g = RequestGraph::new(conv, &rv).expect("valid graph");
            assert_eq!(hopcroft_karp(&g).size(), k);
        }
        let hk = start.elapsed().as_secs_f64() * 1e6 / hk_iters as f64;

        println!("{:>5} {:>16.1} {:>16.1} {:>10.1}", n, bfa, hk, hk / bfa);
    }
    println!(
        "\nBFA is flat in N (the request vector is clamped at d per wavelength); the\n\
         baseline pays for N·k left vertices — the paper's O(dk) vs O(N^1.5 k^1.5 d).\n"
    );
}

/// Whole-switch slots: threading the N independent per-fiber schedulers.
fn part2_threaded_slots() {
    let (n, k) = (64usize, 256usize);
    let conv = Conversion::symmetric_circular(k, 3).expect("valid conversion");
    let slots = 30;
    let mut rng = StdRng::seed_from_u64(99);
    let workloads: Vec<Vec<ConnectionRequest>> = (0..slots)
        .map(|_| {
            let mut reqs = Vec::new();
            for fiber in 0..n {
                for w in 0..k {
                    if rng.gen_bool(0.8) {
                        reqs.push(ConnectionRequest::packet(fiber, w, rng.gen_range(0..n)));
                    }
                }
            }
            reqs
        })
        .collect();

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!("part 2: whole-switch slot latency, N={n}, k={k}, load 0.8, {cores} core(s)\n");
    println!("{:>9} {:>18}", "threads", "ms per slot");
    for threads in [1usize, 2, 4, 8] {
        let cfg = InterconnectConfig::packet_switch(n, conv).with_threads(threads);
        let mut ic = Interconnect::new(cfg).expect("valid config");
        let start = Instant::now();
        for reqs in &workloads {
            let _ = ic.advance_slot(reqs).expect("slot");
        }
        let ms = start.elapsed().as_secs_f64() * 1e3 / slots as f64;
        println!("{threads:>9} {ms:>18.2}");
    }
    println!(
        "\nThe N per-fiber schedulers share no state, so the decomposition parallelizes\n\
         (thread counts beyond the available cores — {cores} here — cannot help, and the\n\
         integration tests assert threaded and sequential schedules are identical).\n\
         The hardware realization is one O(dk) scheduler per output fiber: slot latency\n\
         flat in N."
    );
}

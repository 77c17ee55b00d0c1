//! Experiment E7 (interactive form): per-fiber cost independent of N, the
//! property the distributed architecture (E8) rests on.
//!
//! The paper's complexity claim is that per-fiber scheduling is O(k) / O(dk)
//! *independent of the interconnect size N*, while the general bipartite
//! baseline pays for all `N·k` requests that may converge on one fiber.
//! This measures exactly that: one output fiber receiving traffic from N
//! input fibers, scheduled by compact Break-and-FA vs Hopcroft–Karp on the
//! explicit request graph.
//!
//! ```sh
//! cargo run --release --example distributed_scaling
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Instant;

use wdm_optical::core::algorithms::{hopcroft_karp, BreakFirstAvailable, Matcher};
use wdm_optical::core::{ChannelMask, Conversion, RequestGraph, RequestVector};

/// One hot output fiber: every input channel of every fiber requests it
/// (the worst case the paper's N-independence claim is about).
fn main() {
    let k = 64;
    let conv = Conversion::symmetric_circular(k, 3).expect("valid conversion");
    let mask = ChannelMask::all_free(k);
    let iters = 2_000;
    println!("one hot output fiber, k={k}, d=3, all N·k input channels requesting\n");
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
         baseline pays for N·k left vertices — the paper's O(dk) vs O(N^1.5 k^1.5 d)."
    );
}

//! Determinism of the parallel experiment layer: a sweep's rows must be
//! bit-identical regardless of how many worker threads computed them.
//!
//! `run_sweep_with_threads` farms whole grid points out to
//! `std::thread::scope` workers; the rows must match the sequential
//! `run_sweep` exactly, in grid order, because both derive each point's
//! seed with [`point_seed`].

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use wdm_sim::experiment::{point_seed, run_sweep, run_sweep_with_threads, DegreeSpec, SweepConfig};

fn small_sweep() -> SweepConfig {
    let mut config = SweepConfig::uniform_packets(
        4,
        8,
        vec![
            DegreeSpec::None,
            DegreeSpec::Circular(3),
            DegreeSpec::NonCircular(3),
            DegreeSpec::Full,
        ],
        vec![0.3, 0.6, 0.9],
    );
    config.sim.warmup_slots = 50;
    config.sim.measure_slots = 300;
    config.sim.seed = 0xABCD;
    config
}

/// JSON is the canonical serialized form of a report/row set; comparing the
/// serialization compares every field bit for bit (f64s included).
fn canonical<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

#[test]
fn sequential_and_parallel_sweeps_are_bit_identical() {
    let config = small_sweep();
    let sequential = run_sweep(&config).unwrap();
    assert_eq!(sequential.len(), config.degrees.len() * config.loads.len());
    for threads in [2, 3, 8, 64] {
        let parallel = run_sweep_with_threads(&config, threads).unwrap();
        assert_eq!(
            canonical(&sequential),
            canonical(&parallel),
            "rows diverged at {threads} worker threads"
        );
    }
}

#[test]
fn point_seeds_are_distinct_and_stable() {
    let base = 0x5eed;
    let seeds: Vec<u64> = (0..64).map(|i| point_seed(base, i)).collect();
    for (i, &a) in seeds.iter().enumerate() {
        assert_eq!(a, point_seed(base, i), "point_seed must be a pure function");
        for (j, &b) in seeds.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "points {i} and {j} share a seed");
        }
    }
    // Different base seeds decorrelate the whole grid.
    assert_ne!(point_seed(1, 0), point_seed(2, 0));
}

#[test]
fn more_threads_than_grid_points_is_fine() {
    let mut config = small_sweep();
    config.degrees = vec![DegreeSpec::Circular(3)];
    config.loads = vec![0.5];
    config.sim.measure_slots = 100;
    let rows = run_sweep_with_threads(&config, 16).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(canonical(&rows), canonical(&run_sweep(&config).unwrap()));
}

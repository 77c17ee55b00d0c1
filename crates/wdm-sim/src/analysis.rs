//! Exact analytical results used to validate the simulator.
//!
//! Under i.i.d. Bernoulli arrivals with uniform destinations, two extreme
//! conversion regimes have closed-form per-slot behaviour (single-slot
//! packets, all channels free every slot):
//!
//! * **full-range conversion** (`d = k`): a fiber's arrivals
//!   `X ~ Binomial(N·k, p/N)` are served up to `k`, so the carried load per
//!   fiber is `E[min(X, k)]`;
//! * **no conversion** (`d = 1`): each output channel independently serves
//!   its own wavelength, `Y ~ Binomial(N, p/N)` contenders, carrying
//!   `P(Y ≥ 1)`.
//!
//! Limited-range conversion (`1 < d < k`) lies strictly between; its exact
//! analysis is open (the paper's citations use approximations), which is why
//! the simulator exists. The integration tests check simulated throughput
//! against these formulas to tight tolerances.

/// The binomial pmf vector `P(X = 0..=n)` for `X ~ Binomial(n, q)`,
/// computed by stable forward recursion.
pub fn binomial_pmf(n: usize, q: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&q), "probability out of range");
    let mut pmf = vec![0.0; n + 1];
    if q == 1.0 {
        pmf[n] = 1.0;
        return pmf;
    }
    // P(0) = (1−q)^n via logs for stability at large n.
    pmf[0] = ((1.0 - q).ln() * n as f64).exp();
    for x in 1..=n {
        pmf[x] = pmf[x - 1] * ((n - x + 1) as f64 / x as f64) * (q / (1.0 - q));
    }
    pmf
}

/// `E[min(X, cap)]` for `X ~ Binomial(n, q)`.
pub fn expected_min_binomial(n: usize, q: f64, cap: usize) -> f64 {
    binomial_pmf(n, q).iter().enumerate().map(|(x, p)| p * x.min(cap) as f64).sum()
}

/// Exact per-slot throughput of one output fiber under full-range
/// conversion: `E[min(X, k)]` with `X ~ Binomial(N·k, p/N)`.
pub fn full_conversion_fiber_throughput(n: usize, k: usize, p: f64) -> f64 {
    expected_min_binomial(n * k, p / n as f64, k)
}

/// Exact contention-loss probability under full-range conversion:
/// `1 − E[min(X, k)] / E[X]`.
pub fn full_conversion_loss(n: usize, k: usize, p: f64) -> f64 {
    let offered = k as f64 * p;
    if offered == 0.0 {
        0.0
    } else {
        1.0 - full_conversion_fiber_throughput(n, k, p) / offered
    }
}

/// Exact per-slot throughput of one output fiber with no conversion
/// (`d = 1`): `k · P(Y ≥ 1)` with `Y ~ Binomial(N, p/N)`.
pub fn no_conversion_fiber_throughput(n: usize, k: usize, p: f64) -> f64 {
    let q = p / n as f64;
    k as f64 * (1.0 - (1.0 - q).powi(i32::try_from(n).unwrap_or(i32::MAX)))
}

/// Exact contention-loss probability with no conversion.
pub fn no_conversion_loss(n: usize, k: usize, p: f64) -> f64 {
    let offered = k as f64 * p;
    if offered == 0.0 {
        0.0
    } else {
        1.0 - no_conversion_fiber_throughput(n, k, p) / offered
    }
}

/// Exact per-slot throughput of one output fiber under **limited-range
/// non-circular** conversion with reach `(e, f)` — the regime for which the
/// paper's citations only had approximations.
///
/// The computation exploits the structure behind Theorem 1. First Available
/// scans output channels in order and serves the lowest-wavelength pending
/// request; since a request on wavelength `w` is usable for outputs
/// `max(0, w−e) ..= min(k−1, w+f)` and both endpoints are monotone in `w`,
/// FA is exactly an earliest-deadline-first single-server queue over the
/// output scan: at output `i` the requests with `begin = i` join, one
/// pending request is served, everything else ages one step, and requests
/// past their deadline expire. Deadlines join in non-decreasing order, so
/// the queue never reorders, and a request with residual lifetime `r` can
/// only be served if fewer than `r` requests are ahead — pending counts per
/// residual class can be capped at the residual, giving a tiny state space.
/// Evolving the exact state distribution (arrivals per wavelength are
/// `Binomial(N, p/N)`) yields the exact expected maximum matching.
///
/// Complexity: `O(k · |S| · N · d)` with `|S| ≤ (d+1)!` states — instant
/// for the practical `d ≤ 7`.
pub fn limited_non_circular_fiber_throughput(
    n: usize,
    k: usize,
    p: f64,
    e: usize,
    f: usize,
) -> f64 {
    assert!(e + f < k, "conversion degree must not exceed k");
    assert!((0.0..=1.0).contains(&p), "load out of range");
    let d = e + f + 1;
    let q = p / n as f64;
    let arrivals_pmf = binomial_pmf(n, q);

    // State: pending counts per residual lifetime 1..=d, count capped at
    // the residual (anything beyond can never be served under EDF).
    // Encoded base-(r+1) for compactness.
    use std::collections::HashMap;
    let mut dist: HashMap<Vec<u8>, f64> = HashMap::new();
    dist.insert(vec![0u8; d], 1.0);
    let mut served = 0.0f64;

    for i in 0..k {
        // Wavelengths whose service window begins at output i.
        let arriving: Vec<usize> = if i == 0 {
            (0..=e.min(k - 1)).collect()
        } else {
            let w = i + e;
            if w < k {
                vec![w]
            } else {
                Vec::new()
            }
        };
        // 1. Arrivals join their residual class (deadline min(w+f, k−1)).
        for w in arriving {
            let deadline = (w + f).min(k - 1);
            let residual = deadline - i + 1; // in 1..=d
            debug_assert!((1..=d).contains(&residual));
            let mut next: HashMap<Vec<u8>, f64> = HashMap::with_capacity(dist.len() * 2);
            for (state, prob) in &dist {
                for (x, px) in arrivals_pmf.iter().enumerate() {
                    if *px == 0.0 {
                        continue;
                    }
                    let mut s = state.clone();
                    let cap = u8::try_from(residual).unwrap_or(u8::MAX);
                    let arriving = u8::try_from(x).unwrap_or(u8::MAX);
                    s[residual - 1] = s[residual - 1].saturating_add(arriving).min(cap);
                    *next.entry(s).or_insert(0.0) += prob * px;
                }
            }
            dist = next;
        }
        // 2. Serve one pending request from the lowest residual class.
        let mut next: HashMap<Vec<u8>, f64> = HashMap::with_capacity(dist.len());
        for (state, prob) in &dist {
            let mut s = state.clone();
            if let Some(slot) = s.iter_mut().find(|c| **c > 0) {
                *slot -= 1;
                served += prob;
            }
            *next.entry(s).or_insert(0.0) += prob;
        }
        dist = next;
        // 3. Age: residual r becomes r−1; residual 1 items expire (lost).
        let mut next: HashMap<Vec<u8>, f64> = HashMap::with_capacity(dist.len());
        for (state, prob) in &dist {
            let mut s = vec![0u8; d];
            for r in 2..=d {
                // After ageing, class r−1 can hold at most r−1 servable.
                s[r - 2] = state[r - 1].min(u8::try_from(r - 1).unwrap_or(u8::MAX));
            }
            *next.entry(s).or_insert(0.0) += prob;
        }
        dist = next;
    }
    served
}

/// Exact contention-loss probability under limited-range non-circular
/// conversion.
pub fn limited_non_circular_loss(n: usize, k: usize, p: f64, e: usize, f: usize) -> f64 {
    let offered = k as f64 * p;
    if offered == 0.0 {
        0.0
    } else {
        1.0 - limited_non_circular_fiber_throughput(n, k, p, e, f) / offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for (n, q) in [(10, 0.3), (100, 0.05), (256, 0.9), (5, 0.0), (5, 1.0)] {
            let s: f64 = binomial_pmf(n, q).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "n={n} q={q} sum={s}");
        }
    }

    #[test]
    fn pmf_matches_hand_computed_small_case() {
        let pmf = binomial_pmf(2, 0.5);
        assert!((pmf[0] - 0.25).abs() < 1e-12);
        assert!((pmf[1] - 0.5).abs() < 1e-12);
        assert!((pmf[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn expected_min_caps_correctly() {
        // Cap at n ⇒ plain mean n·q.
        let em = expected_min_binomial(20, 0.3, 20);
        assert!((em - 6.0).abs() < 1e-9);
        // Cap at 0 ⇒ 0.
        assert_eq!(expected_min_binomial(20, 0.3, 0), 0.0);
        // Cap below mean: strictly less than the mean.
        assert!(expected_min_binomial(20, 0.5, 5) < 10.0);
    }

    #[test]
    fn full_conversion_low_load_is_lossless() {
        let loss = full_conversion_loss(8, 16, 0.05);
        assert!(loss < 1e-4, "loss {loss}");
    }

    #[test]
    fn full_conversion_overload_saturates_at_k() {
        let tp = full_conversion_fiber_throughput(8, 16, 1.0);
        assert!(tp <= 16.0 + 1e-9);
        assert!(tp > 12.0, "high load should nearly saturate, got {tp}");
    }

    #[test]
    fn no_conversion_losses_exceed_full_conversion() {
        for p in [0.3, 0.6, 0.9] {
            let none = no_conversion_loss(8, 16, p);
            let full = full_conversion_loss(8, 16, p);
            assert!(none > full, "p={p}: none {none} vs full {full}");
        }
    }

    #[test]
    fn single_fiber_no_conversion() {
        // N = 1: every channel has exactly its own arrival, no contention.
        let loss = no_conversion_loss(1, 8, 0.7);
        assert!(loss.abs() < 1e-12);
    }

    #[test]
    fn zero_load_edge_cases() {
        assert_eq!(full_conversion_loss(4, 8, 0.0), 0.0);
        assert_eq!(no_conversion_loss(4, 8, 0.0), 0.0);
        assert_eq!(limited_non_circular_loss(4, 8, 0.0, 1, 1), 0.0);
    }

    #[test]
    fn limited_with_zero_reach_equals_no_conversion() {
        for p in [0.2, 0.5, 0.9] {
            let limited = limited_non_circular_fiber_throughput(6, 8, p, 0, 0);
            let none = no_conversion_fiber_throughput(6, 8, p);
            assert!(
                (limited - none).abs() < 1e-9,
                "p={p}: limited(0,0) {limited} vs no-conversion {none}"
            );
        }
    }

    #[test]
    fn limited_throughput_is_monotone_in_reach() {
        let (n, k, p) = (6, 10, 0.9);
        let mut last = 0.0;
        for (e, f) in [(0, 0), (0, 1), (1, 1), (2, 2), (3, 3)] {
            let tput = limited_non_circular_fiber_throughput(n, k, p, e, f);
            assert!(tput >= last - 1e-9, "(e={e}, f={f}) regressed: {tput} < {last}");
            last = tput;
        }
        // And bounded by full conversion.
        assert!(last <= full_conversion_fiber_throughput(n, k, p) + 1e-9);
    }

    /// The DP must agree with brute-force Monte Carlo over the actual First
    /// Available scheduler (which Theorem 1 proves maximum).
    #[test]
    fn limited_dp_matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use wdm_core::algorithms::{FirstAvailable, Matcher};
        use wdm_core::{ChannelMask, Conversion, RequestVector};

        let (n, k, e, f) = (4usize, 8usize, 1usize, 1usize);
        let conv = Conversion::non_circular(k, e, f).unwrap();
        let mask = ChannelMask::all_free(k);
        let mut rng = StdRng::seed_from_u64(314);
        for p in [0.3, 0.7, 1.0] {
            let exact = limited_non_circular_fiber_throughput(n, k, p, e, f);
            let trials = 40_000;
            let q = p / n as f64;
            let mut total = 0usize;
            for _ in 0..trials {
                let mut rv = RequestVector::new(k);
                for w in 0..k {
                    for _ in 0..n {
                        if rng.gen_bool(q) {
                            rv.add(w).unwrap();
                        }
                    }
                }
                total += FirstAvailable.schedule(&conv, &rv, &mask).unwrap().len();
            }
            let mc = total as f64 / trials as f64;
            assert!((mc - exact).abs() < 0.05, "p={p}: Monte Carlo {mc:.4} vs exact DP {exact:.4}");
        }
    }

    #[test]
    fn limited_dp_handles_larger_degrees() {
        // d = 7 on k = 16 stays fast and sane.
        let tput = limited_non_circular_fiber_throughput(8, 16, 0.9, 3, 3);
        assert!(tput > 0.0 && tput <= 16.0);
        let lo = no_conversion_fiber_throughput(8, 16, 0.9);
        let hi = full_conversion_fiber_throughput(8, 16, 0.9);
        assert!(tput > lo && tput < hi + 1e-9);
    }

    #[test]
    #[should_panic(expected = "degree must not exceed")]
    fn limited_dp_rejects_oversized_degree() {
        let _ = limited_non_circular_fiber_throughput(4, 4, 0.5, 2, 2);
    }
}

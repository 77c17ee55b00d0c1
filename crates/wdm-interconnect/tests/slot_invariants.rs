//! Property tests on the slotted interconnect: for arbitrary multi-slot
//! workloads, physical and accounting invariants hold at every slot, under
//! both holding policies.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use wdm_core::{Conversion, Policy};
use wdm_interconnect::{
    ConnectionRequest, HoldPolicy, Interconnect, InterconnectConfig, RejectReason,
};

/// A generated multi-slot workload on an n-fiber, k-wavelength switch.
#[derive(Debug, Clone)]
struct Workload {
    n: usize,
    k: usize,
    e: usize,
    f: usize,
    /// Per slot: (src_fiber, src_wavelength, dst_fiber, duration) tuples;
    /// indexes are reduced mod n/k at use.
    slots: Vec<Vec<(usize, usize, usize, u32)>>,
}

fn workload() -> impl Strategy<Value = Workload> {
    (2usize..6, 2usize..8).prop_flat_map(|(n, k)| {
        let reach = (0..k, 0..k).prop_filter("degree <= k", move |(e, f)| e + f < k);
        let slot = proptest::collection::vec((0..n, 0..k, 0..n, 1u32..5), 0..(n * k).min(12));
        (Just(n), Just(k), reach, proptest::collection::vec(slot, 1..25))
            .prop_map(|(n, k, (e, f), slots)| Workload { n, k, e, f, slots })
    })
}

fn dedupe_sources(reqs: Vec<ConnectionRequest>) -> Vec<ConnectionRequest> {
    let mut seen = std::collections::HashSet::new();
    reqs.into_iter().filter(|r| seen.insert((r.src_fiber, r.src_wavelength))).collect()
}

fn run_and_check(w: &Workload, hold: HoldPolicy) {
    let conv = Conversion::circular(w.k, w.e, w.f).unwrap();
    let cfg =
        InterconnectConfig::packet_switch(w.n, conv).with_policy(Policy::Auto).with_hold(hold);
    let mut ic = Interconnect::new(cfg).unwrap();
    let (mut granted, mut completed) = (0u64, 0u64);
    for slot in &w.slots {
        let reqs: Vec<ConnectionRequest> = slot
            .iter()
            .map(|&(sf, sw, df, dur)| ConnectionRequest::burst(sf, sw, df, dur))
            .collect();
        let reqs = dedupe_sources(reqs);
        let result = ic.advance_slot(&reqs).unwrap();
        // Accounting: every request is granted or rejected exactly once.
        assert_eq!(result.offered(), reqs.len());
        granted += result.grants.len() as u64;
        completed += result.completed as u64;
        // Physical validity of the full fabric state.
        ic.crossbar().validate(&conv).unwrap();
        assert_eq!(ic.active_connections() as u64, granted - completed);
        // Source-busy rejections must correspond to a real holder.
        for rej in &result.rejections {
            if rej.reason == RejectReason::SourceBusy {
                let r = rej.request;
                let held = (0..w.n).any(|o| {
                    let xb = ic.crossbar();
                    (0..w.k).any(|ch| xb.driver(o, ch) == Some((r.src_fiber, r.src_wavelength)))
                });
                // The holder may also be a grant from this very slot.
                assert!(
                    held || result.grants.iter().any(|g| {
                        g.request.src_fiber == r.src_fiber
                            && g.request.src_wavelength == r.src_wavelength
                    }),
                    "source-busy rejection without a holder"
                );
            }
        }
        // Under rearrangement nothing is ever dropped mid-flight: active
        // count is consistent (already asserted) and the crossbar never
        // shrinks except by completions — covered by the equality above.
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn non_disturb_invariants(w in workload()) {
        run_and_check(&w, HoldPolicy::NonDisturb);
    }

    #[test]
    fn rearrange_invariants(w in workload()) {
        run_and_check(&w, HoldPolicy::Rearrange);
    }

    /// Slot results are insensitive to request ordering within a slot up to
    /// grant *count* (the matching size is order-independent; the concrete
    /// winners may differ only among same-wavelength candidates).
    #[test]
    fn grant_count_is_order_independent(w in workload(), swap_seed in 0usize..97) {
        let conv = Conversion::circular(w.k, w.e, w.f).unwrap();
        let mk = || Interconnect::new(InterconnectConfig::packet_switch(w.n, conv)).unwrap();
        let mut a = mk();
        let mut b = mk();
        for slot in &w.slots {
            let reqs = dedupe_sources(
                slot.iter()
                    .map(|&(sf, sw, df, dur)| ConnectionRequest::burst(sf, sw, df, dur))
                    .collect(),
            );
            let mut shuffled = reqs.clone();
            if shuffled.len() > 1 {
                let i = swap_seed % shuffled.len();
                let j = (swap_seed / 7 + 3) % shuffled.len();
                shuffled.swap(i, j);
            }
            let ra = a.advance_slot(&reqs).unwrap();
            let rb = b.advance_slot(&shuffled).unwrap();
            prop_assert_eq!(ra.grants.len(), rb.grants.len());
        }
    }
}

//! Property tests on the slotted interconnect: for arbitrary multi-slot
//! workloads, physical and accounting invariants hold at every slot, under
//! both holding policies, and every cell verdict names the position of the
//! request it answers.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use proptest::prelude::*;
use wdm_core::{Conversion, Policy};
use wdm_interconnect::{
    ConnectionRequest, HoldPolicy, Interconnect, InterconnectConfig, PreemptionPolicy,
    RejectReason, ReservationRequest, SlotResult,
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

/// Per slot, reservations to book before it runs: (src_fiber,
/// src_wavelength, dst_fiber, lead, duration).
type Bookings = Vec<Vec<(usize, usize, usize, u64, u32)>>;

/// A workload plus per-slot reservation bookings.
fn booked_workload() -> impl Strategy<Value = (Workload, Bookings)> {
    workload().prop_flat_map(|w| {
        let booking = (0..w.n, 0..w.k, 0..w.n, 0u64..4, 1u32..4);
        let per_slot = proptest::collection::vec(booking, 0..3);
        let slots = w.slots.len();
        (Just(w), proptest::collection::vec(per_slot, slots))
    })
}

/// The positions a slot reports together name each index of `requests`
/// exactly once, and each names a request equal to its verdict's.
fn check_positions(requests: &[ConnectionRequest], result: &SlotResult) {
    assert_eq!(result.grant_inputs.len(), result.grants.len());
    assert_eq!(result.rejection_inputs.len(), result.rejections.len());
    let mut named = vec![0u32; requests.len()];
    let grants = result.grants.iter().map(|g| g.request).zip(&result.grant_inputs);
    let rejections = result.rejections.iter().map(|r| r.request).zip(&result.rejection_inputs);
    for (request, &i) in grants.chain(rejections) {
        assert_eq!(requests[i], request, "position {i} names another request");
        named[i] += 1;
    }
    assert!(named.iter().all(|&times| times == 1), "times each position is named: {named:?}");
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
        check_positions(&reqs, &result);
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

    /// Positions hold on batches that repeat input channels (every other
    /// request again toward the next fiber, the first one again unchanged),
    /// among activating reservations, under both preemption and both
    /// holding policies.
    #[test]
    fn verdict_positions_name_each_request_once((w, bookings) in booked_workload()) {
        let conv = Conversion::circular(w.k, w.e, w.f).unwrap();
        for preemption in [PreemptionPolicy::ReservedFirst, PreemptionPolicy::Compete] {
            for hold in [HoldPolicy::NonDisturb, HoldPolicy::Rearrange] {
                let cfg = InterconnectConfig::packet_switch(w.n, conv)
                    .with_hold(hold)
                    .with_preemption(preemption);
                let mut ic = Interconnect::new(cfg).unwrap();
                for (slot, booked) in w.slots.iter().zip(&bookings) {
                    for &(src_fiber, src_wavelength, dst_fiber, lead, duration) in booked {
                        let start_slot = ic.slot() + lead;
                        let request = ReservationRequest {
                            src_fiber, src_wavelength, dst_fiber, start_slot, duration,
                        };
                        let _ = ic.reserve(request);
                    }
                    let mut reqs: Vec<ConnectionRequest> = slot
                        .iter()
                        .map(|&(sf, sw, df, dur)| ConnectionRequest::burst(sf, sw, df, dur))
                        .collect();
                    let again = reqs.iter().step_by(2).map(|r| ConnectionRequest {
                        dst_fiber: (r.dst_fiber + 1) % w.n,
                        ..*r
                    });
                    let again: Vec<ConnectionRequest> = again.chain(reqs.first().copied()).collect();
                    reqs.extend(again);
                    let result = ic.advance_slot(&reqs).unwrap();
                    check_positions(&reqs, &result);
                }
            }
        }
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

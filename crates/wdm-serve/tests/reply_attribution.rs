//! Reply attribution under input-channel collisions: several connections
//! send identical and same-channel requests among multi-slot holds and
//! activating reservations, and every verdict must reach the request it
//! decides. The load generators never put two requests on one input
//! channel in a slot, so this battery is what reaches the collision path
//! of the engine's channel index.
//!
//! Each slot, one [`SlotEngine`] and one bare [`Interconnect`] configured
//! identically see the same reservations and the same drained batch, and:
//!
//! * every `(conn, id)` is answered exactly once;
//! * grant seqs are dense;
//! * the multiset of `(request, verdict)` pairs equals the bare engine's;
//! * on each input channel only the first batch entry, the only one source
//!   admission can let through, is granted or denied for output contention.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use wdm_core::{Conversion, Policy};
use wdm_interconnect::{
    ConnectionRequest, Interconnect, InterconnectConfig, PreemptionPolicy, RejectReason,
    ReservationRequest,
};
use wdm_serve::engine::{EngineConfig, SlotEngine, Verdict};
use wdm_serve::protocol::{DenyReason, ReserveRequest, SubmitRequest};

/// Connections requests arrive on. Each numbers its own ids, so equal ids
/// on different connections name different requests.
const CONNS: u64 = 3;
const HORIZON: u64 = 64;

/// (conn, src_fiber, src_wavelength, dst_fiber, duration).
type Cell = (u64, u32, u32, u32, u32);

#[derive(Debug, Clone)]
struct SlotEvents {
    cells: Vec<Cell>,
    /// Cells the next connection sends again unchanged, as indexes into
    /// `cells` (mod len): identical requests on one channel in one slot.
    repeats: Vec<usize>,
    /// (conn, src_fiber, src_wavelength, dst_fiber, lead, duration).
    reservations: Vec<(u64, u32, u32, u32, u32, u32)>,
}

#[derive(Debug, Clone)]
struct Schedule {
    n: u32,
    conversion: Conversion,
    compete: bool,
    slots: Vec<SlotEvents>,
}

/// Few channels and up to twice as many requests as channels per slot, so
/// same-channel requests and busy outputs are the common case.
fn schedule() -> impl Strategy<Value = Schedule> {
    (2u32..4, 2u32..5).prop_flat_map(|(n, k)| {
        let ku = k as usize;
        let conversion = (0..ku, 0..ku)
            .prop_filter("degree <= k", move |(e, f)| e + f < ku)
            .prop_map(move |(e, f)| Conversion::circular(ku, e, f).unwrap());
        let cells = proptest::collection::vec(
            (0..CONNS, 0..n, 0..k, 0..n, 1u32..4),
            0..(2 * n * k) as usize,
        );
        let repeats = proptest::collection::vec(0usize..64, 0..4);
        let reservations =
            proptest::collection::vec((0..CONNS, 0..n, 0..k, 0..n, 0u32..4, 1u32..4), 0..3);
        let slot = (cells, repeats, reservations)
            .prop_map(|(cells, repeats, reservations)| SlotEvents { cells, repeats, reservations });
        (Just(n), conversion, proptest::bool::ANY, proptest::collection::vec(slot, 1..20))
            .prop_map(|(n, conversion, compete, slots)| Schedule { n, conversion, compete, slots })
    })
}

/// A verdict as both engines report it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Granted(usize),
    SourceBusy,
    OutputContention,
}

impl Outcome {
    fn denied(reason: RejectReason) -> Outcome {
        match reason {
            RejectReason::SourceBusy => Outcome::SourceBusy,
            RejectReason::OutputContention => Outcome::OutputContention,
        }
    }

    fn of(verdict: Verdict) -> Outcome {
        match verdict {
            Verdict::Granted { output_wavelength, .. } => {
                Outcome::Granted(output_wavelength as usize)
            }
            Verdict::Denied { reason: DenyReason::SourceBusy, .. } => Outcome::SourceBusy,
            Verdict::Denied { reason: DenyReason::OutputContention, .. } => {
                Outcome::OutputContention
            }
            other => panic!("a slot verdict is a grant or a scheduling deny: {other:?}"),
        }
    }
}

fn key(r: &ConnectionRequest) -> (usize, usize, usize, u32) {
    (r.src_fiber, r.src_wavelength, r.dst_fiber, r.duration)
}

fn run_attribution(s: &Schedule) {
    let n = s.n as usize;
    let preemption =
        if s.compete { PreemptionPolicy::Compete } else { PreemptionPolicy::ReservedFirst };
    let mut serve = SlotEngine::new(
        EngineConfig::new(n, s.conversion, Policy::Auto)
            .with_reservation_horizon(HORIZON)
            .with_preemption(preemption)
            .with_queue_capacity(64),
    )
    .unwrap();
    let mut offline = Interconnect::new(
        InterconnectConfig::packet_switch(n, s.conversion)
            .with_policy(Policy::Auto)
            .with_reservation_horizon(HORIZON)
            .with_preemption(preemption),
    )
    .unwrap();

    let mut next_id = [0u64; CONNS as usize];
    let mut take_id = |conn: u64| {
        let id = &mut next_id[conn as usize];
        *id += 1;
        *id
    };
    // Ledger id → (conn, id) of every admitted, not yet activated hold.
    let mut holds: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut replies = Vec::new();

    for ev in &s.slots {
        let now = offline.slot();
        for &(conn, sf, sw, df, lead, duration) in &ev.reservations {
            let id = take_id(conn);
            let reply = serve.reserve(
                conn,
                ReserveRequest {
                    id,
                    src_fiber: sf,
                    src_wavelength: sw,
                    dst_fiber: df,
                    start_in: lead,
                    duration,
                },
            );
            let offline_rid = offline.reserve(ReservationRequest {
                src_fiber: sf as usize,
                src_wavelength: sw as usize,
                dst_fiber: df as usize,
                start_slot: now + u64::from(lead),
                duration,
            });
            match (reply.verdict, offline_rid) {
                (Verdict::Reserved { reservation, .. }, Ok(rid)) => {
                    assert_eq!(reservation, rid);
                    holds.insert(rid, (conn, id));
                }
                (Verdict::Denied { .. }, Err(_)) => {}
                (verdict, offline) => panic!("admission diverged: {verdict:?} vs {offline:?}"),
            }
        }

        let repeats = ev.repeats.iter().filter_map(|&i| {
            let &(conn, sf, sw, df, duration) = ev.cells.get(i % ev.cells.len().max(1))?;
            Some(((conn + 1) % CONNS, sf, sw, df, duration))
        });
        let mut sent: Vec<(u64, u64, ConnectionRequest)> = Vec::new();
        for (conn, sf, sw, df, duration) in ev.cells.iter().copied().chain(repeats) {
            let id = take_id(conn);
            let immediate = serve.submit(
                conn,
                SubmitRequest { id, src_fiber: sf, src_wavelength: sw, dst_fiber: df, duration },
            );
            assert!(immediate.is_none(), "valid cells under queue capacity always enqueue");
            let request = ConnectionRequest {
                src_fiber: sf as usize,
                src_wavelength: sw as usize,
                dst_fiber: df as usize,
                duration,
            };
            sent.push((conn, id, request));
        }
        // The shards drain in fiber order, FIFO within a fiber.
        let mut drained = sent.clone();
        drained.sort_by_key(|&(_, _, r)| r.dst_fiber);
        let batch: Vec<ConnectionRequest> = drained.iter().map(|&(_, _, r)| r).collect();
        let mut first_on_channel: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
        for &(conn, id, r) in &drained {
            first_on_channel.entry((r.src_fiber, r.src_wavelength)).or_insert((conn, id));
        }

        replies.clear();
        let _ = serve.run_slot(&mut replies);
        let result = offline.advance_slot(&batch).unwrap();

        let requests: HashMap<(u64, u64), ConnectionRequest> =
            sent.iter().map(|&(conn, id, r)| ((conn, id), r)).collect();
        let mut activations: HashMap<u64, Outcome> = HashMap::new();
        for g in &result.reservation_grants {
            activations.insert(g.reservation, Outcome::Granted(g.grant.output_wavelength));
        }
        for x in &result.reservation_expired {
            activations.insert(x.reservation, Outcome::denied(x.rejection.reason));
        }
        let mut answered = HashSet::new();
        let mut seqs = Vec::new();
        let mut served = Vec::new();
        for reply in &replies {
            let tag = (reply.conn, reply.id);
            assert!(answered.insert(tag), "{tag:?} answered twice in slot {now}");
            assert_eq!(reply.slot, now);
            if let Verdict::Granted { seq, .. } = reply.verdict {
                seqs.push(seq);
            }
            let outcome = Outcome::of(reply.verdict);
            if let Some(request) = requests.get(&tag) {
                if outcome != Outcome::SourceBusy {
                    assert_eq!(
                        first_on_channel[&(request.src_fiber, request.src_wavelength)],
                        tag,
                        "slot {now}: {outcome:?} went to an entry admission cannot let through"
                    );
                }
                served.push((key(request), outcome));
            } else {
                let rid = holds
                    .iter()
                    .find_map(|(&rid, &hold)| (hold == tag).then_some(rid))
                    .unwrap_or_else(|| panic!("reply to unknown {tag:?}: {reply:?}"));
                holds.remove(&rid);
                assert_eq!(activations.remove(&rid), Some(outcome), "reservation {rid}");
            }
        }
        assert!(activations.is_empty(), "unanswered activations {activations:?}");
        for (conn, id, _) in &sent {
            assert!(answered.contains(&(*conn, *id)), "({conn}, {id}) never answered");
        }
        assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>(), "grant seqs must be dense");

        let mut expected: Vec<_> = result
            .grants
            .iter()
            .map(|g| (key(&g.request), Outcome::Granted(g.output_wavelength)))
            .chain(result.rejections.iter().map(|r| (key(&r.request), Outcome::denied(r.reason))))
            .collect();
        expected.sort_unstable();
        served.sort_unstable();
        assert_eq!(served, expected, "slot {now}: verdicts differ from the bare engine's");
    }
    assert_eq!(holds.len(), serve.pending_reservations());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_verdict_reaches_its_own_request(s in schedule()) {
        run_attribution(&s);
    }
}

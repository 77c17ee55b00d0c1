//! The differential gate: a session served over real TCP, recorded by the
//! daemon, must replay bit-identically through the offline engine — for
//! FA (non-circular), BFA, the approximate policy, and full-range
//! conversion.
//!
//! Beyond `SessionTrace::replay`'s internal check, every GRANT frame the
//! client saw on the wire is matched against the recorded trace at the same
//! `(slot, seq)`, so the wire stream, the recording, and the offline replay
//! are all pinned to each other.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::time::Duration;

use wdm_core::{Conversion, Policy};
use wdm_serve::protocol::{Frame, ReserveRequest, SubmitRequest};
use wdm_serve::{Client, EngineConfig, Server, ServerConfig};

const N: usize = 4;
const K: usize = 8;
const SLOTS: u64 = 120;

/// A deterministic request stream: same formula regardless of policy.
fn batch_for(slot: u64, next_id: &mut u64) -> Vec<SubmitRequest> {
    let mut out = Vec::new();
    for i in 0..6u64 {
        let h = slot * 13 + i * 7;
        if h.is_multiple_of(3) {
            continue;
        }
        out.push(SubmitRequest {
            id: *next_id,
            src_fiber: (h % N as u64) as u32,
            src_wavelength: ((h / 3) % K as u64) as u32,
            dst_fiber: ((h / 5) % N as u64) as u32,
            duration: 1 + (h % 4) as u32,
        });
        *next_id += 1;
    }
    out
}

fn drive(policy: Policy, conversion: Conversion) {
    let config = ServerConfig {
        engine: EngineConfig::new(N, conversion, policy).with_trace(),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: None,
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.n() as usize, N);
    assert_eq!(client.k() as usize, K);
    assert_eq!(client.policy(), policy.name());

    // id → submitted request, and the grants seen on the wire.
    let mut submitted: HashMap<u64, SubmitRequest> = HashMap::new();
    let mut wire_grants: Vec<(u64, u64, u64, u32)> = Vec::new();
    let mut next_id = 0u64;
    for slot in 0..SLOTS {
        let batch = batch_for(slot, &mut next_id);
        if batch.is_empty() {
            continue;
        }
        for r in &batch {
            submitted.insert(r.id, *r);
        }
        client.submit(&batch).unwrap();
        let mut outstanding = batch.len();
        while outstanding > 0 {
            match client.next_frame().unwrap() {
                Frame::Grant { slot, seq, id, output_wavelength } => {
                    wire_grants.push((slot, seq, id, output_wavelength));
                    outstanding -= 1;
                }
                Frame::Deny { .. } => outstanding -= 1,
                Frame::SlotComplete { .. } => {}
                other => panic!("unexpected frame: {other:?}"),
            }
        }
    }
    client.send_shutdown().unwrap();
    while client.next_frame().is_ok() {}

    let report = server_thread.join().unwrap().unwrap();
    let trace = report.trace.expect("server was configured to record");
    assert_eq!(report.grants, wire_grants.len() as u64, "wire and report agree");
    assert_eq!(trace.grant_count(), wire_grants.len(), "trace and wire agree");

    // 1. Offline replay is bit-identical.
    let replay = trace.replay().unwrap();
    assert_eq!(replay.grants, wire_grants.len());

    // 2. Every wire grant matches the recorded grant at (slot, seq).
    let mut by_slot_seq = HashMap::new();
    for ts in &trace.slots {
        for g in &ts.grants {
            by_slot_seq.insert((ts.slot, g.seq), *g);
        }
    }
    for &(slot, seq, id, output_wavelength) in &wire_grants {
        let recorded = by_slot_seq
            .get(&(slot, seq))
            .unwrap_or_else(|| panic!("no recorded grant at slot {slot} seq {seq}"));
        assert_eq!(recorded.output_wavelength as u32, output_wavelength);
        let sub = submitted[&id];
        assert_eq!(recorded.request.src_fiber as u32, sub.src_fiber);
        assert_eq!(recorded.request.src_wavelength as u32, sub.src_wavelength);
        assert_eq!(recorded.request.dst_fiber as u32, sub.dst_fiber);
        assert_eq!(recorded.request.duration, sub.duration);
    }
}

#[test]
fn fa_session_replays_bit_identically() {
    drive(Policy::FirstAvailable, Conversion::symmetric_non_circular(K, 3).unwrap());
}

#[test]
fn bfa_session_replays_bit_identically() {
    drive(Policy::BreakFirstAvailable, Conversion::symmetric_circular(K, 3).unwrap());
}

#[test]
fn approx_session_replays_bit_identically() {
    drive(Policy::Approximate, Conversion::symmetric_circular(K, 3).unwrap());
}

#[test]
fn full_range_session_replays_bit_identically() {
    drive(Policy::Auto, Conversion::full(K).unwrap());
}

/// A multi-slot session — cell traffic interleaved with advance
/// reservations that activate (and sometimes expire on busy sources)
/// several slots after admission — records a trace that replays
/// bit-identically offline, with every reservation activation the client
/// saw on the wire matched against the recorded grant stream.
#[test]
fn mixed_reservation_session_replays_bit_identically() {
    /// Reservation client ids live in their own namespace so wire replies
    /// classify by id alone (same convention as wdm-loadgen).
    const RESERVE_BASE: u64 = 1 << 32;
    const RESV_SLOTS: u64 = 80;

    let config = ServerConfig {
        engine: EngineConfig::new(N, Conversion::symmetric_circular(K, 3).unwrap(), Policy::Auto)
            .with_trace(),
        slot_period: Duration::ZERO,
        max_slots: None,
        scenario: None,
    };
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).unwrap();

    let mut next_id = 0u64;
    let mut next_reserve_id = RESERVE_BASE;
    // Reservation client ids awaiting their RESERVE_ACK / admission deny,
    // and acked ids awaiting activation (grant or expiry at start_slot).
    let mut awaiting_ack: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut awaiting_activation: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut wire_cell_grants = 0usize;
    // Activations seen on the wire: slot → output wavelengths in stream order.
    let mut wire_activations: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut wire_expiries = 0usize;
    let mut admission_denies = 0usize;

    let mut classify = |frame: Frame,
                        awaiting_ack: &mut std::collections::HashSet<u64>,
                        awaiting_activation: &mut std::collections::HashSet<u64>,
                        cells_outstanding: &mut usize| match frame {
        Frame::ReserveAck { id, .. } => {
            assert!(awaiting_ack.remove(&id), "unsolicited RESERVE_ACK for id {id}");
            awaiting_activation.insert(id);
        }
        Frame::Grant { slot, id, output_wavelength, .. } if id >= RESERVE_BASE => {
            assert!(awaiting_activation.remove(&id), "unsolicited activation for id {id}");
            wire_activations.entry(slot).or_default().push(output_wavelength);
        }
        Frame::Deny { id, .. } if id >= RESERVE_BASE => {
            if awaiting_ack.remove(&id) {
                admission_denies += 1;
            } else {
                assert!(awaiting_activation.remove(&id), "unsolicited expiry for id {id}");
                wire_expiries += 1;
            }
        }
        Frame::Grant { .. } => {
            wire_cell_grants += 1;
            *cells_outstanding -= 1;
        }
        Frame::Deny { .. } => *cells_outstanding -= 1,
        Frame::SlotComplete { .. } => {}
        other => panic!("unexpected frame: {other:?}"),
    };

    for slot in 0..RESV_SLOTS {
        let batch = batch_for(slot, &mut next_id);
        if !batch.is_empty() {
            client.submit(&batch).unwrap();
        }
        if slot.is_multiple_of(3) {
            let h = slot * 11 + 5;
            let id = next_reserve_id;
            next_reserve_id += 1;
            client
                .reserve(ReserveRequest {
                    id,
                    src_fiber: (h % N as u64) as u32,
                    src_wavelength: ((h / 3) % K as u64) as u32,
                    dst_fiber: ((h / 7) % N as u64) as u32,
                    start_in: 2 + (h % 3) as u32,
                    duration: 2 + (h % 2) as u32,
                })
                .unwrap();
            awaiting_ack.insert(id);
        }
        // Every RESERVE is answered (ack or deny) and every cell gets one
        // grant/deny; activations for earlier holds arrive interleaved and
        // are classified by id namespace wherever they land.
        let mut cells_outstanding = batch.len();
        while cells_outstanding > 0 || !awaiting_ack.is_empty() {
            let frame = client.next_frame().unwrap();
            classify(frame, &mut awaiting_ack, &mut awaiting_activation, &mut cells_outstanding);
        }
    }
    // Every admitted hold resolves eventually: the daemon keeps advancing
    // slots while reservations are pending, so just drain the stream.
    while !awaiting_activation.is_empty() {
        let mut unused = 0usize;
        let frame = client.next_frame().unwrap();
        classify(frame, &mut awaiting_ack, &mut awaiting_activation, &mut unused);
    }
    client.send_shutdown().unwrap();
    while client.next_frame().is_ok() {}

    let report = server_thread.join().unwrap().unwrap();
    let trace = report.trace.expect("server was configured to record");

    let admitted: usize = trace
        .slots
        .iter()
        .flat_map(|s| &s.reservations)
        .filter(|e| matches!(e, wdm_sim::trace::TraceReservationEvent::Reserve(_)))
        .count();
    let activations: usize = wire_activations.values().map(Vec::len).sum();
    assert!(activations > 0, "session must activate some holds");
    assert_eq!(admitted, activations + wire_expiries, "every admitted hold resolved on the wire");
    assert_eq!(
        awaiting_ack.len() + admission_denies,
        (next_reserve_id - RESERVE_BASE) as usize - admitted,
        "denied admissions never entered the ledger"
    );
    assert!(awaiting_ack.is_empty(), "every RESERVE was answered");

    // 1. Offline replay is bit-identical, reservations included.
    let replay = trace.replay().unwrap();
    assert_eq!(replay.grants, wire_cell_grants);
    assert_eq!(replay.reservation_grants, activations);

    // 2. Every activation the client saw matches the recorded reservation
    //    grant stream at the same slot, in order.
    for ts in &trace.slots {
        let wire = wire_activations.remove(&ts.slot).unwrap_or_default();
        assert_eq!(
            ts.reservation_grants.len(),
            wire.len(),
            "slot {}: trace and wire activation counts differ",
            ts.slot
        );
        for (recorded, wavelength) in ts.reservation_grants.iter().zip(wire) {
            assert_eq!(recorded.output_wavelength as u32, wavelength);
        }
    }
    assert!(wire_activations.is_empty(), "wire activations outside recorded slots");
}

/// Two daemon sessions fed the identical request stream produce identical
/// traces — the server itself is deterministic, not just replayable.
#[test]
fn identical_sessions_produce_identical_traces() {
    let run_once = || {
        let config = ServerConfig {
            engine: EngineConfig::new(
                N,
                Conversion::symmetric_circular(K, 3).unwrap(),
                Policy::Auto,
            )
            .with_trace(),
            slot_period: Duration::ZERO,
            max_slots: None,
            scenario: None,
        };
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().to_string();
        let t = std::thread::spawn(move || server.run());
        let mut client = Client::connect(&addr).unwrap();
        let mut next_id = 0u64;
        for slot in 0..40 {
            let batch = batch_for(slot, &mut next_id);
            if batch.is_empty() {
                continue;
            }
            client.submit(&batch).unwrap();
            let mut outstanding = batch.len();
            while outstanding > 0 {
                match client.next_frame().unwrap() {
                    Frame::Grant { .. } | Frame::Deny { .. } => outstanding -= 1,
                    _ => {}
                }
            }
        }
        client.send_shutdown().unwrap();
        while client.next_frame().is_ok() {}
        t.join().unwrap().unwrap().trace.unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b);
}

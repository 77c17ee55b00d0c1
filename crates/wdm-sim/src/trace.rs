//! Record/replay session traces — the differential contract between the
//! `wdm-serve` daemon and the offline engine.
//!
//! A [`SessionTrace`] captures, per slot, exactly the request list the
//! daemon's coordinator fed to its engine (in coordinator processing order)
//! plus the grant stream it served back (fiber order, resolver order within
//! a fiber, numbered by per-slot sequence). Because the daemon and
//! [`Interconnect`] run the *same* `FiberUnit` decision path, replaying the
//! recorded inputs through a fresh offline engine must reproduce the grant
//! stream bit for bit; [`SessionTrace::replay`] asserts that and reports the
//! first divergence otherwise. This is the server's differential test — a
//! shard-ordering bug, a dropped request, or a resolver-state leak all show
//! up as a [`ReplayError`].

use core::fmt;

use serde::{Deserialize, Serialize};
use wdm_core::{Conversion, ConversionKind, Error, Policy};
use wdm_interconnect::{
    ConnectionRequest, Grant, Interconnect, InterconnectConfig, PreemptionPolicy, Reservation,
    ReservationGrant, ReservationRequest, DEFAULT_RESERVATION_HORIZON,
};

/// The engine configuration a trace was recorded under — everything needed
/// to rebuild an identical [`Interconnect`] offline.
///
/// Serialization is hand-written: the conversion is spelled as `k`, `e`,
/// `f` and a `kind` of `"circular"`, `"non_circular"` or `"full"`, the
/// enums by their short names, and the reservation fields default when
/// absent so pre-reservation (protocol v1 era) traces still parse. An
/// unknown name or an invalid conversion is a deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Number of input = output fibers (`N`).
    pub n: usize,
    /// The conversion scheme.
    pub conversion: Conversion,
    /// Scheduling policy, spelled by [`Policy::name`].
    pub policy: Policy,
    /// Advance-reservation admission horizon in slots.
    pub reservation_horizon: u64,
    /// Preemption policy, spelled `"reserved_first"` or `"compete"`.
    pub preemption: PreemptionPolicy,
}

/// A preemption policy's spelling in a trace.
fn preemption_name(preemption: PreemptionPolicy) -> &'static str {
    match preemption {
        PreemptionPolicy::ReservedFirst => "reserved_first",
        PreemptionPolicy::Compete => "compete",
    }
}

/// A [`TraceConfig`] deserialization error.
fn config_error(message: impl fmt::Display) -> serde::DeError {
    serde::DeError::message(format!("{message} while deserializing TraceConfig"))
}

/// A required field of a hand-decoded struct.
fn required<T: Deserialize>(
    entries: &[(String, serde::Value)],
    name: &str,
    type_name: &str,
) -> Result<T, serde::DeError> {
    T::from_value(serde::struct_field(entries, name, type_name)?)
}

/// An optional field of a hand-decoded struct: `None` when absent.
fn optional<T: Deserialize>(
    entries: &[(String, serde::Value)],
    name: &str,
) -> Result<Option<T>, serde::DeError> {
    entries.iter().find(|(key, _)| key == name).map(|(_, value)| T::from_value(value)).transpose()
}

impl Serialize for TraceConfig {
    fn to_value(&self) -> serde::Value {
        let c = &self.conversion;
        let kind = match (c.is_full(), c.kind()) {
            (true, _) => "full",
            (false, ConversionKind::Circular) => "circular",
            (false, ConversionKind::NonCircular) => "non_circular",
        };
        let field = |name: &str, value: serde::Value| (name.to_owned(), value);
        serde::Value::Map(vec![
            field("n", self.n.to_value()),
            field("k", c.k().to_value()),
            field("e", c.e().to_value()),
            field("f", c.f().to_value()),
            field("kind", kind.to_value()),
            field("policy", self.policy.name().to_value()),
            field("reservation_horizon", self.reservation_horizon.to_value()),
            field("preemption", preemption_name(self.preemption).to_value()),
        ])
    }
}

impl Deserialize for TraceConfig {
    fn from_value(value: &serde::Value) -> Result<TraceConfig, serde::DeError> {
        let Some(entries) = value.as_map() else {
            return Err(serde::DeError::expected("map", "TraceConfig", value));
        };
        let field = |name| required(entries, name, "TraceConfig");
        let (k, e, f) = (field("k")?, field("e")?, field("f")?);
        let conversion = match required::<String>(entries, "kind", "TraceConfig")?.as_str() {
            "circular" => Conversion::circular(k, e, f),
            "non_circular" => Conversion::non_circular(k, e, f),
            "full" => Conversion::full(k),
            other => return Err(config_error(format_args!("unknown conversion kind `{other}`"))),
        };
        let preemption = match optional::<String>(entries, "preemption")?.as_deref() {
            None => PreemptionPolicy::default(),
            Some(text) => [PreemptionPolicy::ReservedFirst, PreemptionPolicy::Compete]
                .into_iter()
                .find(|&p| preemption_name(p) == text)
                .ok_or_else(|| config_error(format_args!("unknown preemption policy `{text}`")))?,
        };
        Ok(TraceConfig {
            n: field("n")?,
            conversion: conversion.map_err(config_error)?,
            policy: required::<String>(entries, "policy", "TraceConfig")?
                .parse::<Policy>()
                .map_err(config_error)?,
            reservation_horizon: optional(entries, "reservation_horizon")?
                .unwrap_or(DEFAULT_RESERVATION_HORIZON),
            preemption,
        })
    }
}

impl TraceConfig {
    /// Describes an engine of `n` fibers under `conversion` and `policy`,
    /// with the given reservation horizon and preemption policy.
    pub fn new(
        n: usize,
        conversion: &Conversion,
        policy: Policy,
        reservation_horizon: u64,
        preemption: PreemptionPolicy,
    ) -> TraceConfig {
        TraceConfig { n, conversion: *conversion, policy, reservation_horizon, preemption }
    }

    /// Builds a fresh offline engine matching this configuration.
    pub fn build_engine(&self) -> Result<Interconnect, Error> {
        Interconnect::new(
            InterconnectConfig::packet_switch(self.n, self.conversion)
                .with_policy(self.policy)
                .with_reservation_horizon(self.reservation_horizon)
                .with_preemption(self.preemption),
        )
    }
}

/// One connection request as recorded on the wire (a serializable mirror of
/// [`ConnectionRequest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Source input fiber.
    pub src_fiber: usize,
    /// Wavelength the request arrives on.
    pub src_wavelength: usize,
    /// Destination output fiber.
    pub dst_fiber: usize,
    /// Slots the connection holds once granted.
    pub duration: u32,
}

impl From<ConnectionRequest> for TraceRequest {
    fn from(r: ConnectionRequest) -> TraceRequest {
        TraceRequest {
            src_fiber: r.src_fiber,
            src_wavelength: r.src_wavelength,
            dst_fiber: r.dst_fiber,
            duration: r.duration,
        }
    }
}

impl From<TraceRequest> for ConnectionRequest {
    fn from(r: TraceRequest) -> ConnectionRequest {
        ConnectionRequest {
            src_fiber: r.src_fiber,
            src_wavelength: r.src_wavelength,
            dst_fiber: r.dst_fiber,
            duration: r.duration,
        }
    }
}

/// One served grant: the per-slot sequence number the daemon stamped on the
/// GRANT frame, the granted request, and the assigned output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceGrant {
    /// Position in the slot's grant stream (0-based).
    pub seq: u64,
    /// The granted request.
    pub request: TraceRequest,
    /// The output wavelength channel assigned on `request.dst_fiber`.
    pub output_wavelength: usize,
}

/// One admitted advance reservation as recorded (a serializable mirror of
/// [`Reservation`], with the store-assigned id the replay must reproduce).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReservation {
    /// The store-assigned reservation id at admission.
    pub id: u64,
    /// Source input fiber.
    pub src_fiber: usize,
    /// Wavelength the connection arrives on.
    pub src_wavelength: usize,
    /// Destination output fiber.
    pub dst_fiber: usize,
    /// Absolute slot the hold activates.
    pub start_slot: u64,
    /// Slots the connection holds once activated.
    pub duration: u32,
}

impl From<Reservation> for TraceReservation {
    fn from(r: Reservation) -> TraceReservation {
        TraceReservation {
            id: r.id,
            src_fiber: r.request.src_fiber,
            src_wavelength: r.request.src_wavelength,
            dst_fiber: r.request.dst_fiber,
            start_slot: r.request.start_slot,
            duration: r.request.duration,
        }
    }
}

impl TraceReservation {
    /// The store-facing request this record was admitted from.
    pub fn request(&self) -> ReservationRequest {
        ReservationRequest {
            src_fiber: self.src_fiber,
            src_wavelength: self.src_wavelength,
            dst_fiber: self.dst_fiber,
            start_slot: self.start_slot,
            duration: self.duration,
        }
    }
}

/// One reservation-ledger mutation, in the order the coordinator applied
/// it. Order matters: a release freeing capacity before a reserve in the
/// same slot window changes the admission verdict, so the two event kinds
/// share one ordered list. Only *successful* admissions and cancellations
/// are recorded — denied requests leave no ledger state behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceReservationEvent {
    /// A reservation was admitted into the ledger.
    Reserve(TraceReservation),
    /// A pending reservation was cancelled.
    Release {
        /// The store-assigned id being cancelled.
        id: u64,
    },
}

/// One activated reservation's grant: which reservation, and the output
/// channel its hold received.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceReservationGrant {
    /// The store-assigned reservation id.
    pub reservation: u64,
    /// The output wavelength channel assigned on the destination fiber.
    pub output_wavelength: usize,
}

/// Everything one slot did: the coordinator's input list (processing order,
/// *before* source-busy admission — the engine re-derives rejections) and
/// the grant stream served back.
///
/// `Deserialize` is hand-written: the reservation vectors default to empty
/// when absent so pre-reservation traces still parse.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceSlot {
    /// Slot number (0-based, dense).
    pub slot: u64,
    /// Requests fed to the engine this slot, in coordinator order.
    pub inputs: Vec<TraceRequest>,
    /// Grants served this slot, in sequence order.
    pub grants: Vec<TraceGrant>,
    /// Reservation-ledger mutations applied during this slot window (after
    /// slot `slot - 1` ran, before this slot), in application order.
    pub reservations: Vec<TraceReservationEvent>,
    /// Reservations that activated and were granted this slot, in stream
    /// order. (Expiries are re-derived on replay, like cell rejections.)
    pub reservation_grants: Vec<TraceReservationGrant>,
}

impl Deserialize for TraceSlot {
    fn from_value(value: &serde::Value) -> Result<TraceSlot, serde::DeError> {
        let Some(entries) = value.as_map() else {
            return Err(serde::DeError::expected("map", "TraceSlot", value));
        };
        Ok(TraceSlot {
            slot: required(entries, "slot", "TraceSlot")?,
            inputs: required(entries, "inputs", "TraceSlot")?,
            grants: required(entries, "grants", "TraceSlot")?,
            reservations: optional(entries, "reservations")?.unwrap_or_default(),
            reservation_grants: optional(entries, "reservation_grants")?.unwrap_or_default(),
        })
    }
}

/// A recorded daemon session: configuration plus the per-slot input/grant
/// streams, replayable offline bit for bit.
///
/// Serialization is hand-written: only `config` and `slots` cross the
/// JSON boundary; the pending-event buffer is transient recording state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTrace {
    /// The engine configuration the session ran under.
    pub config: TraceConfig,
    /// The recorded slots, in slot order.
    pub slots: Vec<TraceSlot>,
    /// Ledger mutations seen since the last [`Self::record_slot`], waiting
    /// to be flushed into the next recorded slot.
    pending_reservations: Vec<TraceReservationEvent>,
}

impl Serialize for SessionTrace {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("config".to_owned(), self.config.to_value()),
            ("slots".to_owned(), self.slots.to_value()),
        ])
    }
}

impl Deserialize for SessionTrace {
    fn from_value(value: &serde::Value) -> Result<SessionTrace, serde::DeError> {
        let Some(entries) = value.as_map() else {
            return Err(serde::DeError::expected("map", "SessionTrace", value));
        };
        Ok(SessionTrace {
            config: required(entries, "config", "SessionTrace")?,
            slots: required(entries, "slots", "SessionTrace")?,
            pending_reservations: Vec::new(),
        })
    }
}

/// Summary of a successful replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[must_use]
pub struct ReplayReport {
    /// Slots replayed.
    pub slots: usize,
    /// Grants compared (all bit-identical).
    pub grants: usize,
    /// Reservation grants compared (all bit-identical).
    pub reservation_grants: usize,
}

/// Why a replay diverged from the recorded session.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The trace's configuration could not rebuild an engine, or a recorded
    /// input was invalid for it.
    Setup(Error),
    /// A slot granted a different number of requests than recorded.
    GrantCountMismatch {
        /// The diverging slot.
        slot: u64,
        /// Grants in the recorded stream.
        recorded: usize,
        /// Grants the offline engine produced.
        replayed: usize,
    },
    /// A grant differs from the recorded one at the same sequence number.
    GrantMismatch {
        /// The diverging slot.
        slot: u64,
        /// The recorded grant.
        recorded: TraceGrant,
        /// What the offline engine produced at that sequence number.
        replayed: TraceGrant,
    },
    /// A recorded reservation admission diverged: replay denied it, or
    /// assigned a different ledger id.
    ReservationAdmissionDiverged {
        /// The slot window the admission was recorded in.
        slot: u64,
        /// The recorded ledger id.
        recorded: u64,
        /// The id replay assigned (`None` = replay denied admission).
        replayed: Option<u64>,
    },
    /// A recorded cancellation found nothing to cancel on replay.
    ReservationReleaseDiverged {
        /// The slot window the cancellation was recorded in.
        slot: u64,
        /// The ledger id that was cancelled at recording time.
        id: u64,
    },
    /// The reservation-grant stream differs from the recorded one.
    ReservationGrantMismatch {
        /// The diverging slot.
        slot: u64,
        /// Stream position of the first divergence.
        index: usize,
        /// The recorded grant at that position (`None` = replay produced
        /// extra grants).
        recorded: Option<TraceReservationGrant>,
        /// What replay produced there (`None` = replay granted fewer).
        replayed: Option<TraceReservationGrant>,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Setup(e) => write!(out, "trace cannot rebuild its engine: {e}"),
            ReplayError::GrantCountMismatch { slot, recorded, replayed } => write!(
                out,
                "slot {slot}: recorded {recorded} grants but replay produced {replayed}"
            ),
            ReplayError::GrantMismatch { slot, recorded, replayed } => write!(
                out,
                "slot {slot} seq {}: recorded {recorded:?} but replay produced {replayed:?}",
                recorded.seq
            ),
            ReplayError::ReservationAdmissionDiverged { slot, recorded, replayed } => write!(
                out,
                "slot {slot}: recorded reservation admission with id {recorded}, \
                 but replay produced {replayed:?}"
            ),
            ReplayError::ReservationReleaseDiverged { slot, id } => write!(
                out,
                "slot {slot}: recorded release of reservation {id} found nothing on replay"
            ),
            ReplayError::ReservationGrantMismatch { slot, index, recorded, replayed } => write!(
                out,
                "slot {slot} reservation-grant {index}: recorded {recorded:?} \
                 but replay produced {replayed:?}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<Error> for ReplayError {
    fn from(e: Error) -> ReplayError {
        ReplayError::Setup(e)
    }
}

impl SessionTrace {
    /// An empty trace for the given configuration.
    pub fn new(config: TraceConfig) -> SessionTrace {
        SessionTrace { config, slots: Vec::new(), pending_reservations: Vec::new() }
    }

    /// Records a successful reservation admission. Buffered until the next
    /// [`Self::record_slot`] flushes it, preserving its order relative to
    /// releases in the same slot window.
    pub fn record_reservation(&mut self, reservation: Reservation) {
        self.pending_reservations.push(TraceReservationEvent::Reserve(reservation.into()));
    }

    /// Records a successful cancellation of a pending reservation.
    pub fn record_release(&mut self, id: u64) {
        self.pending_reservations.push(TraceReservationEvent::Release { id });
    }

    /// Appends one slot: the engine inputs in coordinator order and the
    /// grant stream served back (sequence numbers are assigned here, in
    /// stream order).
    pub fn record_slot(&mut self, inputs: &[ConnectionRequest], grants: &[Grant]) {
        self.record_slot_full(inputs, grants, &[]);
    }

    /// Appends one slot including its activated-reservation grant stream;
    /// buffered ledger events since the previous slot flush into it.
    #[wdm_attr::allow_reach(
        hot_path,
        reason = "session tracing is opt-in diagnostics (engine trace: Option, None by default); benched and served configurations never reach it"
    )]
    pub fn record_slot_full(
        &mut self,
        inputs: &[ConnectionRequest],
        grants: &[Grant],
        reservation_grants: &[ReservationGrant],
    ) {
        let slot = self.slots.len() as u64;
        self.slots.push(TraceSlot {
            slot,
            inputs: inputs.iter().map(|&r| TraceRequest::from(r)).collect(),
            grants: grants
                .iter()
                .enumerate()
                .map(|(seq, g)| TraceGrant {
                    seq: seq as u64,
                    request: TraceRequest::from(g.request),
                    output_wavelength: g.output_wavelength,
                })
                .collect(),
            reservations: core::mem::take(&mut self.pending_reservations),
            reservation_grants: reservation_grants
                .iter()
                .map(|g| TraceReservationGrant {
                    reservation: g.reservation,
                    output_wavelength: g.grant.output_wavelength,
                })
                .collect(),
        });
    }

    /// Total grants recorded across all slots.
    pub fn grant_count(&self) -> usize {
        self.slots.iter().map(|s| s.grants.len()).sum()
    }

    /// Replays the recorded inputs through a fresh offline engine and
    /// compares the resulting grant stream bit for bit against the recorded
    /// one. Returns the first divergence, if any.
    pub fn replay(&self) -> Result<ReplayReport, ReplayError> {
        let mut engine = self.config.build_engine()?;
        let mut inputs: Vec<ConnectionRequest> = Vec::new();
        let mut grants = 0usize;
        let mut reservation_grants = 0usize;
        for recorded in &self.slots {
            for event in &recorded.reservations {
                match event {
                    TraceReservationEvent::Reserve(r) => {
                        let replayed = engine.reserve(r.request()).ok();
                        if replayed != Some(r.id) {
                            return Err(ReplayError::ReservationAdmissionDiverged {
                                slot: recorded.slot,
                                recorded: r.id,
                                replayed,
                            });
                        }
                    }
                    TraceReservationEvent::Release { id } => {
                        if !engine.cancel_reservation(*id) {
                            return Err(ReplayError::ReservationReleaseDiverged {
                                slot: recorded.slot,
                                id: *id,
                            });
                        }
                    }
                }
            }
            inputs.clear();
            inputs.extend(recorded.inputs.iter().map(|&r| ConnectionRequest::from(r)));
            let result = engine.advance_slot(&inputs)?;
            let replayed_rg: Vec<TraceReservationGrant> = result
                .reservation_grants
                .iter()
                .map(|g| TraceReservationGrant {
                    reservation: g.reservation,
                    output_wavelength: g.grant.output_wavelength,
                })
                .collect();
            for index in 0..recorded.reservation_grants.len().max(replayed_rg.len()) {
                let rec = recorded.reservation_grants.get(index).copied();
                let got = replayed_rg.get(index).copied();
                if rec != got {
                    return Err(ReplayError::ReservationGrantMismatch {
                        slot: recorded.slot,
                        index,
                        recorded: rec,
                        replayed: got,
                    });
                }
                reservation_grants += 1;
            }
            if result.grants.len() != recorded.grants.len() {
                return Err(ReplayError::GrantCountMismatch {
                    slot: recorded.slot,
                    recorded: recorded.grants.len(),
                    replayed: result.grants.len(),
                });
            }
            for (seq, (rec, got)) in recorded.grants.iter().zip(&result.grants).enumerate() {
                let got = TraceGrant {
                    seq: seq as u64,
                    request: TraceRequest::from(got.request),
                    output_wavelength: got.output_wavelength,
                };
                if *rec != got {
                    return Err(ReplayError::GrantMismatch {
                        slot: recorded.slot,
                        recorded: *rec,
                        replayed: got,
                    });
                }
                grants += 1;
            }
        }
        Ok(ReplayReport { slots: self.slots.len(), grants, reservation_grants })
    }

    /// Serializes the trace to pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a trace from JSON.
    pub fn from_json(text: &str) -> Result<SessionTrace, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-fiber, k = 6, circular d = 3 engine under `policy`.
    fn circular_config(policy: Policy) -> TraceConfig {
        let conversion = Conversion::circular(6, 1, 1).unwrap();
        TraceConfig::new(
            4,
            &conversion,
            policy,
            DEFAULT_RESERVATION_HORIZON,
            PreemptionPolicy::ReservedFirst,
        )
    }

    fn recorded_session(policy: Policy) -> SessionTrace {
        let config = circular_config(policy);
        let mut engine = config.build_engine().unwrap();
        let mut trace = SessionTrace::new(config);
        for slot in 0..20u64 {
            let inputs: Vec<ConnectionRequest> = (0..4usize)
                .flat_map(|fiber| {
                    (0..6usize).filter_map(move |w| {
                        let h = fiber * 13 + w * 5 + slot as usize * 11;
                        h.is_multiple_of(3).then(|| {
                            ConnectionRequest::burst(fiber, w, (fiber + w) % 4, 1 + (h % 3) as u32)
                        })
                    })
                })
                .collect();
            let result = engine.advance_slot(&inputs).unwrap();
            trace.record_slot(&inputs, &result.grants);
        }
        trace
    }

    #[test]
    fn replay_matches_recording() {
        for policy in [Policy::BreakFirstAvailable, Policy::Approximate, Policy::Auto] {
            let trace = recorded_session(policy);
            assert!(trace.grant_count() > 0);
            let report = trace.replay().unwrap();
            assert_eq!(report.slots, 20);
            assert_eq!(report.grants, trace.grant_count());
        }
    }

    #[test]
    fn tampered_grant_detected() {
        let mut trace = recorded_session(Policy::Auto);
        let slot = trace.slots.iter_mut().find(|s| !s.grants.is_empty()).unwrap();
        slot.grants[0].output_wavelength ^= 1;
        assert!(matches!(trace.replay(), Err(ReplayError::GrantMismatch { .. })));
    }

    #[test]
    fn dropped_grant_detected() {
        let mut trace = recorded_session(Policy::Auto);
        let slot = trace.slots.iter_mut().find(|s| !s.grants.is_empty()).unwrap();
        slot.grants.pop();
        assert!(matches!(trace.replay(), Err(ReplayError::GrantCountMismatch { .. })));
    }

    #[test]
    fn json_round_trip() {
        let trace = recorded_session(Policy::BreakFirstAvailable);
        let json = trace.to_json().unwrap();
        let back = SessionTrace::from_json(&json).unwrap();
        assert_eq!(back, trace);
        let _ = back.replay().unwrap();
    }

    #[test]
    fn bad_config_is_setup_error() {
        let mut trace = recorded_session(Policy::Auto);
        trace.config.policy = Policy::FirstAvailable;
        assert!(matches!(trace.replay(), Err(ReplayError::Setup(_))));
    }

    #[test]
    fn config_json_spells_names_and_rejects_unknown_ones() {
        let json = serde_json::to_string(&circular_config(Policy::BreakFirstAvailable)).unwrap();
        let names = r#""kind":"circular","policy":"bfa","reservation_horizon":1024,"preemption":"reserved_first"}"#;
        assert!(json.ends_with(names), "{json}");
        for (good, bad) in [("circular", "ring"), ("bfa", "nonsense"), ("reserved_first", "first")]
        {
            let json = json.replace(&format!("\"{good}\""), &format!("\"{bad}\""));
            let err = serde_json::from_str::<TraceConfig>(&json).unwrap_err();
            assert!(err.to_string().contains(bad), "{err}");
        }
        let degree_too_large = json.replace(r#""e":1"#, r#""e":9"#);
        assert!(serde_json::from_str::<TraceConfig>(&degree_too_large).is_err());
        let spelled = [
            (Conversion::non_circular(8, 1, 1), Policy::FirstAvailable, PreemptionPolicy::Compete),
            (Conversion::full(8), Policy::Auto, PreemptionPolicy::ReservedFirst),
        ];
        for ((conversion, policy, preemption), names) in spelled.into_iter().zip([
            r#""kind":"non_circular","policy":"fa","reservation_horizon":1024,"preemption":"compete"}"#,
            r#""kind":"full","policy":"auto","reservation_horizon":1024,"preemption":"reserved_first"}"#,
        ]) {
            let config = TraceConfig::new(
                4,
                &conversion.unwrap(),
                policy,
                DEFAULT_RESERVATION_HORIZON,
                preemption,
            );
            let json = serde_json::to_string(&config).unwrap();
            assert!(json.ends_with(names), "{json}");
            assert_eq!(serde_json::from_str::<TraceConfig>(&json).unwrap(), config);
        }
    }

    fn reservation_session() -> SessionTrace {
        let config = circular_config(Policy::Auto);
        let mut engine = config.build_engine().unwrap();
        let mut trace = SessionTrace::new(config);
        for slot in 0..20u64 {
            // A reservation every third slot, four slots ahead; cancel every
            // ninth slot's reservation two slots later (before it starts).
            if slot % 3 == 0 {
                let req = ReservationRequest {
                    src_fiber: (slot as usize / 3) % 4,
                    src_wavelength: (slot as usize) % 6,
                    dst_fiber: (slot as usize / 2) % 4,
                    start_slot: slot + 4,
                    duration: 2,
                };
                let id = engine.reserve(req).unwrap();
                trace.record_reservation(Reservation { id, request: req });
                if slot % 9 == 0 {
                    assert!(engine.cancel_reservation(id));
                    trace.record_release(id);
                }
            }
            let inputs: Vec<ConnectionRequest> = (0..4usize)
                .filter_map(|fiber| {
                    let h = fiber * 13 + slot as usize * 7;
                    h.is_multiple_of(2)
                        .then(|| ConnectionRequest::packet(fiber, h % 6, (fiber + 1) % 4))
                })
                .collect();
            let result = engine.advance_slot(&inputs).unwrap();
            trace.record_slot_full(&inputs, &result.grants, &result.reservation_grants);
        }
        trace
    }

    #[test]
    fn reservation_session_replays_bit_identically() {
        let trace = reservation_session();
        assert!(trace.slots.iter().any(|s| !s.reservations.is_empty()));
        assert!(trace.slots.iter().any(|s| !s.reservation_grants.is_empty()));
        let report = trace.replay().unwrap();
        assert_eq!(report.slots, 20);
        assert!(report.reservation_grants > 0);
    }

    #[test]
    fn tampered_reservation_grant_detected() {
        let mut trace = reservation_session();
        let slot = trace.slots.iter_mut().find(|s| !s.reservation_grants.is_empty()).unwrap();
        slot.reservation_grants[0].output_wavelength ^= 1;
        assert!(matches!(trace.replay(), Err(ReplayError::ReservationGrantMismatch { .. })));
    }

    #[test]
    fn tampered_reservation_id_detected() {
        let mut trace = reservation_session();
        let ev = trace
            .slots
            .iter_mut()
            .flat_map(|s| s.reservations.iter_mut())
            .find(|e| matches!(e, TraceReservationEvent::Reserve(_)))
            .unwrap();
        let TraceReservationEvent::Reserve(r) = ev else { unreachable!() };
        r.id += 100;
        assert!(matches!(trace.replay(), Err(ReplayError::ReservationAdmissionDiverged { .. })));
    }

    #[test]
    fn phantom_release_detected() {
        let mut trace = reservation_session();
        trace.slots[0].reservations.push(TraceReservationEvent::Release { id: 999 });
        assert!(matches!(
            trace.replay(),
            Err(ReplayError::ReservationReleaseDiverged { id: 999, .. })
        ));
    }

    #[test]
    fn pre_reservation_trace_json_still_parses() {
        // A v1-era trace has no reservation fields at all; defaults fill in.
        let json = r#"{
            "config": {"n": 2, "k": 4, "e": 1, "f": 1, "kind": "circular", "policy": "auto"},
            "slots": [{"slot": 0, "inputs": [], "grants": []}]
        }"#;
        let trace = SessionTrace::from_json(json).unwrap();
        assert_eq!(trace.config.reservation_horizon, DEFAULT_RESERVATION_HORIZON);
        assert_eq!(trace.config.preemption, PreemptionPolicy::ReservedFirst);
        let report = trace.replay().unwrap();
        assert_eq!(report.slots, 1);
    }

    #[test]
    fn non_circular_config_builds() {
        let conversion = Conversion::non_circular(8, 1, 1).unwrap();
        let config = TraceConfig::new(
            2,
            &conversion,
            Policy::FirstAvailable,
            DEFAULT_RESERVATION_HORIZON,
            PreemptionPolicy::ReservedFirst,
        );
        assert_eq!(config.conversion.kind(), ConversionKind::NonCircular);
        let mut engine = config.build_engine().unwrap();
        let r = engine.advance_slot(&[ConnectionRequest::packet(0, 3, 1)]).unwrap();
        assert_eq!(r.grants.len(), 1);
    }
}

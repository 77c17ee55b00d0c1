//! # wdm-interconnect
//!
//! The `N×N` wavelength-convertible WDM optical interconnect of the paper's
//! Fig. 1, as a slotted state machine:
//!
//! * [`connection`] — connection requests (source channel → destination
//!   fiber, multi-slot durations) and grant/rejection records;
//! * [`fabric`] — the optical datapath (demux → switching fabric →
//!   combiners → converters → mux) as a structural validity checker: each
//!   combiner carries at most one signal, converters only shift within
//!   their range, each channel carries at most one connection;
//! * [`arbitration`] — resolution of wavelength-level grants to concrete
//!   input channels with per-(fiber, wavelength) round-robin fairness;
//! * [`interconnect`] — the top-level slotted switch: source admission
//!   lets each input channel launch at most one connection per slot, the
//!   `N` independent per-output-fiber schedulers run in one loop per slot,
//!   with §V occupied-channel handling for connections that hold across
//!   slots, and each verdict names the position of the request it answers;
//! * [`rearrange`] — the §V "existing connections can be disturbed"
//!   alternative: in-flight connections may move to a different output
//!   channel but are never dropped;
//! * [`shard`] — the per-output-fiber scheduling unit ([`FiberUnit`])
//!   shared by the offline [`Interconnect`] and the `wdm-serve` daemon's
//!   destination shards, so both drive the identical decision path;
//! * [`reservation`] — §V advance reservations: a capacity ledger
//!   ([`ReservationStore`]) admitting future multi-slot holds against an
//!   admission horizon, with cancellation, timeout expiry, and a
//!   [`PreemptionPolicy`] knob deciding how activating reservations meet
//!   cell traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod arbitration;
pub mod buffered;
pub mod connection;
pub mod fabric;
pub mod fcfs;
pub mod interconnect;
pub mod rearrange;
pub mod reservation;
pub mod shard;

pub use buffered::{BufferedInterconnect, BufferedSlotResult, QueueDiscipline, Transmission};
pub use connection::{ConnectionRequest, Grant, RejectReason, Rejection, SlotResult};
pub use fabric::CrossbarState;
pub use fcfs::FcfsSwitch;
pub use interconnect::{DisruptionImpact, HoldPolicy, Interconnect, InterconnectConfig};
pub use reservation::{
    PreemptionPolicy, Reservation, ReservationExpiry, ReservationGrant, ReservationRequest,
    ReservationStore, DEFAULT_RESERVATION_HORIZON,
};
pub use shard::{ActiveLink, FiberOutcome, FiberUnit};

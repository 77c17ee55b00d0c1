//! Connection requests, grants and rejections.
//!
//! A connection request arrives at the beginning of a time slot on a
//! specific input channel (fiber + wavelength) and asks for *any* free,
//! conversion-reachable channel on one destination fiber (unicast, paper
//! §I). Optical packets last one slot; circuit/burst connections may hold
//! for several (§V).

use wdm_core::Error;

use crate::reservation::{ReservationExpiry, ReservationGrant};

/// A unicast connection request for one time slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnectionRequest {
    /// Source input fiber.
    pub src_fiber: usize,
    /// Wavelength the request arrives on.
    pub src_wavelength: usize,
    /// Destination output fiber (the request does not pick a channel).
    pub dst_fiber: usize,
    /// How many slots the connection holds once granted (1 = optical
    /// packet).
    pub duration: u32,
}

impl ConnectionRequest {
    /// A single-slot (optical packet) request.
    pub fn packet(src_fiber: usize, src_wavelength: usize, dst_fiber: usize) -> Self {
        ConnectionRequest { src_fiber, src_wavelength, dst_fiber, duration: 1 }
    }

    /// A multi-slot (burst/circuit) request.
    pub fn burst(src_fiber: usize, src_wavelength: usize, dst_fiber: usize, duration: u32) -> Self {
        ConnectionRequest { src_fiber, src_wavelength, dst_fiber, duration }
    }

    /// Validates the request against the interconnect dimensions.
    pub fn validate(&self, n: usize, k: usize) -> Result<(), Error> {
        if self.src_fiber >= n {
            return Err(Error::InvalidFiber { fiber: self.src_fiber, n });
        }
        if self.dst_fiber >= n {
            return Err(Error::InvalidFiber { fiber: self.dst_fiber, n });
        }
        if self.src_wavelength >= k {
            return Err(Error::InvalidWavelength { wavelength: self.src_wavelength, k });
        }
        if self.duration == 0 {
            return Err(Error::LengthMismatch { expected: 1, actual: 0 });
        }
        Ok(())
    }
}

/// A granted connection: the request plus its assigned output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grant {
    /// The granted request.
    pub request: ConnectionRequest,
    /// The output wavelength channel assigned on `request.dst_fiber`.
    pub output_wavelength: usize,
}

/// Why a request was not granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Lost the output contention: no free reachable channel remained after
    /// the maximum matching (the loss the paper's algorithms minimize).
    OutputContention,
    /// The source input channel is still carrying an earlier multi-slot
    /// connection, so the new request is physically impossible.
    SourceBusy,
}

/// A rejected request with its reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rejection {
    /// The rejected request.
    pub request: ConnectionRequest,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// The outcome of one time slot.
///
/// Each cell verdict names the request it answers by position in the
/// slot's `requests`: `grant_inputs[i]` for `grants[i]`, and
/// `rejection_inputs[i]` for `rejections[i]`. Together they name every
/// position once, so two equal requests are told apart by position.
#[must_use]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotResult {
    /// Newly granted connections this slot.
    pub grants: Vec<Grant>,
    /// The position in the slot's requests of each grant's request.
    pub grant_inputs: Vec<usize>,
    /// Requests rejected this slot.
    pub rejections: Vec<Rejection>,
    /// The position in the slot's requests of each rejected request.
    pub rejection_inputs: Vec<usize>,
    /// Connections (granted in earlier slots) that completed at the
    /// *beginning* of this slot, freeing their channels.
    pub completed: usize,
    /// In-flight connections moved to a different output channel this slot
    /// (always 0 under [`crate::HoldPolicy::NonDisturb`]).
    pub rearranged: usize,
    /// Advance reservations that activated and were granted their channel
    /// this slot (their holds are now in flight).
    pub reservation_grants: Vec<ReservationGrant>,
    /// Advance reservations that expired at activation this slot (source
    /// channel busy, or no conversion-reachable channel free).
    pub reservation_expired: Vec<ReservationExpiry>,
}

impl SlotResult {
    /// Number of cell requests presented this slot (reservation
    /// activations are counted separately).
    pub fn offered(&self) -> usize {
        self.grants.len() + self.rejections.len()
    }

    /// Number of advance reservations that reached their start slot this
    /// slot (granted or expired).
    pub fn reservations_due(&self) -> usize {
        self.reservation_grants.len() + self.reservation_expired.len()
    }

    /// Rejections due to output contention only.
    pub fn contention_losses(&self) -> usize {
        self.rejections.iter().filter(|r| r.reason == RejectReason::OutputContention).count()
    }

    /// Rejections because the source channel was busy.
    pub fn source_busy_losses(&self) -> usize {
        self.rejections.iter().filter(|r| r.reason == RejectReason::SourceBusy).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_and_burst_constructors() {
        let p = ConnectionRequest::packet(1, 2, 3);
        assert_eq!(p.duration, 1);
        let b = ConnectionRequest::burst(1, 2, 3, 10);
        assert_eq!(b.duration, 10);
    }

    #[test]
    fn validation_bounds() {
        let ok = ConnectionRequest::packet(1, 2, 3);
        assert!(ok.validate(4, 4).is_ok());
        assert!(ok.validate(3, 4).is_err(), "dst fiber out of range");
        assert!(ConnectionRequest::packet(4, 0, 0).validate(4, 4).is_err());
        assert!(ConnectionRequest::packet(0, 4, 0).validate(4, 4).is_err());
        assert!(ConnectionRequest::burst(0, 0, 0, 0).validate(4, 4).is_err());
    }

    #[test]
    fn slot_result_accounting() {
        let req = ConnectionRequest::packet(0, 0, 0);
        let result = SlotResult {
            grants: vec![Grant { request: req, output_wavelength: 0 }],
            rejections: vec![
                Rejection { request: req, reason: RejectReason::OutputContention },
                Rejection { request: req, reason: RejectReason::SourceBusy },
            ],
            completed: 2,
            rearranged: 0,
            ..SlotResult::default()
        };
        assert_eq!(result.offered(), 3);
        assert_eq!(result.contention_losses(), 1);
        assert_eq!(result.source_busy_losses(), 1);
    }
}

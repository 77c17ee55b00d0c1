//! The versioned length-prefixed binary wire protocol.
//!
//! Every frame is `u32` little-endian payload length, then the payload:
//! a one-byte frame tag followed by the tag's fixed-layout little-endian
//! fields (see the README frame-layout table). The handshake is
//! `HELLO(magic, version)` → `HELLO_ACK(version, n, k, policy)`; a version
//! mismatch is answered with an `ERROR` frame and the connection closes.
//!
//! All decoding errors are typed [`ProtocolError`]s — the lint wall bans
//! panics in this crate, so a malformed frame can never take the daemon
//! down, only the offending connection.

use std::io::{Read, Write};

/// `"WDM1"` — first field of the HELLO frame.
pub const MAGIC: u32 = 0x5744_4D31;

/// Current wire-protocol version, checked in both directions.
///
/// Version history: v1 carried cell traffic only (HELLO..ERROR, tags 1–8);
/// v2 added advance reservations (RESERVE/RESERVE_ACK/RELEASE, tags 9–11)
/// and the `CapacityExhausted`/`HorizonExceeded` deny reasons.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on a frame payload; anything larger is rejected before
/// allocation (a corrupt length prefix must not OOM the daemon).
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// The longest payload [`read_frame`] decodes from a stack buffer instead
/// of a heap one. It covers every fixed-layout frame (GRANT and RESERVE,
/// the longest, carry 29 bytes), so a client's per-slot stream of GRANT,
/// DENY and SLOT_COMPLETE frames decodes without touching the allocator.
pub const INLINE_PAYLOAD_LEN: usize = 64;

/// One request inside a SUBMIT batch. `id` is chosen by the client and
/// echoed verbatim on the matching GRANT/DENY frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitRequest {
    /// Client-chosen request identifier, echoed on the reply.
    pub id: u64,
    /// Source input fiber.
    pub src_fiber: u32,
    /// Wavelength the request arrives on.
    pub src_wavelength: u32,
    /// Destination output fiber.
    pub dst_fiber: u32,
    /// Slots the connection holds once granted (min 1).
    pub duration: u32,
}

/// One advance-reservation request inside a RESERVE frame. `id` is chosen
/// by the client and echoed on the RESERVE_ACK (admitted) or DENY
/// (rejected) reply, and again on the GRANT/DENY emitted when the
/// reservation reaches its start slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReserveRequest {
    /// Client-chosen request identifier, echoed on every reply about this
    /// reservation.
    pub id: u64,
    /// Source input fiber.
    pub src_fiber: u32,
    /// Wavelength the connection will arrive on.
    pub src_wavelength: u32,
    /// Destination output fiber.
    pub dst_fiber: u32,
    /// Slots from *now* (the slot the daemon admits the request in) until
    /// the hold starts; 0 reserves the very next slot boundary.
    pub start_in: u32,
    /// Slots the connection holds once activated (min 1).
    pub duration: u32,
}

/// Why the daemon denied a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DenyReason {
    /// The destination shard's bounded admission queue was full — resubmit
    /// after the retry-after hint. This is overload, not an error.
    QueueFull = 1,
    /// The source input channel already carries an in-flight connection (or
    /// an earlier request in the same slot claimed it).
    SourceBusy = 2,
    /// Lost the wavelength-level output contention — the loss the paper's
    /// matching algorithms minimize.
    OutputContention = 3,
    /// The request's fiber/wavelength indices or duration are out of range
    /// for the served interconnect.
    InvalidRequest = 4,
    /// An advance reservation could not be admitted: some slot of its
    /// interval has no bookable channel capacity left (output fiber full,
    /// or the source input channel is already committed).
    CapacityExhausted = 5,
    /// An advance reservation extends beyond the daemon's admission
    /// horizon — retry with a nearer start or shorter duration.
    HorizonExceeded = 6,
}

impl DenyReason {
    /// The wire byte for this reason (inverse of [`Self::from_wire`]).
    pub fn wire(self) -> u8 {
        match self {
            DenyReason::QueueFull => 1,
            DenyReason::SourceBusy => 2,
            DenyReason::OutputContention => 3,
            DenyReason::InvalidRequest => 4,
            DenyReason::CapacityExhausted => 5,
            DenyReason::HorizonExceeded => 6,
        }
    }

    /// Decodes the wire byte.
    pub fn from_wire(byte: u8) -> Result<DenyReason, ProtocolError> {
        match byte {
            1 => Ok(DenyReason::QueueFull),
            2 => Ok(DenyReason::SourceBusy),
            3 => Ok(DenyReason::OutputContention),
            4 => Ok(DenyReason::InvalidRequest),
            5 => Ok(DenyReason::CapacityExhausted),
            6 => Ok(DenyReason::HorizonExceeded),
            other => Err(ProtocolError::BadField {
                frame: "DENY",
                field: "reason",
                value: u64::from(other),
            }),
        }
    }
}

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server opener: magic + protocol version.
    Hello {
        /// Client protocol version.
        version: u16,
    },
    /// Server → client handshake reply with the served topology.
    HelloAck {
        /// Server protocol version.
        version: u16,
        /// Number of fibers per side.
        n: u32,
        /// Wavelengths per fiber.
        k: u32,
        /// Scheduling policy short-name byte length + UTF-8 bytes.
        policy: String,
    },
    /// Client → server: a batch of requests for the next slot.
    Submit {
        /// The batched requests.
        requests: Vec<SubmitRequest>,
    },
    /// Server → client: a request was granted an output channel.
    Grant {
        /// Slot the grant took effect.
        slot: u64,
        /// Per-slot sequence number (position in the slot's grant stream).
        seq: u64,
        /// The client-chosen request id.
        id: u64,
        /// Assigned output wavelength channel on the destination fiber.
        output_wavelength: u32,
    },
    /// Server → client: a request was denied this slot.
    Deny {
        /// Slot the denial was decided.
        slot: u64,
        /// The client-chosen request id.
        id: u64,
        /// Why.
        reason: DenyReason,
        /// Hint: slots to wait before resubmitting (0 = don't retry).
        retry_after_slots: u32,
    },
    /// Server → client: all replies for `slot` have been sent.
    SlotComplete {
        /// The completed slot.
        slot: u64,
    },
    /// Client → server: finish the current slot, then shut the daemon down.
    Shutdown,
    /// Client → server: ask for an advance reservation of a future
    /// multi-slot hold (§V circuit/burst connections booked ahead).
    Reserve {
        /// The reservation request.
        request: ReserveRequest,
    },
    /// Server → client: a RESERVE was admitted into the capacity ledger.
    /// A GRANT (or DENY, if activation fails) follows at `start_slot`.
    ReserveAck {
        /// The client-chosen request id from the RESERVE frame.
        id: u64,
        /// Server-assigned reservation handle, usable in RELEASE.
        reservation_id: u64,
        /// Absolute slot at which the hold will activate.
        start_slot: u64,
    },
    /// Client → server: cancel a pending (not-yet-activated) reservation.
    /// One-way — cancelling an unknown or already-activated reservation is
    /// a silent no-op.
    Release {
        /// The server-assigned handle from RESERVE_ACK.
        reservation_id: u64,
    },
    /// Server → client: terminal protocol error; the connection closes.
    Error {
        /// Stable numeric code (1 = bad magic, 2 = version mismatch,
        /// 3 = malformed frame).
        code: u32,
        /// Human-readable description.
        message: String,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_SUBMIT: u8 = 3;
const TAG_GRANT: u8 = 4;
const TAG_DENY: u8 = 5;
const TAG_SLOT_COMPLETE: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_ERROR: u8 = 8;
const TAG_RESERVE: u8 = 9;
const TAG_RESERVE_ACK: u8 = 10;
const TAG_RELEASE: u8 = 11;

/// Errors crossing the wire boundary: transport failures and malformed or
/// unexpected frames. I/O errors never panic; they close the connection.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProtocolError {
    /// Transport-level read/write failure.
    Io(std::io::Error),
    /// The peer closed the connection mid-frame or before one.
    Disconnected,
    /// HELLO did not open with [`MAGIC`].
    BadMagic {
        /// The four bytes received instead.
        got: u32,
    },
    /// The two sides speak different protocol versions.
    VersionMismatch {
        /// Our version.
        ours: u16,
        /// The peer's version.
        theirs: u16,
    },
    /// Unknown frame tag byte.
    UnknownTag {
        /// The tag received.
        tag: u8,
    },
    /// Length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The advertised payload length.
        len: u32,
    },
    /// Payload shorter or longer than its tag's layout requires.
    Malformed {
        /// Frame name.
        frame: &'static str,
    },
    /// A field carried an out-of-domain value.
    BadField {
        /// Frame name.
        frame: &'static str,
        /// Field name.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The peer sent a frame that is valid but not allowed in the current
    /// protocol state (e.g. SUBMIT before HELLO).
    UnexpectedFrame {
        /// What arrived.
        got: &'static str,
        /// What the state machine expected.
        expected: &'static str,
    },
    /// The server reported a terminal error.
    ServerError {
        /// The ERROR frame's code.
        code: u32,
        /// The ERROR frame's message.
        message: String,
    },
    /// The scheduling engine rejected a configuration.
    Engine(wdm_core::Error),
    /// A scenario plan does not fit the session it was applied to — e.g.
    /// its interconnect topology disagrees with the live engine's.
    Scenario {
        /// What mismatched.
        message: String,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(out, "transport error: {e}"),
            ProtocolError::Disconnected => write!(out, "peer disconnected"),
            ProtocolError::BadMagic { got } => {
                write!(out, "bad HELLO magic 0x{got:08x} (expected 0x{MAGIC:08x})")
            }
            ProtocolError::VersionMismatch { ours, theirs } => {
                write!(out, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            ProtocolError::UnknownTag { tag } => write!(out, "unknown frame tag {tag}"),
            ProtocolError::FrameTooLarge { len } => {
                write!(out, "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtocolError::Malformed { frame } => write!(out, "malformed {frame} frame"),
            ProtocolError::BadField { frame, field, value } => {
                write!(out, "{frame} frame field {field} has out-of-domain value {value}")
            }
            ProtocolError::UnexpectedFrame { got, expected } => {
                write!(out, "unexpected {got} frame (expected {expected})")
            }
            ProtocolError::ServerError { code, message } => {
                write!(out, "server error {code}: {message}")
            }
            ProtocolError::Engine(e) => write!(out, "engine configuration rejected: {e}"),
            ProtocolError::Scenario { message } => write!(out, "scenario mismatch: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<wdm_core::Error> for ProtocolError {
    fn from(e: wdm_core::Error) -> ProtocolError {
        ProtocolError::Engine(e)
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtocolError::Disconnected
        } else {
            ProtocolError::Io(e)
        }
    }
}

/// A little-endian payload writer appending to a caller-owned buffer.
#[derive(Debug)]
struct Payload<'a> {
    buf: &'a mut Vec<u8>,
}

impl Payload<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// A little-endian payload reader.
#[derive(Debug)]
struct Cursor<'a> {
    buf: &'a [u8],
    frame: &'static str,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() < len {
            return Err(ProtocolError::Malformed { frame: self.frame });
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }
    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProtocolError> {
        let b = self.take(2)?;
        let Ok(arr) = <[u8; 2]>::try_from(b) else {
            return Err(ProtocolError::Malformed { frame: self.frame });
        };
        Ok(u16::from_le_bytes(arr))
    }
    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        let Ok(arr) = <[u8; 4]>::try_from(b) else {
            return Err(ProtocolError::Malformed { frame: self.frame });
        };
        Ok(u32::from_le_bytes(arr))
    }
    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        let Ok(arr) = <[u8; 8]>::try_from(b) else {
            return Err(ProtocolError::Malformed { frame: self.frame });
        };
        Ok(u64::from_le_bytes(arr))
    }
    fn finish(self) -> Result<(), ProtocolError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed { frame: self.frame })
        }
    }
}

/// Appends one frame — `u32` little-endian payload length, then the
/// payload — to `buf`, after whatever it already holds. On error `buf` is
/// left exactly as it was, so a caller batching frames never emits a torn
/// one.
#[wdm_attr::panic_free]
pub fn encode_frame(buf: &mut Vec<u8>, frame: &Frame) -> Result<(), ProtocolError> {
    let start = buf.len();
    let appended = append_frame(buf, frame);
    if appended.is_err() {
        buf.truncate(start);
    }
    appended
}

/// Encodes and writes one frame (length prefix + payload) with a single
/// `write_all`. The writer is not flushed — batch frames, then flush once
/// per slot. Allocates the frame's bytes; a caller writing many frames
/// should reuse a buffer through [`encode_frame`] instead.
#[wdm_attr::panic_free]
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), ProtocolError> {
    // Every fixed-layout frame (33 bytes at most) fits without regrowing.
    let mut buf = Vec::with_capacity(64);
    encode_frame(&mut buf, frame)?;
    w.write_all(&buf)?;
    Ok(())
}

/// [`encode_frame`]'s body; on error it may leave part of the frame behind.
fn append_frame(buf: &mut Vec<u8>, frame: &Frame) -> Result<(), ProtocolError> {
    let start = buf.len();
    // Length-prefix placeholder, patched once the payload length is known.
    buf.extend_from_slice(&[0; 4]);
    let mut p = Payload { buf };
    match frame {
        Frame::Hello { version } => {
            p.u8(TAG_HELLO);
            p.u32(MAGIC);
            p.u16(*version);
        }
        Frame::HelloAck { version, n, k, policy } => {
            p.u8(TAG_HELLO_ACK);
            p.u16(*version);
            p.u32(*n);
            p.u32(*k);
            let name = policy.as_bytes();
            let Ok(len) = u8::try_from(name.len()) else {
                return Err(ProtocolError::Malformed { frame: "HELLO_ACK" });
            };
            p.u8(len);
            p.bytes(name);
        }
        Frame::Submit { requests } => {
            p.u8(TAG_SUBMIT);
            let Ok(count) = u32::try_from(requests.len()) else {
                return Err(ProtocolError::Malformed { frame: "SUBMIT" });
            };
            p.u32(count);
            for r in requests {
                p.u64(r.id);
                p.u32(r.src_fiber);
                p.u32(r.src_wavelength);
                p.u32(r.dst_fiber);
                p.u32(r.duration);
            }
        }
        Frame::Grant { slot, seq, id, output_wavelength } => {
            p.u8(TAG_GRANT);
            p.u64(*slot);
            p.u64(*seq);
            p.u64(*id);
            p.u32(*output_wavelength);
        }
        Frame::Deny { slot, id, reason, retry_after_slots } => {
            p.u8(TAG_DENY);
            p.u64(*slot);
            p.u64(*id);
            p.u8(reason.wire());
            p.u32(*retry_after_slots);
        }
        Frame::SlotComplete { slot } => {
            p.u8(TAG_SLOT_COMPLETE);
            p.u64(*slot);
        }
        Frame::Shutdown => p.u8(TAG_SHUTDOWN),
        Frame::Reserve { request } => {
            p.u8(TAG_RESERVE);
            p.u64(request.id);
            p.u32(request.src_fiber);
            p.u32(request.src_wavelength);
            p.u32(request.dst_fiber);
            p.u32(request.start_in);
            p.u32(request.duration);
        }
        Frame::ReserveAck { id, reservation_id, start_slot } => {
            p.u8(TAG_RESERVE_ACK);
            p.u64(*id);
            p.u64(*reservation_id);
            p.u64(*start_slot);
        }
        Frame::Release { reservation_id } => {
            p.u8(TAG_RELEASE);
            p.u64(*reservation_id);
        }
        Frame::Error { code, message } => {
            p.u8(TAG_ERROR);
            p.u32(*code);
            let msg = message.as_bytes();
            let Ok(len) = u16::try_from(msg.len()) else {
                return Err(ProtocolError::Malformed { frame: "ERROR" });
            };
            p.u16(len);
            p.bytes(msg);
        }
    }
    let Ok(len) = u32::try_from(p.buf.len() - start - 4) else {
        return Err(ProtocolError::FrameTooLarge { len: u32::MAX });
    };
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    if let Some(prefix) = p.buf.get_mut(start..start + 4) {
        prefix.copy_from_slice(&len.to_le_bytes());
    }
    Ok(())
}

/// Reads and decodes one frame. Blocks until a full frame arrives; a clean
/// EOF before the length prefix maps to [`ProtocolError::Disconnected`].
///
/// A payload of at most [`INLINE_PAYLOAD_LEN`] bytes — every fixed-layout
/// frame among them — is read into a stack buffer, so decoding it allocates
/// nothing beyond what the decoded [`Frame`] owns; a longer one is read
/// into a heap buffer of exactly its length. Either way the reader is asked
/// for exactly `4 + len` bytes and never more.
#[wdm_attr::panic_free]
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::FrameTooLarge { len });
    }
    if len == 0 {
        return Err(ProtocolError::Malformed { frame: "empty" });
    }
    let mut inline = [0u8; INLINE_PAYLOAD_LEN];
    if let Some(payload) = inline.get_mut(..len as usize) {
        r.read_exact(payload)?;
        return decode(payload);
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    decode(&payload)
}

fn decode(payload: &[u8]) -> Result<Frame, ProtocolError> {
    let Some((&tag, body)) = payload.split_first() else {
        return Err(ProtocolError::Malformed { frame: "empty" });
    };
    match tag {
        TAG_HELLO => {
            let mut c = Cursor { buf: body, frame: "HELLO" };
            let magic = c.u32()?;
            if magic != MAGIC {
                return Err(ProtocolError::BadMagic { got: magic });
            }
            let version = c.u16()?;
            c.finish()?;
            Ok(Frame::Hello { version })
        }
        TAG_HELLO_ACK => {
            let mut c = Cursor { buf: body, frame: "HELLO_ACK" };
            let version = c.u16()?;
            let n = c.u32()?;
            let k = c.u32()?;
            let len = c.u8()? as usize;
            let name = c.take(len)?;
            let Ok(policy) = std::str::from_utf8(name) else {
                return Err(ProtocolError::Malformed { frame: "HELLO_ACK" });
            };
            let policy = policy.to_owned();
            c.finish()?;
            Ok(Frame::HelloAck { version, n, k, policy })
        }
        TAG_SUBMIT => {
            let mut c = Cursor { buf: body, frame: "SUBMIT" };
            let count = c.u32()?;
            // 24 bytes per request: a cheap sanity bound before allocating.
            if u64::from(count) * 24 > u64::from(MAX_FRAME_LEN) {
                return Err(ProtocolError::BadField {
                    frame: "SUBMIT",
                    field: "count",
                    value: u64::from(count),
                });
            }
            let mut requests = Vec::with_capacity(count as usize);
            for _ in 0..count {
                requests.push(SubmitRequest {
                    id: c.u64()?,
                    src_fiber: c.u32()?,
                    src_wavelength: c.u32()?,
                    dst_fiber: c.u32()?,
                    duration: c.u32()?,
                });
            }
            c.finish()?;
            Ok(Frame::Submit { requests })
        }
        TAG_GRANT => {
            let mut c = Cursor { buf: body, frame: "GRANT" };
            let frame = Frame::Grant {
                slot: c.u64()?,
                seq: c.u64()?,
                id: c.u64()?,
                output_wavelength: c.u32()?,
            };
            c.finish()?;
            Ok(frame)
        }
        TAG_DENY => {
            let mut c = Cursor { buf: body, frame: "DENY" };
            let slot = c.u64()?;
            let id = c.u64()?;
            let reason = DenyReason::from_wire(c.u8()?)?;
            let retry_after_slots = c.u32()?;
            c.finish()?;
            Ok(Frame::Deny { slot, id, reason, retry_after_slots })
        }
        TAG_SLOT_COMPLETE => {
            let mut c = Cursor { buf: body, frame: "SLOT_COMPLETE" };
            let slot = c.u64()?;
            c.finish()?;
            Ok(Frame::SlotComplete { slot })
        }
        TAG_SHUTDOWN => {
            let c = Cursor { buf: body, frame: "SHUTDOWN" };
            c.finish()?;
            Ok(Frame::Shutdown)
        }
        TAG_ERROR => {
            let mut c = Cursor { buf: body, frame: "ERROR" };
            let code = c.u32()?;
            let len = c.u16()? as usize;
            let msg = c.take(len)?;
            let message = String::from_utf8_lossy(msg).into_owned();
            c.finish()?;
            Ok(Frame::Error { code, message })
        }
        TAG_RESERVE => {
            let mut c = Cursor { buf: body, frame: "RESERVE" };
            let request = ReserveRequest {
                id: c.u64()?,
                src_fiber: c.u32()?,
                src_wavelength: c.u32()?,
                dst_fiber: c.u32()?,
                start_in: c.u32()?,
                duration: c.u32()?,
            };
            c.finish()?;
            Ok(Frame::Reserve { request })
        }
        TAG_RESERVE_ACK => {
            let mut c = Cursor { buf: body, frame: "RESERVE_ACK" };
            let frame =
                Frame::ReserveAck { id: c.u64()?, reservation_id: c.u64()?, start_slot: c.u64()? };
            c.finish()?;
            Ok(frame)
        }
        TAG_RELEASE => {
            let mut c = Cursor { buf: body, frame: "RELEASE" };
            let reservation_id = c.u64()?;
            c.finish()?;
            Ok(Frame::Release { reservation_id })
        }
        tag => Err(ProtocolError::UnknownTag { tag }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), frame);
        assert!(r.is_empty(), "frame consumed exactly");
    }

    #[test]
    fn all_frames_round_trip() {
        round_trip(Frame::Hello { version: PROTOCOL_VERSION });
        round_trip(Frame::HelloAck {
            version: PROTOCOL_VERSION,
            n: 8,
            k: 64,
            policy: "bfa".to_owned(),
        });
        round_trip(Frame::Submit {
            requests: vec![
                SubmitRequest { id: 7, src_fiber: 0, src_wavelength: 3, dst_fiber: 1, duration: 2 },
                SubmitRequest { id: 8, src_fiber: 1, src_wavelength: 0, dst_fiber: 0, duration: 1 },
            ],
        });
        round_trip(Frame::Submit { requests: vec![] });
        round_trip(Frame::Grant { slot: 12, seq: 0, id: 7, output_wavelength: 4 });
        round_trip(Frame::Deny {
            slot: 12,
            id: 8,
            reason: DenyReason::QueueFull,
            retry_after_slots: 1,
        });
        round_trip(Frame::SlotComplete { slot: 12 });
        round_trip(Frame::Shutdown);
        round_trip(Frame::Error { code: 2, message: "version mismatch".to_owned() });
        round_trip(Frame::Reserve {
            request: ReserveRequest {
                id: 9,
                src_fiber: 2,
                src_wavelength: 5,
                dst_fiber: 3,
                start_in: 16,
                duration: 4,
            },
        });
        round_trip(Frame::ReserveAck { id: 9, reservation_id: 1, start_slot: 28 });
        round_trip(Frame::Release { reservation_id: 1 });
    }

    #[test]
    fn truncated_reserve_rejected() {
        let mut wire = Vec::new();
        let request = ReserveRequest {
            id: 1,
            src_fiber: 0,
            src_wavelength: 0,
            dst_fiber: 1,
            start_in: 2,
            duration: 3,
        };
        write_frame(&mut wire, &Frame::Reserve { request }).unwrap();
        let short = (wire.len() - 4 - 4) as u32;
        wire.truncate(wire.len() - 4);
        wire[..4].copy_from_slice(&short.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(ProtocolError::Malformed { frame: "RESERVE" })
        ));
    }

    #[test]
    fn reserve_trailing_bytes_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Release { reservation_id: 7 }).unwrap();
        let long = (wire.len() - 4 + 1) as u32;
        wire.push(0);
        wire[..4].copy_from_slice(&long.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(ProtocolError::Malformed { frame: "RELEASE" })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Hello { version: 1 }).unwrap();
        wire[5] ^= 0xff; // corrupt the magic inside the payload
        assert!(matches!(read_frame(&mut &wire[..]), Err(ProtocolError::BadMagic { .. })));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Grant { slot: 1, seq: 2, id: 3, output_wavelength: 4 })
            .unwrap();
        // Shrink the payload but keep the length prefix honest about it.
        let short = (wire.len() - 4 - 2) as u32;
        wire.truncate(wire.len() - 2);
        wire[..4].copy_from_slice(&short.to_le_bytes());
        assert!(matches!(read_frame(&mut &wire[..]), Err(ProtocolError::Malformed { .. })));
    }

    #[test]
    fn oversized_frame_rejected() {
        let wire = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(read_frame(&mut &wire[..]), Err(ProtocolError::FrameTooLarge { .. })));
    }

    #[test]
    fn eof_maps_to_disconnected() {
        assert!(matches!(read_frame(&mut &[][..]), Err(ProtocolError::Disconnected)));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(99);
        assert!(matches!(read_frame(&mut &wire[..]), Err(ProtocolError::UnknownTag { tag: 99 })));
    }

    #[test]
    fn deny_reasons_round_trip() {
        for reason in [
            DenyReason::QueueFull,
            DenyReason::SourceBusy,
            DenyReason::OutputContention,
            DenyReason::InvalidRequest,
            DenyReason::CapacityExhausted,
            DenyReason::HorizonExceeded,
        ] {
            assert_eq!(DenyReason::from_wire(reason.wire()).unwrap(), reason);
        }
        assert!(DenyReason::from_wire(0).is_err());
        assert!(DenyReason::from_wire(7).is_err());
    }
}

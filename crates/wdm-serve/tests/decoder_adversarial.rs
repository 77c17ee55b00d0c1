//! The adversarial decoder harness.
//!
//! Two layers of hostile input against [`wdm_serve::protocol::read_frame`]:
//!
//! 1. a structure-aware property mutator — generate a valid frame, encode
//!    it, then truncate / extend / bit-flip / length-skew / version-skew the
//!    wire bytes and decode; and
//! 2. a committed regression corpus (`tests/corpus/*.bin`, ≥ 50 frames)
//!    replayed on every test run, so yesterday's crasher stays fixed
//!    without re-rolling the generator.
//!
//! Every input must produce `Ok(frame)` or a typed `ProtocolError` — never
//! a panic — and the decoder must never read past the declared frame
//! boundary (`4 + advertised_len` bytes), which is what the counting reader
//! checks. Run the `#[ignore]`d `regenerate_corpus` test to rebuild the
//! corpus deterministically after a wire-format change.
//!
//! The same frame generator also checks the encoder the daemon batches
//! with: [`encode_frame`] appends every frame kind after whatever a buffer
//! already holds, byte-identical to [`write_frame`], and a failing encode
//! leaves the buffer untouched.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::Read;

use proptest::prelude::*;
use wdm_serve::protocol::{
    encode_frame, read_frame, write_frame, DenyReason, Frame, ProtocolError, ReserveRequest,
    SubmitRequest, INLINE_PAYLOAD_LEN, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// A reader over a byte slice that records how many bytes were consumed,
/// so tests can prove the decoder never reads past the frame it declared.
#[derive(Debug)]
struct CountingReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> CountingReader<'a> {
    fn new(data: &'a [u8]) -> CountingReader<'a> {
        CountingReader { data, pos: 0 }
    }

    fn consumed(&self) -> usize {
        self.pos
    }
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Decodes `bytes` through a counting reader and asserts the over-read
/// invariant; the decode result itself (Ok or typed error) is returned.
fn decode_counted(bytes: &[u8]) -> Result<Frame, wdm_serve::ProtocolError> {
    let mut reader = CountingReader::new(bytes);
    let result = read_frame(&mut reader);
    let consumed = reader.consumed();
    assert!(consumed <= bytes.len(), "reader past the buffer: {consumed} > {}", bytes.len());
    if bytes.len() >= 4 {
        let advertised = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        assert!(
            consumed as u64 <= 4 + u64::from(advertised),
            "decoder over-read: consumed {consumed} of a {advertised}-byte frame"
        );
    } else {
        assert!(consumed <= 4, "consumed {consumed} with no full length prefix");
    }
    if let Err(e) = &result {
        assert!(!e.to_string().is_empty(), "error must render: {e:?}");
    }
    result
}

/// Builds one structurally valid frame from integer seeds.
fn build_frame(kind: u8, a: u64, b: u32, len: usize) -> Frame {
    match kind % 11 {
        0 => Frame::Hello { version: a as u16 },
        1 => Frame::HelloAck {
            version: a as u16,
            n: b,
            k: b.rotate_left(7),
            policy: "p".repeat(len % 32),
        },
        2 => Frame::Submit {
            requests: (0..len % 48)
                .map(|i| SubmitRequest {
                    id: a.wrapping_add(i as u64),
                    src_fiber: b.wrapping_add(i as u32),
                    src_wavelength: b.rotate_right(i as u32 % 31),
                    dst_fiber: b ^ i as u32,
                    duration: 1 + (i as u32 % 7),
                })
                .collect(),
        },
        3 => Frame::Grant { slot: a, seq: a >> 16, id: a ^ u64::from(b), output_wavelength: b },
        4 => Frame::Deny {
            slot: a,
            id: a >> 8,
            reason: match a % 4 {
                0 => DenyReason::QueueFull,
                1 => DenyReason::SourceBusy,
                2 => DenyReason::OutputContention,
                _ => DenyReason::InvalidRequest,
            },
            retry_after_slots: b,
        },
        5 => Frame::SlotComplete { slot: a },
        6 => Frame::Shutdown,
        7 => Frame::Reserve {
            request: ReserveRequest {
                id: a,
                src_fiber: b,
                src_wavelength: b.rotate_left(11),
                dst_fiber: b ^ 0x55,
                start_in: (a % 64) as u32,
                duration: 1 + (b % 7),
            },
        },
        8 => Frame::ReserveAck {
            id: a,
            reservation_id: a.rotate_right(13),
            start_slot: a ^ u64::from(b),
        },
        9 => Frame::Release { reservation_id: a },
        _ => Frame::Error { code: b, message: "e".repeat(len % 64) },
    }
}

/// Applies one of six wire-level corruptions in place.
fn mutate(bytes: &mut Vec<u8>, kind: u8, pos: usize, val: u8) {
    match kind % 6 {
        // Truncate: cut the stream anywhere, including mid-prefix.
        0 => {
            let cut = pos % (bytes.len() + 1);
            bytes.truncate(cut);
        }
        // Extend: junk after the frame. Odd `val` also folds the junk into
        // the declared length (structural error); even `val` leaves the
        // prefix honest, so the junk must go entirely unread.
        1 => {
            let extra = 1 + pos % 9;
            bytes.extend(std::iter::repeat_n(val, extra));
            if val % 2 == 1 && bytes.len() >= 4 {
                let new_len = u32::try_from(bytes.len() - 4).unwrap();
                bytes[..4].copy_from_slice(&new_len.to_le_bytes());
            }
        }
        // Bit-flip one bit anywhere in the stream.
        2 => {
            if !bytes.is_empty() {
                let at = pos % bytes.len();
                bytes[at] ^= 1 << (val % 8);
            }
        }
        // Length-skew: advertise an arbitrary payload length (up to just
        // past the cap) over the unchanged payload bytes.
        3 => {
            if bytes.len() >= 4 {
                let skewed = (pos as u32) % (MAX_FRAME_LEN + 16);
                bytes[..4].copy_from_slice(&skewed.to_le_bytes());
            }
        }
        // Version-skew: overwrite the version field of handshake frames
        // (offset 9 for HELLO — after magic — and 5 for HELLO_ACK); for
        // other tags this lands in an ordinary field byte.
        4 => {
            let tag = bytes.get(4).copied().unwrap_or(0);
            let at = if tag == 1 { 9 } else { 5 };
            if bytes.len() > at {
                bytes[at] = val;
            }
        }
        // Tail-field skew: overwrite the last 4 payload bytes — for
        // RESERVE that is the duration, for DENY the retry hint, for
        // RESERVE_ACK the start slot's high word — probing field-domain
        // validation at the frame boundary without changing the length.
        _ => {
            let len = bytes.len();
            if len >= 9 {
                bytes[len - 4..].copy_from_slice(&[val, val.wrapping_mul(3), 0, val & 0x80]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Structure-aware mutation: valid frame, one corruption, decode.
    #[test]
    fn mutated_frames_decode_or_fail_typed(
        (kind, a, b, len) in (0u8..11, 0u64..1 << 48, 0u32..1 << 20, 0usize..64),
        (mkind, mpos, mval) in (0u8..6, 0usize..1 << 21, 0u8..=255),
    ) {
        let frame = build_frame(kind, a, b, len);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        mutate(&mut bytes, mkind, mpos, mval);
        // Ok or typed error both pass; a panic or over-read fails the test.
        let _ = decode_counted(&bytes);
    }

    /// Unstructured garbage: arbitrary byte strings, no valid skeleton.
    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(0u8..=255, 0usize..96),
    ) {
        let _ = decode_counted(&bytes);
    }

    /// Every frame kind, appended one after another behind arbitrary
    /// earlier bytes: each append leaves what was there intact, the whole
    /// buffer equals the same frames through `write_frame`, and the frames
    /// read back in order.
    #[test]
    fn encode_frame_appends_every_kind_after_existing_bytes(
        (a, b, len) in (0u64..1 << 48, 0u32..1 << 20, 0usize..64),
        prefix in proptest::collection::vec(0u8..=255, 1usize..32),
    ) {
        let frames: Vec<Frame> = (0..11).map(|kind| build_frame(kind, a, b, len)).collect();
        let mut buf = prefix.clone();
        let mut written = prefix.clone();
        for frame in &frames {
            let before = buf.clone();
            encode_frame(&mut buf, frame).unwrap();
            prop_assert_eq!(&buf[..before.len()], &before[..], "earlier bytes changed");
            write_frame(&mut written, frame).unwrap();
        }
        prop_assert_eq!(&buf, &written);
        let mut rest = &buf[prefix.len()..];
        for frame in &frames {
            prop_assert_eq!(&decode_counted(rest).unwrap(), frame);
            read_frame(&mut rest).unwrap();
        }
        prop_assert!(rest.is_empty());
    }

    /// Double corruption: two independent mutations stack.
    #[test]
    fn doubly_mutated_frames_never_panic(
        (kind, a, b, len) in (0u8..11, 0u64..1 << 48, 0u32..1 << 20, 0usize..64),
        (k1, p1, v1) in (0u8..6, 0usize..1 << 21, 0u8..=255),
        (k2, p2, v2) in (0u8..6, 0usize..1 << 21, 0u8..=255),
    ) {
        let frame = build_frame(kind, a, b, len);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &frame).unwrap();
        mutate(&mut bytes, k1, p1, v1);
        mutate(&mut bytes, k2, p2, v2);
        let _ = decode_counted(&bytes);
    }
}

/// A failing encode returns its typed error and leaves the buffer as it
/// was, so a batch of frames never carries a torn one; `write_frame`
/// writes nothing for it.
#[test]
fn failed_encode_leaves_the_buffer_unchanged() {
    let mut buf = Vec::new();
    encode_frame(&mut buf, &Frame::SlotComplete { slot: 3 }).unwrap();
    let before = buf.clone();
    let request =
        SubmitRequest { id: 1, src_fiber: 0, src_wavelength: 0, dst_fiber: 0, duration: 1 };
    let cases = [
        (
            Frame::HelloAck { version: PROTOCOL_VERSION, n: 8, k: 64, policy: "p".repeat(256) },
            "HELLO_ACK",
        ),
        (Frame::Error { code: 3, message: "e".repeat(65_536) }, "ERROR"),
        // 24 bytes per request: one request past the 1 MiB payload cap.
        (Frame::Submit { requests: vec![request; MAX_FRAME_LEN as usize / 24 + 1] }, "SUBMIT"),
    ];
    for (frame, name) in &cases {
        let err = encode_frame(&mut buf, frame).expect_err(name);
        let typed = match &err {
            ProtocolError::Malformed { frame } => frame == name,
            ProtocolError::FrameTooLarge { len } => *name == "SUBMIT" && *len > MAX_FRAME_LEN,
            _ => false,
        };
        assert!(typed, "{name}: unexpected encode error {err:?}");
        assert_eq!(buf, before, "{name}: a failed encode changed the buffer");
        let mut written = Vec::new();
        assert!(write_frame(&mut written, frame).is_err());
        assert!(written.is_empty(), "{name}: write_frame wrote part of a failed frame");
    }
}

/// Frames whose payloads sit at the edge of `read_frame`'s stack buffer
/// decode equal to the encoded frame on both sides of it — ERROR messages
/// and HELLO_ACK policy names sized to one byte below, at, and one byte
/// above [`INLINE_PAYLOAD_LEN`], and SUBMITs with the most requests that
/// fit and one more. Each is read to exactly its last byte; cut one byte
/// short, it fails as a disconnect without reading past the stream.
#[test]
fn payloads_at_the_inline_buffer_edge_decode_on_both_paths() {
    let edge = INLINE_PAYLOAD_LEN;
    let mut cases: Vec<(Frame, usize)> = Vec::new();
    for len in [edge - 1, edge, edge + 1] {
        // ERROR: tag, code (4), message length (2), message.
        cases.push((Frame::Error { code: 3, message: "e".repeat(len - 7) }, len));
        // HELLO_ACK: tag, version (2), n (4), k (4), name length (1), name.
        let policy = "p".repeat(len - 12);
        cases.push((Frame::HelloAck { version: PROTOCOL_VERSION, n: 8, k: 64, policy }, len));
    }
    // SUBMIT: tag, count (4), 24 bytes per request.
    let fits = (edge - 5) / 24;
    for count in [fits, fits + 1] {
        let requests = (0..count as u64)
            .map(|i| SubmitRequest {
                id: i,
                src_fiber: 1,
                src_wavelength: 2,
                dst_fiber: 3,
                duration: 4,
            })
            .collect();
        cases.push((Frame::Submit { requests }, 5 + 24 * count));
    }
    assert!(5 + 24 * fits <= edge && 5 + 24 * (fits + 1) > edge);

    for (frame, payload_len) in &cases {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, frame).unwrap();
        assert_eq!(bytes.len(), 4 + payload_len, "{frame:?} is not the size under test");
        let mut reader = CountingReader::new(&bytes);
        assert_eq!(read_frame(&mut reader).unwrap(), *frame);
        assert_eq!(reader.consumed(), bytes.len(), "{payload_len}-byte payload not read exactly");
        assert_eq!(decode_counted(&bytes).unwrap(), *frame);
        let short = &bytes[..bytes.len() - 1];
        assert!(matches!(decode_counted(short), Err(ProtocolError::Disconnected)));
    }
}

/// The committed corpus, rebuilt deterministically by `regenerate_corpus`.
/// Every case is a full wire image (length prefix included, possibly lying).
fn corpus_cases() -> Vec<(String, Vec<u8>)> {
    let base_frames: Vec<(&str, Frame)> = vec![
        ("hello", Frame::Hello { version: PROTOCOL_VERSION }),
        (
            "hello_ack",
            Frame::HelloAck { version: PROTOCOL_VERSION, n: 8, k: 64, policy: "bfa".to_owned() },
        ),
        (
            "submit",
            Frame::Submit {
                requests: vec![
                    SubmitRequest {
                        id: 1,
                        src_fiber: 0,
                        src_wavelength: 3,
                        dst_fiber: 1,
                        duration: 2,
                    },
                    SubmitRequest {
                        id: 2,
                        src_fiber: 1,
                        src_wavelength: 0,
                        dst_fiber: 0,
                        duration: 1,
                    },
                ],
            },
        ),
        ("submit_empty", Frame::Submit { requests: vec![] }),
        ("grant", Frame::Grant { slot: 12, seq: 3, id: 7, output_wavelength: 4 }),
        (
            "deny",
            Frame::Deny {
                slot: 12,
                id: 8,
                reason: DenyReason::OutputContention,
                retry_after_slots: 2,
            },
        ),
        ("slot_complete", Frame::SlotComplete { slot: 12 }),
        ("shutdown", Frame::Shutdown),
        (
            "reserve",
            Frame::Reserve {
                request: ReserveRequest {
                    id: 9,
                    src_fiber: 2,
                    src_wavelength: 5,
                    dst_fiber: 3,
                    start_in: 4,
                    duration: 3,
                },
            },
        ),
        ("reserve_ack", Frame::ReserveAck { id: 9, reservation_id: 17, start_slot: 16 }),
        ("release", Frame::Release { reservation_id: 17 }),
        ("error", Frame::Error { code: 3, message: "malformed frame".to_owned() }),
    ];

    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    let mut push = |name: String, bytes: Vec<u8>| cases.push((name, bytes));

    for (name, frame) in &base_frames {
        let mut full = Vec::new();
        write_frame(&mut full, frame).unwrap();

        // Truncations: mid-prefix, tag only, one byte short.
        push(format!("{name}_trunc_prefix"), full[..full.len().min(2)].to_vec());
        if full.len() > 5 {
            push(format!("{name}_trunc_after_tag"), full[..5].to_vec());
        }
        push(format!("{name}_trunc_last"), full[..full.len() - 1].to_vec());

        // Honest one-byte-short payload: prefix rewritten to match the cut.
        if full.len() > 6 {
            let mut short = full[..full.len() - 1].to_vec();
            let len = u32::try_from(short.len() - 4).unwrap();
            short[..4].copy_from_slice(&len.to_le_bytes());
            push(format!("{name}_short_honest"), short);
        }

        // Bit flips: in the prefix, the tag, and the first payload byte.
        for (label, at) in [("prefix", 0usize), ("tag", 4), ("body", 5)] {
            if full.len() > at {
                let mut flipped = full.clone();
                flipped[at] ^= 0x80;
                push(format!("{name}_flip_{label}"), flipped);
            }
        }

        // Length skew: prefix claims one byte more than is present.
        let mut skewed = full.clone();
        let lying = u32::try_from(full.len() - 3).unwrap();
        skewed[..4].copy_from_slice(&lying.to_le_bytes());
        push(format!("{name}_len_plus_one"), skewed);

        // Trailing junk folded into the declared length.
        let mut junked = full.clone();
        junked.push(0xEE);
        let folded = u32::try_from(junked.len() - 4).unwrap();
        junked[..4].copy_from_slice(&folded.to_le_bytes());
        push(format!("{name}_trailing_junk"), junked);
    }

    // Frame-cap probes: over the cap (prefix alone), at the cap with a
    // structurally wrong body, and a cap-sized prefix over a starved body.
    push("cap_plus_one_prefix".to_owned(), (MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
    push("cap_u32_max_prefix".to_owned(), u32::MAX.to_le_bytes().to_vec());
    let mut at_cap = Vec::with_capacity(4 + MAX_FRAME_LEN as usize);
    at_cap.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    at_cap.push(7); // SHUTDOWN tag, then zero padding to exactly the cap
    at_cap.resize(4 + MAX_FRAME_LEN as usize, 0);
    push("cap_padded_shutdown".to_owned(), at_cap);
    let mut starved = MAX_FRAME_LEN.to_le_bytes().to_vec();
    starved.extend_from_slice(&[3, 1, 0, 0]); // claims 1 MiB, ships 4 bytes
    push("cap_starved_body".to_owned(), starved);

    // Version and magic skew on the handshake.
    for version in [0u16, PROTOCOL_VERSION + 1, u16::MAX] {
        let mut v = Vec::new();
        write_frame(&mut v, &Frame::Hello { version }).unwrap();
        push(format!("hello_version_{version}"), v);
    }
    let mut bad_magic = Vec::new();
    write_frame(&mut bad_magic, &Frame::Hello { version: PROTOCOL_VERSION }).unwrap();
    bad_magic[5..9].copy_from_slice(&(MAGIC ^ 0x0101_0101).to_le_bytes());
    push("hello_bad_magic".to_owned(), bad_magic);

    // Unknown tags and the empty frame (12 is the first unassigned tag
    // after RELEASE = 11).
    for tag in [0u8, 12, 0x7F, 0xFF] {
        let mut v = 2u32.to_le_bytes().to_vec();
        v.push(tag);
        v.push(0);
        push(format!("unknown_tag_{tag}"), v);
    }
    push("zero_len_frame".to_owned(), 0u32.to_le_bytes().to_vec());
    push("empty_stream".to_owned(), Vec::new());

    // Out-of-domain fields (7 is the first unassigned deny reason after
    // HorizonExceeded = 6).
    for bad in [0u8, 7, 0xFF] {
        let mut v = Vec::new();
        write_frame(
            &mut v,
            &Frame::Deny { slot: 1, id: 2, reason: DenyReason::QueueFull, retry_after_slots: 0 },
        )
        .unwrap();
        v[4 + 1 + 8 + 8] = bad;
        push(format!("deny_reason_{bad}"), v);
    }
    let mut huge_count = Vec::new();
    huge_count.extend_from_slice(&9u32.to_le_bytes());
    huge_count.push(3); // SUBMIT
    huge_count.extend_from_slice(&u32::MAX.to_le_bytes());
    huge_count.extend_from_slice(&[0, 0, 0, 0]);
    push("submit_count_u32_max".to_owned(), huge_count);

    // String-length overruns and invalid UTF-8.
    let mut ack_overrun = Vec::new();
    ack_overrun.push(2); // HELLO_ACK
    ack_overrun.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    ack_overrun.extend_from_slice(&4u32.to_le_bytes());
    ack_overrun.extend_from_slice(&8u32.to_le_bytes());
    ack_overrun.push(200); // policy claims 200 bytes, none follow
    let mut framed = u32::try_from(ack_overrun.len()).unwrap().to_le_bytes().to_vec();
    framed.extend_from_slice(&ack_overrun);
    push("hello_ack_policy_overrun".to_owned(), framed);

    let mut ack_utf8 = Vec::new();
    ack_utf8.push(2);
    ack_utf8.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    ack_utf8.extend_from_slice(&4u32.to_le_bytes());
    ack_utf8.extend_from_slice(&8u32.to_le_bytes());
    ack_utf8.push(2);
    ack_utf8.extend_from_slice(&[0xFF, 0xFE]);
    let mut framed = u32::try_from(ack_utf8.len()).unwrap().to_le_bytes().to_vec();
    framed.extend_from_slice(&ack_utf8);
    push("hello_ack_bad_utf8".to_owned(), framed);

    let mut err_overrun = Vec::new();
    err_overrun.push(8); // ERROR
    err_overrun.extend_from_slice(&2u32.to_le_bytes());
    err_overrun.extend_from_slice(&u16::MAX.to_le_bytes()); // message claims 64 KiB
    let mut framed = u32::try_from(err_overrun.len()).unwrap().to_le_bytes().to_vec();
    framed.extend_from_slice(&err_overrun);
    push("error_message_overrun".to_owned(), framed);

    cases
}

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Rebuilds `tests/corpus/*.bin` from [`corpus_cases`]. Deterministic; run
/// with `cargo test -p wdm-serve --test decoder_adversarial -- --ignored`.
#[test]
#[ignore = "writes the committed corpus; run explicitly after wire changes"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    // Remove stale cases first: index prefixes and names shift when the
    // wire format grows, and an orphaned file from the old numbering would
    // silently survive the `corpus_matches_generator` check.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "bin") {
            std::fs::remove_file(path).unwrap();
        }
    }
    for (index, (name, bytes)) in corpus_cases().into_iter().enumerate() {
        std::fs::write(dir.join(format!("{index:03}_{name}.bin")), bytes).unwrap();
    }
}

/// Replays every committed corpus file through the counting decoder.
#[test]
fn corpus_never_panics_or_over_reads() {
    let dir = corpus_dir();
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {} missing: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "bin"))
        .collect();
    files.sort();
    assert!(files.len() >= 50, "corpus holds {} frames, need at least 50", files.len());

    let mut rejected = 0usize;
    for path in &files {
        let bytes = std::fs::read(path).unwrap();
        if decode_counted(&bytes).is_err() {
            rejected += 1;
        }
    }
    // The corpus is adversarial: the vast majority of frames must be
    // rejected (a few bit-flips land in don't-care field bits and still
    // decode — that is fine, they exercise the accept path).
    assert!(
        rejected * 10 >= files.len() * 8,
        "only {rejected} of {} corpus frames rejected — corpus has gone stale",
        files.len()
    );
}

/// The committed files must stay in sync with the generator, so a wire
/// format change cannot silently shrink the corpus.
#[test]
fn corpus_matches_generator() {
    let dir = corpus_dir();
    for (index, (name, bytes)) in corpus_cases().into_iter().enumerate() {
        let path = dir.join(format!("{index:03}_{name}.bin"));
        let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("{} unreadable ({e}); re-run regenerate_corpus", path.display())
        });
        assert_eq!(on_disk, bytes, "{} diverges; re-run regenerate_corpus", path.display());
    }
}

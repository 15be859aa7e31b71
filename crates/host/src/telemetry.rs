//! The telemetry wire protocol.
//!
//! The firmware ships two record kinds over the framed radio link:
//!
//! | kind | layout | meaning |
//! |---|---|---|
//! | `T` | `['T', stamp_hi, stamp_lo, code_hi, code_lo, island, level, highlighted]` | periodic state snapshot |
//! | `E` | `['E', stamp_hi, stamp_lo, tag, aux]` | one interaction event |
//!
//! `stamp` is the low 16 bits of the device's tick counter; the host
//! unwraps it into a monotonic tick count (the device ticks every
//! ~10 ms, so 16 bits wrap after ~11 minutes — ordinary telemetry rates
//! see a record far more often than that).

use distscroll_hw::arq::{self, LinkQuality, RxBooks, RxState};
use distscroll_hw::link::{FrameBooks, FrameCarry};

/// Half the 16-bit stamp space: the serial-number-arithmetic horizon.
const STAMP_HALF: u16 = 0x8000;

/// The low 16 bits of the device tick counter that every record carries.
///
/// The stamp wraps every 65536 ticks, so a backwards jump under 32768 is
/// a reordered record, not a wrap. Like [`arq::Seq16`] it therefore has
/// no `Ord` and no arithmetic operators, only the RFC 1982 helpers:
///
/// ```
/// use distscroll_host::telemetry::Stamp16;
///
/// let (late, early) = (Stamp16::new(3), Stamp16::new(65_534));
/// assert!(late.newer_or_equal(early)); // 3 follows 65534 across the wrap
/// assert_eq!(late.distance_from(early), 5);
/// ```
///
/// Raw comparison and subtraction do not compile:
///
/// ```compile_fail,E0369
/// use distscroll_host::telemetry::Stamp16;
/// let stale = Stamp16::new(3) < Stamp16::new(65_534);
/// ```
///
/// ```compile_fail,E0369
/// use distscroll_host::telemetry::Stamp16;
/// let gap = Stamp16::new(3) - Stamp16::new(65_534);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp16(u16);

impl Stamp16 {
    /// Wraps the 16 wire bits of a stamp.
    pub const fn new(raw: u16) -> Stamp16 {
        Stamp16(raw)
    }

    /// The wire value. `clippy.toml` bans it except where a stamp
    /// leaves the wrapping domain (`SessionLog::ingest`'s first record):
    /// order and subtract with the serial helpers.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Forward distance from `from` to `self`, wrapping.
    pub fn distance_from(self, from: Stamp16) -> u16 {
        self.0.wrapping_sub(from.0)
    }

    /// `true` iff `self` is newer than or equal to `other` under serial
    /// arithmetic.
    pub fn newer_or_equal(self, other: Stamp16) -> bool {
        self.distance_from(other) < STAMP_HALF
    }
}

/// A periodic state snapshot from the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRecord {
    /// Low 16 bits of the device tick counter.
    pub stamp: Stamp16,
    /// Filtered ADC code.
    pub code: u16,
    /// Selected island index, or `None` while nothing is selected.
    pub island: Option<u8>,
    /// Menu depth.
    pub level: u8,
    /// Highlighted entry at the current level.
    pub highlighted: u8,
}

/// Event tags as the firmware encodes them (see
/// `distscroll-core::events::Event::wire_tag`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The highlight moved (`aux` = new index).
    Highlight,
    /// A leaf was activated (`aux` = path depth).
    Activated,
    /// A submenu was entered.
    EnteredSubmenu,
    /// The cursor went back up.
    WentBack,
    /// Long-menu page flip towards index 0.
    PageBack,
    /// Long-menu page flip away from index 0.
    PageForward,
    /// The device browned out.
    BrownOut,
}

impl EventKind {
    /// Decodes a wire tag.
    pub fn from_tag(tag: u8) -> Option<EventKind> {
        Some(match tag {
            b'H' => EventKind::Highlight,
            b'A' => EventKind::Activated,
            b'S' => EventKind::EnteredSubmenu,
            b'B' => EventKind::WentBack,
            b'<' => EventKind::PageBack,
            b'>' => EventKind::PageForward,
            b'!' => EventKind::BrownOut,
            _ => return None,
        })
    }
}

/// An interaction event from the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Low 16 bits of the device tick counter.
    pub stamp: Stamp16,
    /// What happened.
    pub kind: EventKind,
    /// Event-specific operand (highlight index, path depth, level).
    pub aux: u8,
}

/// Any telemetry record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A periodic state snapshot.
    State(StateRecord),
    /// An interaction event.
    Event(EventRecord),
}

impl Record {
    /// The record's tick stamp.
    pub fn stamp(&self) -> Stamp16 {
        match self {
            Record::State(s) => s.stamp,
            Record::Event(e) => e.stamp,
        }
    }
}

/// Errors from record parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload was empty.
    Empty,
    /// Unknown record kind byte.
    UnknownKind {
        /// The kind byte received.
        kind: u8,
    },
    /// A record had the wrong length for its kind.
    BadLength {
        /// The kind byte.
        kind: u8,
        /// Bytes received.
        got: usize,
        /// Bytes expected.
        expected: usize,
    },
    /// An event record carried an unknown tag.
    UnknownEventTag {
        /// The tag byte.
        tag: u8,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Empty => write!(f, "empty telemetry payload"),
            ProtocolError::UnknownKind { kind } => {
                write!(f, "unknown telemetry record kind {kind:#04x}")
            }
            ProtocolError::BadLength {
                kind,
                got,
                expected,
            } => write!(
                f,
                "telemetry record {kind:#04x} has {got} bytes, expected {expected}"
            ),
            ProtocolError::UnknownEventTag { tag } => {
                write!(f, "unknown event tag {tag:#04x}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Parses one frame payload into a typed record.
///
/// # Errors
///
/// [`ProtocolError`] on malformed payloads; a corrupted-but-CRC-valid
/// payload cannot occur over the real link, but the host must still
/// never panic on one.
#[inline]
pub fn parse_record(payload: &[u8]) -> Result<Record, ProtocolError> {
    let (&kind, rest) = payload.split_first().ok_or(ProtocolError::Empty)?;
    match kind {
        b'T' => {
            if rest.len() != 7 {
                return Err(ProtocolError::BadLength {
                    kind,
                    got: rest.len(),
                    expected: 7,
                });
            }
            Ok(Record::State(StateRecord {
                stamp: Stamp16::new(u16::from(rest[0]) << 8 | u16::from(rest[1])),
                code: u16::from(rest[2]) << 8 | u16::from(rest[3]),
                island: (rest[4] != 0xff).then_some(rest[4]),
                level: rest[5],
                highlighted: rest[6],
            }))
        }
        b'E' => {
            if rest.len() != 4 {
                return Err(ProtocolError::BadLength {
                    kind,
                    got: rest.len(),
                    expected: 4,
                });
            }
            let tag = rest[2];
            let kind_e = EventKind::from_tag(tag).ok_or(ProtocolError::UnknownEventTag { tag })?;
            Ok(Record::Event(EventRecord {
                stamp: Stamp16::new(u16::from(rest[0]) << 8 | u16::from(rest[1])),
                kind: kind_e,
                aux: rest[3],
            }))
        }
        other => Err(ProtocolError::UnknownKind { kind: other }),
    }
}

/// Every counter one radio stream's decode moves, booked in one place:
/// the frame scan's, the ARQ receiver's and the record parser's.
///
/// [`DecodeState::push_bytes_with`] threads one `&mut DecodeBooks` down
/// the whole path, so a host that decodes many streams can keep a single
/// set of books for all of them and hold each stream's state alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeBooks {
    /// Link-layer frames and bytes.
    pub frames: FrameBooks,
    /// What the ARQ receivers did with the data frames (all zero without
    /// ARQ).
    pub rx: RxBooks,
    /// Records parsed successfully.
    pub records_ok: u64,
    /// Payloads that failed record parsing.
    pub records_bad: u64,
}

/// The decode state of one radio stream, without its counters: the
/// frame decoder's carry and, when the stream carries the ARQ
/// transport, the receiver with its parked ring.
///
/// The receiver parks records already parsed (`Option<Record>`, `None`
/// for a payload that failed to parse and is counted bad when its turn
/// comes), so a duplicate or beyond-window frame is never parsed. The
/// state owns no heap memory until a frame splits across two pushes and
/// the frame decoder's carry takes the unfinished attempt.
#[derive(Debug, Clone, Default)]
pub struct DecodeState {
    frames: FrameCarry,
    arq: Option<RxState<Option<Record>>>,
}

impl DecodeState {
    /// An ARQ-terminating state that attaches to a transmitter already
    /// mid-stream: the receiver adopts the first incoming sequence number
    /// instead of expecting zero (see [`RxState::new_resync`]).
    pub fn with_arq_resync() -> Self {
        DecodeState {
            arq: Some(RxState::new_resync()),
            ..DecodeState::default()
        }
    }

    /// Pushes received bytes, booking every counter the decode moves in
    /// `books` and visiting each completed record in order: frame scan,
    /// then ARQ receive, then [`parse_record`]. This is the one decode
    /// path; it allocates nothing ([`Record`] is `Copy`; frame payloads
    /// are borrowed from the pushed bytes or the frame decoder's carry).
    /// Malformed or CRC-failed frames are counted and skipped.
    pub fn push_bytes_with<F: FnMut(Record)>(
        &mut self,
        bytes: &[u8],
        books: &mut DecodeBooks,
        mut sink: F,
    ) {
        let arq = &mut self.arq;
        let DecodeBooks {
            frames,
            rx,
            records_ok,
            records_bad,
        } = books;
        self.frames.push_with(bytes, frames, |frame| {
            // A failed frame is already booked by the scan.
            let Ok(payload) = frame else {
                return;
            };
            let mut book = |rec: Option<Record>| match rec {
                Some(rec) => {
                    *records_ok += 1;
                    sink(rec);
                }
                None => *records_bad += 1,
            };
            match arq.as_mut() {
                Some(state) => match arq::decode_data(payload) {
                    Some((seq, inner)) => {
                        state.on_data(seq, rx, || parse_record(inner).ok(), book);
                    }
                    None => book(None),
                },
                None => book(parse_record(payload).ok()),
            }
        });
    }
}

/// Stacks record parsing on the link-layer frame decoder: feed raw radio
/// bytes, collect typed records.
///
/// Built with [`StreamDecoder::with_arq`], the decoder additionally
/// terminates the reliable transport: sequence-numbered `'D'` payloads
/// are deduplicated and reordered by an ARQ receiver before their inner
/// records are parsed, and [`StreamDecoder::ack_payload`] yields the
/// acknowledgement to send back to the device.
///
/// A decoder is one stream's [`DecodeState`] with its own
/// [`DecodeBooks`], and pushes through the same
/// [`DecodeState::push_bytes_with`] a fleet shard runs with its shared
/// books.
#[derive(Debug, Clone, Default)]
pub struct StreamDecoder {
    state: DecodeState,
    books: DecodeBooks,
}

impl StreamDecoder {
    /// A fresh decoder for the fire-and-forget protocol.
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// A decoder terminating the ARQ transport: data payloads pass
    /// through dedup + reorder before record parsing.
    pub fn with_arq() -> Self {
        StreamDecoder {
            state: DecodeState {
                arq: Some(RxState::new()),
                ..DecodeState::default()
            },
            books: DecodeBooks::default(),
        }
    }

    /// An ARQ-terminating decoder that attaches to a transmitter already
    /// mid-stream: the receiver adopts the first incoming sequence number
    /// instead of expecting zero (see [`RxState::new_resync`]).
    ///
    /// This is the resume path after host-side session eviction — the
    /// device kept transmitting, only the host forgot where it was.
    pub fn with_arq_resync() -> Self {
        StreamDecoder {
            state: DecodeState::with_arq_resync(),
            books: DecodeBooks::default(),
        }
    }

    /// Whether a [`StreamDecoder::with_arq_resync`] decoder adopted a
    /// mid-stream sequence number. `None` without ARQ; `Some(false)` for
    /// a stream that genuinely started at sequence zero.
    pub fn arq_resynced(&self) -> Option<bool> {
        self.state.arq.as_ref().map(RxState::resynced)
    }

    /// Pushes received bytes, visiting each completed record in order —
    /// the zero-allocation decode of [`DecodeState::push_bytes_with`],
    /// booked in this decoder's own books.
    pub fn push_bytes_with<F: FnMut(Record)>(&mut self, bytes: &[u8], sink: F) {
        self.state.push_bytes_with(bytes, &mut self.books, sink);
    }

    /// Pushes received bytes; returns the records completed by them.
    ///
    /// Owned-`Vec` convenience over [`StreamDecoder::push_bytes_with`].
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Vec<Record> {
        let mut out = Vec::new();
        self.push_bytes_with(bytes, |rec| out.push(rec));
        out
    }

    /// The acknowledgement payload to frame and send back to the device,
    /// when the decoder terminates the ARQ transport.
    pub fn ack_payload(&self) -> Option<[u8; arq::ACK_LEN]> {
        self.state.arq.as_ref().map(RxState::ack_payload)
    }

    /// Receive-side link-quality counters, when the decoder terminates
    /// the ARQ transport.
    pub fn arq_quality(&self) -> Option<LinkQuality> {
        self.state.arq.as_ref().map(|_| self.books.rx.quality())
    }

    /// Records parsed successfully.
    pub fn records_ok(&self) -> u64 {
        self.books.records_ok
    }

    /// Payloads that failed record parsing.
    pub fn records_bad(&self) -> u64 {
        self.books.records_bad
    }

    /// Frames dropped at the link layer for CRC failures (a failed CRC
    /// is the only error the frame decoder reports).
    pub fn crc_failures(&self) -> u64 {
        self.books.frames.frames_bad
    }

    /// Link-layer frames decoded with a valid CRC.
    pub fn link_frames_ok(&self) -> u64 {
        self.books.frames.frames_ok
    }

    /// Link-layer bytes skipped while hunting for sync.
    pub fn link_bytes_skipped(&self) -> u64 {
        self.books.frames.bytes_skipped
    }

    /// Link-layer byte-conservation terms, `(skipped, accepted, pending)`
    /// — see [`FrameDecoder::pending_bytes`](distscroll_hw::link::FrameDecoder::pending_bytes).
    /// The fuzz harness checks that they sum to the bytes pushed.
    pub fn link_byte_accounting(&self) -> (u64, u64, u64) {
        (
            self.books.frames.bytes_skipped,
            self.books.frames.bytes_accepted,
            self.state.frames.pending_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distscroll_hw::link::encode_frame;

    #[test]
    fn state_record_round_trips() {
        let payload = [b'T', 0x12, 0x34, 0x01, 0x42, 3, 1, 5];
        let rec = parse_record(&payload).unwrap();
        assert_eq!(
            rec,
            Record::State(StateRecord {
                stamp: Stamp16::new(0x1234),
                code: 0x0142,
                island: Some(3),
                level: 1,
                highlighted: 5
            })
        );
        assert_eq!(rec.stamp(), Stamp16::new(0x1234));
    }

    #[test]
    fn island_sentinel_decodes_to_none() {
        let payload = [b'T', 0, 0, 0, 0, 0xff, 0, 0];
        let Record::State(s) = parse_record(&payload).unwrap() else {
            panic!("state expected")
        };
        assert_eq!(s.island, None);
    }

    #[test]
    fn event_record_round_trips() {
        let payload = [b'E', 0, 7, b'H', 4];
        let rec = parse_record(&payload).unwrap();
        assert_eq!(
            rec,
            Record::Event(EventRecord {
                stamp: Stamp16::new(7),
                kind: EventKind::Highlight,
                aux: 4
            })
        );
    }

    #[test]
    fn malformed_payloads_error_without_panicking() {
        assert_eq!(parse_record(&[]), Err(ProtocolError::Empty));
        assert_eq!(
            parse_record(&[b'X', 1]),
            Err(ProtocolError::UnknownKind { kind: b'X' })
        );
        assert_eq!(
            parse_record(&[b'T', 1, 2]),
            Err(ProtocolError::BadLength {
                kind: b'T',
                got: 2,
                expected: 7
            })
        );
        assert_eq!(
            parse_record(&[b'E', 0, 0, b'?', 0]),
            Err(ProtocolError::UnknownEventTag { tag: b'?' })
        );
    }

    #[test]
    fn all_firmware_tags_decode() {
        for tag in [b'H', b'A', b'S', b'B', b'<', b'>', b'!'] {
            assert!(EventKind::from_tag(tag).is_some(), "tag {tag}");
        }
    }

    #[test]
    fn arq_decoder_reorders_dedups_and_acks() {
        use distscroll_hw::arq::{ArqClass, ArqTx};
        // The device side queues three records; we scramble and
        // duplicate their wire frames before they reach the host.
        let mut tx = ArqTx::new();
        for stamp in 0..3u8 {
            tx.enqueue(ArqClass::Event, &[b'E', 0, stamp, b'B', 0], 0)
                .unwrap();
        }
        let mut wires: Vec<Vec<u8>> = Vec::new();
        tx.service(0, |w| wires.push(w.to_vec()));
        let mut dec = StreamDecoder::with_arq();
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(&wires[0]));
        stream.extend_from_slice(&encode_frame(&wires[2])); // ahead of a gap
        stream.extend_from_slice(&encode_frame(&wires[1])); // fills the gap
        stream.extend_from_slice(&encode_frame(&wires[0])); // duplicate
        let records = dec.push_bytes(&stream);
        let stamps: Vec<Stamp16> = records.iter().map(Record::stamp).collect();
        assert_eq!(
            stamps,
            [0, 1, 2].map(Stamp16::new),
            "in order, exactly once"
        );
        let q = dec.arq_quality().unwrap();
        assert_eq!(q.delivered, 3);
        assert_eq!(q.duplicates, 1);
        assert_eq!(q.out_of_order, 1);
        // The ack covers all three: cumulative 2, nothing parked.
        let ack = dec.ack_payload().unwrap();
        let (cum, bitmap) = distscroll_hw::arq::decode_ack(&ack).unwrap();
        assert_eq!(cum.distance_from(distscroll_hw::arq::Seq16::ZERO), 2);
        assert_eq!(bitmap, 0);
        tx.on_ack(cum, bitmap);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn resync_decoder_resumes_midstream_without_duplicates() {
        use distscroll_hw::arq::{ArqClass, ArqTx};
        // A device transmits six records; the host decodes the first
        // three, is evicted, and a fresh resync decoder picks up the
        // rest of the stream — no record is lost or double-delivered.
        let mut tx = ArqTx::new();
        let stamps = |dec: &mut StreamDecoder, wires: &[Vec<u8>]| -> Vec<Stamp16> {
            let mut bytes = Vec::new();
            for w in wires {
                bytes.extend_from_slice(&encode_frame(w));
            }
            dec.push_bytes(&bytes).iter().map(Record::stamp).collect()
        };
        for stamp in 0..3u8 {
            tx.enqueue(ArqClass::Event, &[b'E', 0, stamp, b'B', 0], 0)
                .unwrap();
        }
        let mut wires = Vec::new();
        tx.service(0, |w| wires.push(w.to_vec()));
        let mut first = StreamDecoder::with_arq();
        assert_eq!(stamps(&mut first, &wires), [0, 1, 2].map(Stamp16::new));
        let ack = first.ack_payload().unwrap();
        let (cum, bitmap) = distscroll_hw::arq::decode_ack(&ack).unwrap();
        tx.on_ack(cum, bitmap);
        drop(first); // session evicted: receiver state gone
        for stamp in 3..6u8 {
            tx.enqueue(ArqClass::Event, &[b'E', 0, stamp, b'B', 0], 1)
                .unwrap();
        }
        wires.clear();
        tx.service(1, |w| wires.push(w.to_vec()));
        let mut resumed = StreamDecoder::with_arq_resync();
        assert_eq!(stamps(&mut resumed, &wires), [3, 4, 5].map(Stamp16::new));
        assert_eq!(resumed.arq_resynced(), Some(true));
        let q = resumed.arq_quality().unwrap();
        assert_eq!(q.delivered, 3);
        assert_eq!(q.duplicates, 0);
        // A zero-expecting decoder parks the same frames behind a hole
        // (seq 0..2) that will never fill — that is the stall resync
        // fixes.
        let mut stale = StreamDecoder::with_arq();
        assert!(stamps(&mut stale, &wires).is_empty());
    }

    #[test]
    fn plain_decoder_has_no_arq_surface() {
        let dec = StreamDecoder::new();
        assert_eq!(dec.ack_payload(), None);
        assert!(dec.arq_quality().is_none());
    }

    #[test]
    fn stream_decoder_counts_and_collects() {
        let mut dec = StreamDecoder::new();
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_frame(&[b'T', 0, 1, 0, 100, 2, 0, 3]));
        stream.extend_from_slice(&encode_frame(&[b'E', 0, 2, b'A', 1]));
        stream.extend_from_slice(&encode_frame(&[b'Z', 9, 9])); // unknown kind
        let mut bad_crc = encode_frame(&[b'T', 0, 3, 0, 100, 2, 0, 3]);
        let len = bad_crc.len();
        bad_crc[len - 1] ^= 0xff;
        stream.extend_from_slice(&bad_crc);
        let records = dec.push_bytes(&stream);
        assert_eq!(records.len(), 2);
        assert_eq!(dec.records_ok(), 2);
        assert_eq!(dec.records_bad(), 1);
        assert_eq!(dec.crc_failures(), 1);
    }
}

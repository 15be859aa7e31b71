//! Reliable delivery (ARQ) over the lossy radio link.
//!
//! The link layer in [`crate::link`] is fire-and-forget: a dropped frame
//! is simply gone, and a jittered one arrives out of order. That is fine
//! for the paper's debug view but not for the host-side instrumentation,
//! which needs a trustworthy record stream to measure selection times.
//! This module adds a selective-repeat ARQ on top:
//!
//! * every data frame carries a 16-bit sequence number
//!   (`['D', seq_hi, seq_lo, inner...]`),
//! * the host acknowledges with a cumulative ack plus an 8-bit selective
//!   bitmap (`['K', cum_hi, cum_lo, bitmap]`) sent back through the same
//!   [`crate::link::RadioChannel`] model,
//! * the device keeps unacknowledged frames in a bounded retransmit
//!   queue, resending on a timeout with exponential backoff — and
//!   immediately (fast retransmit) when an acknowledgement names a
//!   frame as the receiver's gap,
//! * under sustained loss the queue degrades gracefully *without ever
//!   opening a hole in the sequence space*: a fresh state snapshot
//!   supersedes the oldest queued one in place (same sequence number,
//!   newer contents), while interaction events are never shed (they
//!   expire only after the retry limit, ~1e-10 at 10 % loss).
//!
//! Sequence numbers wrap, so ordering uses serial-number arithmetic
//! (RFC 1982): `a` is newer than `b` iff `a - b (mod 2^16) < 2^15`.
//! This module is the only place raw wire integers become sequence
//! numbers: `Seq16::from_raw` is `pub(crate)`, so the device and host
//! take sequence numbers from [`decode_data`] / [`decode_ack`] and
//! cannot invent sequence state of their own; `clippy.toml` bans
//! `Seq16::raw` outside the wire encoding here, so nothing orders them
//! as plain integers either.

use crate::link::MAX_PAYLOAD;
use crate::HwError;

/// Tag byte of a sequence-numbered data frame payload.
pub const DATA_TAG: u8 = b'D';
/// Tag byte of an acknowledgement frame payload.
pub const ACK_TAG: u8 = b'K';
/// Bytes of ARQ header in front of every data payload.
pub const DATA_HEADER_LEN: usize = 3;
/// Length of an acknowledgement payload.
pub const ACK_LEN: usize = 4;
/// Longest inner record a data payload can carry and still fit a wire
/// frame with the ARQ header in front.
pub const MAX_DATA_INNER: usize = MAX_PAYLOAD - DATA_HEADER_LEN;
/// How many sequence numbers past the cumulative ack the selective
/// bitmap (and so the receiver's reorder window) covers.
pub const WINDOW: u16 = 8;

/// Half the sequence space: the serial-number-arithmetic horizon.
const SERIAL_HALF: u16 = 0x8000;

/// A wrapping 16-bit sequence number, ordered by serial-number
/// arithmetic (RFC 1982).
///
/// Code outside this crate gets sequence numbers from the wire decoders
/// and compares them with the serial helpers:
///
/// ```
/// use distscroll_hw::arq::decode_data;
///
/// let (a, _) = decode_data(&[b'D', 0xff, 0xff, 1]).unwrap();
/// let (b, _) = decode_data(&[b'D', 0x00, 0x01, 1]).unwrap();
/// assert!(b.newer_or_equal(a)); // 1 follows 65535 across the wrap
/// assert_eq!(b.distance_from(a), 2);
/// ```
///
/// It cannot build one from a raw integer:
///
/// ```compile_fail,E0624
/// let seq = distscroll_hw::arq::Seq16::from_raw(7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Seq16(u16);

impl Seq16 {
    /// The first sequence number both ends of a fresh link agree on.
    pub const ZERO: Seq16 = Seq16(0);

    /// Wraps a raw wire integer into a sequence number. Crate-private:
    /// device and host code receive sequence numbers from
    /// [`decode_data`] / [`decode_ack`] and never construct their own.
    pub(crate) fn from_raw(raw: u16) -> Seq16 {
        Seq16(raw)
    }

    /// The raw wire value. `clippy.toml` bans it outside the wire
    /// encoding: raw `<` or `-` misorders at the wrap, so order and
    /// subtract with [`Seq16::newer_or_equal`] / [`Seq16::distance_from`].
    pub fn raw(self) -> u16 {
        self.0
    }

    /// The next sequence number, wrapping.
    #[must_use]
    pub fn next(self) -> Seq16 {
        Seq16(self.0.wrapping_add(1))
    }

    /// Forward distance from `from` to `self`, wrapping.
    pub fn distance_from(self, from: Seq16) -> u16 {
        self.0.wrapping_sub(from.0)
    }

    /// `true` iff `self` is newer than or equal to `other` under serial
    /// arithmetic.
    pub fn newer_or_equal(self, other: Seq16) -> bool {
        self.distance_from(other) < SERIAL_HALF
    }
}

/// What a queued record is, for shedding priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArqClass {
    /// An interaction event — never shed; losing one corrupts the
    /// reconstructed session.
    Event,
    /// A periodic state snapshot — droppable; the next one supersedes
    /// it.
    State,
}

/// Link-quality counters, accumulated by both ends of the ARQ.
///
/// The transmit side fills `sent`/`retransmitted`/`acked`/`expired`/
/// `shed_state`; the receive side fills `delivered`/`duplicates`/
/// `out_of_order`. [`LinkQuality::merge`] folds several sessions (or the
/// two halves of one) together for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkQuality {
    /// Data frames handed to the radio, including retransmissions.
    pub sent: u64,
    /// Data frames sent more than once.
    pub retransmitted: u64,
    /// Queue entries released by an acknowledgement.
    pub acked: u64,
    /// Queue entries dropped after exhausting the retry budget.
    pub expired: u64,
    /// State snapshots shed to make room in the bounded queue.
    pub shed_state: u64,
    /// Records released to the application in order.
    pub delivered: u64,
    /// Data frames discarded as already-delivered copies.
    pub duplicates: u64,
    /// Data frames that arrived ahead of a gap.
    pub out_of_order: u64,
}

impl LinkQuality {
    /// Adds another counter set into this one, field by field.
    pub fn merge(&mut self, other: &LinkQuality) {
        self.sent += other.sent;
        self.retransmitted += other.retransmitted;
        self.acked += other.acked;
        self.expired += other.expired;
        self.shed_state += other.shed_state;
        self.delivered += other.delivered;
        self.duplicates += other.duplicates;
        self.out_of_order += other.out_of_order;
    }
}

/// Splits a data payload into its sequence number and inner record.
///
/// Returns `None` for anything that is not a well-formed data payload;
/// corrupted-but-CRC-valid payloads cannot occur by chance over the real
/// link, but a forged frame can carry any content, so the bounds are
/// strict rather than delegated to caller framing:
///
/// * a header-only payload (no inner record — `len == DATA_HEADER_LEN`)
///   is rejected: the transmitter never produces one
///   ([`ArqTx::enqueue`] requires a non-empty record), so accepting it
///   would deliver a fabricated empty record to the application;
/// * an inner record longer than [`MAX_DATA_INNER`] is rejected: it
///   cannot have come out of a wire frame.
#[inline]
pub fn decode_data(payload: &[u8]) -> Option<(Seq16, &[u8])> {
    match payload {
        [DATA_TAG, hi, lo, inner @ ..] if !inner.is_empty() && inner.len() <= MAX_DATA_INNER => {
            Some((Seq16::from_raw(u16::from(*hi) << 8 | u16::from(*lo)), inner))
        }
        _ => None,
    }
}

/// Splits an ack payload into its cumulative sequence number and
/// selective bitmap.
///
/// Exactly [`ACK_LEN`] bytes: oversize payloads are rejected even if
/// they begin with a well-formed ack — trailing bytes mean the payload
/// is not what the receiver built, and guessing at its meaning is how
/// parsers get confused.
pub fn decode_ack(payload: &[u8]) -> Option<(Seq16, u8)> {
    if payload.len() != ACK_LEN {
        return None;
    }
    match payload {
        [ACK_TAG, hi, lo, bitmap] => Some((
            Seq16::from_raw(u16::from(*hi) << 8 | u16::from(*lo)),
            *bitmap,
        )),
        _ => None,
    }
}

/// One unacknowledged data frame in the retransmit queue.
#[derive(Debug, Clone)]
struct Pending {
    seq: Seq16,
    class: ArqClass,
    /// The full data payload, header included, ready to re-send.
    wire: Vec<u8>,
    /// Transmissions so far (0 = not yet on the air).
    tries: u8,
    /// Tick at which the next (re)transmission is due.
    due_tick: u64,
}

/// Device-side ARQ transmitter: a bounded retransmit queue with timeout
/// and exponential backoff.
#[derive(Debug, Clone)]
pub struct ArqTx {
    next_seq: Seq16,
    /// Pending frames in sequence order (oldest first).
    pending: Vec<Pending>,
    /// Recycled payload buffers so steady-state traffic stops
    /// allocating once capacities have warmed up.
    spare: Vec<Vec<u8>>,
    /// Queue bound for *state* records; events may exceed it (they are
    /// bounded by the retry budget instead, never shed).
    capacity: usize,
    /// Ticks before the first retransmission of a frame.
    base_timeout_ticks: u64,
    /// Retransmissions before a frame expires.
    max_retries: u8,
    quality: LinkQuality,
}

impl Default for ArqTx {
    fn default() -> Self {
        ArqTx::new()
    }
}

impl ArqTx {
    /// Queue bound used by [`ArqTx::new`].
    pub const DEFAULT_CAPACITY: usize = 32;
    /// First-retransmission timeout used by [`ArqTx::new`], in ticks.
    pub const DEFAULT_TIMEOUT_TICKS: u64 = 8;
    /// Retry budget used by [`ArqTx::new`]. At 10 % frame loss the
    /// probability of losing all 1 + 10 transmissions is 1e-11.
    pub const DEFAULT_MAX_RETRIES: u8 = 10;

    /// A transmitter with the default queue bound, timeout and retry
    /// budget.
    pub fn new() -> Self {
        ArqTx {
            next_seq: Seq16::ZERO,
            pending: Vec::new(),
            spare: Vec::new(),
            capacity: Self::DEFAULT_CAPACITY,
            base_timeout_ticks: Self::DEFAULT_TIMEOUT_TICKS,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            quality: LinkQuality::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn quality(&self) -> LinkQuality {
        self.quality
    }

    /// Frames currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The earliest tick at which any pending frame wants service —
    /// first transmission, retransmission, or expiry. `None` with an
    /// empty queue. Calling [`ArqTx::service`] before it is a guaranteed
    /// no-op (the scan only compares `due_tick`s), so the firmware tick
    /// skips the call entirely.
    pub fn next_due_tick(&self) -> Option<u64> {
        self.pending.iter().map(|p| p.due_tick).min()
    }

    /// Queues one inner record payload for reliable delivery.
    ///
    /// Returns the sequence number carrying the record, or `None` if it
    /// was shed. A full queue must never create a hole in the sequence
    /// space — the receiver releases records strictly in order, so a
    /// sequence number that will never arrive would stall it forever.
    /// Degradation therefore works by *superseding*: a state snapshot
    /// arriving at a full queue overwrites the oldest queued snapshot in
    /// place, riding its already-assigned sequence number (the old
    /// contents are shed, the stream stays gapless). Only a snapshot that
    /// never receives a sequence number may be dropped outright — a
    /// state newcomer to a queue holding nothing but events. Interaction
    /// events are never shed and never evict: the queue stretches for
    /// them and the retry budget bounds their lifetime.
    ///
    /// # Errors
    ///
    /// [`HwError::LinkFraming`], with nothing queued and no counter
    /// moved, if the inner payload would not fit a wire frame with the
    /// ARQ header in front, or is empty: [`decode_data`] rejects
    /// header-only frames (an attacker's favorite), so an empty record
    /// would be silently unreceivable — and burn a sequence number the
    /// receiver waits on forever.
    #[expect(
        clippy::disallowed_methods,
        reason = "wire encoding: the raw value is the header's two bytes"
    )]
    pub fn enqueue(
        &mut self,
        class: ArqClass,
        inner: &[u8],
        now_tick: u64,
    ) -> Result<Option<Seq16>, HwError> {
        if inner.is_empty() {
            return Err(HwError::LinkFraming {
                reason: "empty record cannot be delivered",
            });
        }
        if inner.len() > MAX_DATA_INNER {
            return Err(HwError::LinkFraming {
                reason: "record too long for an arq data frame",
            });
        }
        if self.pending.len() >= self.capacity && class == ArqClass::State {
            if let Some(oldest_state) = self.pending.iter().position(|p| p.class == ArqClass::State)
            {
                let p = &mut self.pending[oldest_state];
                p.wire.truncate(DATA_HEADER_LEN);
                p.wire.extend_from_slice(inner);
                self.quality.shed_state += 1;
                return Ok(Some(p.seq));
            }
            self.quality.shed_state += 1;
            return Ok(None);
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.next();
        let mut wire = self.spare.pop().unwrap_or_default();
        wire.clear();
        wire.push(DATA_TAG);
        wire.push((seq.raw() >> 8) as u8);
        wire.push((seq.raw() & 0xff) as u8);
        wire.extend_from_slice(inner);
        self.pending.push(Pending {
            seq,
            class,
            wire,
            tries: 0,
            due_tick: now_tick,
        });
        Ok(Some(seq))
    }

    /// Transmits every frame that is due at `now_tick`, visiting each
    /// wire payload once, and expires frames past the retry budget.
    ///
    /// First transmissions go out on the tick they were queued; each
    /// retransmission backs off exponentially (timeout × 2^tries, capped
    /// at 2^6) so a dead link does not stay saturated with repeats.
    pub fn service<F: FnMut(&[u8])>(&mut self, now_tick: u64, mut send: F) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].due_tick > now_tick {
                i += 1;
                continue;
            }
            if self.pending[i].tries > self.max_retries {
                let dead = self.pending.remove(i);
                self.recycle(dead.wire);
                self.quality.expired += 1;
                continue;
            }
            let p = &mut self.pending[i];
            send(&p.wire);
            self.quality.sent += 1;
            if p.tries > 0 {
                self.quality.retransmitted += 1;
            }
            let backoff = self.base_timeout_ticks << u64::from(p.tries.min(6));
            p.due_tick = now_tick + backoff;
            p.tries += 1;
            i += 1;
        }
    }

    /// Releases every frame the acknowledgement covers: all sequence
    /// numbers at or before `cum` (serially), plus `cum + 2 + i` for
    /// each set bit `i` of the selective `bitmap`.
    ///
    /// An already-sent frame inside the receiver's window that the
    /// acknowledgement does *not* cover is the receiver naming its gap:
    /// that frame is lost, not late. It is rescheduled for immediate
    /// retransmission (fast retransmit) instead of waiting out its
    /// backoff, and its retry budget is refreshed — the acknowledgement
    /// proves the link is alive, so expiry (which abandons a sequence
    /// number and stalls the receiver on the hole) stays reserved for a
    /// link that has actually gone dead.
    pub fn on_ack(&mut self, cum: Seq16, bitmap: u8) {
        let mut i = 0;
        while i < self.pending.len() {
            let seq = self.pending[i].seq;
            let ahead = seq.distance_from(cum);
            let covered = cum.newer_or_equal(seq)
                || ((2..2 + WINDOW).contains(&ahead) && bitmap >> (ahead - 2) & 1 == 1);
            if covered {
                let done = self.pending.remove(i);
                self.recycle(done.wire);
                self.quality.acked += 1;
            } else {
                let p = &mut self.pending[i];
                if (1..2 + WINDOW).contains(&ahead) && p.tries > 0 {
                    p.due_tick = 0;
                    p.tries = 1;
                }
                i += 1;
            }
        }
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if self.spare.len() < self.capacity {
            self.spare.push(buf);
        }
    }
}

/// Host-side ARQ receiver: releases records in order exactly once and
/// produces acknowledgements.
///
/// The receiver is generic over what it parks: the host parks parsed
/// records, byte-level harnesses park the inner bytes (`Vec<u8>`) or
/// nothing at all (`()`). [`ArqRx::on_data`] takes a `make` closure
/// that builds the value only for a frame that is delivered or parked,
/// so duplicates and beyond-window frames are never parsed or copied.
///
/// An `ArqRx` is an [`RxState`] (the sequence state and a handle to a
/// parked ring), the [`RingStore`] the ring lives in and the [`RxBooks`]
/// it books into. A caller that keeps many receivers in one place holds
/// the states alone and passes its own store and books to
/// [`RxState::on_data`], which is the one receive path.
#[derive(Debug)]
pub struct ArqRx<T> {
    state: RxState,
    rings: RingStore<T>,
    books: RxBooks,
}

/// Receive-side counters: what [`RxState::on_data`] did with every data
/// frame it was handed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RxBooks {
    /// Records released to the application in order.
    pub delivered: u64,
    /// Data frames discarded as already-delivered copies.
    pub duplicates: u64,
    /// Data frames that arrived ahead of a gap.
    pub out_of_order: u64,
    /// Receivers that adopted a mid-stream sequence number (see
    /// [`RxState::new_resync`]): at most one per receiver.
    pub resyncs: u64,
}

impl RxBooks {
    /// The receive-side [`LinkQuality`] fields (`delivered`,
    /// `duplicates`, `out_of_order`); the transmit-side ones are zero.
    pub fn quality(&self) -> LinkQuality {
        LinkQuality {
            delivered: self.delivered,
            duplicates: self.duplicates,
            out_of_order: self.out_of_order,
            ..LinkQuality::default()
        }
    }
}

/// How a receiver judges its first data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SyncState {
    /// Waiting to adopt the first frame's sequence number.
    AwaitFirst,
    /// Judging every frame against `expected`.
    Locked,
    /// Locked, after adoption moved `expected` off [`Seq16::ZERO`].
    Resynced,
}

/// The handle of no ring: the receiver has nothing parked.
const NO_RING: u32 = u32::MAX;

/// One receiver's parked records: slot `seq % WINDOW` holds the record
/// parked under `seq`.
type Ring<T> = [Option<T>; WINDOW as usize];

/// The state of an ARQ receiver, without its counters: the next
/// expected sequence number, how the first frame is judged, and the
/// handle of the ring its out-of-order records wait in.
///
/// Out-of-order records wait in a ring of [`WINDOW`] slots, indexed by
/// `seq % WINDOW`. Parked sequence numbers always lie in
/// `expected + 1 ..= expected + WINDOW`, eight consecutive numbers, so
/// no two share a slot (and 2^16 is a multiple of `WINDOW`, so the index
/// survives the wrap): an occupied slot *is* the duplicate check, and
/// release walks the ring from `expected`. The ring is an entry of a
/// [`RingStore`] that the caller owns and passes to every call: the
/// receiver takes one when a frame first parks and gives it back the
/// moment its last parked record is released, so an in-order stream
/// never touches the store, and whether anything is parked is a handle
/// check. The state itself is 8 bytes, whatever it parks.
///
/// A state must always be used with the store its ring came from, and
/// [`RxState::release`] gives the ring back when the receiver is
/// dropped; a state dropped while it parks leaves its entry taken.
#[derive(Debug)]
pub struct RxState {
    /// Next sequence number to release.
    expected: Seq16,
    /// How the next frame is judged; see [`SyncState`].
    sync: SyncState,
    /// The receiver's entry in its [`RingStore`], or [`NO_RING`] while
    /// nothing is parked.
    ring: u32,
}

/// Parked rings for any number of [`RxState`]s, reused through a free
/// list.
///
/// Entry 0 lives inline, so one receiver parks without allocating;
/// further entries grow a table once and are recycled from then on. A
/// released entry is cleared (its parked records dropped) before it goes
/// back on the free list, so the next receiver to take it starts empty.
#[derive(Debug)]
pub struct RingStore<T> {
    /// Entry 0.
    first: Ring<T>,
    /// Whether entry 0 is free.
    first_free: bool,
    /// Entries 1.., as `more[handle - 1]`.
    more: Vec<Ring<T>>,
    /// Free entries of `more`. Its capacity keeps up with `more`, so a
    /// release never allocates.
    free: Vec<u32>,
}

impl<T> Default for ArqRx<T> {
    fn default() -> Self {
        ArqRx::new()
    }
}

impl Default for RxState {
    fn default() -> Self {
        RxState::new()
    }
}

impl<T> Default for RingStore<T> {
    fn default() -> Self {
        RingStore::new()
    }
}

/// The ring slot a sequence number parks in.
fn ring_slot(seq: Seq16) -> usize {
    usize::from(seq.0 % WINDOW)
}

impl<T> RingStore<T> {
    /// A store with every entry free and nothing allocated.
    pub fn new() -> Self {
        RingStore {
            first: [const { None }; WINDOW as usize],
            first_free: true,
            more: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Entries taken by a receiver and not yet given back.
    pub fn in_use(&self) -> usize {
        usize::from(!self.first_free) + self.more.len() - self.free.len()
    }

    /// Takes a free, empty entry, growing the table if none is free.
    fn take(&mut self) -> u32 {
        if self.first_free {
            self.first_free = false;
            return 0;
        }
        if let Some(handle) = self.free.pop() {
            return handle;
        }
        self.more.push([const { None }; WINDOW as usize]);
        self.free.reserve(self.more.len() - self.free.len());
        let handle = self.more.len();
        assert!(handle < NO_RING as usize, "ring handles run out at NO_RING");
        handle as u32
    }

    fn ring(&self, handle: u32) -> &Ring<T> {
        match handle {
            0 => &self.first,
            h => &self.more[h as usize - 1],
        }
    }

    fn ring_mut(&mut self, handle: u32) -> &mut Ring<T> {
        match handle {
            0 => &mut self.first,
            h => &mut self.more[h as usize - 1],
        }
    }

    /// Clears entry `handle` and puts it back on the free list.
    fn give_back(&mut self, handle: u32) {
        self.ring_mut(handle).fill_with(|| None);
        match handle {
            0 => self.first_free = true,
            h => self.free.push(h),
        }
    }
}

impl RxState {
    /// A receiver expecting a fresh transmitter's first frame.
    pub fn new() -> Self {
        RxState {
            expected: Seq16::ZERO,
            sync: SyncState::Locked,
            ring: NO_RING,
        }
    }

    /// A receiver that adopts the first incoming frame's sequence number
    /// as its own `expected`, then behaves exactly like [`RxState::new`].
    ///
    /// This is the resume path for a session whose receiver state was
    /// discarded mid-stream: the transmitter is somewhere past zero, and
    /// a zero-expecting receiver would count its entire backlog window as
    /// serially-old duplicates. Adopting the first live sequence re-syncs
    /// without replaying or double-delivering anything — frames the old
    /// receiver already delivered were acked and will not be resent.
    pub fn new_resync() -> Self {
        RxState {
            sync: SyncState::AwaitFirst,
            ..RxState::new()
        }
    }

    /// Whether a [`RxState::new_resync`] receiver adopted a mid-stream
    /// sequence number (false for a fresh stream starting at zero, and
    /// always false for [`RxState::new`] receivers).
    pub fn resynced(&self) -> bool {
        self.sync == SyncState::Resynced
    }

    /// Accepts one data frame's sequence number, booking what happened
    /// to it in `books`; `make` builds the value its inner record stands
    /// for, and `rings` is the store this receiver parks in.
    ///
    /// In-order records (and any parked records they unblock) are handed
    /// to `deliver` immediately; future records within the reorder
    /// window are parked; duplicates are counted and dropped. Records
    /// beyond the window are ignored — never acked, the transmitter
    /// resends them once the window has moved. `make` runs only for a
    /// record that is delivered or parked.
    pub fn on_data<T>(
        &mut self,
        seq: Seq16,
        rings: &mut RingStore<T>,
        books: &mut RxBooks,
        make: impl FnOnce() -> T,
        mut deliver: impl FnMut(T),
    ) {
        if self.sync == SyncState::AwaitFirst {
            self.sync = if seq == self.expected {
                SyncState::Locked
            } else {
                books.resyncs += 1;
                self.expected = seq;
                SyncState::Resynced
            };
        }
        let ahead = seq.distance_from(self.expected);
        if ahead >= SERIAL_HALF {
            // Serially older than `expected`: already delivered.
            books.duplicates += 1;
            return;
        }
        if ahead == 0 {
            deliver(make());
            books.delivered += 1;
            self.expected = self.expected.next();
            if self.ring == NO_RING {
                return;
            }
            // Release the records the filled gap unblocks.
            let ring = rings.ring_mut(self.ring);
            while let Some(rec) = ring[ring_slot(self.expected)].take() {
                deliver(rec);
                books.delivered += 1;
                self.expected = self.expected.next();
            }
            if ring.iter().all(Option::is_none) {
                rings.give_back(self.ring);
                self.ring = NO_RING;
            }
            return;
        }
        books.out_of_order += 1;
        if ahead > WINDOW {
            return;
        }
        if self.ring == NO_RING {
            self.ring = rings.take();
        }
        match &mut rings.ring_mut(self.ring)[ring_slot(seq)] {
            Some(_) => books.duplicates += 1,
            slot => *slot = Some(make()),
        }
    }

    /// Gives the receiver's ring back to `rings`, dropping whatever it
    /// still parks: call it when the receiver is retired. The receiver
    /// parks nothing afterwards.
    pub fn release<T>(&mut self, rings: &mut RingStore<T>) {
        if self.ring != NO_RING {
            rings.give_back(self.ring);
            self.ring = NO_RING;
        }
    }

    /// The acknowledgement payload describing everything received so
    /// far: cumulative ack of the last in-order record, plus a bitmap of
    /// records parked in `rings` ahead of the gap (bit `k - 1` for
    /// `expected + k`).
    #[expect(
        clippy::disallowed_methods,
        reason = "wire encoding: the raw value is the ack's two bytes"
    )]
    pub fn ack_payload<T>(&self, rings: &RingStore<T>) -> [u8; ACK_LEN] {
        let cum = Seq16::from_raw(self.expected.raw().wrapping_sub(1));
        let mut bitmap = 0u8;
        if self.ring != NO_RING {
            let ring = rings.ring(self.ring);
            let mut seq = self.expected;
            for bit in 0..WINDOW {
                seq = seq.next();
                if ring[ring_slot(seq)].is_some() {
                    bitmap |= 1 << bit;
                }
            }
        }
        [
            ACK_TAG,
            (cum.raw() >> 8) as u8,
            (cum.raw() & 0xff) as u8,
            bitmap,
        ]
    }
}

impl<T> ArqRx<T> {
    /// A receiver expecting a fresh transmitter's first frame.
    pub fn new() -> Self {
        ArqRx {
            state: RxState::new(),
            rings: RingStore::new(),
            books: RxBooks::default(),
        }
    }

    /// A receiver that adopts the first incoming frame's sequence number
    /// (see [`RxState::new_resync`]).
    pub fn new_resync() -> Self {
        ArqRx {
            state: RxState::new_resync(),
            ..ArqRx::new()
        }
    }

    /// Whether a [`ArqRx::new_resync`] receiver adopted a mid-stream
    /// sequence number (false for a fresh stream starting at zero, and
    /// always false for [`ArqRx::new`] receivers).
    pub fn resynced(&self) -> bool {
        self.state.resynced()
    }

    /// Counters accumulated so far: the receive-side fields
    /// (`delivered`, `duplicates`, `out_of_order`); the transmit-side
    /// ones are zero.
    pub fn quality(&self) -> LinkQuality {
        self.books.quality()
    }

    /// Accepts one data frame's sequence number; `make` builds the value
    /// its inner record stands for (see [`RxState::on_data`]).
    pub fn on_data(&mut self, seq: Seq16, make: impl FnOnce() -> T, deliver: impl FnMut(T)) {
        self.state
            .on_data(seq, &mut self.rings, &mut self.books, make, deliver);
    }

    /// The acknowledgement payload describing everything received so
    /// far (see [`RxState::ack_payload`]).
    pub fn ack_payload(&self) -> [u8; ACK_LEN] {
        self.state.ack_payload(&self.rings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds one frame's record bytes to a byte-parking receiver.
    fn feed(rx: &mut ArqRx<Vec<u8>>, seq: Seq16, inner: &[u8], got: &mut Vec<Vec<u8>>) {
        rx.on_data(seq, || inner.to_vec(), |rec| got.push(rec));
    }

    fn pump(
        tx: &mut ArqTx,
        rx: &mut ArqRx<Vec<u8>>,
        now: u64,
        drop_nth: Option<usize>,
    ) -> Vec<Vec<u8>> {
        let mut delivered = Vec::new();
        let mut n = 0;
        tx.service(now, |wire| {
            let keep = drop_nth != Some(n);
            n += 1;
            if keep {
                let (seq, inner) = decode_data(wire).unwrap();
                feed(rx, seq, inner, &mut delivered);
            }
        });
        let (cum, bitmap) = decode_ack(&rx.ack_payload()).unwrap();
        tx.on_ack(cum, bitmap);
        delivered
    }

    #[test]
    fn resync_receiver_adopts_midstream_sequence() {
        let mut rx = ArqRx::new_resync();
        let mut got = Vec::new();
        // First frame lands at seq 500: a zero-expecting receiver would
        // drop it as serially old; the resync receiver adopts it.
        feed(&mut rx, Seq16::from_raw(500), b"a", &mut got);
        feed(&mut rx, Seq16::from_raw(501), b"b", &mut got);
        assert_eq!(got, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(rx.resynced());
        assert_eq!(rx.quality().delivered, 2);
        assert_eq!(rx.quality().duplicates, 0);
    }

    #[test]
    fn resync_receiver_on_fresh_stream_is_plain_receiver() {
        let mut rx = ArqRx::new_resync();
        let mut got = Vec::new();
        feed(&mut rx, Seq16::ZERO, b"a", &mut got);
        // A duplicate of the first frame is still deduplicated: adoption
        // happens once, on the very first frame only.
        feed(&mut rx, Seq16::ZERO, b"a", &mut got);
        assert_eq!(got.len(), 1);
        assert!(!rx.resynced());
        assert_eq!(rx.quality().duplicates, 1);
    }

    #[test]
    fn resync_receiver_dedups_after_adoption() {
        let mut rx = ArqRx::new_resync();
        let mut got = Vec::new();
        feed(&mut rx, Seq16::from_raw(77), b"x", &mut got);
        feed(&mut rx, Seq16::from_raw(77), b"x", &mut got);
        feed(&mut rx, Seq16::from_raw(76), b"w", &mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(rx.quality().duplicates, 2);
    }

    #[test]
    fn seq_serial_ordering_wraps() {
        let a = Seq16::from_raw(0xfffe);
        let b = a.next().next(); // wraps to 0
        assert_eq!(b, Seq16::ZERO);
        assert!(b.newer_or_equal(a));
        assert!(!a.newer_or_equal(b));
        assert_eq!(b.distance_from(a), 2);
    }

    #[test]
    fn data_and_ack_payloads_round_trip() {
        let mut tx = ArqTx::new();
        let seq = tx.enqueue(ArqClass::Event, b"rec", 0).unwrap().unwrap();
        let mut wires = Vec::new();
        tx.service(0, |w| wires.push(w.to_vec()));
        let (got_seq, inner) = decode_data(&wires[0]).unwrap();
        assert_eq!(got_seq, seq);
        assert_eq!(inner, b"rec");
        assert_eq!(decode_data(b"X123"), None);
        assert_eq!(decode_data(b""), None);

        let rx = ArqRx::<()>::new();
        let ack = rx.ack_payload();
        let (cum, bitmap) = decode_ack(&ack).unwrap();
        assert_eq!(cum, Seq16::from_raw(0xffff), "nothing delivered yet");
        assert_eq!(bitmap, 0);
        assert_eq!(decode_ack(b"K12"), None);
    }

    #[test]
    fn decode_data_bounds_every_off_by_one() {
        // Too short: no tag, tag only, tag + half a sequence number.
        assert_eq!(decode_data(&[]), None);
        assert_eq!(decode_data(&[DATA_TAG]), None);
        assert_eq!(decode_data(&[DATA_TAG, 0x00]), None);
        // Header-only (len == DATA_HEADER_LEN): a forged frame carrying
        // no record must not deliver a fabricated empty record.
        assert_eq!(decode_data(&[DATA_TAG, 0x01, 0x02]), None);
        // Smallest real data payload: header + 1 record byte.
        let (seq, inner) = decode_data(&[DATA_TAG, 0x01, 0x02, 0xee]).unwrap();
        assert_eq!(seq, Seq16::from_raw(0x0102));
        assert_eq!(inner, &[0xee]);
        // Largest payload that fits a wire frame...
        let mut max = vec![DATA_TAG, 0x00, 0x00];
        max.extend(std::iter::repeat_n(0xabu8, MAX_DATA_INNER));
        assert_eq!(max.len(), MAX_PAYLOAD);
        let (_, inner) = decode_data(&max).unwrap();
        assert_eq!(inner.len(), MAX_DATA_INNER);
        // ...and one byte past it.
        max.push(0xab);
        assert_eq!(decode_data(&max), None);
        // Wrong tag at the right length.
        assert_eq!(decode_data(&[ACK_TAG, 0x00, 0x00, 0xee]), None);
    }

    #[test]
    fn decode_ack_bounds_every_off_by_one() {
        assert_eq!(decode_ack(&[]), None);
        assert_eq!(decode_ack(&[ACK_TAG]), None);
        assert_eq!(decode_ack(&[ACK_TAG, 0x00]), None);
        assert_eq!(decode_ack(&[ACK_TAG, 0x00, 0x05]), None);
        let (cum, bitmap) = decode_ack(&[ACK_TAG, 0x00, 0x05, 0b101]).unwrap();
        assert_eq!(cum, Seq16::from_raw(5));
        assert_eq!(bitmap, 0b101);
        // Oversize: a well-formed ack with trailing bytes is rejected.
        assert_eq!(decode_ack(&[ACK_TAG, 0x00, 0x05, 0b101, 0x00]), None);
        // Wrong tag at the right length.
        assert_eq!(decode_ack(&[DATA_TAG, 0x00, 0x05, 0b101]), None);
    }

    #[test]
    fn enqueue_refuses_empty_and_oversize_records() {
        let mut tx = ArqTx::new();
        assert!(matches!(
            tx.enqueue(ArqClass::Event, b"", 0),
            Err(HwError::LinkFraming { .. })
        ));
        assert!(matches!(
            tx.enqueue(ArqClass::State, &[0; MAX_DATA_INNER + 1], 0),
            Err(HwError::LinkFraming { .. })
        ));
        // Nothing was queued and no sequence number was spent.
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.quality(), LinkQuality::default());
        let seq = tx.enqueue(ArqClass::Event, &[0; MAX_DATA_INNER], 0);
        assert_eq!(seq, Ok(Some(Seq16::ZERO)));
    }

    #[test]
    fn clean_exchange_delivers_once_and_empties_the_queue() {
        let mut tx = ArqTx::new();
        let mut rx = ArqRx::new();
        for i in 0..5u8 {
            tx.enqueue(ArqClass::State, &[i], u64::from(i)).unwrap();
        }
        let delivered = pump(&mut tx, &mut rx, 5, None);
        assert_eq!(delivered, vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.quality().acked, 5);
        assert_eq!(rx.quality().delivered, 5);
        assert_eq!(rx.quality().duplicates, 0);
    }

    #[test]
    fn lost_frame_is_retransmitted_and_gap_filled_in_order() {
        let mut tx = ArqTx::new();
        let mut rx = ArqRx::new();
        for i in 0..3u8 {
            tx.enqueue(ArqClass::Event, &[i], 0).unwrap();
        }
        // First pass: the middle frame is lost on the air.
        let delivered = pump(&mut tx, &mut rx, 0, Some(1));
        assert_eq!(delivered, vec![vec![0]]);
        assert_eq!(rx.quality().out_of_order, 1);
        assert_eq!(tx.in_flight(), 1, "ack + bitmap released 0 and 2");
        // After the timeout the lost frame goes out again and unblocks
        // the parked one.
        let delivered = pump(&mut tx, &mut rx, ArqTx::DEFAULT_TIMEOUT_TICKS, None);
        assert_eq!(delivered, vec![vec![1], vec![2]]);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.quality().retransmitted, 1);
    }

    #[test]
    fn duplicates_are_dropped_exactly_once_semantics() {
        let mut tx = ArqTx::new();
        let mut rx = ArqRx::new();
        tx.enqueue(ArqClass::Event, b"x", 0).unwrap();
        let mut wires = Vec::new();
        tx.service(0, |w| wires.push(w.to_vec()));
        let (seq, _) = decode_data(&wires[0]).unwrap();
        let mut got = 0;
        rx.on_data(seq, || (), |()| got += 1);
        rx.on_data(seq, || (), |()| got += 1); // the ack was lost; tx resent
        assert_eq!(got, 1);
        assert_eq!(rx.quality().duplicates, 1);
    }

    #[test]
    fn backoff_spaces_out_retransmissions() {
        let mut tx = ArqTx::new();
        tx.enqueue(ArqClass::Event, b"x", 0).unwrap();
        let mut sent_at = Vec::new();
        // No acks ever arrive; watch when the frame goes to the radio.
        for now in 0..20_000 {
            tx.service(now, |_| sent_at.push(now));
        }
        assert!(sent_at.len() >= 3);
        let gap1 = sent_at[1] - sent_at[0];
        let gap2 = sent_at[2] - sent_at[1];
        assert_eq!(gap1, ArqTx::DEFAULT_TIMEOUT_TICKS);
        assert_eq!(gap2, 2 * ArqTx::DEFAULT_TIMEOUT_TICKS);
        // Exhausts the retry budget and expires rather than retrying
        // forever.
        assert_eq!(
            sent_at.len(),
            usize::from(ArqTx::DEFAULT_MAX_RETRIES) + 1,
            "1 + max_retries transmissions"
        );
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(tx.quality().expired, 1);
    }

    #[test]
    fn ack_gap_triggers_fast_retransmit_and_refreshes_the_budget() {
        let mut tx = ArqTx::new();
        for i in 0..3u8 {
            tx.enqueue(ArqClass::Event, &[i], 0).unwrap();
        }
        let mut n = 0;
        tx.service(0, |_| n += 1);
        assert_eq!(n, 3);
        // The host holds 0 and 2; the bitmap names seq 1 as the gap.
        tx.on_ack(Seq16::from_raw(0), 1);
        assert_eq!(tx.in_flight(), 1);
        // The gap frame goes out on the very next service tick — no
        // timeout wait.
        let mut resent = Vec::new();
        tx.service(1, |w| resent.push(w.to_vec()));
        assert_eq!(resent.len(), 1);
        let (seq, inner) = decode_data(&resent[0]).unwrap();
        assert_eq!((seq, inner), (Seq16::from_raw(1), &[1u8][..]));
        assert_eq!(tx.quality().retransmitted, 1);
        // Gap acks keep arriving: the retry budget refreshes each time,
        // so the frame outlives what the raw budget would allow — the
        // link is demonstrably up, and expiring the frame would stall
        // the receiver on the hole forever.
        for k in 0..3 * u64::from(ArqTx::DEFAULT_MAX_RETRIES) {
            tx.on_ack(Seq16::from_raw(0), 0);
            tx.service(2 + k, |_| {});
        }
        assert_eq!(tx.in_flight(), 1);
        assert_eq!(tx.quality().expired, 0);
    }

    #[test]
    fn full_queue_supersedes_oldest_state_in_place_never_events() {
        let mut tx = ArqTx::new();
        let s0 = tx.enqueue(ArqClass::State, b"s0", 0).unwrap().unwrap();
        for i in 0..ArqTx::DEFAULT_CAPACITY - 1 {
            tx.enqueue(ArqClass::Event, &[i as u8], 0).unwrap().unwrap();
        }
        assert_eq!(tx.in_flight(), ArqTx::DEFAULT_CAPACITY);
        // The queue is full: a fresh snapshot takes over the oldest
        // queued snapshot's sequence number — no hole opens.
        let s1 = tx.enqueue(ArqClass::State, b"s1", 0).unwrap().unwrap();
        assert_eq!(s1, s0, "the superseding snapshot rides the old seq");
        assert_eq!(tx.in_flight(), ArqTx::DEFAULT_CAPACITY);
        assert_eq!(tx.quality().shed_state, 1);
        let mut first = Vec::new();
        tx.service(0, |w| {
            if first.is_empty() {
                first.extend_from_slice(w);
            }
        });
        let (seq, inner) = decode_data(&first).unwrap();
        assert_eq!((seq, inner), (s0, &b"s1"[..]), "new contents, old seq");
        // Events never shed and never evict — the queue stretches.
        assert!(tx.enqueue(ArqClass::Event, b"e", 0).unwrap().is_some());
        assert_eq!(tx.in_flight(), ArqTx::DEFAULT_CAPACITY + 1);
        // A queue holding nothing but events sheds an arriving snapshot
        // outright — it never got a sequence number, so no hole either.
        let mut all_events = ArqTx::new();
        for i in 0..ArqTx::DEFAULT_CAPACITY {
            all_events
                .enqueue(ArqClass::Event, &[i as u8], 0)
                .unwrap()
                .unwrap();
        }
        assert_eq!(all_events.enqueue(ArqClass::State, b"s", 0), Ok(None));
        assert_eq!(all_events.quality().shed_state, 1);
    }

    #[test]
    fn superseding_states_leaves_no_hole_for_the_receiver() {
        // Regression: shedding used to *remove* the oldest state entry,
        // orphaning its sequence number — the receiver then stalled on
        // the gap forever and delivery collapsed under sustained loss.
        let mut tx = ArqTx::new();
        let mut rx = ArqRx::new();
        for i in 0..100u8 {
            tx.enqueue(ArqClass::State, &[i], 0).unwrap();
        }
        assert_eq!(tx.in_flight(), ArqTx::DEFAULT_CAPACITY);
        let delivered = pump(&mut tx, &mut rx, 0, None);
        // Every queued frame is released in one in-order burst: the
        // sequence space is contiguous, nothing stalls.
        assert_eq!(delivered.len(), ArqTx::DEFAULT_CAPACITY);
        assert_eq!(tx.in_flight(), 0);
        assert_eq!(rx.quality().delivered as usize, ArqTx::DEFAULT_CAPACITY);
        assert_eq!(rx.quality().out_of_order, 0);
    }

    #[test]
    fn sequence_space_wrap_survives_a_long_session() {
        let mut tx = ArqTx::new();
        let mut rx = ArqRx::new();
        let mut delivered = 0u64;
        // 70_000 records: well past the 16-bit sequence wrap.
        for i in 0..70_000u64 {
            tx.enqueue(ArqClass::State, &i.to_be_bytes(), i).unwrap();
            if i % 4 == 3 {
                let mut expect = i - 3;
                tx.service(i, |w| {
                    let (seq, inner) = decode_data(w).unwrap();
                    rx.on_data(
                        seq,
                        || inner.to_vec(),
                        |rec| {
                            assert_eq!(rec, expect.to_be_bytes());
                            expect += 1;
                            delivered += 1;
                        },
                    );
                });
                let (cum, bitmap) = decode_ack(&rx.ack_payload()).unwrap();
                tx.on_ack(cum, bitmap);
            }
        }
        assert_eq!(delivered, 70_000, "every batch of 4 flushes completely");
        assert_eq!(rx.quality().duplicates, 0);
    }

    #[test]
    fn far_future_frames_are_ignored_not_parked() {
        let mut rx = ArqRx::new();
        let mut got = 0;
        rx.on_data(Seq16::from_raw(40), || panic!("never built"), |()| got += 1);
        assert_eq!(got, 0);
        assert_eq!(rx.quality().out_of_order, 1);
        let (_, bitmap) = decode_ack(&rx.ack_payload()).unwrap();
        assert_eq!(bitmap, 0, "beyond-window frames are not acked");
    }

    #[test]
    fn quality_merge_adds_fields() {
        let mut a = LinkQuality {
            sent: 1,
            retransmitted: 2,
            acked: 3,
            expired: 4,
            shed_state: 5,
            delivered: 6,
            duplicates: 7,
            out_of_order: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.sent, 2);
        assert_eq!(a.out_of_order, 16);
    }
}

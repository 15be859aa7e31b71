//! The radio link from the DistScroll device to the host PC.
//!
//! The authors chose a "self contained interaction device that can be
//! wirelessly linked to a PC" over a tethered prototype, because "a device
//! connected by wire to a PC would have been used less freely and would
//! detract the user's attention" (paper, Section 3.2). The link carries
//! telemetry (sensor values, selection events, debug state) to the host.
//!
//! The model has three layers:
//!
//! * [`crc16_ccitt`] — the checksum, table-driven,
//! * [`encode_frame`] / [`FrameDecoder`] — framing: two sync bytes, a
//!   length byte, the payload and a 16-bit CRC; the decoder scans whole
//!   slices and resynchronizes so a corrupted frame only costs itself,
//! * [`RadioChannel`] — the air: packet drops, bit errors, latency and
//!   jitter, all seeded and deterministic.

use std::collections::VecDeque;

use rand::Rng;

use crate::clock::{SimDuration, SimInstant};
use crate::HwError;

/// First sync byte of every frame.
pub const SYNC1: u8 = 0xaa;
/// Second sync byte of every frame.
pub const SYNC2: u8 = 0x55;
/// Maximum payload length per frame.
pub const MAX_PAYLOAD: usize = 255;

/// Initial value of the CRC-16-CCITT register.
const CRC16_INIT: u16 = 0xffff;

/// CRC-16-CCITT (polynomial 0x1021, init 0xFFFF, no reflection, no
/// final XOR: the CRC-16/CCITT-FALSE parameters), table-driven.
///
/// Slicing-by-16 (Kounavis & Berry, ISCC 2005): sixteen bytes per step
/// through sixteen independent table lookups, and a tail of 2–15 bytes
/// in one more step of the same kind. A frame body (length byte and
/// payload) of up to 16 bytes therefore costs a single step.
#[inline]
pub fn crc16_ccitt(bytes: &[u8]) -> u16 {
    let mut blocks = bytes.chunks_exact(CRC16_BLOCK);
    let mut crc = CRC16_INIT;
    for block in &mut blocks {
        crc = crc16_fold::<CRC16_BLOCK>(crc, block);
    }
    // One arm per tail length, so every fold is unrolled with its
    // tables fixed.
    let tail = blocks.remainder();
    match tail.len() {
        0 => crc,
        1 => (crc << 8) ^ CRC16_TABLES[0][usize::from((crc >> 8) as u8 ^ tail[0])],
        2 => crc16_fold::<2>(crc, tail),
        3 => crc16_fold::<3>(crc, tail),
        4 => crc16_fold::<4>(crc, tail),
        5 => crc16_fold::<5>(crc, tail),
        6 => crc16_fold::<6>(crc, tail),
        7 => crc16_fold::<7>(crc, tail),
        8 => crc16_fold::<8>(crc, tail),
        9 => crc16_fold::<9>(crc, tail),
        10 => crc16_fold::<10>(crc, tail),
        11 => crc16_fold::<11>(crc, tail),
        12 => crc16_fold::<12>(crc, tail),
        13 => crc16_fold::<13>(crc, tail),
        14 => crc16_fold::<14>(crc, tail),
        _ => crc16_fold::<15>(crc, tail),
    }
}

/// Bytes one step of [`crc16_ccitt`] folds: one table per position.
const CRC16_BLOCK: usize = 16;

/// Folds the `N` (2 to [`CRC16_BLOCK`]) bytes of `bytes` into the
/// register in one step.
///
/// With at least two bytes the register shifts out completely, so it
/// acts as an XOR into the first two bytes; by linearity the result is
/// then the sum of each byte's table entry for its distance from the
/// end, and every lookup is independent of the others.
#[inline(always)]
fn crc16_fold<const N: usize>(crc: u16, bytes: &[u8]) -> u16 {
    let [hi, lo] = crc.to_be_bytes();
    let mut acc = CRC16_TABLES[N - 1][usize::from(bytes[0] ^ hi)]
        ^ CRC16_TABLES[N - 2][usize::from(bytes[1] ^ lo)];
    for k in 2..N {
        acc ^= CRC16_TABLES[N - 1 - k][usize::from(bytes[k])];
    }
    acc
}

/// `CRC16_TABLES[k][b]` is the register, started from zero, after byte
/// `b` and then `k` zero bytes.
static CRC16_TABLES: [[u16; 256]; CRC16_BLOCK] = crc16_tables();

const fn crc16_tables() -> [[u16; 256]; CRC16_BLOCK] {
    let mut t = [[0u16; 256]; CRC16_BLOCK];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc16_ccitt_step(0, b as u8);
        b += 1;
    }
    let mut k = 1;
    while k < CRC16_BLOCK {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Folds one byte into a CRC-16-CCITT register a bit at a time: the
/// definition the tables are built from and the tests' reference.
const fn crc16_ccitt_step(mut crc: u16, byte: u8) -> u16 {
    crc ^= (byte as u16) << 8;
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 0x8000 != 0 {
            (crc << 1) ^ 0x1021
        } else {
            crc << 1
        };
        bit += 1;
    }
    crc
}

/// Encodes one payload into a wire frame.
///
/// # Errors
///
/// [`HwError::LinkFraming`] if the payload exceeds [`MAX_PAYLOAD`]
/// bytes; split longer telemetry across frames instead.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, HwError> {
    let mut frame = Vec::with_capacity(payload.len() + 5);
    encode_frame_into(payload, &mut frame)?;
    Ok(frame)
}

/// Encodes one payload into a wire frame, appending to `out`.
///
/// `out` is cleared first; with a recycled buffer of sufficient capacity
/// this performs no heap allocation.
///
/// # Errors
///
/// [`HwError::LinkFraming`], with `out` untouched, if the payload
/// exceeds [`MAX_PAYLOAD`] bytes; split longer telemetry across frames
/// instead.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) -> Result<(), HwError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(HwError::LinkFraming {
            reason: "payload too long for one frame",
        });
    }
    out.clear();
    out.push(SYNC1);
    out.push(SYNC2);
    out.push(payload.len() as u8);
    out.extend_from_slice(payload);
    // The CRC covers the length byte as well as the payload: a bit flip
    // in the length would otherwise truncate (or extend) the payload and
    // pair it with CRC bytes computed for different content — and a
    // truncated payload whose tail happens to survive as the CRC bytes
    // would be accepted.
    let crc = crc16_ccitt(&out[2..]);
    out.push((crc >> 8) as u8);
    out.push((crc & 0xff) as u8);
    Ok(())
}

/// Longest frame on the wire: sync pair, length byte, payload and CRC.
const MAX_FRAME: usize = MAX_PAYLOAD + 5;

/// Host-side frame decoder: feed it byte slices, get frames (or CRC
/// errors) out.
///
/// A frame that lies wholly inside one pushed slice is checked with one
/// CRC pass and its payload is lent straight from that slice. A failed
/// CRC consumes only the attempt's sync pair: a corrupted length byte can
/// swallow a legitimate frame that started *inside* the attempt, so the
/// scan resumes two bytes in. Only an attempt split across two pushes is
/// copied, into a carry of at most `MAX_FRAME - 1` bytes.
///
/// The decoder is a [`FrameCarry`] (its state), the [`CarryStore`] its
/// carried bytes live in and the [`FrameBooks`] it books into. A caller
/// that keeps many streams in one place holds the carries alone and
/// passes its own store and books to [`FrameCarry::push_with`], the same
/// scan this type runs.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    carry: FrameCarry,
    carries: CarryStore,
    books: FrameBooks,
}

/// What frame decoding decided, counted: every frame and every pushed
/// byte lands in exactly one of these (or is still pending in a carry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameBooks {
    /// Frames decoded with a valid CRC.
    pub frames_ok: u64,
    /// Frames rejected for a failed CRC.
    pub frames_bad: u64,
    /// Bytes skipped while hunting for sync, including the sync pair of
    /// every frame attempt that failed its CRC.
    pub bytes_skipped: u64,
    /// Bytes consumed by CRC-valid frames (sync pair, length byte,
    /// payload and both CRC bytes: `5 + len` per frame).
    pub bytes_accepted: u64,
}

/// Most bytes a carry holds between pushes: an undecided attempt is
/// shorter than the longest frame.
const CARRY_MAX: usize = MAX_FRAME - 1;

/// The handle of no carry: nothing is held back.
const NO_CARRY: u32 = u32::MAX;

/// The state of a frame decoder, without its counters: the handle of
/// the entry that holds the undecided tail of the stream so far (a lone
/// `SYNC1`, or a sync pair and the part of its frame that has arrived).
///
/// The entry belongs to a [`CarryStore`] that the caller owns and passes
/// to every call. The carry takes one only when a push ends inside a
/// frame attempt and gives it back as soon as a later push decides the
/// attempt, so the state is a 4-byte handle and a stream whose pushes
/// end on frame boundaries never touches the store. A carry must always
/// be used with the store its entry came from; [`FrameCarry::release`]
/// gives the entry back when the stream is dropped.
#[derive(Debug)]
pub struct FrameCarry {
    /// The carry's entry in its [`CarryStore`], or [`NO_CARRY`].
    held: u32,
}

/// One carried attempt: its first `len` bytes are held.
#[derive(Debug)]
struct Held {
    len: u16,
    bytes: [u8; CARRY_MAX],
}

/// Carried frame attempts for any number of [`FrameCarry`]s, each at
/// most `MAX_FRAME - 1` bytes, reused through a free list: the table
/// grows to the most attempts ever held at once and stops allocating.
#[derive(Debug, Default)]
pub struct CarryStore {
    held: Vec<Held>,
    /// Free entries of `held`. Its capacity keeps up with `held`, so a
    /// release never allocates.
    free: Vec<u32>,
}

impl CarryStore {
    /// Entries taken by a carry and not yet given back.
    pub fn in_use(&self) -> usize {
        self.held.len() - self.free.len()
    }

    /// Takes an entry holding `bytes`, at most [`CARRY_MAX`] of them.
    fn take(&mut self, bytes: &[u8]) -> u32 {
        let handle = match self.free.pop() {
            Some(handle) => handle,
            None => {
                let handle = self.held.len();
                assert!(
                    handle < NO_CARRY as usize,
                    "carry handles run out at NO_CARRY"
                );
                self.held.push(Held {
                    len: 0,
                    bytes: [0; CARRY_MAX],
                });
                self.free.reserve(self.held.len() - self.free.len());
                handle as u32
            }
        };
        self.set(handle, bytes);
        handle
    }

    /// Overwrites entry `handle` with `bytes`, at most [`CARRY_MAX`].
    fn set(&mut self, handle: u32, bytes: &[u8]) {
        let held = &mut self.held[handle as usize];
        held.bytes[..bytes.len()].copy_from_slice(bytes);
        // At most `CARRY_MAX`, which fits a `u16`.
        held.len = bytes.len() as u16;
    }

    fn bytes(&self, handle: u32) -> &[u8] {
        let held = &self.held[handle as usize];
        &held.bytes[..usize::from(held.len)]
    }

    /// Empties entry `handle` and puts it back on the free list.
    fn give_back(&mut self, handle: u32) {
        self.held[handle as usize].len = 0;
        self.free.push(handle);
    }
}

impl Default for FrameCarry {
    fn default() -> Self {
        FrameCarry { held: NO_CARRY }
    }
}

impl FrameCarry {
    /// Bytes held back in `carries`: the frame attempt still waiting for
    /// its tail.
    pub fn pending_bytes(&self, carries: &CarryStore) -> u64 {
        match self.held {
            NO_CARRY => 0,
            h => carries.bytes(h).len() as u64,
        }
    }

    /// Gives the carry's entry back to `carries`, dropping the attempt it
    /// holds: call it when the stream is retired.
    pub fn release(&mut self, carries: &mut CarryStore) {
        if self.held != NO_CARRY {
            carries.give_back(self.held);
            self.held = NO_CARRY;
        }
    }

    /// Pushes received bytes, booking every decision into `books` and
    /// visiting every frame they complete in stream order: `Ok(payload)`
    /// for a valid CRC, `Err(_)` for a failed one. An attempt the push
    /// leaves undecided waits in `carries`.
    ///
    /// Payloads are lent from `bytes` (or, for a frame split across
    /// pushes, from a copy on the stack), so decoding performs no heap
    /// allocation once `carries` has grown to the most attempts held at
    /// once. How the stream is split into pushes changes nothing: the
    /// frames and counters are those of one push of the whole stream.
    pub fn push_with<F: FnMut(Result<&[u8], HwError>)>(
        &mut self,
        mut bytes: &[u8],
        carries: &mut CarryStore,
        books: &mut FrameBooks,
        mut sink: F,
    ) {
        if self.held != NO_CARRY {
            // Every attempt that starts inside the carry is decided by at
            // most `CARRY_MAX` more bytes, so join that much to it and
            // resume the input where the join's decisions end.
            let carried = carries.bytes(self.held);
            let held = carried.len();
            let top = bytes.len().min(CARRY_MAX);
            let mut buf = [0u8; 2 * CARRY_MAX];
            buf[..held].copy_from_slice(carried);
            buf[held..held + top].copy_from_slice(&bytes[..top]);
            let joined = &buf[..held + top];
            let stop = scan(joined, books, &mut sink);
            if stop < held {
                // Still undecided, so the input was short and all of it
                // is in the join already.
                carries.set(self.held, &joined[stop..]);
                return;
            }
            self.release(carries);
            bytes = &bytes[stop - held..];
        }
        let stop = scan(bytes, books, &mut sink);
        if stop < bytes.len() {
            self.held = carries.take(&bytes[stop..]);
        }
    }
}

impl FrameDecoder {
    /// A decoder waiting for the first sync byte.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Frames decoded with a valid CRC since creation.
    pub fn frames_ok(&self) -> u64 {
        self.books.frames_ok
    }

    /// Frames rejected (bad CRC) since creation.
    pub fn frames_bad(&self) -> u64 {
        self.books.frames_bad
    }

    /// Bytes skipped while hunting for sync (including the sync pair of
    /// every frame attempt that failed its CRC).
    pub fn bytes_skipped(&self) -> u64 {
        self.books.bytes_skipped
    }

    /// Bytes consumed by CRC-valid frames (sync pair, length byte,
    /// payload and both CRC bytes — `5 + len` per frame).
    pub fn bytes_accepted(&self) -> u64 {
        self.books.bytes_accepted
    }

    /// Bytes held inside the decoder: the frame attempt still waiting
    /// for its tail.
    ///
    /// Every pushed byte is accounted for exactly once:
    /// `pushed == bytes_skipped() + bytes_accepted() + pending_bytes()`.
    /// The fuzz harness asserts this conservation law against a reference
    /// decoder after every input.
    pub fn pending_bytes(&self) -> u64 {
        self.carry.pending_bytes(&self.carries)
    }

    /// Pushes received bytes, visiting every frame they complete in
    /// stream order (see [`FrameCarry::push_with`]).
    pub fn push_with<F: FnMut(Result<&[u8], HwError>)>(&mut self, bytes: &[u8], sink: F) {
        self.carry
            .push_with(bytes, &mut self.carries, &mut self.books, sink);
    }

    /// Pushes a whole received burst, collecting completed frames and
    /// errors in order. Owned-`Vec` convenience over
    /// [`FrameDecoder::push_with`].
    pub fn push_all(&mut self, bytes: &[u8]) -> Vec<Result<Vec<u8>, HwError>> {
        let mut out = Vec::new();
        self.push_with(bytes, |r| out.push(r.map(<[u8]>::to_vec)));
        out
    }
}

/// Decodes every frame attempt that `buf` decides, in stream order, and
/// returns the index of the first undecided byte: a trailing lone
/// `SYNC1`, or the start of a frame whose tail is not in `buf`.
fn scan<F: FnMut(Result<&[u8], HwError>)>(
    buf: &[u8],
    books: &mut FrameBooks,
    sink: &mut F,
) -> usize {
    let mut i = 0;
    while let Some(off) = buf[i..].iter().position(|&b| b == SYNC1) {
        books.bytes_skipped += off as u64;
        i += off;
        match buf.get(i + 1) {
            None => return i,
            Some(&SYNC2) => {}
            Some(_) => {
                // Not a sync pair: the SYNC1 is spent, and the next byte
                // may start a pair itself.
                books.bytes_skipped += 1;
                i += 1;
                continue;
            }
        }
        let Some(&len) = buf.get(i + 2) else {
            return i;
        };
        let Some(frame) = buf.get(i..i + 5 + usize::from(len)) else {
            return i;
        };
        // The CRC covers the length byte and the payload.
        let (body, wire) = frame[2..].split_at(1 + usize::from(len));
        let expected = u16::from(wire[0]) << 8 | u16::from(wire[1]);
        let actual = crc16_ccitt(body);
        if expected == actual {
            books.frames_ok += 1;
            books.bytes_accepted += frame.len() as u64;
            i += frame.len();
            sink(Ok(&body[1..]));
        } else {
            // Only the sync pair is consumed for good: the rest of the
            // attempt may hold an embedded frame start.
            books.frames_bad += 1;
            books.bytes_skipped += 2;
            i += 2;
            sink(Err(HwError::LinkCrc { expected, actual }));
        }
    }
    books.bytes_skipped += (buf.len() - i) as u64;
    buf.len()
}

/// Statistical model of the air between device and host.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioChannel {
    /// Probability that a transmitted frame is lost entirely.
    pub drop_probability: f64,
    /// Probability that any single transported bit flips.
    pub bit_error_rate: f64,
    /// Fixed propagation plus processing latency.
    pub base_latency: SimDuration,
    /// Uniform extra latency in `0..jitter`.
    pub jitter: SimDuration,
    /// Air bit rate (19.2 kbit/s, a typical short-range module of the era).
    pub bit_rate: u64,
}

impl RadioChannel {
    /// A clean bench-distance channel: no loss, no bit errors, 2 ms base
    /// latency.
    pub fn clean() -> Self {
        RadioChannel {
            drop_probability: 0.0,
            bit_error_rate: 0.0,
            base_latency: SimDuration::from_millis(2),
            jitter: SimDuration::ZERO,
            bit_rate: 19_200,
        }
    }

    /// A lossy channel with the given frame-drop probability and bit error
    /// rate.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `0.0..=1.0`.
    pub fn lossy(drop_probability: f64, bit_error_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability out of range"
        );
        assert!(
            (0.0..=1.0).contains(&bit_error_rate),
            "bit error rate out of range"
        );
        RadioChannel {
            drop_probability,
            bit_error_rate,
            ..RadioChannel::clean()
        }
    }

    /// Time on air for `len` bytes (10 bits per byte with start/stop).
    pub fn airtime(&self, len: usize) -> SimDuration {
        SimDuration::from_micros(len as u64 * 10 * 1_000_000 / self.bit_rate)
    }

    /// Transmits a wire frame at `now`.
    ///
    /// Returns `None` if the frame was dropped, otherwise the arrival time
    /// and the (possibly bit-corrupted) bytes the host receives.
    pub fn transmit<R: Rng + ?Sized>(
        &self,
        frame: &[u8],
        now: SimInstant,
        rng: &mut R,
    ) -> Option<(SimInstant, Vec<u8>)> {
        let mut bytes = frame.to_vec();
        self.transmit_in_place(&mut bytes, now, rng)
            .map(|arrival| (arrival, bytes))
    }

    /// Transmits the wire frame in `buf` at `now`, mutating it in place.
    ///
    /// Same channel model as [`RadioChannel::transmit`] — identical RNG
    /// draw order, so seeded runs produce identical streams — but bit
    /// errors are applied to `buf` directly and no buffer is allocated.
    /// Returns `None` if the frame was dropped, otherwise the arrival
    /// time; `buf` then holds the (possibly corrupted) received bytes.
    pub fn transmit_in_place<R: Rng + ?Sized>(
        &self,
        buf: &mut [u8],
        now: SimInstant,
        rng: &mut R,
    ) -> Option<SimInstant> {
        if self.drop_probability > 0.0 && rng.gen_bool(self.drop_probability) {
            return None;
        }
        if self.bit_error_rate > 0.0 {
            for b in buf.iter_mut() {
                for bit in 0..8 {
                    if rng.gen_bool(self.bit_error_rate) {
                        *b ^= 1 << bit;
                    }
                }
            }
        }
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.gen_range(0..self.jitter.as_micros()))
        };
        Some(now + self.airtime(buf.len()) + self.base_latency + jitter)
    }
}

impl Default for RadioChannel {
    fn default() -> Self {
        RadioChannel::clean()
    }
}

/// Two-state Gilbert–Elliott burst-loss process.
///
/// The channel sits in a *good* state (low loss) or a *bad* state (deep
/// fade, high loss) with geometric sojourn times — the standard model for
/// the bursty errors a moving short-range radio sees, as opposed to the
/// independent per-frame losses of [`RadioChannel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame probability of entering the bad state.
    pub p_good_to_bad: f64,
    /// Per-frame probability of leaving the bad state.
    pub p_bad_to_good: f64,
    /// Frame-loss probability while good.
    pub loss_good: f64,
    /// Frame-loss probability while bad.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// No fading, no loss.
    pub fn clean() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 1.0,
            loss_good: 0.0,
            loss_bad: 0.0,
        }
    }

    /// A typical bursty short-range radio: long clean stretches broken by
    /// short fades (mean fade ~4 frames) that lose most frames.
    pub fn bursty() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.25,
            loss_good: 0.005,
            loss_bad: 0.6,
        }
    }
}

/// Running totals of what an [`AdversarialChannel`] did to the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdversarialStats {
    /// Frames offered by the sender.
    pub offered: u64,
    /// Delivery callbacks issued (including duplicates and forgeries).
    pub delivered: u64,
    /// Frames swallowed by the loss process.
    pub lost: u64,
    /// Extra copies injected by duplication storms.
    pub duplicated: u64,
    /// Frames held back for out-of-order release.
    pub reordered: u64,
    /// Frames replaced by a CRC-valid truncated forgery.
    pub forged: u64,
}

/// The air with an adversary on it.
///
/// Extends the [`RadioChannel`] fault model with burst loss
/// ([`GilbertElliott`]), duplication storms, reordering deeper than the
/// ARQ window, and *malicious* frames: truncations re-framed with a valid
/// CRC-16, which no amount of checksumming catches. The fuzz harness and
/// the adversarial goodput benchmark drive full `ArqTx`↔`ArqRx` sessions
/// through this model.
///
/// Unlike `RadioChannel` this model is framed in decisions, not time:
/// [`AdversarialChannel::transmit`] invokes `deliver` zero or more times
/// per offered frame. All randomness comes from the caller's seeded RNG,
/// so sessions are deterministic and replayable from a printed seed.
#[derive(Debug, Clone)]
pub struct AdversarialChannel {
    /// The burst-loss process.
    pub ge: GilbertElliott,
    /// Probability that any single transported bit flips.
    pub bit_error_rate: f64,
    /// Probability a delivered frame is immediately repeated; re-checked
    /// after each copy, so storms of several duplicates occur.
    pub dup_probability: f64,
    /// Probability a frame is held back and released out of order.
    pub reorder_probability: f64,
    /// Held-back frames are force-released (oldest first) once more than
    /// this many are waiting; set above the ARQ window of 8 to exercise
    /// arrivals from beyond it.
    pub reorder_depth: usize,
    /// Probability a frame is replaced by a truncated copy re-framed with
    /// a valid CRC — a forgery, not noise. Nonzero values break the
    /// delivered-prefix oracle by design; see DESIGN.md §12.
    pub truncate_probability: f64,
    in_bad_state: bool,
    held: VecDeque<Vec<u8>>,
    stats: AdversarialStats,
}

impl AdversarialChannel {
    /// A channel with the given loss process and no other impairments.
    pub fn new(ge: GilbertElliott) -> Self {
        AdversarialChannel {
            ge,
            bit_error_rate: 0.0,
            dup_probability: 0.0,
            reorder_probability: 0.0,
            reorder_depth: 12,
            truncate_probability: 0.0,
            in_bad_state: false,
            held: VecDeque::new(),
            stats: AdversarialStats::default(),
        }
    }

    /// An *honest but nasty* channel: burst loss, bit errors, duplication
    /// storms and deep reordering — everything the air can do, nothing an
    /// attacker must. Under this preset ARQ delivery oracles must hold.
    pub fn harsh() -> Self {
        AdversarialChannel {
            bit_error_rate: 0.0005,
            dup_probability: 0.2,
            reorder_probability: 0.1,
            ..AdversarialChannel::new(GilbertElliott::bursty())
        }
    }

    /// A hostile channel: [`AdversarialChannel::harsh`] plus CRC-valid
    /// truncation forgeries. Delivery oracles are void; the decoders must
    /// merely stay sane (no panic, counters conserved).
    pub fn hostile() -> Self {
        AdversarialChannel {
            truncate_probability: 0.05,
            ..AdversarialChannel::harsh()
        }
    }

    /// What the channel has done so far.
    pub fn stats(&self) -> AdversarialStats {
        self.stats
    }

    /// Frames currently held back for reordering.
    pub fn held_frames(&self) -> usize {
        self.held.len()
    }

    /// Offers one wire frame to the channel; `deliver` is called zero or
    /// more times with the bytes that actually arrive.
    pub fn transmit<R: Rng + ?Sized, F: FnMut(&[u8])>(
        &mut self,
        frame: &[u8],
        rng: &mut R,
        mut deliver: F,
    ) {
        self.stats.offered += 1;
        // The fade process advances once per offered frame.
        if self.in_bad_state {
            if self.ge.p_bad_to_good > 0.0 && rng.gen_bool(self.ge.p_bad_to_good) {
                self.in_bad_state = false;
            }
        } else if self.ge.p_good_to_bad > 0.0 && rng.gen_bool(self.ge.p_good_to_bad) {
            self.in_bad_state = true;
        }
        let loss = if self.in_bad_state {
            self.ge.loss_bad
        } else {
            self.ge.loss_good
        };
        if loss > 0.0 && rng.gen_bool(loss) {
            self.stats.lost += 1;
            return;
        }

        let mut bytes = frame.to_vec();
        if self.truncate_probability > 0.0 && rng.gen_bool(self.truncate_probability) {
            if let Some(forged) = forge_truncated(&bytes, rng) {
                bytes = forged;
                self.stats.forged += 1;
            }
        }
        if self.bit_error_rate > 0.0 {
            for b in bytes.iter_mut() {
                for bit in 0..8 {
                    if rng.gen_bool(self.bit_error_rate) {
                        *b ^= 1 << bit;
                    }
                }
            }
        }

        if self.reorder_probability > 0.0 && rng.gen_bool(self.reorder_probability) {
            self.stats.reordered += 1;
            self.held.push_back(bytes);
        } else {
            self.stats.delivered += 1;
            deliver(&bytes);
            // A storm is at most 4 extra copies even at probability 1.0.
            let mut copies = 0;
            while copies < 4 && self.dup_probability > 0.0 && rng.gen_bool(self.dup_probability) {
                copies += 1;
                self.stats.delivered += 1;
                self.stats.duplicated += 1;
                deliver(&bytes);
            }
        }
        // Force-release the oldest held frames once the queue is deeper
        // than the reorder window — they arrive *after* newer traffic.
        while self.held.len() > self.reorder_depth {
            if let Some(old) = self.held.pop_front() {
                self.stats.delivered += 1;
                deliver(&old);
            }
        }
    }

    /// Releases every held-back frame, oldest first. Call at session end
    /// so reordered traffic is not silently dropped.
    pub fn flush<F: FnMut(&[u8])>(&mut self, mut deliver: F) {
        while let Some(old) = self.held.pop_front() {
            self.stats.delivered += 1;
            deliver(&old);
        }
    }
}

/// Re-frames a truncation of a well-formed wire frame with a valid CRC.
///
/// Returns `None` when the input is not a parseable frame (nothing to
/// forge from). This is the "malicious length byte" attack: the length
/// *and* CRC are consistent, so the link layer accepts it and only
/// end-to-end checks above the frame layer can object.
fn forge_truncated<R: Rng + ?Sized>(frame: &[u8], rng: &mut R) -> Option<Vec<u8>> {
    if frame.len() < 6 || frame[0] != SYNC1 || frame[1] != SYNC2 {
        return None;
    }
    let len = usize::from(frame[2]);
    if frame.len() != len + 5 || len == 0 {
        return None;
    }
    let keep = rng.gen_range(0..len);
    encode_frame(&frame[3..3 + keep]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crc_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29b1);
        assert_eq!(crc16_ccitt(b""), 0xffff);
    }

    proptest::proptest! {
        #[test]
        fn sliced_crc_matches_the_bitwise_fold(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 260..=260),
            start in 0usize..=16,
        ) {
            let bitwise = |data: &[u8]| {
                data.iter()
                    .fold(CRC16_INIT, |crc, &b| crc16_ccitt_step(crc, b))
            };
            // Every tail length 0–15 after 0, 1 and 2 whole 16-byte
            // steps, from an arbitrary start in the buffer.
            for blocks in 0..=2 {
                for tail in 0..CRC16_BLOCK {
                    let data = &bytes[start..start + blocks * CRC16_BLOCK + tail];
                    proptest::prop_assert_eq!(
                        crc16_ccitt(data),
                        bitwise(data),
                        "{} blocks, tail {}",
                        blocks,
                        tail
                    );
                }
            }
            // And every prefix, up to a full-length frame body.
            for len in 0..=bytes.len() {
                let data = &bytes[..len];
                proptest::prop_assert_eq!(crc16_ccitt(data), bitwise(data), "len {}", len);
            }
        }
    }

    #[test]
    fn frame_crc_covers_the_length_byte() {
        // Known frame vector: the CRC is over [len, payload...], not the
        // payload alone.
        let frame = encode_frame(b"A").unwrap();
        let expect = crc16_ccitt(&[0x01, b'A']);
        assert_eq!(
            frame,
            vec![
                SYNC1,
                SYNC2,
                0x01,
                b'A',
                (expect >> 8) as u8,
                (expect & 0xff) as u8
            ]
        );
    }

    #[test]
    fn bit_flipped_length_cannot_truncate_the_payload() {
        // Regression: with the CRC over the payload alone, flipping the
        // length byte of this frame from 2 to 0 made the decoder read the
        // two 0xFF payload bytes as the CRC — and crc16("") == 0xFFFF, so
        // a truncated (empty) payload was *accepted*. The length byte is
        // under the CRC now, so the corruption is caught.
        let mut frame = encode_frame(&[0xff, 0xff]).unwrap();
        frame[2] ^= 0x02; // len 2 -> 0
        let mut dec = FrameDecoder::new();
        let got = dec.push_all(&frame);
        assert!(
            got.iter().all(Result::is_err),
            "truncated payload must not be accepted: {got:?}"
        );
        assert_eq!(dec.frames_ok(), 0);
    }

    #[test]
    fn push_with_lends_payloads_from_the_input() {
        let mut dec = FrameDecoder::new();
        let frame = encode_frame(b"borrowed").unwrap();
        let mut seen = 0;
        dec.push_with(&frame, |res| {
            let p = res.unwrap();
            assert_eq!(p, b"borrowed");
            assert!(
                frame.as_ptr_range().contains(&p.as_ptr()),
                "payload was copied"
            );
            seen += 1;
        });
        assert_eq!(seen, 1);
        // A frame split across pushes completes on the push that ends it.
        let split = encode_frame(b"next").unwrap();
        let (head, tail) = split.split_at(4);
        assert_eq!(dec.push_all(head), vec![]);
        assert_eq!(dec.pending_bytes(), 4);
        assert_eq!(dec.push_all(tail), vec![Ok(b"next".to_vec())]);
        assert_eq!(dec.pending_bytes(), 0);
        assert_eq!(dec.frames_ok(), 2);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut dec = FrameDecoder::new();
        let frame = encode_frame(b"hello distscroll").unwrap();
        let got = dec.push_all(&frame);
        assert_eq!(got, vec![Ok(b"hello distscroll".to_vec())]);
        assert_eq!(dec.frames_ok(), 1);
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut dec = FrameDecoder::new();
        let got = dec.push_all(&encode_frame(b"").unwrap());
        assert_eq!(got, vec![Ok(vec![])]);
    }

    #[test]
    fn corrupted_payload_fails_crc_then_resyncs() {
        let mut dec = FrameDecoder::new();
        let mut frame = encode_frame(b"abcdef").unwrap();
        frame[4] ^= 0x01; // flip a payload bit
        let got = dec.push_all(&frame);
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0], Err(HwError::LinkCrc { .. })));
        // The next clean frame still decodes.
        let got = dec.push_all(&encode_frame(b"next").unwrap());
        assert_eq!(got, vec![Ok(b"next".to_vec())]);
    }

    #[test]
    fn decoder_skips_garbage_before_sync() {
        let mut dec = FrameDecoder::new();
        let mut stream = vec![0x00, 0x13, 0x37];
        stream.extend_from_slice(&encode_frame(b"x").unwrap());
        let got = dec.push_all(&stream);
        assert_eq!(got, vec![Ok(b"x".to_vec())]);
        assert_eq!(dec.bytes_skipped(), 3);
    }

    #[test]
    fn repeated_sync1_does_not_confuse_decoder() {
        let mut dec = FrameDecoder::new();
        // 0xAA 0xAA 0x55 ... : the first 0xAA is a spurious byte.
        let mut stream = vec![SYNC1];
        stream.extend_from_slice(&encode_frame(b"ok").unwrap());
        let got = dec.push_all(&stream);
        assert_eq!(got, vec![Ok(b"ok".to_vec())]);
    }

    #[test]
    fn back_to_back_frames_all_decode() {
        let mut dec = FrameDecoder::new();
        let mut stream = Vec::new();
        for i in 0..10u8 {
            stream.extend_from_slice(&encode_frame(&[i; 3]).unwrap());
        }
        let got = dec.push_all(&stream);
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(Result::is_ok));
    }

    #[test]
    fn oversized_payload_is_refused() {
        assert!(matches!(
            encode_frame(&[0u8; MAX_PAYLOAD + 1]),
            Err(HwError::LinkFraming { .. })
        ));
        let mut out = vec![1, 2, 3];
        assert!(encode_frame_into(&[0u8; MAX_PAYLOAD + 1], &mut out).is_err());
        assert_eq!(
            out,
            [1, 2, 3],
            "a refused payload leaves the buffer untouched"
        );
        assert_eq!(
            encode_frame(&[0u8; MAX_PAYLOAD]).unwrap().len(),
            MAX_PAYLOAD + 5
        );
    }

    #[test]
    fn clean_channel_delivers_everything() {
        let ch = RadioChannel::clean();
        let mut rng = StdRng::seed_from_u64(0);
        let frame = encode_frame(b"telemetry").unwrap();
        for _ in 0..100 {
            let (arrival, bytes) = ch.transmit(&frame, SimInstant::BOOT, &mut rng).unwrap();
            assert_eq!(bytes, frame);
            assert!(arrival > SimInstant::BOOT);
        }
    }

    #[test]
    fn drop_probability_is_respected() {
        let ch = RadioChannel::lossy(0.3, 0.0);
        let mut rng = StdRng::seed_from_u64(11);
        let frame = encode_frame(b"x").unwrap();
        let delivered = (0..10_000)
            .filter(|_| ch.transmit(&frame, SimInstant::BOOT, &mut rng).is_some())
            .count();
        let rate = delivered as f64 / 10_000.0;
        assert!((rate - 0.7).abs() < 0.02, "delivery rate {rate}");
    }

    #[test]
    fn bit_errors_are_caught_by_crc() {
        // 0.2 % BER over this ~370-bit frame corrupts roughly half the
        // transmissions: both "some survive" and "some fail crc" then
        // hold with overwhelming probability instead of riding on the
        // luck of one specific rng stream (2 % put per-frame survival
        // near 1/1500, a coin flip across 500 sends).
        let ch = RadioChannel::lossy(0.0, 0.002);
        let mut rng = StdRng::seed_from_u64(5);
        let mut dec = FrameDecoder::new();
        let frame = encode_frame(b"payload with enough bytes to hit errors").unwrap();
        let mut delivered_ok = 0;
        for _ in 0..500 {
            if let Some((_, bytes)) = ch.transmit(&frame, SimInstant::BOOT, &mut rng) {
                for p in dec.push_all(&bytes).into_iter().flatten() {
                    assert_eq!(p, b"payload with enough bytes to hit errors");
                    delivered_ok += 1;
                }
            }
        }
        assert!(delivered_ok > 0, "some frames should survive");
        assert!(
            dec.frames_bad() > 0,
            "some frames should fail crc at 0.2 % ber"
        );
    }

    #[test]
    fn encode_frame_into_matches_owned_form() {
        let mut buf = vec![0xffu8; 64]; // stale contents must be cleared
        encode_frame_into(b"hello distscroll", &mut buf).unwrap();
        assert_eq!(buf, encode_frame(b"hello distscroll").unwrap());
    }

    #[test]
    fn transmit_in_place_matches_transmit_draw_for_draw() {
        let ch = RadioChannel {
            jitter: SimDuration::from_millis(5),
            ..RadioChannel::lossy(0.2, 0.01)
        };
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let frame = encode_frame(b"same rng stream either way").unwrap();
        for _ in 0..200 {
            let owned = ch.transmit(&frame, SimInstant::BOOT, &mut rng_a);
            let mut buf = frame.clone();
            let in_place = ch.transmit_in_place(&mut buf, SimInstant::BOOT, &mut rng_b);
            match (owned, in_place) {
                (Some((arrival, bytes)), Some(arrival2)) => {
                    assert_eq!(arrival, arrival2);
                    assert_eq!(bytes, buf);
                }
                (None, None) => {}
                (a, b) => panic!("drop decisions diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn airtime_scales_with_length() {
        let ch = RadioChannel::clean();
        assert_eq!(ch.airtime(0), SimDuration::ZERO);
        // 24 bytes at 19200 bps = 240 bits -> 12.5 ms.
        assert_eq!(ch.airtime(24).as_micros(), 12_500);
    }

    #[test]
    fn failed_attempt_bytes_are_reexamined_for_embedded_frames() {
        // A corrupted header swallows a legitimate frame that starts
        // inside the attempt; the decoder must recover it.
        let inner = encode_frame(b"inner").unwrap();
        let mut stream = vec![SYNC1, SYNC2, 20]; // bogus length 20
        stream.extend_from_slice(&inner); // 10 bytes of real frame
        stream.extend_from_slice(&[0u8; 10]); // filler to fill the length
        stream.extend_from_slice(&[0x00, 0x00]); // wrong CRC
        let mut dec = FrameDecoder::new();
        let got = dec.push_all(&stream);
        assert!(
            got.contains(&Ok(b"inner".to_vec())),
            "embedded frame lost: {got:?}"
        );
        assert_eq!(dec.frames_ok(), 1);
        assert!(dec.frames_bad() >= 1);
    }

    #[test]
    fn byte_conservation_holds_across_resync() {
        // pushed == skipped + accepted + pending, even across failed
        // attempts and replayed bytes.
        let mut stream = vec![0x13, SYNC1, 0x37];
        let mut bad = encode_frame(b"doomed").unwrap();
        bad[4] ^= 0x40;
        stream.extend_from_slice(&bad);
        stream.extend_from_slice(&encode_frame(b"good").unwrap());
        stream.extend_from_slice(&[SYNC1, SYNC2, 5, 1, 2]); // partial frame
        let mut dec = FrameDecoder::new();
        let _ = dec.push_all(&stream);
        assert_eq!(
            stream.len() as u64,
            dec.bytes_skipped() + dec.bytes_accepted() + dec.pending_bytes(),
            "skipped={} accepted={} pending={}",
            dec.bytes_skipped(),
            dec.bytes_accepted(),
            dec.pending_bytes()
        );
    }

    #[test]
    fn sync2_mismatch_accounts_both_discarded_bytes() {
        // Regression: a SYNC1 followed by a non-sync byte discards two
        // bytes, but bytes_skipped only counted one.
        let mut dec = FrameDecoder::new();
        let mut stream = vec![SYNC1, 0x42];
        stream.extend_from_slice(&encode_frame(b"x").unwrap());
        let got = dec.push_all(&stream);
        assert_eq!(got, vec![Ok(b"x".to_vec())]);
        assert_eq!(dec.bytes_skipped(), 2);
        assert_eq!(
            stream.len() as u64,
            dec.bytes_skipped() + dec.bytes_accepted() + dec.pending_bytes()
        );
    }

    #[test]
    fn recovered_frames_surface_without_new_input() {
        let inner = encode_frame(b"late").unwrap();
        let mut stream = vec![SYNC1, SYNC2, 13]; // swallows inner + filler
        stream.extend_from_slice(&inner);
        stream.extend_from_slice(&[0u8; 4]);
        stream.extend_from_slice(&[0x00, 0x00]);
        // The push that completes the failed attempt also yields the frame
        // inside it, whether the attempt arrived whole or byte by byte.
        let mut dec = FrameDecoder::new();
        assert!(dec.push_all(&stream).contains(&Ok(b"late".to_vec())));
        let mut dec = FrameDecoder::new();
        let (head, last) = stream.split_at(stream.len() - 1);
        for &b in head {
            assert_eq!(dec.push_all(&[b]), vec![]);
        }
        let out = dec.push_all(last);
        assert!(
            out.contains(&Ok(b"late".to_vec())),
            "recovery waited: {out:?}"
        );
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn adversarial_channel_is_deterministic() {
        let frame = encode_frame(b"determinism").unwrap();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut ch = AdversarialChannel::hostile();
            let mut rng = StdRng::seed_from_u64(99);
            let mut seen: Vec<Vec<u8>> = Vec::new();
            for _ in 0..500 {
                ch.transmit(&frame, &mut rng, |b| seen.push(b.to_vec()));
            }
            ch.flush(|b| seen.push(b.to_vec()));
            runs.push((seen, ch.stats()));
        }
        assert_eq!(runs[0], runs[1]);
        let stats = runs[0].1;
        assert!(stats.lost > 0, "bursty loss never fired: {stats:?}");
        assert!(stats.duplicated > 0, "dup storm never fired: {stats:?}");
        assert!(stats.reordered > 0, "reorder never fired: {stats:?}");
        assert!(stats.forged > 0, "forgery never fired: {stats:?}");
        assert_eq!(ch_total(&stats), stats.offered + stats.duplicated);
    }

    /// Every offered frame is lost, delivered, or still held — plus the
    /// injected duplicates.
    fn ch_total(stats: &AdversarialStats) -> u64 {
        stats.delivered + stats.lost
    }

    #[test]
    fn forged_truncations_carry_a_valid_crc() {
        let frame = encode_frame(b"forge me please").unwrap();
        let mut ch = AdversarialChannel::new(GilbertElliott::clean());
        ch.truncate_probability = 1.0;
        let mut rng = StdRng::seed_from_u64(7);
        let mut dec = FrameDecoder::new();
        let mut delivered = Vec::new();
        for _ in 0..50 {
            ch.transmit(&frame, &mut rng, |b| {
                delivered.extend(dec.push_all(b));
            });
        }
        assert_eq!(dec.frames_bad(), 0, "forgeries must pass the CRC");
        assert_eq!(dec.frames_ok(), 50);
        assert!(
            delivered
                .iter()
                .any(|r| r.as_ref().is_ok_and(|p| p.len() < 15)),
            "no truncation happened"
        );
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let ch = RadioChannel {
            jitter: SimDuration::from_millis(10),
            ..RadioChannel::clean()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let frame = encode_frame(b"j").unwrap();
        let mut arrivals = std::collections::BTreeSet::new();
        for _ in 0..50 {
            let (t, _) = ch.transmit(&frame, SimInstant::BOOT, &mut rng).unwrap();
            arrivals.insert(t.as_micros());
        }
        assert!(arrivals.len() > 10, "jitter should spread arrival times");
    }
}

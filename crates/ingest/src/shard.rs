//! The session registry: one shard's exclusive slice of the fleet.
//!
//! This module is the only place in the crate that opens a fleet
//! session's decode state (the capture-side `loadgen` opens whole
//! decoders to measure ground truth), and every session decodes into
//! its shard's one set of books — a session that is not in a shard's
//! books is a session whose memory and counters nobody bounds. The
//! fleet ledger test (`tests/fleet_ledger.rs`) checks that every
//! offered byte and frame reaches these books.

use std::hash::{BuildHasherDefault, Hasher};

use distscroll_host::telemetry::{DecodeBooks, DecodeState, Record};
use distscroll_hw::arq::LinkQuality;

/// One queued, not-yet-decoded chunk of a device's radio stream: a
/// range of its shard's byte slab. The range is `u32`, so a round's
/// slab holds at most `u32::MAX` bytes; an offer that would grow it
/// past that is shed like one past the high-water mark.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Batch {
    device: u64,
    start: u32,
    len: u32,
}

/// Online per-shard aggregate: everything the fleet report needs, with
/// memory independent of how many frames passed through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Batches accepted into the queue.
    pub batches_in: u64,
    /// Radio bytes accepted into the queue.
    pub bytes_in: u64,
    /// Frames booked at record level: `records + records_bad +
    /// crc_failures`. Data frames the ARQ receiver discards are not
    /// counted: duplicates appear in `link.duplicates`, beyond-window
    /// frames in `link.out_of_order`, and frames still parked when a
    /// session closes nowhere.
    pub frames_in: u64,
    /// Records parsed successfully, across live and evicted sessions.
    pub records: u64,
    /// Records that failed to parse.
    pub records_bad: u64,
    /// Frames rejected by the link-layer CRC.
    pub crc_failures: u64,
    /// Interaction-event records seen by the streaming sink.
    pub events: u64,
    /// State-snapshot records seen by the streaming sink.
    pub states: u64,
    /// Batches refused at the high-water mark (or because the round's
    /// byte slab is full at 4 GiB). Never silent: the offer that sheds
    /// returns `false` *and* the count is permanent.
    pub shed_batches: u64,
    /// Radio bytes refused with those batches.
    pub shed_bytes: u64,
    /// Sessions opened (a device evicted and heard from again opens a
    /// new one).
    pub sessions_opened: u64,
    /// Sessions evicted to stay within the capacity bound.
    pub evicted: u64,
    /// Sessions whose receiver adopted a mid-stream sequence number
    /// instead of stalling on the zero-expectation.
    pub resyncs: u64,
    /// Most live sessions held at once.
    pub peak_sessions: u64,
    /// Merged receive-side ARQ counters, across live and evicted
    /// sessions.
    pub link: LinkQuality,
}

impl ShardStats {
    /// Folds another shard's books into this one (for fleet totals).
    pub fn merge(&mut self, other: &ShardStats) {
        self.batches_in += other.batches_in;
        self.bytes_in += other.bytes_in;
        self.frames_in += other.frames_in;
        self.records += other.records;
        self.records_bad += other.records_bad;
        self.crc_failures += other.crc_failures;
        self.events += other.events;
        self.states += other.states;
        self.shed_batches += other.shed_batches;
        self.shed_bytes += other.shed_bytes;
        self.sessions_opened += other.sessions_opened;
        self.evicted += other.evicted;
        self.resyncs += other.resyncs;
        self.peak_sessions = self.peak_sessions.max(other.peak_sessions);
        self.link.merge(&other.link);
    }
}

/// One session slot: a device's decode state and nothing else.
///
/// The state is the frame decoder's carry and the ARQ receiver's
/// expected sequence number, parked ring and sync flag: 104 bytes, with
/// no heap memory of its own until a frame splits across two batches.
/// Every counter a decode moves is booked straight into the shard's
/// [`DecodeBooks`], and the recency links live in the shard's `links`
/// array beside the slots, so eviction only overwrites the slot.
#[derive(Debug, Clone)]
struct Session {
    device: u64,
    decode: DecodeState,
}

/// One slot's place on the shard's recency list, by slot number;
/// [`NIL`] ends the list.
#[derive(Debug, Clone, Copy)]
struct Links {
    /// The next less recently touched slot.
    prev: u32,
    /// The next more recently touched slot.
    next: u32,
}

/// The recency list's end marker: no slot.
const NIL: u32 = u32::MAX;

/// Most sessions one shard holds: every slot number fits the `u32`
/// recency links below [`NIL`]. [`Shard::new`] clamps the capacity to
/// it, so a shard asked for more evicts at this bound instead of
/// wrapping a link.
const MAX_SLOTS: usize = NIL as usize;

/// A slot number as the index and the recency list store it. Slots are
/// numbered below [`MAX_SLOTS`], so the conversion is exact.
fn link(slot: usize) -> u32 {
    assert!(slot < MAX_SLOTS, "slot {slot} past the shard's bound");
    slot as u32
}

/// Device id → slot of its live session. Lookup, insert and remove in
/// O(1); nothing iterates it, so its order never reaches a counter.
#[expect(
    clippy::disallowed_types,
    reason = "lookup, insert and remove only: the index is never iterated, so no report sees its order"
)]
type DeviceIndex = std::collections::HashMap<u64, u32, BuildHasherDefault<DeviceHasher>>;

/// A fixed, seedless hash of a device id: the splitmix64 finalizer.
///
/// The low bits of its output depend on every bit of the id. That
/// matters here: every device on a shard has the same `id % shards`, so
/// a bare multiply would crowd a shard's ids into one slice of the
/// table. The ids come from the caller of `offer`, never from wire
/// bytes, so a seed buys no protection the map needs.
#[derive(Default)]
struct DeviceHasher(u64);

impl Hasher for DeviceHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 ^= id;
    }

    fn finish(&self) -> u64 {
        let z = self.0;
        let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One shard: exclusive owner of the sessions its devices hash to.
///
/// All mutation happens through [`Shard::enqueue`] (producer side) and
/// [`Shard::process_queue`] (worker side). Both take `&mut self`, so
/// the two never interleave and exactly one thread drains a given
/// shard — which is what makes every counter here deterministic at any
/// `--jobs`.
#[derive(Debug)]
pub(crate) struct Shard {
    index: DeviceIndex,
    /// Session slots, every one live: the slot an eviction frees goes
    /// straight to the session whose opening forced it.
    slots: Vec<Session>,
    /// `links[s]` threads slot `s` on the recency list.
    links: Vec<Links>,
    /// Least and most recently touched live slots ([`NIL`] when none):
    /// the ends of a list ordered by last touch, so eviction pops the
    /// head in O(1).
    lru: u32,
    mru: u32,
    queue: Vec<Batch>,
    /// The queued batches' bytes, back to back; reused every round.
    slab: Vec<u8>,
    /// Every session's decode counters, booked as they happen.
    books: DecodeBooks,
    /// The shard's own counters. Its decode fields stay zero:
    /// [`Shard::finish`] derives them from `books`.
    stats: ShardStats,
    /// Live-session bound, at most [`MAX_SLOTS`].
    capacity: usize,
}

impl Shard {
    pub(crate) fn new(capacity: usize) -> Self {
        Shard {
            index: DeviceIndex::default(),
            slots: Vec::new(),
            links: Vec::new(),
            lru: NIL,
            mru: NIL,
            queue: Vec::new(),
            slab: Vec::new(),
            books: DecodeBooks::default(),
            stats: ShardStats::default(),
            capacity: capacity.min(MAX_SLOTS),
        }
    }

    /// Accepts a chunk of one device's radio stream into the queue, or
    /// sheds it at the high-water mark (or when the round's byte slab is
    /// full). Returns whether it was accepted.
    pub(crate) fn enqueue(&mut self, device: u64, bytes: &[u8], high_water: usize) -> bool {
        let start = self.slab.len();
        let end = u32::try_from(start + bytes.len());
        if self.queue.len() >= high_water || end.is_err() {
            self.stats.shed_batches += 1;
            self.stats.shed_bytes += bytes.len() as u64;
            return false;
        }
        self.stats.batches_in += 1;
        self.stats.bytes_in += bytes.len() as u64;
        self.slab.extend_from_slice(bytes);
        // Both are at most `end`, which fits a `u32`.
        self.queue.push(Batch {
            device,
            start: start as u32,
            len: bytes.len() as u32,
        });
        true
    }

    /// Drains the queue in FIFO order through the owning sessions, into
    /// the shard's books.
    pub(crate) fn process_queue(&mut self) {
        let mut queue = std::mem::take(&mut self.queue);
        for batch in queue.drain(..) {
            let slot = match self.find(batch.device) {
                Some(slot) => {
                    self.touch(slot);
                    slot
                }
                None => self.open(batch.device),
            };
            let start = batch.start as usize;
            let bytes = &self.slab[start..start + batch.len as usize];
            let (events, states) = (&mut self.stats.events, &mut self.stats.states);
            self.slots[slot as usize].decode.push_bytes_with(
                bytes,
                &mut self.books,
                |rec| match rec {
                    Record::Event(_) => *events += 1,
                    Record::State(_) => *states += 1,
                },
            );
        }
        self.queue = queue;
        self.slab.clear();
    }

    /// The live slot of `device`, if it has one.
    ///
    /// A fleet whose devices report once a round in a fixed order
    /// touches the least recently touched session next, so the recency
    /// list's head is tried before the index: on `fleet_ingest` it is
    /// the answer for ~95% of batches, and the head's slot is the one
    /// the batch decodes into. Otherwise the check costs one compare.
    fn find(&self, device: u64) -> Option<u32> {
        let head = self.lru;
        if head != NIL && self.slots[head as usize].device == device {
            return Some(head);
        }
        self.index.get(&device).copied()
    }

    /// Opens a session for `device`, evicting the least recently
    /// touched one first at capacity, and returns its slot, linked as
    /// the most recently touched.
    fn open(&mut self, device: u64) -> u32 {
        let session = Session {
            device,
            decode: DecodeState::with_arq_resync(),
        };
        let freed = if self.index.len() >= self.capacity {
            self.evict_lru()
        } else {
            None
        };
        let slot = match freed {
            Some(slot) => {
                self.slots[slot as usize] = session;
                slot
            }
            None => {
                let slot = link(self.slots.len());
                self.slots.push(session);
                self.links.push(Links {
                    prev: NIL,
                    next: NIL,
                });
                slot
            }
        };
        self.stats.sessions_opened += 1;
        self.index.insert(device, slot);
        let live = self.index.len() as u64;
        self.stats.peak_sessions = self.stats.peak_sessions.max(live);
        self.link_mru(slot);
        slot
    }

    /// Moves a live `slot` to the most recently touched end.
    fn touch(&mut self, slot: u32) {
        if slot != self.mru {
            self.unlink(slot);
            self.link_mru(slot);
        }
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: u32) {
        let Links { prev, next } = self.links[slot as usize];
        match prev {
            NIL => self.lru = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.mru = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    /// Appends `slot` to the recency list as the most recently touched.
    fn link_mru(&mut self, slot: u32) {
        self.links[slot as usize] = Links {
            prev: self.mru,
            next: NIL,
        };
        match self.mru {
            NIL => self.lru = slot,
            m => self.links[m as usize].next = slot,
        }
        self.mru = slot;
    }

    /// Evicts the least-recently-touched session and returns its freed
    /// slot, for the caller to overwrite. Its counters are already in
    /// the shard's books, so nothing is folded. Every batch touches its
    /// session, so the list order is the order of last touches and the
    /// victim is unambiguous.
    fn evict_lru(&mut self) -> Option<u32> {
        let slot = self.lru;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        self.index.remove(&self.slots[slot as usize].device);
        self.stats.evicted += 1;
        Some(slot)
    }

    /// Closes the books: decodes whatever is still queued, drops every
    /// live session (without counting them as evictions) and returns the
    /// final stats. The shard is empty afterwards.
    pub(crate) fn finish(&mut self) -> ShardStats {
        self.process_queue();
        self.index.clear();
        self.slots.clear();
        self.links.clear();
        self.lru = NIL;
        self.mru = NIL;
        let DecodeBooks {
            frames,
            rx,
            records_ok,
            records_bad,
        } = self.books;
        ShardStats {
            frames_in: records_ok + records_bad + frames.frames_bad,
            records: records_ok,
            records_bad,
            crc_failures: frames.frames_bad,
            resyncs: rx.resyncs,
            link: rx.quality(),
            ..self.stats
        }
    }

    /// Live sessions right now (bounded by `session_capacity`).
    pub(crate) fn live_sessions(&self) -> usize {
        self.index.len()
    }

    /// Batches queued and not yet processed.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distscroll_hw::arq::{ArqClass, ArqTx};
    use distscroll_hw::link::encode_frame;
    use std::collections::BTreeMap;

    /// A clean in-order ARQ byte stream carrying `n` event records,
    /// continuing an existing transmitter.
    fn stream(tx: &mut ArqTx, n: u8, tick: u64) -> Vec<u8> {
        for i in 0..n {
            tx.enqueue(ArqClass::Event, &[b'E', 0, i, b'B', 0], tick)
                .unwrap();
        }
        let mut bytes = Vec::new();
        tx.service(tick, |wire| bytes.extend_from_slice(&encode_frame(wire)));
        bytes
    }

    #[test]
    fn a_session_slot_fits_in_112_bytes() {
        // The resident state of one device: decode state only, with the
        // receiver's parked ring inline and no heap allocation behind it.
        // Counters live in the shard's books, links in its side array.
        assert!(
            std::mem::size_of::<Session>() <= 112,
            "{} bytes",
            std::mem::size_of::<Session>()
        );
        assert_eq!(std::mem::size_of::<Links>(), 8);
        assert_eq!(std::mem::size_of::<Batch>(), 16);
    }

    #[test]
    fn capacity_is_clamped_to_the_link_width() {
        assert_eq!(Shard::new(usize::MAX).capacity, MAX_SLOTS);
        assert_eq!(Shard::new(4).capacity, 4);
        assert_eq!(link(MAX_SLOTS - 1), u32::MAX - 1);
    }

    #[test]
    fn high_water_sheds_with_counter() {
        let mut shard = Shard::new(usize::MAX);
        assert!(shard.enqueue(1, &[0xAA; 10], 2));
        assert!(shard.enqueue(1, &[0xAA; 10], 2));
        assert!(!shard.enqueue(1, &[0xAA; 7], 2), "third offer must shed");
        let stats = shard.finish();
        assert_eq!(stats.batches_in, 2);
        assert_eq!(stats.shed_batches, 1);
        assert_eq!(stats.shed_bytes, 7);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_folds_counters() {
        let mut shard = Shard::new(2);
        let mut tx7 = ArqTx::new();
        let mut tx8 = ArqTx::new();
        let mut tx9 = ArqTx::new();
        assert!(shard.enqueue(7, &stream(&mut tx7, 3, 0), usize::MAX));
        assert!(shard.enqueue(8, &stream(&mut tx8, 2, 0), usize::MAX));
        shard.process_queue();
        assert_eq!(shard.live_sessions(), 2);
        // Touch 8 so 7 becomes the LRU victim.
        assert!(shard.enqueue(8, &stream(&mut tx8, 1, 1), usize::MAX));
        assert!(shard.enqueue(9, &stream(&mut tx9, 4, 0), usize::MAX));
        shard.process_queue();
        assert_eq!(shard.live_sessions(), 2, "capacity bound held");
        let stats = shard.finish();
        assert_eq!(stats.evicted, 1, "exactly one victim (device 7)");
        assert_eq!(stats.sessions_opened, 3);
        assert_eq!(stats.records, 3 + 2 + 1 + 4, "evicted records folded in");
        assert_eq!(stats.events, 10);
        assert_eq!(stats.link.duplicates, 0);
    }

    #[test]
    fn finish_is_not_an_eviction() {
        let mut shard = Shard::new(usize::MAX);
        let mut tx = ArqTx::new();
        assert!(shard.enqueue(1, &stream(&mut tx, 5, 0), usize::MAX));
        shard.process_queue();
        let stats = shard.finish();
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.records, 5);
        assert_eq!(stats.frames_in, 5);
        assert_eq!(stats.peak_sessions, 1);
    }

    /// `n` in-order data frames carrying event records, continuing a
    /// device's sequence numbers at `seq`.
    fn data_frames(seq: &mut u16, n: u8) -> Vec<u8> {
        let mut bytes = Vec::new();
        for i in 0..n {
            let [hi, lo] = seq.to_be_bytes();
            bytes.extend_from_slice(&encode_frame(&[b'D', hi, lo, b'E', 0, i, b'B', 0]));
            *seq = seq.wrapping_add(1);
        }
        bytes
    }

    /// The live devices from least to most recently touched, walking the
    /// shard's recency list.
    fn recency_order(shard: &Shard) -> Vec<u64> {
        let mut order = Vec::new();
        let mut at = shard.lru;
        while at != NIL {
            order.push(shard.slots[at as usize].device);
            at = shard.links[at as usize].next;
        }
        order
    }

    /// Drives a shard of capacity 4 through a skewed random schedule
    /// over `ids` and checks it against a min-touch-scan model after
    /// every batch: each id finds its own session, eviction picks the
    /// model's victim, and every record is booked exactly once.
    fn evicts_like_the_min_touch_scan(ids: &[u64; 11]) {
        const CAPACITY: usize = 4;
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next_random = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut shard = Shard::new(CAPACITY);
        let mut seqs = [0u16; 11];
        // The reference: last touch per live device; the victim is the
        // `(last_touch, device)` minimum.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let (mut opens, mut evictions, mut sent) = (0u64, 0u64, 0u64);
        for touch in 0..2_000u64 {
            // Skewed towards a few hot devices, so sessions both stay
            // warm and go cold.
            let r = next_random();
            let pick = if r % 3 == 0 {
                (r >> 8) % 3
            } else {
                r % ids.len() as u64
            } as usize;
            let device = ids[pick];
            let n = (next_random() % 3 + 1) as u8;
            let expected_victim = if model.contains_key(&device) {
                None
            } else {
                opens += 1;
                (model.len() >= CAPACITY)
                    .then(|| model.iter().min_by_key(|(d, t)| (**t, **d)))
                    .flatten()
                    .map(|(d, _)| *d)
            };
            if let Some(victim) = expected_victim {
                model.remove(&victim);
                evictions += 1;
            }
            model.insert(device, touch);
            sent += u64::from(n);

            let before = recency_order(&shard);
            let booked = shard.books.records_ok;
            let bytes = data_frames(&mut seqs[pick], n);
            assert!(shard.enqueue(device, &bytes, usize::MAX));
            shard.process_queue();
            // A reused slot starts fresh: its receiver adopts this
            // device's next sequence number, so the batch's n in-order
            // frames book exactly n records, whoever held the slot last.
            assert_eq!(
                shard.books.records_ok - booked,
                u64::from(n),
                "touch {touch}"
            );
            let victim = before.into_iter().find(|d| !shard.index.contains_key(d));
            assert_eq!(victim, expected_victim, "touch {touch}");

            let mut by_touch: Vec<(u64, u64)> = model.iter().map(|(&d, &t)| (t, d)).collect();
            by_touch.sort_unstable();
            let expect_order: Vec<u64> = by_touch.into_iter().map(|(_, d)| d).collect();
            assert_eq!(recency_order(&shard), expect_order, "touch {touch}");
            for &d in model.keys() {
                let slot = shard.index[&d] as usize;
                assert_eq!(shard.slots[slot].device, d, "device {d}");
            }
            assert_eq!(shard.live_sessions(), model.len(), "touch {touch}");
            assert!(shard.slots.len() <= CAPACITY, "slots are reused");
        }
        assert!(evictions > 100, "the schedule must churn: {evictions}");
        let stats = shard.finish();
        assert_eq!(stats.sessions_opened, opens);
        assert_eq!(stats.evicted, evictions);
        // Every record is booked exactly once, evicted session or live.
        assert_eq!(stats.records, sent);
        assert_eq!(stats.events, sent);
        assert_eq!(stats.link.delivered, sent);
        assert_eq!(stats.frames_in, sent);
        assert_eq!(shard.live_sessions(), 0);
    }

    #[test]
    fn recency_list_evicts_like_the_min_touch_scan() {
        evicts_like_the_min_touch_scan(&std::array::from_fn(|k| k as u64));
    }

    #[test]
    fn sparse_ids_evict_like_the_min_touch_scan() {
        // One shard's ids all share a residue: here, 5 mod 8.
        evicts_like_the_min_touch_scan(&std::array::from_fn(|k| 8 * k as u64 * 1_000_003 + 5));
        // The extremes of the id space.
        evicts_like_the_min_touch_scan(&[
            0,
            u64::MAX,
            1,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) - 1,
            1 << 32,
            u64::from(u32::MAX),
            2,
            u64::MAX - 2,
            0x5555_5555_5555_5555,
        ]);
        // Ids that differ only above bit 32.
        evicts_like_the_min_touch_scan(&std::array::from_fn(|k| {
            (k as u64 + 1) << 33 | 0x8765_4321
        }));
    }
}

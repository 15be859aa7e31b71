//! The session registry: one shard's exclusive slice of the fleet.
//!
//! This module is the only place in the crate that opens a fleet
//! session's raw [`StreamDecoder`] (the capture-side `loadgen` opens
//! others to measure ground truth) — a session that is not in a shard's
//! books is a session whose memory and counters nobody bounds. The
//! fleet ledger test (`tests/fleet_ledger.rs`) checks that every
//! offered byte and frame reaches these books.

use std::collections::BTreeMap;
use std::ops::Range;

use distscroll_host::telemetry::{Record, StreamDecoder};
use distscroll_hw::arq::LinkQuality;

/// One queued, not-yet-decoded chunk of a device's radio stream: a
/// range of its shard's byte slab.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    pub(crate) device: u64,
    pub(crate) range: Range<usize>,
}

/// Online per-shard aggregate: everything the fleet report needs, with
/// memory independent of how many frames passed through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Batches accepted into the queue.
    pub batches_in: u64,
    /// Radio bytes accepted into the queue.
    pub bytes_in: u64,
    /// Link-layer frames that completed decode (records + malformed +
    /// CRC failures).
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
    /// Batches refused at the high-water mark. Never silent: the offer
    /// that sheds returns `false` *and* the count is permanent.
    pub shed_batches: u64,
    /// Radio bytes refused at the high-water mark.
    pub shed_bytes: u64,
    /// Sessions opened (a device evicted and heard from again opens a
    /// new one).
    pub sessions_opened: u64,
    /// Sessions evicted to stay within the capacity bound.
    pub evicted: u64,
    /// Re-opened sessions whose receiver adopted a mid-stream sequence
    /// number instead of stalling on the zero-expectation.
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

/// One session slot: the decoder carrying the ARQ receiver, threaded on
/// the shard's recency list.
#[derive(Debug, Clone)]
struct Session {
    device: u64,
    decoder: StreamDecoder,
    /// The next less recently touched session.
    prev: Option<usize>,
    /// The next more recently touched session.
    next: Option<usize>,
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
    /// Device id → slot of its live session.
    index: BTreeMap<u64, usize>,
    /// Session slots; the slot an eviction frees goes to the session
    /// whose opening forced it.
    slots: Vec<Session>,
    /// Least and most recently touched live slots: the ends of a list
    /// ordered by last touch, so eviction pops the head in O(1).
    lru: Option<usize>,
    mru: Option<usize>,
    queue: Vec<Batch>,
    /// The queued batches' bytes, back to back; reused every round.
    slab: Vec<u8>,
    stats: ShardStats,
    capacity: usize,
}

impl Shard {
    pub(crate) fn new(capacity: usize) -> Self {
        Shard {
            index: BTreeMap::new(),
            slots: Vec::new(),
            lru: None,
            mru: None,
            queue: Vec::new(),
            slab: Vec::new(),
            stats: ShardStats::default(),
            capacity,
        }
    }

    /// Accepts a chunk of one device's radio stream into the queue, or
    /// sheds it at the high-water mark. Returns whether it was accepted.
    pub(crate) fn enqueue(&mut self, device: u64, bytes: &[u8], high_water: usize) -> bool {
        if self.queue.len() >= high_water {
            self.stats.shed_batches += 1;
            self.stats.shed_bytes += bytes.len() as u64;
            return false;
        }
        self.stats.batches_in += 1;
        self.stats.bytes_in += bytes.len() as u64;
        let start = self.slab.len();
        self.slab.extend_from_slice(bytes);
        self.queue.push(Batch {
            device,
            range: start..self.slab.len(),
        });
        true
    }

    /// Drains the queue in FIFO order through the owning sessions.
    pub(crate) fn process_queue(&mut self) {
        let mut queue = std::mem::take(&mut self.queue);
        for batch in queue.drain(..) {
            let slot = match self.index.get(&batch.device) {
                Some(&slot) => {
                    self.unlink(slot);
                    slot
                }
                None => self.open(batch.device),
            };
            self.link_mru(slot);
            let session = &mut self.slots[slot];
            let was_resynced = session.decoder.arq_resynced();
            let (events, states) = (&mut self.stats.events, &mut self.stats.states);
            session
                .decoder
                .push_bytes_with(&self.slab[batch.range], |rec| match rec {
                    Record::Event(_) => *events += 1,
                    Record::State(_) => *states += 1,
                });
            if session.decoder.arq_resynced() == Some(true) && was_resynced == Some(false) {
                self.stats.resyncs += 1;
            }
        }
        self.queue = queue;
        self.slab.clear();
    }

    /// Opens a session for `device`, evicting the least recently
    /// touched one first at capacity, and returns its unlinked slot.
    fn open(&mut self, device: u64) -> usize {
        let freed = if self.index.len() >= self.capacity {
            self.evict_lru()
        } else {
            None
        };
        self.stats.sessions_opened += 1;
        let session = Session {
            device,
            decoder: StreamDecoder::with_arq_resync(),
            prev: None,
            next: None,
        };
        let slot = match freed {
            Some(slot) => {
                self.slots[slot] = session;
                slot
            }
            None => {
                self.slots.push(session);
                self.slots.len() - 1
            }
        };
        self.index.insert(device, slot);
        let live = self.index.len() as u64;
        self.stats.peak_sessions = self.stats.peak_sessions.max(live);
        slot
    }

    /// Takes `slot` out of the recency list.
    fn unlink(&mut self, slot: usize) {
        let Session { prev, next, .. } = self.slots[slot];
        match prev {
            Some(p) => self.slots[p].next = next,
            None => self.lru = next,
        }
        match next {
            Some(n) => self.slots[n].prev = prev,
            None => self.mru = prev,
        }
    }

    /// Appends `slot` to the recency list as the most recently touched.
    fn link_mru(&mut self, slot: usize) {
        self.slots[slot].prev = self.mru;
        self.slots[slot].next = None;
        match self.mru {
            Some(m) => self.slots[m].next = Some(slot),
            None => self.lru = Some(slot),
        }
        self.mru = Some(slot);
    }

    /// Evicts the least-recently-touched session, folding its counters
    /// into the shard aggregate, and returns its freed slot. Every batch
    /// touches its session, so the list order is the order of last
    /// touches and the victim is unambiguous.
    fn evict_lru(&mut self) -> Option<usize> {
        let slot = self.lru?;
        self.unlink(slot);
        let session = &self.slots[slot];
        self.index.remove(&session.device);
        self.stats.evicted += 1;
        Self::fold_decoder(&mut self.stats, &session.decoder);
        Some(slot)
    }

    /// Streams a retiring decoder's counters into the aggregate.
    fn fold_decoder(stats: &mut ShardStats, decoder: &StreamDecoder) {
        stats.records += decoder.records_ok();
        stats.records_bad += decoder.records_bad();
        stats.crc_failures += decoder.crc_failures();
        stats.frames_in += decoder.records_ok() + decoder.records_bad() + decoder.crc_failures();
        if let Some(q) = decoder.arq_quality() {
            stats.link.merge(&q);
        }
    }

    /// Closes the books: folds every live session into the aggregate
    /// (without counting them as evictions) and returns the final
    /// stats. The shard is drained afterwards.
    pub(crate) fn finish(&mut self) -> ShardStats {
        for &slot in self.index.values() {
            Self::fold_decoder(&mut self.stats, &self.slots[slot].decoder);
        }
        self.index.clear();
        self.slots.clear();
        self.lru = None;
        self.mru = None;
        self.stats
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

    /// A clean in-order ARQ byte stream carrying `n` event records,
    /// continuing an existing transmitter.
    fn stream(tx: &mut ArqTx, n: u8, tick: u64) -> Vec<u8> {
        for i in 0..n {
            tx.enqueue(ArqClass::Event, &[b'E', 0, i, b'B', 0], tick);
        }
        let mut bytes = Vec::new();
        tx.service(tick, |wire| bytes.extend_from_slice(&encode_frame(wire)));
        bytes
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
        while let Some(slot) = at {
            order.push(shard.slots[slot].device);
            at = shard.slots[slot].next;
        }
        order
    }

    #[test]
    fn recency_list_evicts_like_the_min_touch_scan() {
        const CAPACITY: usize = 4;
        const DEVICES: u64 = 11;
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next_random = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut shard = Shard::new(CAPACITY);
        let mut seqs = [0u16; DEVICES as usize];
        // The reference: last touch and records delivered since open, per
        // live device; the victim is the `(last_touch, device)` minimum.
        let mut model: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let (mut opens, mut evictions, mut sent) = (0u64, 0u64, 0u64);
        for touch in 0..2_000u64 {
            // Skewed towards a few hot devices, so sessions both stay
            // warm and go cold.
            let r = next_random();
            let device = if r % 3 == 0 {
                (r >> 8) % 3
            } else {
                r % DEVICES
            };
            let n = (next_random() % 3 + 1) as u8;
            let expected_victim = if model.contains_key(&device) {
                None
            } else {
                opens += 1;
                (model.len() >= CAPACITY)
                    .then(|| model.iter().min_by_key(|(d, (t, _))| (*t, **d)))
                    .flatten()
                    .map(|(d, _)| *d)
            };
            if let Some(victim) = expected_victim {
                model.remove(&victim);
                evictions += 1;
            }
            let entry = model.entry(device).or_insert((touch, 0));
            *entry = (touch, entry.1 + u64::from(n));
            sent += u64::from(n);

            let before: Vec<u64> = shard.index.keys().copied().collect();
            let bytes = data_frames(&mut seqs[device as usize], n);
            assert!(shard.enqueue(device, &bytes, usize::MAX));
            shard.process_queue();
            let victim = before.into_iter().find(|d| !shard.index.contains_key(d));
            assert_eq!(victim, expected_victim, "touch {touch}");

            let mut by_touch: Vec<(u64, u64)> = model.iter().map(|(&d, &(t, _))| (t, d)).collect();
            by_touch.sort_unstable();
            let expect_order: Vec<u64> = by_touch.into_iter().map(|(_, d)| d).collect();
            assert_eq!(recency_order(&shard), expect_order, "touch {touch}");
            // A reused slot starts from zero: its decoder has delivered
            // exactly the records sent since this device's session opened.
            for (&d, &(_, records)) in &model {
                let slot = shard.index[&d];
                assert_eq!(
                    shard.slots[slot].decoder.records_ok(),
                    records,
                    "device {d}"
                );
            }
            assert!(shard.slots.len() <= CAPACITY, "slots are reused");
        }
        assert!(evictions > 100, "the schedule must churn: {evictions}");
        let stats = shard.finish();
        assert_eq!(stats.sessions_opened, opens);
        assert_eq!(stats.evicted, evictions);
        // Every record is folded exactly once: at eviction or at finish.
        assert_eq!(stats.records, sent);
        assert_eq!(stats.events, sent);
        assert_eq!(stats.link.delivered, sent);
        assert_eq!(stats.frames_in, sent);
        assert_eq!(shard.live_sessions(), 0);
    }
}

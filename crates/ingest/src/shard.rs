//! The session registry: one shard's exclusive slice of the fleet.
//!
//! This module is the only place in the crate that opens a fleet
//! session's raw [`StreamDecoder`] (enforced by the `raw-decoder` lint
//! rule, which also exempts the capture-side `loadgen`) —
//! a session that is not in a shard's books is a session whose memory
//! and counters nobody bounds.

use std::collections::BTreeMap;

use distscroll_host::telemetry::{Record, StreamDecoder};
use distscroll_hw::arq::LinkQuality;

/// One queued, not-yet-decoded chunk of a device's radio stream.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    pub(crate) device: u64,
    pub(crate) bytes: Vec<u8>,
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

/// One live session: the decoder carrying the ARQ receiver, and the
/// touch stamp that orders eviction.
#[derive(Debug, Clone)]
struct Session {
    decoder: StreamDecoder,
    last_touch: u64,
}

/// One shard: exclusive owner of the sessions its devices hash to.
///
/// All mutation happens through [`Shard::enqueue`] (producer side) and
/// [`Shard::process_queue`] (worker side); the service guarantees the
/// two never interleave within a round, and that exactly one worker
/// drains a given shard — which is what makes every counter here
/// deterministic at any `--jobs`.
#[derive(Debug)]
pub(crate) struct Shard {
    sessions: BTreeMap<u64, Session>,
    queue: Vec<Batch>,
    stats: ShardStats,
    /// Monotonic per-shard touch counter; unique per batch, so LRU
    /// eviction never has to break a tie.
    touch: u64,
    capacity: usize,
}

impl Shard {
    pub(crate) fn new(capacity: usize) -> Self {
        Shard {
            sessions: BTreeMap::new(),
            queue: Vec::new(),
            stats: ShardStats::default(),
            touch: 0,
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
        self.queue.push(Batch {
            device,
            bytes: bytes.to_vec(),
        });
        true
    }

    /// Drains the queue in FIFO order through the owning sessions.
    pub(crate) fn process_queue(&mut self) {
        let batches = std::mem::take(&mut self.queue);
        for batch in batches {
            self.touch += 1;
            let touch = self.touch;
            if !self.sessions.contains_key(&batch.device) {
                if self.sessions.len() >= self.capacity {
                    self.evict_lru();
                }
                self.stats.sessions_opened += 1;
                // The raw-decoder rule exempts this file: the shard
                // registry IS the sanctioned construction site.
                let decoder = StreamDecoder::with_arq_resync();
                self.sessions.insert(
                    batch.device,
                    Session {
                        decoder,
                        last_touch: touch,
                    },
                );
                let live = self.sessions.len() as u64;
                self.stats.peak_sessions = self.stats.peak_sessions.max(live);
            }
            let Some(session) = self.sessions.get_mut(&batch.device) else {
                continue; // unreachable: inserted above
            };
            session.last_touch = touch;
            let was_resynced = session.decoder.arq_resynced();
            let (events, states) = (&mut self.stats.events, &mut self.stats.states);
            session
                .decoder
                .push_bytes_with(&batch.bytes, |rec| match rec {
                    Record::Event(_) => *events += 1,
                    Record::State(_) => *states += 1,
                });
            if session.decoder.arq_resynced() == Some(true) && was_resynced == Some(false) {
                self.stats.resyncs += 1;
            }
        }
    }

    /// Evicts the least-recently-touched session, folding its counters
    /// into the shard aggregate. Touch stamps are unique within a shard,
    /// so the victim is unambiguous.
    fn evict_lru(&mut self) {
        let victim = self
            .sessions
            .iter()
            .min_by_key(|(device, s)| (s.last_touch, **device))
            .map(|(device, _)| *device);
        let Some(device) = victim else {
            return;
        };
        let Some(session) = self.sessions.remove(&device) else {
            return;
        };
        self.stats.evicted += 1;
        Self::fold_decoder(&mut self.stats, &session.decoder);
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
        let sessions = std::mem::take(&mut self.sessions);
        for session in sessions.values() {
            Self::fold_decoder(&mut self.stats, &session.decoder);
        }
        self.stats
    }

    /// Live sessions right now (bounded by `session_capacity`).
    pub(crate) fn live_sessions(&self) -> usize {
        self.sessions.len()
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
}

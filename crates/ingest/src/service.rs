//! The ingest front door: routes device traffic to shards and drains
//! the shards through the `--jobs` fan-out.

use crate::shard::Shard;
use crate::{shard_of, IngestConfig, ShardStats};

/// Final fleet books: per-shard stats plus their merged totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestStats {
    /// One entry per shard, in shard order.
    pub per_shard: Vec<ShardStats>,
    /// All shards merged. Every count is the fleet's sum, except
    /// `peak_sessions`: that is the largest single shard's peak, not the
    /// most sessions the fleet held at once.
    pub totals: ShardStats,
}

/// A host-side service multiplexing many concurrent device→host ARQ
/// sessions (see the crate docs for the sharding/backpressure/eviction
/// contract).
///
/// Usage is round-based: [`IngestService::offer`] traffic as it
/// arrives, [`IngestService::process_round`] to drain every shard's
/// queue, repeat; [`IngestService::finish`] closes the books.
#[derive(Debug)]
pub struct IngestService {
    shards: Vec<Shard>,
    high_water: usize,
}

impl IngestService {
    pub fn new(cfg: &IngestConfig) -> Self {
        assert!(cfg.shards > 0, "an ingest service needs at least one shard");
        IngestService {
            shards: (0..cfg.shards)
                .map(|_| Shard::new(cfg.session_capacity))
                .collect(),
            high_water: cfg.high_water,
        }
    }

    /// Offers one device's chunk of radio bytes. Returns `false` when
    /// the owning shard is at its high-water mark and shed the chunk
    /// (the shed is also counted in that shard's stats).
    pub fn offer(&mut self, device: u64, bytes: &[u8]) -> bool {
        let idx = shard_of(device, self.shards.len());
        self.shards[idx].enqueue(device, bytes, self.high_water)
    }

    /// Drains every shard's queue, fanning the shards out over up to
    /// `jobs` threads. Each shard is lent `&mut` to exactly one thread
    /// and owns its sessions exclusively, so every counter is identical
    /// at any `jobs` — the knob buys wall-clock time only. At `jobs = 1`
    /// this is a plain loop over the shards.
    pub fn process_round(&mut self, jobs: usize) {
        distscroll_par::par_for_each_mut(jobs, &mut self.shards, |_, shard| {
            shard.process_queue();
        });
    }

    /// Batches queued across all shards and not yet processed.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(Shard::queued).sum()
    }

    /// Live sessions across all shards.
    pub fn live_sessions(&self) -> usize {
        self.shards.iter().map(Shard::live_sessions).sum()
    }

    /// Closes the books: decodes every batch still queued (offered since
    /// the last [`IngestService::process_round`]), then returns per-shard
    /// stats plus fleet totals. Nothing offered and accepted goes
    /// unbooked.
    pub fn finish(mut self) -> IngestStats {
        let per_shard: Vec<ShardStats> = self.shards.iter_mut().map(Shard::finish).collect();
        let mut totals = ShardStats::default();
        for s in &per_shard {
            totals.merge(s);
        }
        IngestStats { per_shard, totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distscroll_hw::arq::{ArqClass, ArqTx};
    use distscroll_hw::link::encode_frame;

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
    fn traffic_routes_by_device_id_and_counters_add_up() {
        let mut svc = IngestService::new(&IngestConfig::unbounded(4));
        let mut txs: Vec<ArqTx> = (0..8).map(|_| ArqTx::new()).collect();
        for (dev, tx) in txs.iter_mut().enumerate() {
            let bytes = stream(tx, 3, 0);
            assert!(svc.offer(dev as u64, &bytes));
        }
        assert_eq!(svc.queued(), 8);
        svc.process_round(1);
        assert_eq!(svc.queued(), 0);
        assert_eq!(svc.live_sessions(), 8);
        let stats = svc.finish();
        assert_eq!(stats.per_shard.len(), 4);
        // Devices 0..8 over 4 shards: two sessions per shard.
        for (i, s) in stats.per_shard.iter().enumerate() {
            assert_eq!(s.sessions_opened, 2, "shard {i}");
            assert_eq!(s.records, 6, "shard {i}");
        }
        assert_eq!(stats.totals.records, 24);
        assert_eq!(stats.totals.events, 24);
        assert_eq!(stats.totals.link.delivered, 24);
        assert_eq!(stats.totals.frames_in, 24);
    }

    #[test]
    fn finish_decodes_batches_offered_since_the_last_round() {
        let mut svc = IngestService::new(&IngestConfig::unbounded(2));
        let mut txs: Vec<ArqTx> = (0..4).map(|_| ArqTx::new()).collect();
        for (dev, tx) in txs.iter_mut().enumerate() {
            assert!(svc.offer(dev as u64, &stream(tx, 3, 0)));
        }
        svc.process_round(1);
        // Offered, never processed: finish must still decode them.
        for (dev, tx) in txs.iter_mut().enumerate() {
            assert!(svc.offer(dev as u64, &stream(tx, 2, 1)));
        }
        assert_eq!(svc.queued(), 4);
        let stats = svc.finish().totals;
        assert_eq!(stats.batches_in, 8);
        assert_eq!(stats.records, 4 * (3 + 2));
        assert_eq!(stats.frames_in, 4 * (3 + 2));
        assert_eq!(stats.link.delivered, 4 * (3 + 2));
    }

    #[test]
    fn round_counters_are_jobs_invariant() {
        let run = |jobs: usize| {
            let mut svc = IngestService::new(&IngestConfig {
                shards: 4,
                high_water: usize::MAX,
                session_capacity: 2,
            });
            let mut txs: Vec<ArqTx> = (0..24).map(|_| ArqTx::new()).collect();
            for round in 0..3u64 {
                for (dev, tx) in txs.iter_mut().enumerate() {
                    let bytes = stream(tx, 2, round);
                    svc.offer(dev as u64, &bytes);
                }
                svc.process_round(jobs);
            }
            svc.finish()
        };
        let serial = run(1);
        for jobs in [2, 4, 8] {
            assert_eq!(serial, run(jobs), "jobs={jobs}");
        }
        assert!(serial.totals.evicted > 0, "capacity 2 must evict");
    }
}

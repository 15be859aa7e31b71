//! Fleet-scale telemetry ingest: one host terminating thousands of
//! concurrent ARQ device→host sessions.
//!
//! The paper's host is a PDA decoding a single device's stream. The
//! roadmap's north star is a fleet: the same wire protocol, but tens of
//! thousands of devices funneling into one ingest service. This crate
//! is that service, built from the pieces the repo already trusts —
//! [`distscroll_host::telemetry::StreamDecoder`] terminates each
//! session's ARQ exactly as in the single-device path, and
//! [`distscroll_par::par_map`] provides the worker pool under the
//! global `--jobs` token budget.
//!
//! # Architecture
//!
//! * **Sharding** — per-session state (decoder, ARQ receiver, stats) is
//!   partitioned by `device_id % shards` into [`shard::Shard`]s. A
//!   shard exclusively owns its sessions and drains its input queue in
//!   FIFO order, so a round of processing is deterministic regardless
//!   of how many workers execute the shards — `--jobs` moves wall-clock
//!   time, never a counter.
//! * **Backpressure** — each shard's input queue has a high-water mark.
//!   Offers beyond it are *shed with a counter* ([`ShardStats::shed_batches`]),
//!   never silently dropped: the caller learns immediately (the offer
//!   returns `false`) and the books record it permanently.
//! * **Bounded sessions** — each shard holds at most `session_capacity`
//!   live sessions. Opening one more evicts the least-recently-touched
//!   session (ties cannot occur: touches are serialized per shard).
//!   Eviction folds the session's counters into the shard aggregate and
//!   discards the decoder, so memory is O(shards + live sessions), not
//!   O(devices × frames). A device that transmits again after eviction
//!   gets a fresh resync decoder
//!   ([`StreamDecoder::with_arq_resync`](distscroll_host::telemetry::StreamDecoder::with_arq_resync))
//!   that adopts the mid-stream sequence number — no stall, no
//!   duplicate delivery.
//! * **Streaming aggregation** — `LinkQuality` and interaction counters
//!   accumulate online per shard; nothing retains per-frame history.
//!
//! Construction of raw `StreamDecoder`s is confined to the shard
//! registry ([`shard`]) and enforced by the `raw-decoder` lint rule:
//! every session in this crate exists in exactly one shard's books.
//! The capture-side [`loadgen`] is the one other exempt file; its
//! decoders measure ground truth outside any shard.

pub mod loadgen;
pub mod service;
pub mod shard;

pub use service::{IngestService, IngestStats};
pub use shard::ShardStats;

/// Sizing knobs for an [`IngestService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Number of shards session state is partitioned across. Fixed for
    /// the life of the service — determinism requires the partition to
    /// be independent of `--jobs`.
    pub shards: usize,
    /// Per-shard input-queue high-water mark: offers that would grow a
    /// shard's queue beyond this are shed (counted, refused).
    pub high_water: usize,
    /// Per-shard live-session bound: opening a session beyond this
    /// evicts the least-recently-touched one first.
    pub session_capacity: usize,
}

impl IngestConfig {
    /// A config with effectively unbounded queueing and sessions —
    /// the baseline against which backpressure and eviction runs are
    /// compared.
    pub fn unbounded(shards: usize) -> Self {
        assert!(shards > 0, "an ingest service needs at least one shard");
        IngestConfig {
            shards,
            high_water: usize::MAX,
            session_capacity: usize::MAX,
        }
    }
}

/// The shard a device's traffic lands on. The partition is a pure
/// function of the device id so that any two runs (at any `--jobs`)
/// route identically.
pub fn shard_of(device: u64, shards: usize) -> usize {
    (device % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_partition_is_stable() {
        for dev in 0..64u64 {
            assert_eq!(shard_of(dev, 8), (dev % 8) as usize);
            assert_eq!(shard_of(dev, 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_refused() {
        let _ = IngestConfig::unbounded(0);
    }
}

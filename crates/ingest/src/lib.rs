//! Fleet-scale telemetry ingest: one host terminating thousands of
//! concurrent ARQ device→host sessions.
//!
//! The paper's host is a PDA decoding a single device's stream. The
//! roadmap's north star is a fleet: the same wire protocol, but tens of
//! thousands of devices funneling into one ingest service. This crate
//! is that service, built from the pieces the repo already trusts —
//! each session decodes through the same path as
//! [`distscroll_host::telemetry::StreamDecoder`], terminating its ARQ
//! exactly as in the single-device path, and
//! [`distscroll_par::par_for_each_mut`] lends each shard `&mut` to one
//! thread under the global `--jobs` budget.
//!
//! # Architecture
//!
//! * **Sharding** — per-session decode state is partitioned by
//!   `device_id % shards` into shards (`shard::Shard`). A shard
//!   exclusively owns its sessions and drains its input queue in FIFO
//!   order, so a round of processing is deterministic regardless of how
//!   many threads execute the shards — `--jobs` moves wall-clock time,
//!   never a counter. No shard sits behind a lock.
//! * **One decode path, one set of books per shard** — a session holds
//!   decode *state* only
//!   ([`DecodeState`](distscroll_host::telemetry::DecodeState)), and
//!   every counter a decode moves (frames ok and bad, bytes skipped and
//!   accepted, records ok and bad, delivered, duplicate and out-of-order
//!   frames, resyncs) is booked once, into the shard's one
//!   [`DecodeBooks`](distscroll_host::telemetry::DecodeBooks), threaded
//!   down the same frame scan → ARQ receive → record parse path a
//!   single-stream [`StreamDecoder`](distscroll_host::telemetry::StreamDecoder)
//!   runs with books of its own. [`ShardStats`] is derived from those
//!   books when the shard closes; `tests/decode_differential.rs` holds
//!   them equal to the sum of per-device decoders, with and without a
//!   capacity bound.
//! * **Backpressure** — each shard's input queue has a high-water mark.
//!   Offers beyond it are *shed with a counter* ([`ShardStats::shed_batches`]),
//!   never silently dropped: the caller learns immediately (the offer
//!   returns `false`) and the books record it permanently. A round's
//!   byte slab holds at most 4 GiB per shard; an offer past that sheds
//!   the same way. [`IngestService::finish`] decodes whatever is still
//!   queued before it closes the books.
//! * **Bounded sessions** — each shard holds at most `session_capacity`
//!   live sessions. Opening one more evicts the least-recently-touched
//!   session (ties cannot occur: touches are serialized per shard).
//!   Eviction only resets the slot for the newcomer — the evicted
//!   session's counters are already in the shard's books — so memory is
//!   O(shards + live sessions), not O(devices × frames). A device that
//!   transmits again after eviction gets a fresh resync state
//!   ([`DecodeState::with_arq_resync`](distscroll_host::telemetry::DecodeState::with_arq_resync))
//!   that adopts the first sequence number it hears — no stall, but
//!   **not** at-most-once: when that frame is a retransmission of
//!   records the evicted session already delivered, the resumed session
//!   delivers them again. This is the known re-delivery defect (the
//!   ROADMAP's eviction-fix item, "a benchmark PR that carries the
//!   eviction fix"); perfbench's `churn_gate_catches_double_delivery`
//!   pins it.
//! * **Heap-free resident sessions** — a live session is one 104-byte
//!   slot in its shard's table: the device id, the frame decoder's
//!   carry, and the ARQ receiver's expected sequence number, sync flag
//!   and a fixed ring of [`WINDOW`](distscroll_hw::arq::WINDOW) parked
//!   records. The recency links are a side array of `u32` pairs and a
//!   queued batch is a device id with a `u32` range of the shard's byte
//!   slab. The one thing that still allocates per session is the frame
//!   decoder's carry, and only once a frame splits across two batches.
//!   `tests/zero_alloc_sessions.rs` holds opening, evicting and decoding
//!   at the bound to zero allocations.
//! * **Streaming aggregation** — `LinkQuality` and interaction counters
//!   accumulate online per shard; nothing retains per-frame history.
//!
//! Fleet sessions' decode state is opened only in the shard registry
//! ([`shard`]): every session in this crate exists in exactly one
//! shard's books, and the fleet ledger test (`tests/fleet_ledger.rs`)
//! checks that every offered byte and every frame on the air is
//! accounted for there. The capture side is the one other place that
//! opens decoders, outside any shard: [`loadgen::ScriptedSession`], the
//! one scripted device session that experiment L2 and
//! [`loadgen::capture_template`] both drive, hosts a live decoder, and
//! `capture_template` replays each capture through a fresh one to
//! measure its ground truth.

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

//! The fleet-path contracts, checked exactly:
//!
//! * overdriving one shard, with many small chunks or a few large ones,
//!   sheds with exact counters and leaves every other shard's books
//!   untouched, though every shard's bytes share one round buffer;
//! * eviction under a session-capacity bound loses no records on clean
//!   streams — evicted-then-resumed sessions re-sync through ARQ
//!   without duplicates;
//! * every counter is identical at `--jobs` 1/2/4/8.

use distscroll_ingest::loadgen::{
    capture_template, inorder_template, CohortLoad, LinkProfile, Template,
};
use distscroll_ingest::{shard_of, IngestConfig, IngestService, IngestStats};

const SHARDS: usize = 4;
const DEVICES: u64 = 40;
const SEED: u64 = 20050607;

fn clean_cohort() -> CohortLoad {
    let template: Template = capture_template(LinkProfile::CLEAN, 10, 100, SEED);
    assert!(template.records > 0);
    CohortLoad::new(vec![template], DEVICES, 4)
}

/// Replays the cohort through a service; `burst` extra chunks of
/// `burst_len` junk bytes (load, not records) are offered to shard 0
/// each round (fresh device ids, so they open sessions of their own).
/// Returns the books plus the exact number of offers the service
/// refused.
fn drive(
    cfg: &IngestConfig,
    load: &CohortLoad,
    burst: u64,
    burst_len: usize,
    jobs: usize,
) -> (IngestStats, u64) {
    let mut svc = IngestService::new(cfg);
    let mut refused = 0u64;
    let burst_chunk = vec![0xAAu8; burst_len];
    for round in 0..load.rounds() {
        load.for_round(round, |device, chunk| {
            if !svc.offer(device, chunk) {
                refused += 1;
            }
        });
        for b in 0..burst {
            // Device ids ≡ 0 (mod SHARDS), well above the cohort's.
            let device = 1_000_000 + (round * burst + b) * SHARDS as u64;
            assert_eq!(shard_of(device, SHARDS), 0);
            if !svc.offer(device, &burst_chunk) {
                refused += 1;
            }
        }
        svc.process_round(jobs);
    }
    (svc.finish(), refused)
}

#[test]
fn unbounded_ingest_delivers_ground_truth_exactly() {
    let load = clean_cohort();
    let (stats, refused) = drive(&IngestConfig::unbounded(SHARDS), &load, 0, 0, 2);
    assert_eq!(refused, 0);
    assert_eq!(stats.totals.shed_batches, 0);
    assert_eq!(stats.totals.evicted, 0);
    assert_eq!(stats.totals.records, load.expected_records());
    // The on-air stream carries retransmit duplicates (acks lag the
    // 8-tick timeout), but delivery stays exactly-once: every dup is
    // absorbed by the receiver, never parsed into a record.
    assert_eq!(stats.totals.link.delivered, stats.totals.records);
    for (shard, s) in stats.per_shard.iter().enumerate() {
        assert_eq!(
            s.records,
            load.expected_records_for_shard(shard, SHARDS),
            "shard {shard}"
        );
    }
}

#[test]
fn overdriving_one_shard_sheds_exactly_and_spares_the_rest() {
    let load = clean_cohort();
    let unbounded = IngestConfig::unbounded(SHARDS);
    let (baseline, _) = drive(&unbounded, &load, 0, 0, 2);

    // High water sized so cohort traffic alone never sheds (at most
    // DEVICES/SHARDS offers land on a shard per round). A burst of 64
    // small chunks aimed at shard 0 overflows it every round; a burst of
    // four 64 KiB chunks stays under it but puts most of every round's
    // bytes on shard 0.
    let cfg = IngestConfig {
        high_water: 16,
        ..unbounded
    };
    for (burst, burst_len, sheds) in [(64, 24, true), (4, 64 * 1024, false)] {
        let (stats, refused) = drive(&cfg, &load, burst, burst_len, 2);
        let what = format!("{burst} chunks of {burst_len} bytes");

        assert_eq!(refused > 0, sheds, "{what}: {refused} refused");
        assert_eq!(
            stats.totals.shed_batches, refused,
            "{what}: every refused offer is counted, none silently dropped"
        );
        assert_eq!(
            stats.per_shard[0].shed_batches, refused,
            "{what}: all shedding happened on the overdriven shard"
        );
        assert!(
            stats.per_shard[0].bytes_in > baseline.per_shard[0].bytes_in,
            "{what}: the burst must reach shard 0"
        );
        for shard in 1..SHARDS {
            assert_eq!(
                stats.per_shard[shard], baseline.per_shard[shard],
                "{what}: shard {shard} books must be untouched by shard 0's overload"
            );
        }
    }
}

#[test]
fn eviction_resumes_sessions_without_loss_or_duplicates() {
    // Strictly in-order single-class templates: a resumed session's
    // first frame is exactly the next undelivered sequence, so
    // zero-loss, zero-duplicate resume is exactly checkable.
    let template = inorder_template(12, 2);
    assert!(template.records > 0);
    let load = CohortLoad::new(vec![template], DEVICES, 4);
    // 40 devices over 4 shards is 10 sessions per shard; capacity 3
    // forces constant eviction and resumption.
    let cfg = IngestConfig {
        session_capacity: 3,
        ..IngestConfig::unbounded(SHARDS)
    };
    let (stats, refused) = drive(&cfg, &load, 0, 0, 2);
    assert_eq!(refused, 0);
    assert!(stats.totals.evicted > 0, "capacity 3 must evict");
    assert!(
        stats.totals.resyncs > 0,
        "resumed sessions must adopt mid-stream sequence numbers"
    );
    // Exactly `expected` records: equality rules out loss (fewer) AND
    // double-delivery through resync (more) in one stroke. Retransmit
    // duplicates on the air are absorbed, never parsed twice.
    assert_eq!(
        stats.totals.records,
        load.expected_records(),
        "clean streams must survive evict/resume without loss or duplicates"
    );
    assert_eq!(stats.totals.link.delivered, stats.totals.records);
}

#[test]
fn every_counter_is_jobs_invariant() {
    let load = clean_cohort();
    let cfg = IngestConfig {
        high_water: 16,
        session_capacity: 3,
        shards: SHARDS,
    };
    let (serial, refused_serial) = drive(&cfg, &load, 64, 24, 1);
    for jobs in [2, 4, 8] {
        let (stats, refused) = drive(&cfg, &load, 64, 24, jobs);
        assert_eq!(refused, refused_serial, "jobs={jobs}");
        assert_eq!(stats, serial, "jobs={jobs}");
    }
}

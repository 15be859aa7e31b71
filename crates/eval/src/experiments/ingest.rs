//! L3 — fleet-scale telemetry ingest: multiplexed ARQ sessions with
//! sharded decode, backpressure, and LRU session eviction.
//!
//! The paper's host decodes one device. The roadmap's north star is a
//! fleet, and this experiment is the transport layer's fleet battery:
//! a deterministic cohort of simulated devices (template sessions
//! captured through the real firmware/ARQ/radio stack, replayed on
//! staggered schedules) is driven through `distscroll_ingest` under
//! three regimes —
//!
//! * **baseline**: unbounded queues and sessions. Delivery must equal
//!   the replay-derived ground truth *exactly*, with nothing shed and
//!   nothing evicted.
//! * **overdrive**: a burst aimed at shard 0 overflows its high-water
//!   mark. Every refused offer must be counted (shed-with-counter,
//!   never silent), and the books of every other shard must be
//!   byte-identical to baseline — overload isolation.
//! * **eviction**: a session-capacity bound far below the cohort size
//!   forces constant LRU eviction. On strictly in-order template
//!   streams, evicted-then-resumed sessions must re-sync through ARQ
//!   with zero loss and zero double-delivery.
//!
//! All counters are pure functions of the seed: shard count is fixed
//! per effort (never derived from `--jobs`), each shard drains its
//! FIFO queue in order, and the worker budget only decides which
//! shards drain concurrently.

use distscroll_ingest::loadgen::{capture_template, inorder_template, CohortLoad, LinkProfile};
use distscroll_ingest::{IngestConfig, IngestService, IngestStats};

use crate::report::Table;

use super::{Effort, ExperimentReport};

/// One regime's outcome: the books plus the driver's own refusal count.
struct RegimeOutcome {
    name: &'static str,
    stats: IngestStats,
    refused: u64,
    expected: u64,
}

/// Replays `load` through a service configured by `cfg`; `burst` extra
/// chunks per round are aimed at shard 0 (fresh device ids). Returns
/// the closed books and the exact number of refused offers.
fn drive(cfg: &IngestConfig, load: &CohortLoad, burst: u64, jobs: usize) -> (IngestStats, u64) {
    let mut svc = IngestService::new(cfg);
    let mut refused = 0u64;
    let burst_chunk = [0xAAu8; 32]; // opaque load, not records
    let shards = cfg.shards as u64;
    for round in 0..load.rounds() {
        load.for_round(round, |device, chunk| {
            if !svc.offer(device, chunk) {
                refused += 1;
            }
        });
        for b in 0..burst {
            // Ids ≡ 0 (mod shards), far above the cohort's range.
            let device = (1 << 32) + (round * burst + b) * shards;
            if !svc.offer(device, &burst_chunk) {
                refused += 1;
            }
        }
        svc.process_round(jobs);
    }
    (svc.finish(), refused)
}

/// Runs L3.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let devices: u64 = effort.pick(600, 10_000);
    let shards: usize = effort.pick(4, 8);
    let capture_rounds: u64 = effort.pick(10, 16);
    let stagger: u64 = 6;

    // Template sessions through the real stack, one per link condition
    // the cohort mixes: a clean office link, two degraded hallway
    // links, and the lossy far-range condition.
    let conditions = [
        LinkProfile::CLEAN,
        LinkProfile {
            drop_prob: 0.02,
            ber: 0.0,
            jitter_ms: 5,
        },
        LinkProfile {
            drop_prob: 0.05,
            ber: 1e-5,
            jitter_ms: 15,
        },
        LinkProfile::LOSSY,
    ];
    let templates: Vec<_> = conditions
        .iter()
        .enumerate()
        .map(|(i, &link)| {
            let capture_seed = seed.wrapping_add(0x9e37_79b9 * (i as u64 + 1));
            capture_template(link, capture_rounds, 100, capture_seed)
        })
        .collect();
    let load = CohortLoad::new(templates, devices, stagger);

    // The high-water mark admits any round of plain cohort traffic (at
    // most ceil(devices/shards) offers land on one shard per round);
    // the burst doubles shard 0's inflow so it must shed.
    let per_shard = devices.div_ceil(shards as u64);
    let high_water = per_shard as usize;
    let burst = per_shard;

    // In-order synthetic cohort for the eviction regime: zero-loss
    // resume is only promisable on single-class in-order streams (see
    // `loadgen::inorder_template`).
    let evict_load = CohortLoad::new(vec![inorder_template(12, 2)], devices, stagger);
    let evict_capacity = (per_shard / 4).max(2) as usize;

    let jobs = super::jobs();
    let unbounded = IngestConfig::unbounded(shards);

    let (base_stats, base_refused) = drive(&unbounded, &load, 0, jobs);
    let (over_stats, over_refused) = drive(
        &IngestConfig {
            high_water,
            ..unbounded
        },
        &load,
        burst,
        jobs,
    );
    let (evict_stats, evict_refused) = drive(
        &IngestConfig {
            session_capacity: evict_capacity,
            ..unbounded
        },
        &evict_load,
        0,
        jobs,
    );
    let regimes = [
        RegimeOutcome {
            name: "baseline",
            expected: load.expected_records(),
            stats: base_stats,
            refused: base_refused,
        },
        RegimeOutcome {
            name: "overdrive shard 0",
            expected: load.expected_records(),
            stats: over_stats,
            refused: over_refused,
        },
        RegimeOutcome {
            name: "evicting",
            expected: evict_load.expected_records(),
            stats: evict_stats,
            refused: evict_refused,
        },
    ];

    let mut table = Table::new(
        format!("fleet ingest, {devices} devices over {shards} shards"),
        &[
            "regime",
            "frames in",
            "records",
            "expected",
            "shed",
            "evicted",
            "resyncs",
            "peak sessions",
        ],
    );
    for r in &regimes {
        let t = &r.stats.totals;
        table.row(&[
            r.name.into(),
            format!("{}", t.frames_in),
            format!("{}", t.records),
            format!("{}", r.expected),
            format!("{}", t.shed_batches),
            format!("{}", t.evicted),
            format!("{}", t.resyncs),
            format!("{}", t.peak_sessions),
        ]);
    }

    let mut isolation = Table::new(
        "overload isolation: per-shard records, baseline vs overdrive",
        &["shard", "baseline", "overdrive", "shed", "identical books"],
    );
    let (base, over) = (&regimes[0].stats, &regimes[1].stats);
    for shard in 0..shards {
        let same = base.per_shard[shard] == over.per_shard[shard];
        isolation.row(&[
            format!("{shard}"),
            format!("{}", base.per_shard[shard].records),
            format!("{}", over.per_shard[shard].records),
            format!("{}", over.per_shard[shard].shed_batches),
            if shard == 0 {
                "overdriven".into()
            } else if same {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }

    // Shape checks, all exact.
    let baseline_exact = regimes[0].stats.totals.records == regimes[0].expected
        && regimes[0].stats.totals.shed_batches == 0
        && regimes[0].stats.totals.evicted == 0
        && regimes[0].refused == 0;
    let shed_counted = regimes[1].refused > 0
        && regimes[1].stats.totals.shed_batches == regimes[1].refused
        && over.per_shard[0].shed_batches == regimes[1].refused;
    let isolation_holds = (1..shards).all(|s| base.per_shard[s] == over.per_shard[s]);
    let evicted = &regimes[2];
    let eviction_exact = evicted.stats.totals.evicted > 0
        && evicted.stats.totals.resyncs > 0
        && evicted.stats.totals.records == evicted.expected
        && evicted.refused == 0;

    let findings = vec![
        format!(
            "baseline: {} devices deliver {} records — the replay ground truth, exactly",
            devices, regimes[0].stats.totals.records
        ),
        format!(
            "overdrive: {} offers shed at shard 0's high-water mark ({}), every one counted, \
             shards 1..{} byte-identical to baseline",
            regimes[1].refused, high_water, shards
        ),
        format!(
            "eviction: {} evictions at capacity {}, {} resyncs, and still exactly {} records — \
             evicted sessions resume through ARQ without loss or duplicates",
            evicted.stats.totals.evicted,
            evict_capacity,
            evicted.stats.totals.resyncs,
            evicted.stats.totals.records
        ),
    ];

    ExperimentReport {
        id: "L3",
        title: "fleet-scale telemetry ingest: multiplexed ARQ sessions".into(),
        paper_claim: "the host PC decodes one device's stream (Sec. 3.2); the roadmap north \
                      star is the same protocol serving a fleet — sharded decode must keep \
                      every per-session guarantee while bounding memory and shedding overload \
                      loudly"
            .into(),
        sections: vec![table.render(), isolation.render()],
        findings,
        shape_holds: baseline_exact && shed_counted && isolation_holds && eviction_exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l3_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }

    #[test]
    fn l3_is_deterministic_across_jobs() {
        super::super::set_jobs(1);
        let serial = run(Effort::Quick, 7);
        for jobs in [2, 8] {
            super::super::set_jobs(jobs);
            assert_eq!(
                serial.render(),
                run(Effort::Quick, 7).render(),
                "jobs={jobs}"
            );
        }
        super::super::set_jobs(0);
    }
}

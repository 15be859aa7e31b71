//! `fleet_ingest` and `fleet_churn`: a fleet replaying captured
//! sessions into one `IngestService`.
//!
//! Set-up captures four template sessions through the real device,
//! ARQ and radio (`loadgen::capture_template`) under a clean link, a
//! light-loss link, the `LOSSY` hallway link and a high bit-error link
//! that keeps CRC-failure resync on the clock, then staggers the cohort
//! over them. Each round offers every active device's chunk and drains
//! the shards with `process_round(1)`: the loop is closed, so the next
//! round is offered only after the previous one has drained.
//!
//! `fleet_ingest` sizes every shard to hold its whole share of the
//! cohort, so nothing is shed or evicted and host decode does the work.
//! `fleet_churn` caps each shard's live sessions at half its share, so
//! LRU eviction and mid-stream resync run every round. An evicted
//! session may lose records but must never deliver one twice; on the
//! captured streams a resumed receiver currently does, so `fleet_churn`
//! fails its gate and is not listed in `BENCHMARK.json` (see
//! `README.md`).

use std::time::Instant;

use distscroll_ingest::loadgen::{capture_template, CohortLoad, LinkProfile, Template};
use distscroll_ingest::{IngestConfig, IngestService};

use crate::stats::Digest;
use crate::trace::{Probe, Site};
use crate::{Counters, PassOutcome};

/// Shards the service partitions the fleet over.
const SHARDS: usize = 8;
/// Simulated length of one round, and of one template chunk.
const ROUND_MS: u64 = 100;
/// Active rounds a template captures (the capture adds a drain tail).
const CAPTURE_ROUNDS: u64 = 48;
/// Start offsets are spread over this many rounds. Short against the
/// template, so three rounds in four carry every device: the per-round
/// latencies then cluster, and their median sits inside the cluster
/// rather than on the edge of the ramp-up and ramp-down rounds.
const STAGGER: u64 = 4;

/// How a fleet's shards are bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Every session resident: no eviction, no shedding.
    Resident,
    /// Live sessions capped at half of each shard's share of the fleet.
    Churn,
}

/// The link conditions the templates are captured under.
const LINKS: [LinkProfile; 4] = [
    LinkProfile::CLEAN,
    LinkProfile {
        drop_prob: 0.02,
        ber: 0.0,
        jitter_ms: 5,
    },
    LinkProfile::LOSSY,
    LinkProfile {
        drop_prob: 0.02,
        ber: 1e-3,
        jitter_ms: 5,
    },
];

/// The fleet's inputs and system under test, built from the seed.
#[derive(Debug)]
pub struct Fleet {
    regime: Regime,
    load: CohortLoad,
    service: IngestService,
    /// Simulated device-seconds the cohort replays.
    sim_s: f64,
}

/// The service configuration for `devices` under `regime`.
fn config(devices: u64, regime: Regime) -> IngestConfig {
    // Each device offers at most one chunk per round, so a queue of
    // one shard's share never sheds.
    let share = devices.div_ceil(SHARDS as u64).max(1) as usize;
    IngestConfig {
        shards: SHARDS,
        high_water: share,
        session_capacity: match regime {
            Regime::Resident => share,
            Regime::Churn => (share / 2).max(1),
        },
    }
}

/// Builds one pass's fleet from `seed`.
pub fn setup<P: Probe>(seed: u64, devices: u64, regime: Regime, probe: &mut P) -> Fleet {
    let templates: Vec<Template> = LINKS
        .iter()
        .enumerate()
        .map(|(i, &link)| {
            let own = seed.wrapping_add(0x9e37_79b9_u64.wrapping_mul(i as u64 + 1));
            probe.span(Site::LoadgenCapture, || {
                capture_template(link, CAPTURE_ROUNDS, ROUND_MS, own)
            })
        })
        .collect();
    let chunks: u64 = (0..devices)
        .map(|d| {
            templates[(d % templates.len() as u64) as usize]
                .rounds
                .len() as u64
        })
        .sum();
    let load = probe.span(Site::LoadgenCohort, || {
        CohortLoad::new(templates, devices, STAGGER)
    });
    let cfg = config(devices, regime);
    let service = probe.span(Site::IngestBooks, || IngestService::new(&cfg));
    Fleet {
        regime,
        load,
        service,
        sim_s: chunks as f64 * ROUND_MS as f64 / 1e3,
    }
}

/// Runs one pass: every round of the cohort, then the books and gates.
pub fn run<P: Probe>(fleet: Fleet, probe: &mut P) -> PassOutcome {
    let Fleet {
        regime,
        load,
        mut service,
        sim_s,
    } = fleet;
    let rounds = load.rounds();
    let mut latencies_ms = Vec::with_capacity(rounds as usize);
    let mut offers = 0u64;
    let mut refused = 0u64;
    for round in 0..rounds {
        let started = Instant::now();
        let root = probe.enter(Site::Round);
        load.for_round(round, |device, chunk| {
            offers += 1;
            if !probe.span(Site::IngestOffer, || service.offer(device, chunk)) {
                refused += 1;
            }
        });
        probe.span(Site::IngestProcess, || service.process_round(1));
        probe.exit(root);
        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let root = probe.enter(Site::Finish);
    let stats = probe.span(Site::IngestBooks, || service.finish());
    probe.exit(root);

    let t = stats.totals;
    let expected = load.expected_records();
    let mut gate_failures = Vec::new();
    let mut gate = |ok: bool, what: String| {
        if !ok {
            gate_failures.push(what);
        }
    };
    gate(
        refused == t.shed_batches,
        format!(
            "{refused} refused offers but {} shed batches",
            t.shed_batches
        ),
    );
    gate(
        t.shed_batches == 0,
        format!("{} batches shed", t.shed_batches),
    );
    match regime {
        Regime::Resident => {
            gate(
                t.records == expected,
                format!("{} records, expected exactly {expected}", t.records),
            );
            gate(t.evicted == 0, format!("{} sessions evicted", t.evicted));
        }
        Regime::Churn => {
            // Eviction may lose records, never repeat them.
            gate(
                t.records <= expected,
                format!("{} records, expected at most {expected}", t.records),
            );
            gate(t.evicted > 0, "no session was evicted".to_string());
            gate(t.resyncs > 0, "no session resynced".to_string());
        }
    }

    let mut digest = Digest::default();
    digest.debug(&(rounds, offers, refused, expected));
    digest.debug(&stats.per_shard);
    let counters: Counters = vec![
        ("ingest.frames_in", t.frames_in as f64),
        (
            "ingest.records_per_frame",
            t.records as f64 / t.frames_in.max(1) as f64,
        ),
        ("ingest.crc_failures", t.crc_failures as f64),
        ("ingest.shed_batches", t.shed_batches as f64),
        ("ingest.evicted", t.evicted as f64),
        ("ingest.resyncs", t.resyncs as f64),
        ("ingest.sessions_opened", t.sessions_opened as f64),
        ("ingest.peak_sessions", t.peak_sessions as f64),
        ("hw.arq.duplicates", t.link.duplicates as f64),
        ("hw.link.crc_failures", t.crc_failures as f64),
        ("ingest.bytes", t.bytes_in as f64),
        ("ingest.offers", offers as f64),
        ("ingest.rounds", rounds as f64),
    ];
    PassOutcome {
        sim_s,
        latencies_ms,
        attempted: offers,
        failed: t.shed_batches,
        digest,
        counters,
        gate_failures,
    }
}

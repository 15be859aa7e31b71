//! Differential oracle for the fleet decode: a shard's books against
//! plain per-device decoders.
//!
//! A shard holds each session's decode state alone and books every
//! counter into one shared set of books. The reference here is the
//! single-stream decoder, [`StreamDecoder::with_arq_resync`], one per
//! device with books of its own, fed the device's whole stream in one
//! push. Summed per shard, those books must equal the shard's, field by
//! field:
//!
//! * over captured streams from the four link profiles the fleet
//!   benchmark replays (clean, light loss, the hallway link and a
//!   1e-3-BER link whose CRC failures keep the frame scan resyncing);
//! * with the streams cut into batches at several split points, down to
//!   single bytes, so frames straddle batches and sit in a carry;
//! * at `jobs` 1 and 4.
//!
//! A template that ends chunks inside a frame, so a session's carry
//! holds bytes from one batch to the next in the capture's own split, is
//! checked the same way on its own.
//!
//! Under a session-capacity bound the reference is a model of the
//! eviction policy: each eviction retires the device's decoder and the
//! next batch from it starts a fresh one, which is exactly what
//! resetting a reused slot must amount to.

use std::collections::BTreeMap;

use distscroll_host::telemetry::{Record, StreamDecoder};
use distscroll_ingest::loadgen::{capture_template, LinkProfile};
use distscroll_ingest::{shard_of, IngestConfig, IngestService, ShardStats};

const SHARDS: usize = 4;
const DEVICES: u64 = 24;
const SEED: u64 = 20050607;

/// The link profiles the fleet benchmark captures its templates under.
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

/// How each device's stream is cut into batches.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// The capture's own per-round chunks.
    Captured,
    /// Fixed-size batches of this many bytes.
    Every(usize),
}

/// Every device's stream, cut into its batches: device `d` replays the
/// template of link `d % 4`, captured at a seed of its own.
fn batches(split: Split) -> Vec<Vec<Vec<u8>>> {
    let templates: Vec<Vec<Vec<u8>>> = LINKS
        .iter()
        .enumerate()
        .map(|(i, &link)| capture_template(link, 16, 100, SEED + i as u64).rounds)
        .collect();
    batches_of(&templates, split)
}

/// Every device's stream, cut into its batches: device `d` replays
/// `templates[d % templates.len()]`.
fn batches_of(templates: &[Vec<Vec<u8>>], split: Split) -> Vec<Vec<Vec<u8>>> {
    (0..DEVICES as usize)
        .map(|d| {
            let chunks = &templates[d % templates.len()];
            match split {
                Split::Captured => chunks.clone(),
                Split::Every(n) => chunks.concat().chunks(n).map(<[u8]>::to_vec).collect(),
            }
        })
        .collect()
}

/// The order batches arrive in: round by round, every device with a
/// batch left in id order, device `d` starting `d % 3` rounds late so
/// the devices interleave differently from round to round.
fn schedule(streams: &[Vec<Vec<u8>>]) -> Vec<(u64, &[u8])> {
    let rounds = streams.iter().map(Vec::len).max().unwrap_or(0) + 3;
    let mut order = Vec::new();
    for round in 0..rounds {
        for (d, stream) in streams.iter().enumerate() {
            let Some(k) = round.checked_sub(d % 3) else {
                continue;
            };
            if let Some(batch) = stream.get(k) {
                if !batch.is_empty() {
                    order.push((d as u64, batch.as_slice()));
                }
            }
        }
    }
    order
}

/// Replays the schedule through the service, draining after each
/// schedule round (marked by the device id wrapping back).
fn drive(cfg: &IngestConfig, order: &[(u64, &[u8])], jobs: usize) -> Vec<ShardStats> {
    let mut svc = IngestService::new(cfg);
    let mut last = None;
    for &(device, bytes) in order {
        if last.is_some_and(|l| device <= l) {
            svc.process_round(jobs);
        }
        last = Some(device);
        assert!(svc.offer(device, bytes), "nothing is shed here");
    }
    svc.process_round(jobs);
    svc.finish().per_shard
}

/// One shard's decode books as the reference sums them: every field of
/// [`ShardStats`] a decode moves.
#[derive(Debug, Default, PartialEq, Eq)]
struct Books {
    frames_in: u64,
    records: u64,
    records_bad: u64,
    crc_failures: u64,
    events: u64,
    states: u64,
    resyncs: u64,
    delivered: u64,
    duplicates: u64,
    out_of_order: u64,
    sessions_opened: u64,
    evicted: u64,
}

impl Books {
    /// Folds in a retiring decoder's books, with the events and states
    /// its sink saw.
    fn retire(&mut self, dec: &StreamDecoder, events: u64, states: u64) {
        let link = dec.arq_quality().unwrap_or_default();
        self.frames_in += dec.records_ok() + dec.records_bad() + dec.crc_failures();
        self.records += dec.records_ok();
        self.records_bad += dec.records_bad();
        self.crc_failures += dec.crc_failures();
        self.events += events;
        self.states += states;
        self.resyncs += u64::from(dec.arq_resynced() == Some(true));
        self.delivered += link.delivered;
        self.duplicates += link.duplicates;
        self.out_of_order += link.out_of_order;
    }

    fn of(s: &ShardStats) -> Books {
        Books {
            frames_in: s.frames_in,
            records: s.records,
            records_bad: s.records_bad,
            crc_failures: s.crc_failures,
            events: s.events,
            states: s.states,
            resyncs: s.resyncs,
            delivered: s.link.delivered,
            duplicates: s.link.duplicates,
            out_of_order: s.link.out_of_order,
            sessions_opened: s.sessions_opened,
            evicted: s.evicted,
        }
    }
}

/// A live reference session: a decoder of its own, the events and
/// states its sink saw, and its last touch.
struct Live {
    dec: StreamDecoder,
    events: u64,
    states: u64,
    touched: usize,
}

/// The reference: per shard, one fresh resync decoder per session, a
/// session evicted when opening one more would pass `capacity` (the
/// least recently touched, as a scan for the oldest touch), and every
/// decoder's books summed when it retires or at the end.
fn model(order: &[(u64, &[u8])], capacity: usize) -> Vec<Books> {
    let mut books: Vec<Books> = (0..SHARDS).map(|_| Books::default()).collect();
    let mut live: Vec<BTreeMap<u64, Live>> = (0..SHARDS).map(|_| BTreeMap::new()).collect();
    for (touch, &(device, bytes)) in order.iter().enumerate() {
        let shard = shard_of(device, SHARDS);
        let (sessions, book) = (&mut live[shard], &mut books[shard]);
        if !sessions.contains_key(&device) {
            if sessions.len() >= capacity {
                let victim = sessions
                    .iter()
                    .min_by_key(|(_, s)| s.touched)
                    .map(|(&d, _)| d);
                if let Some(s) = victim.and_then(|v| sessions.remove(&v)) {
                    book.retire(&s.dec, s.events, s.states);
                    book.evicted += 1;
                }
            }
            book.sessions_opened += 1;
        }
        let s = sessions.entry(device).or_insert_with(|| Live {
            dec: StreamDecoder::with_arq_resync(),
            events: 0,
            states: 0,
            touched: touch,
        });
        s.touched = touch;
        let (events, states) = (&mut s.events, &mut s.states);
        s.dec.push_bytes_with(bytes, |rec| match rec {
            Record::Event(_) => *events += 1,
            Record::State(_) => *states += 1,
        });
    }
    for (shard, sessions) in live.iter().enumerate() {
        for s in sessions.values() {
            books[shard].retire(&s.dec, s.events, s.states);
        }
    }
    books
}

const SPLITS: [Split; 5] = [
    Split::Captured,
    Split::Every(1),
    Split::Every(7),
    Split::Every(64),
    Split::Every(300),
];

#[test]
fn resident_shard_books_equal_the_sum_of_per_device_decoders() {
    for split in SPLITS {
        let streams = batches(split);
        // The reference: each device's whole stream in one push.
        let mut want: Vec<Books> = (0..SHARDS).map(|_| Books::default()).collect();
        for (d, stream) in streams.iter().enumerate() {
            let mut dec = StreamDecoder::with_arq_resync();
            let (mut events, mut states) = (0, 0);
            dec.push_bytes_with(&stream.concat(), |rec| match rec {
                Record::Event(_) => events += 1,
                Record::State(_) => states += 1,
            });
            let book = &mut want[shard_of(d as u64, SHARDS)];
            book.retire(&dec, events, states);
            book.sessions_opened += 1;
        }
        let order = schedule(&streams);
        for jobs in [1, 4] {
            let got: Vec<Books> = drive(&IngestConfig::unbounded(SHARDS), &order, jobs)
                .iter()
                .map(Books::of)
                .collect();
            assert_eq!(got, want, "{split:?}, jobs {jobs}");
        }
        let crc: u64 = want.iter().map(|b| b.crc_failures).sum();
        let dups: u64 = want.iter().map(|b| b.duplicates).sum();
        let resyncs: u64 = want.iter().map(|b| b.resyncs).sum();
        assert!(crc > 0, "the BER link must fail CRCs");
        assert!(dups > 0, "lossy links carry retransmitted copies");
        assert!(resyncs > 0, "some capture must open mid-stream");
    }
}

#[test]
fn bounded_shard_books_equal_a_fresh_decoder_per_eviction() {
    for split in SPLITS {
        let streams = batches(split);
        let order = schedule(&streams);
        for capacity in [1, 2, 4] {
            let want = model(&order, capacity);
            let cfg = IngestConfig {
                shards: SHARDS,
                high_water: usize::MAX,
                session_capacity: capacity,
            };
            for jobs in [1, 4] {
                let got: Vec<Books> = drive(&cfg, &order, jobs).iter().map(Books::of).collect();
                assert_eq!(got, want, "{split:?}, capacity {capacity}, jobs {jobs}");
            }
            let evicted: u64 = want.iter().map(|b| b.evicted).sum();
            assert!(evicted > 0, "{split:?}, capacity {capacity}: must evict");
        }
    }
}

/// The 1e-3-BER link at a capture seed whose 12-round template ends two
/// of its chunks inside a frame.
fn split_frame_template() -> Vec<Vec<u8>> {
    let rounds = capture_template(LINKS[3], 12, 100, 20050603).rounds;
    let mut dec = StreamDecoder::with_arq_resync();
    let splits = rounds
        .iter()
        .filter(|chunk| {
            dec.push_bytes_with(chunk, |_| {});
            dec.link_byte_accounting().2 > 0
        })
        .count();
    assert!(splits > 0, "the template must split a frame across chunks");
    rounds
}

#[test]
fn split_frame_template_books_equal_the_per_device_decoders() {
    // Every device replays the split template, half of them next to the
    // hallway link's, in the capture's own chunks.
    let templates = [
        split_frame_template(),
        capture_template(LINKS[2], 12, 100, SEED).rounds,
    ];
    let streams = batches_of(&templates, Split::Captured);
    let order = schedule(&streams);
    for capacity in [usize::MAX, 1, 2, 4] {
        let want = model(&order, capacity);
        let cfg = IngestConfig {
            shards: SHARDS,
            high_water: usize::MAX,
            session_capacity: capacity,
        };
        for jobs in [1, 4] {
            let got: Vec<Books> = drive(&cfg, &order, jobs).iter().map(Books::of).collect();
            assert_eq!(got, want, "capacity {capacity}, jobs {jobs}");
        }
        let crc: u64 = want.iter().map(|b| b.crc_failures).sum();
        assert!(crc > 0, "the BER link must fail CRCs");
    }
}

//! The fleet ledger: every byte offered to the service and every frame
//! on the air is accounted for in some shard's books.
//!
//! A session decoded outside the shard registry — a decoder opened in
//! the front door that eats a batch — would leave bytes and frames the
//! books never see; both equalities below catch it. The frame count is
//! independent of the service: a plain [`FrameDecoder`] over each
//! device's concatenated stream.
//!
//! `frames_in` counts the frames that reached the record layer. A data
//! frame the ARQ receiver discards as an already-delivered copy never
//! does, so the frame ledger adds `link.duplicates` back. The in-order
//! template carries no duplicate, so for it `frames_in` alone matches.

use std::collections::BTreeMap;

use distscroll_hw::link::FrameDecoder;
use distscroll_ingest::loadgen::{capture_template, inorder_template, CohortLoad, LinkProfile};
use distscroll_ingest::{shard_of, IngestConfig, IngestService, IngestStats};

const SHARDS: usize = 4;
const DEVICES: u64 = 30;
const SEED: u64 = 20050607;

/// What the cohort put on the air, per device, as offered.
struct Offered {
    streams: BTreeMap<u64, Vec<u8>>,
}

impl Offered {
    fn bytes(&self, shard: Option<usize>) -> u64 {
        let on = |d: u64| shard.is_none_or(|s| shard_of(d, SHARDS) == s);
        let streams = self.streams.iter().filter(|(&d, _)| on(d));
        streams.map(|(_, s)| s.len() as u64).sum()
    }

    /// CRC-valid plus CRC-failed frames, decoded independently of the
    /// service, over each device's whole stream.
    fn frames(&self) -> u64 {
        let mut total = 0;
        for stream in self.streams.values() {
            let mut frames = FrameDecoder::new();
            frames.push_with(stream, |_| {});
            total += frames.frames_ok() + frames.frames_bad();
        }
        total
    }
}

fn drive(load: &CohortLoad, jobs: usize) -> (IngestStats, Offered) {
    let mut svc = IngestService::new(&IngestConfig::unbounded(SHARDS));
    let mut streams: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for round in 0..load.rounds() {
        load.for_round(round, |device, chunk| {
            streams.entry(device).or_default().extend_from_slice(chunk);
            assert!(
                svc.offer(device, chunk),
                "an unbounded service sheds nothing"
            );
        });
        svc.process_round(jobs);
    }
    (svc.finish(), Offered { streams })
}

#[test]
fn every_offered_byte_and_frame_lands_in_a_shards_books() {
    let in_order = || inorder_template(12, 3);
    let cohorts = [
        vec![in_order()],
        vec![
            in_order(),
            capture_template(LinkProfile::CLEAN, 10, 100, SEED),
            capture_template(LinkProfile::LOSSY, 10, 100, SEED),
        ],
    ];
    for (c, templates) in cohorts.into_iter().enumerate() {
        let only_in_order = templates.len() == 1;
        let load = CohortLoad::new(templates, DEVICES, 4);
        let serial = drive(&load, 1).0;
        for jobs in [1, 4] {
            let (stats, offered) = drive(&load, jobs);
            let t = &stats.totals;
            let at = format!("cohort {c}, jobs {jobs}");
            assert_eq!(t.bytes_in + t.shed_bytes, offered.bytes(None), "{at}");
            for (shard, s) in stats.per_shard.iter().enumerate() {
                let bytes = s.bytes_in + s.shed_bytes;
                assert_eq!(bytes, offered.bytes(Some(shard)), "{at}, shard {shard}");
            }
            assert_eq!(
                t.link.duplicates == 0,
                only_in_order,
                "{at}: captures carry retransmissions, in-order templates none"
            );
            assert_eq!(t.frames_in + t.link.duplicates, offered.frames(), "{at}");
            assert_eq!(t.records, load.expected_records(), "{at}");
            assert_eq!(stats, serial, "{at}: the books depend on jobs");
        }
    }
}

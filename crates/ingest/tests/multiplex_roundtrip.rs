//! Extends the PR 5 ARQ round-trip property to the multiplexed path:
//! whatever mix of devices, shard counts, and ack losses the channel
//! deals, the fleet service delivers every device's records exactly
//! once — and its books are identical at any worker count.

use distscroll_hw::arq::{decode_ack, decode_data, ArqClass, ArqRx, ArqTx};
use distscroll_hw::link::encode_frame;
use distscroll_ingest::{IngestConfig, IngestService, IngestStats};
use proptest::prelude::*;

/// One device's transmit side plus the shadow receiver standing in for
/// the fleet's ack channel (the service's own decoder state is sealed
/// inside its shard, so the harness mirrors it to produce acks).
struct Device {
    tx: ArqTx,
    ack_rx: ArqRx,
    remaining: usize,
    stamp: u16,
}

fn run(counts: &[usize], shards: usize, lose_acks: &[bool], jobs: usize) -> IngestStats {
    let mut svc = IngestService::new(&IngestConfig::unbounded(shards));
    let mut devices: Vec<Device> = counts
        .iter()
        .map(|&n| Device {
            tx: ArqTx::new(),
            ack_rx: ArqRx::new(),
            remaining: n,
            stamp: 0,
        })
        .collect();
    let mut now = 0u64;
    for round in 0..200usize {
        let mut live = false;
        for (id, dev) in devices.iter_mut().enumerate() {
            // Two records per round until the device's script runs out.
            for _ in 0..dev.remaining.min(2) {
                let s = dev.stamp;
                dev.tx.enqueue(
                    ArqClass::Event,
                    &[b'E', (s >> 8) as u8, s as u8, b'H', (s % 8) as u8],
                    now,
                );
                dev.stamp = dev.stamp.wrapping_add(7);
                dev.remaining -= 1;
            }
            let mut chunk = Vec::new();
            let ack_rx = &mut dev.ack_rx;
            dev.tx.service(now, |wire| {
                chunk.extend_from_slice(&encode_frame(wire));
                if let Some((seq, inner)) = decode_data(wire) {
                    ack_rx.on_data(seq, inner, |_| {});
                }
            });
            if !chunk.is_empty() {
                assert!(svc.offer(id as u64, &chunk), "unbounded service");
            }
            if !lose_acks[round % lose_acks.len()] {
                if let Some((cum, bitmap)) = decode_ack(&dev.ack_rx.ack_payload()) {
                    dev.tx.on_ack(cum, bitmap);
                }
            }
            live = live || dev.remaining > 0 || dev.tx.in_flight() > 0;
        }
        svc.process_round(jobs);
        if !live {
            break;
        }
        now += 8;
    }
    svc.finish()
}

proptest! {
    #[test]
    fn multiplexed_ingest_delivers_every_device_exactly_once(
        counts in proptest::collection::vec(1usize..10, 1..12),
        shards in 1usize..6,
        lose_acks in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        let expected: u64 = counts.iter().map(|&n| n as u64).sum();
        let serial = run(&counts, shards, &lose_acks, 1);
        // Exactly once per record, fleet-wide, despite lost acks
        // forcing retransmissions into the byte stream.
        prop_assert_eq!(serial.totals.records, expected);
        prop_assert_eq!(serial.totals.link.delivered, expected);
        prop_assert_eq!(serial.totals.events, expected);
        prop_assert_eq!(serial.totals.sessions_opened, counts.len() as u64);
        prop_assert_eq!(serial.totals.shed_batches, 0);
        prop_assert_eq!(serial.totals.evicted, 0);
        // And the books do not depend on the worker budget.
        let parallel = run(&counts, shards, &lose_acks, 4);
        prop_assert_eq!(serial, parallel);
    }
}

//! Property tests of the host-side decoding stack: arbitrary chunking
//! of the byte stream never changes what gets decoded, garbage never
//! breaks the session log, and the ARQ transport holds its exactly-once
//! in-order contract under arbitrary loss, duplication and reordering.

use distscroll_host::session::SessionLog;
use distscroll_host::telemetry::{parse_record, Record, Stamp16, StreamDecoder};
use distscroll_hw::arq::{decode_ack, ArqClass, ArqTx};
use distscroll_hw::link::encode_frame;
use proptest::prelude::*;

/// Builds a valid wire stream of `n` alternating T/E records.
#[expect(
    clippy::unwrap_used,
    reason = "a test helper fails the test by panicking"
)]
fn wire_stream(n: usize, base_stamp: u16) -> (Vec<u8>, usize) {
    let mut bytes = Vec::new();
    for k in 0..n {
        let stamp = base_stamp.wrapping_add(k as u16 * 10);
        let payload: Vec<u8> = if k % 2 == 0 {
            vec![b'T', (stamp >> 8) as u8, stamp as u8, 0, 100, 2, 0, 3]
        } else {
            vec![b'E', (stamp >> 8) as u8, stamp as u8, b'H', (k % 8) as u8]
        };
        bytes.extend_from_slice(&encode_frame(&payload).unwrap());
    }
    (bytes, n)
}

proptest! {
    #[test]
    fn chunking_never_changes_the_decoded_records(
        n in 1usize..20,
        base in any::<u16>(),
        cuts in proptest::collection::vec(1usize..50, 0..20),
    ) {
        let (stream, expect) = wire_stream(n, base);
        // Reference: one shot.
        let mut whole = StreamDecoder::new();
        let reference = whole.push_bytes(&stream);
        prop_assert_eq!(reference.len(), expect);

        // Chunked: cut the stream at arbitrary points.
        let mut chunked = StreamDecoder::new();
        let mut got: Vec<Record> = Vec::new();
        let mut pos = 0;
        for cut in cuts {
            if pos >= stream.len() {
                break;
            }
            let end = (pos + cut).min(stream.len());
            got.extend(chunked.push_bytes(&stream[pos..end]));
            pos = end;
        }
        if pos < stream.len() {
            got.extend(chunked.push_bytes(&stream[pos..]));
        }
        prop_assert_eq!(got, reference);
    }

    #[test]
    fn garbage_prefix_costs_at_most_one_fake_frame(
        junk in proptest::collection::vec(any::<u8>(), 0..200),
        n in 2usize..10,
    ) {
        // A junk tail that happens to look like a frame header (SYNC1
        // SYNC2 len) can make the decoder swallow up to 255 + 2 bytes of
        // the real stream before resynchronizing — after that, every
        // record must flow.
        let (stream, _) = wire_stream(n, 0);
        let mut dec = StreamDecoder::new();
        let _ = dec.push_bytes(&junk);
        // Push filler streams until past the worst-case swallow.
        let mut pushed = 0usize;
        while pushed < 257 + stream.len() {
            let _ = dec.push_bytes(&stream);
            pushed += stream.len();
        }
        let got = dec.push_bytes(&stream).len();
        prop_assert_eq!(got, n, "after resync every record must decode");
    }

    #[test]
    fn parse_never_panics_on_arbitrary_payloads(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = parse_record(&payload);
    }

    #[test]
    fn arq_round_trip_is_a_monotonic_duplicate_free_prefix(
        n in 1usize..40,
        drops in proptest::collection::vec(any::<u8>(), 1..64),
        swap_pairs in any::<bool>(),
        ack_losses in proptest::collection::vec(any::<bool>(), 1..32),
    ) {
        // Device side: n event records queued for reliable delivery.
        let mut tx = ArqTx::new();
        let mut sent_stamps = Vec::new();
        for k in 0..n {
            let stamp = (k as u16).wrapping_mul(7);
            sent_stamps.push(Stamp16::new(stamp));
            let queued = tx.enqueue(
                ArqClass::Event,
                &[b'E', (stamp >> 8) as u8, stamp as u8, b'H', (k % 8) as u8],
                0,
            );
            prop_assert!(matches!(queued, Ok(Some(_))), "events are never shed");
        }

        // Host side: the ARQ-terminating decoder, plus a plain decoder
        // fed the very same bytes — a fire-and-forget host receiving
        // ARQ traffic must never panic, whatever arrives.
        let mut dec = StreamDecoder::with_arq();
        let mut plain = StreamDecoder::new();
        let mut log = SessionLog::new();
        let mut got_stamps: Vec<Stamp16> = Vec::new();
        let mut now = 0u64;
        let mut di = 0usize;

        for round in 0..2_000usize {
            let mut wires: Vec<Vec<u8>> = Vec::new();
            tx.service(now, |w| wires.push(encode_frame(w).unwrap()));
            if swap_pairs {
                // The jitter model: adjacent frames trade places.
                for pair in wires.chunks_mut(2) {
                    if let [a, b] = pair {
                        std::mem::swap(a, b);
                    }
                }
            }
            for w in &wires {
                let dropped = drops[di % drops.len()] < 64; // ~25 % loss
                di += 1;
                if !dropped {
                    dec.push_bytes_with(w, |rec| {
                        got_stamps.push(rec.stamp());
                        log.ingest(rec);
                    });
                    let _ = plain.push_bytes(w);
                }
            }
            // The reverse channel loses acks too.
            if !ack_losses[round % ack_losses.len()] {
                if let Some(ack) = dec.ack_payload() {
                    if let Some((cum, bitmap)) = decode_ack(&ack) {
                        tx.on_ack(cum, bitmap);
                    }
                }
            }
            if tx.in_flight() == 0 {
                break;
            }
            now += 8;
        }

        // Whatever the channel did, delivery is exactly the sent
        // sequence's prefix: in order, exactly once, nothing invented —
        // a gap the retry budget abandoned stops the stream rather
        // than corrupting it.
        prop_assert_eq!(&got_stamps[..], &sent_stamps[..got_stamps.len()]);
        let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
        for w in ticks.windows(2) {
            prop_assert!(w[1] >= w[0], "ticks went backwards: {} then {}", w[0], w[1]);
        }
        let q = dec.arq_quality().expect("arq decoder");
        prop_assert_eq!(q.delivered as usize, got_stamps.len());
    }

    #[test]
    fn session_log_ticks_are_always_monotonic(
        stamps in proptest::collection::vec(any::<u16>(), 1..200),
    ) {
        // Whatever stamp sequence arrives (wraps included), the unwrapped
        // ticks never go backwards by construction.
        let mut log = SessionLog::new();
        for (i, &stamp) in stamps.iter().enumerate() {
            let payload = [b'E', (stamp >> 8) as u8, stamp as u8, b'H', (i % 8) as u8];
            if let Ok(rec) = parse_record(&payload) {
                log.ingest(rec);
            }
        }
        let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
        for w in ticks.windows(2) {
            prop_assert!(w[1] >= w[0], "ticks went backwards: {} then {}", w[0], w[1]);
        }
    }
}

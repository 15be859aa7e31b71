//! Property test: a mid-stream [`ArqRx::new_resync`] receiver under an
//! adversarial channel (burst loss, duplication, reordering beyond the
//! window) delivers an exact, duplicate-free, contiguous run of the
//! transmitter's record stream — starting at whatever sequence number it
//! adopted, never inventing, reordering, or repeating a record.
//!
//! The session is staged the way the resume path really happens: a
//! receiver runs over a clean link and is quiesced (so everything it
//! delivered is acked and will not be resent), then its state is thrown
//! away and a `new_resync` receiver takes over mid-stream.
//!
//! A pinned whole session from the first record sits beside it: framed
//! data over [`AdversarialChannel::harsh`], acks over a bursty return
//! path, with the exact delivered-prefix oracle.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use distscroll_hw::arq::{decode_ack, decode_data, ArqClass, ArqRx, ArqTx};
use distscroll_hw::link::{encode_frame, AdversarialChannel, FrameDecoder, GilbertElliott};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Unique, self-describing record for stream index `i`.
fn record(i: u16) -> Vec<u8> {
    vec![b'E', (i >> 8) as u8, (i & 0xff) as u8, b'A', 1]
}

/// Phase 1: deliver `n` records over a perfect link and quiesce.
fn run_clean_prefix(tx: &mut ArqTx, n: u16, tick: &mut u64) {
    let mut rx = ArqRx::new();
    for i in 0..n {
        *tick += 1;
        assert_eq!(
            tx.enqueue(ArqClass::Event, &record(i), *tick)
                .map(|s| s.is_some()),
            Ok(true)
        );
        let mut wires: Vec<Vec<u8>> = Vec::new();
        tx.service(*tick, |w| wires.push(w.to_vec()));
        for w in wires {
            let (seq, _) = decode_data(&w).expect("tx emits well-formed data");
            rx.on_data(seq, || (), |()| {});
        }
        let ack = rx.ack_payload();
        let (cum, map) = decode_ack(&ack).expect("ack decodes");
        tx.on_ack(cum, map);
    }
    assert_eq!(tx.in_flight(), 0, "phase 1 must quiesce");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn resync_receiver_delivers_an_exact_contiguous_run(
        channel_seed in any::<u64>(),
        prefix_len in 1u16..40,
        suffix_len in 1u16..60,
        dup in 0.0f64..0.4,
        reorder in 0.0f64..0.3,
    ) {
        let mut tick = 0u64;
        let mut tx = ArqTx::new();
        run_clean_prefix(&mut tx, prefix_len, &mut tick);

        // The crash: receiver state is discarded, a resync receiver
        // adopts whatever arrives first. Honest-but-nasty channel: burst
        // loss, duplication, reordering — no corruption, no forgery, so
        // the delivery oracle is exact.
        let mut rx = ArqRx::new_resync();
        let mut chan = AdversarialChannel::new(GilbertElliott::bursty());
        chan.dup_probability = dup;
        chan.reorder_probability = reorder;
        chan.reorder_depth = 12; // beyond the 8-frame window
        let mut rng = StdRng::seed_from_u64(channel_seed);

        let suffix: Vec<Vec<u8>> = (0..suffix_len).map(|i| record(prefix_len + i)).collect();
        let mut delivered: Vec<Vec<u8>> = Vec::new();

        let deliver_all = |rx: &mut ArqRx<Vec<u8>>, arrivals: &[Vec<u8>], delivered: &mut Vec<Vec<u8>>| {
            for wire in arrivals {
                if let Some((seq, inner)) = decode_data(wire) {
                    rx.on_data(seq, || inner.to_vec(), |rec| delivered.push(rec));
                }
            }
        };

        let mut queued = 0u16;
        // Generous budget: enough ticks for retransmission backoff to
        // push everything through the burst losses.
        for _ in 0..6000u32 {
            tick += 1;
            if queued < suffix_len {
                prop_assert_eq!(
                    tx.enqueue(ArqClass::Event, &suffix[queued as usize], tick).map(|s| s.is_some()),
                    Ok(true)
                );
                queued += 1;
            }
            let mut arrivals: Vec<Vec<u8>> = Vec::new();
            tx.service(tick, |w| {
                chan.transmit(w, &mut rng, |bytes| arrivals.push(bytes.to_vec()));
            });
            deliver_all(&mut rx, &arrivals, &mut delivered);
            // Acks ride a clean return path; resilience under ack loss
            // is the transmitter's own test suite's concern.
            let [_, hi, lo, bitmap] = rx.ack_payload();
            if let Some((cum, map)) = decode_ack(&[b'K', hi, lo, bitmap]) {
                tx.on_ack(cum, map);
            }
            if queued == suffix_len && tx.in_flight() == 0 && chan.held_frames() == 0 {
                break;
            }
        }
        let mut tail: Vec<Vec<u8>> = Vec::new();
        chan.flush(|bytes| tail.push(bytes.to_vec()));
        deliver_all(&mut rx, &tail, &mut delivered);

        // The oracle: delivered is exactly suffix[k..k + delivered.len()]
        // for the adopted index k — contiguous, in order, duplicate-free.
        prop_assert!(!delivered.is_empty(), "nothing delivered in 6000 ticks");
        let first = &delivered[0];
        let k = suffix.iter().position(|r| r == first);
        prop_assert!(k.is_some(), "delivered a record never enqueued");
        let k = k.unwrap_or(0);
        prop_assert_eq!(
            &delivered[..],
            &suffix[k..k + delivered.len()],
            "delivered stream is not the exact contiguous run from the adopted seq"
        );
        prop_assert_eq!(rx.quality().delivered, delivered.len() as u64);

        // Completeness: if the transmitter finished cleanly (nothing
        // expired, nothing still in flight), the run is the full suffix.
        if tx.quality().expired == 0 && tx.in_flight() == 0 {
            prop_assert_eq!(k + delivered.len(), suffix.len(), "suffix incomplete");
        }
        // Adoption bookkeeping: skipping a prefix implies the receiver
        // reported a resync.
        if k > 0 {
            prop_assert!(rx.resynced(), "skipped {} records without resync", k);
        }
    }
}

/// A full `ArqTx` <-> `ArqRx` session over the harsh channel (burst
/// loss, duplication, reordering beyond the window; bit errors off so
/// the oracle is exact) with acks over a bursty lossy return path,
/// both directions framed and decoded. Whatever the receiver delivers
/// must be an exact, duplicate-free, in-order prefix of what was
/// enqueued, and the session must deliver something.
#[test]
fn harsh_session_delivers_an_exact_prefix() {
    let mut rng = StdRng::seed_from_u64(20050607 ^ 0x61_72_71);
    let mut data_chan = AdversarialChannel::harsh();
    data_chan.bit_error_rate = 0.0;
    let mut ack_chan = AdversarialChannel::new(GilbertElliott::bursty());
    let mut tx = ArqTx::new();
    let mut rx = ArqRx::new();
    let mut fd = FrameDecoder::new();
    let mut fd_back = FrameDecoder::new();
    let mut enqueued: Vec<Vec<u8>> = Vec::new();
    let mut delivered: Vec<Vec<u8>> = Vec::new();
    for tick in 0..20_000u64 {
        if tick % 4 == 0 {
            let rec = [b'E', (tick >> 8) as u8, (tick & 0xff) as u8, b'A', 1];
            if let Ok(Some(_)) = tx.enqueue(ArqClass::Event, &rec, tick) {
                enqueued.push(rec.to_vec());
            }
        }
        let mut arrivals: Vec<Vec<u8>> = Vec::new();
        tx.service(tick, |wire| {
            data_chan.transmit(&encode_frame(wire).unwrap(), &mut rng, |b| {
                arrivals.push(b.to_vec())
            });
        });
        if tick % 64 == 0 {
            data_chan.flush(|b| arrivals.push(b.to_vec()));
        }
        for bytes in arrivals {
            for r in fd.push_all(&bytes).into_iter().flatten() {
                if let Some((seq, inner)) = decode_data(&r) {
                    rx.on_data(seq, || inner.to_vec(), |rec| delivered.push(rec));
                }
            }
        }
        if tick % 2 == 0 {
            let mut acks: Vec<Vec<u8>> = Vec::new();
            ack_chan.transmit(&encode_frame(&rx.ack_payload()).unwrap(), &mut rng, |b| {
                acks.push(b.to_vec());
            });
            for bytes in acks {
                for r in fd_back.push_all(&bytes).into_iter().flatten() {
                    if let Some((cum, bitmap)) = decode_ack(&r) {
                        tx.on_ack(cum, bitmap);
                    }
                }
            }
        }
    }
    assert!(!delivered.is_empty(), "the harsh session delivered nothing");
    assert!(delivered.len() <= enqueued.len());
    assert_eq!(
        delivered,
        enqueued[..delivered.len()],
        "delivered records are not an exact in-order prefix of the enqueued ones"
    );
    assert_eq!(rx.quality().delivered, delivered.len() as u64);
}

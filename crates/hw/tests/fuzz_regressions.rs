//! Minimized reproducers from the wire fuzzing harness
//! (`cargo run -p xtask -- fuzz`), pinned as named regression tests.
//!
//! Each test documents the oracle that tripped and the exact counter
//! profile the fixed code must produce. All of these fail on the
//! pre-fix decoder/parsers; keep the inputs byte-for-byte as minimized.

use distscroll_hw::arq::{decode_ack, decode_data, Seq16};
use distscroll_hw::link::{crc16_ccitt, encode_frame, FrameDecoder, SYNC1, SYNC2};

/// Frame-target differential violation, minimized: a corrupted header
/// whose bogus length byte (20) swallows a complete valid frame. The
/// reference decoder recovers the embedded frame after the CRC failure;
/// the pre-fix streaming decoder threw those bytes away and reported
/// `frames_ok == 0`.
#[test]
fn minimized_embedded_frame_cascade_recovers_inner_frame() {
    let inner = encode_frame(b"inner").unwrap(); // 10 bytes: AA 55 05 i n n e r crc crc
    let mut input = vec![SYNC1, SYNC2, 20];
    input.extend_from_slice(&inner);
    input.extend_from_slice(&[0u8; 10]);
    input.extend_from_slice(&[0x00, 0x00]); // stale CRC for the outer attempt
    assert_eq!(input.len(), 25);
    // Guard the vector itself: the outer attempt really is CRC-invalid.
    assert_ne!(crc16_ccitt(&input[2..23]), 0x0000);

    let mut dec = FrameDecoder::new();
    let frames = dec.push_all(&input);
    let payloads: Vec<&[u8]> = frames
        .iter()
        .filter_map(|r| r.as_ref().ok().map(Vec::as_slice))
        .collect();

    // The embedded frame is recovered from the failed attempt's bytes.
    assert_eq!(payloads, vec![b"inner".as_slice()]);
    assert_eq!(dec.frames_ok(), 1);
    assert_eq!(dec.frames_bad(), 1);
    // Exact accounting: 2 sync bytes charged to the failed attempt, the
    // re-scanned length byte, then the 12 trailing non-sync bytes.
    assert_eq!(dec.bytes_skipped(), 15);
    assert_eq!(dec.bytes_accepted(), 10);
    assert_eq!(dec.pending_bytes(), 0);
    assert_eq!(
        dec.bytes_skipped() + dec.bytes_accepted() + dec.pending_bytes(),
        input.len() as u64
    );
}

/// Frame-target conservation violation, minimized to two bytes: a SYNC1
/// followed by a non-sync byte. Both bytes are discarded, so both must
/// be charged to `bytes_skipped`; the pre-fix decoder charged only one
/// and the byte-conservation ledger drifted by one per false sync.
#[test]
fn minimized_sync2_mismatch_charges_both_bytes() {
    let input = [SYNC1, 0x00];
    let mut dec = FrameDecoder::new();
    for b in input.chunks(1) {
        dec.push_with(b, |r| panic!("no frame attempt completes, got {r:?}"));
    }
    assert_eq!(dec.bytes_skipped(), 2);
    assert_eq!(dec.pending_bytes(), 0);
    assert_eq!(
        dec.bytes_skipped() + dec.bytes_accepted() + dec.pending_bytes(),
        input.len() as u64
    );
    // The same two bytes in one push are charged the same way.
    let mut whole = FrameDecoder::new();
    whole.push_with(&input, |r| panic!("no frame attempt completes, got {r:?}"));
    assert_eq!(whole.bytes_skipped(), 2);
    assert_eq!(whole.pending_bytes(), 0);
}

/// ARQ-target violation, minimized: a CRC-valid data frame with a header
/// and no record (`['D', 0, 0]`). The transmitter can never produce one,
/// but a forged or length-smashed frame can. The pre-fix parser accepted
/// it and delivered a fabricated *empty* record into the session stream
/// (burning receiver sequence number 0); the fixed parser rejects it.
#[test]
fn minimized_header_only_data_frame_is_rejected() {
    assert_eq!(decode_data(&[b'D', 0, 0]), None);
    assert_eq!(decode_data(&[b'D', 0, 7]), None);

    // Full-stack: through framing and an ARQ receiver, nothing may be
    // delivered and no sequence number may be consumed.
    use distscroll_hw::arq::ArqRx;
    let mut fd = FrameDecoder::new();
    let mut rx = ArqRx::<()>::new();
    let mut delivered = 0u64;
    for payload in fd
        .push_all(&encode_frame(&[b'D', 0, 0]).unwrap())
        .into_iter()
        .flatten()
    {
        if let Some((seq, _)) = decode_data(&payload) {
            rx.on_data(seq, || (), |()| delivered += 1);
        }
    }
    assert_eq!(delivered, 0);
    assert_eq!(rx.quality().delivered, 0);
    // Sequence 0 is still unacknowledged: the cumulative ack still sits
    // at the pre-stream sentinel (expected − 1 = 0xFFFF).
    assert_eq!(rx.ack_payload(), [b'K', 0xff, 0xff, 0]);
}

/// Transmit-side twin of the header-only case: the two records no data
/// frame can carry. An empty record would go out as a header-only frame
/// that every receiver rejects, stalling it on a sequence number that
/// never arrives; an over-long one cannot be framed. `enqueue` used to
/// assert on both, a panic reachable from any caller's payload; it now
/// refuses them with an error and leaves the queue and the sequence
/// space untouched.
#[test]
fn enqueue_refuses_records_no_data_frame_can_carry() {
    use distscroll_hw::arq::{ArqClass, ArqTx, MAX_DATA_INNER};
    use distscroll_hw::HwError;

    let mut tx = ArqTx::new();
    for (class, record) in [
        (ArqClass::Event, Vec::new()),
        (ArqClass::State, vec![0x5a; MAX_DATA_INNER + 1]),
    ] {
        assert!(matches!(
            tx.enqueue(class, &record, 0),
            Err(HwError::LinkFraming { .. })
        ));
    }
    assert_eq!(tx.in_flight(), 0);
    let mut sent = 0;
    tx.service(0, |_| sent += 1);
    assert_eq!(sent, 0, "a refused record never reaches the radio");
    // The next good record still takes the first sequence number.
    let seq = tx.enqueue(ArqClass::Event, &[0x5a; MAX_DATA_INNER], 0);
    assert_eq!(
        seq.map(|s| s.map(|s| s.distance_from(Seq16::ZERO))),
        Ok(Some(0))
    );
}

/// The last assert on the send side, minimized: a 256-byte host payload,
/// one byte more than a frame's length byte can describe. The frame
/// encoder asserted on it, so any caller of the public `Board::host_send`
/// could panic the simulator; both now refuse it with an error, put
/// nothing on the air, and leave the link usable.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a bare board has no firmware tick; stepping it directly lets the sent frame land"
)]
fn oversize_host_payload_is_refused_not_panicked() {
    use distscroll_hw::board::Board;
    use distscroll_hw::clock::SimDuration;
    use distscroll_hw::link::MAX_PAYLOAD;
    use distscroll_hw::HwError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let payload = [0x4b; 256];
    assert_eq!(payload.len(), MAX_PAYLOAD + 1);
    assert!(matches!(
        encode_frame(&payload),
        Err(HwError::LinkFraming { .. })
    ));

    let mut board = Board::new();
    let mut rng = StdRng::seed_from_u64(20050607);
    assert!(matches!(
        board.host_send(&payload, &mut rng),
        Err(HwError::LinkFraming { .. })
    ));
    board.host_send(b"K\x00\x07\x01", &mut rng).unwrap();
    board.step(SimDuration::from_millis(50));
    let mut got: Vec<Vec<u8>> = Vec::new();
    board.poll_host_received(|p| got.push(p.to_vec()));
    assert_eq!(
        got,
        vec![b"K\x00\x07\x01".to_vec()],
        "only the good frame went on air"
    );
}

/// Hardening twin of the header-only case: an ack payload with trailing
/// bytes is not an ack. (Held by the pre-fix exact-shape pattern too;
/// pinned so the explicit length check can never regress to a prefix
/// match.)
#[test]
fn oversize_ack_payload_is_rejected() {
    assert_eq!(
        decode_ack(&[b'K', 0, 5, 0b101]).map(|(c, b)| (c.distance_from(Seq16::ZERO), b)),
        Some((5, 0b101))
    );
    assert_eq!(decode_ack(&[b'K', 0, 5, 0b101, 9]), None);
    assert_eq!(decode_ack(&[b'K', 0, 5, 0b101, 0]), None);
}

/// Frame-target differential violation, minimized: the proptest shrink
/// `[AA, 55, len, ...]` where a bit-flipped length byte desynchronizes
/// the stream. After the bad CRC the decoder must re-examine the
/// swallowed bytes and decode both subsequent frames.
#[test]
fn minimized_bit_flipped_length_resyncs_on_following_frames() {
    // The bogus length 12 swallows the first two real frames whole and
    // reads the third frame's sync pair as its CRC.
    let mut input = vec![SYNC1, SYNC2, 12];
    for _ in 0..3 {
        input.extend_from_slice(&encode_frame(b"x").unwrap()); // 6 bytes each
    }
    assert_eq!(input.len(), 21);
    // Guard the vector: the attempt's wire CRC (0xAA55) is wrong.
    assert_ne!(crc16_ccitt(&input[2..15]), 0xAA55);

    let mut dec = FrameDecoder::new();
    let frames = dec.push_all(&input);
    let ok: Vec<&[u8]> = frames
        .iter()
        .filter_map(|r| r.as_ref().ok().map(Vec::as_slice))
        .collect();
    assert_eq!(ok.len(), 3, "all three swallowed frames recovered");
    assert!(ok.iter().all(|p| *p == b"x"));
    assert_eq!(dec.frames_bad(), 1);
    assert_eq!(dec.bytes_skipped(), 3);
    assert_eq!(dec.bytes_accepted(), 18);
    assert_eq!(dec.pending_bytes(), 0);
}

//! Property tests of the radio link framing.
//!
//! The decoder must (1) recover any payload from its own encoder,
//! (2) never panic on arbitrary garbage, (3) reject any single-bit
//! corruption of a frame, (4) resynchronize after garbage, and
//! (5) decode any split of a stream into pushes exactly like one push.

use distscroll_hw::link::{crc16_ccitt, encode_frame, FrameDecoder, MAX_PAYLOAD, SYNC1, SYNC2};
use proptest::prelude::*;

proptest! {
    #[test]
    fn any_payload_round_trips(payload in proptest::collection::vec(any::<u8>(), 0..=MAX_PAYLOAD)) {
        let mut dec = FrameDecoder::new();
        let got = dec.push_all(&encode_frame(&payload).unwrap());
        prop_assert_eq!(got, vec![Ok(payload)]);
    }

    #[test]
    fn garbage_never_panics_or_fabricates_state(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut dec = FrameDecoder::new();
        for r in dec.push_all(&bytes) {
            // Whatever comes out, the decoder keeps consistent counters.
            let _ = r;
        }
        prop_assert_eq!(
            dec.frames_ok() + dec.frames_bad() >= dec.frames_ok(),
            true
        );
    }

    #[test]
    fn single_bit_flips_in_payload_or_crc_are_rejected(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        byte_idx in 0usize..64,
        bit in 0u8..8,
    ) {
        let mut frame = encode_frame(&payload).unwrap();
        // Flip one bit after the header (payload or CRC region).
        let idx = 3 + byte_idx % (frame.len() - 3);
        frame[idx] ^= 1 << bit;
        let mut dec = FrameDecoder::new();
        let results = dec.push_all(&frame);
        // The corrupted frame must never decode to the original payload
        // as a *valid* frame.
        for p in results.into_iter().flatten() {
            prop_assert_ne!(p, payload.clone(), "bit flip slipped through the crc");
        }
    }

    #[test]
    fn decoder_resyncs_after_arbitrary_prefix(
        junk in proptest::collection::vec(any::<u8>(), 0..128),
        payload in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut dec = FrameDecoder::new();
        // Feed junk, then complete frames until one decodes. A junk
        // prefix ending in a fake header (SYNC1 SYNC2 len) can make the
        // decoder swallow up to 255 payload bytes plus the CRC before it
        // notices, so recovery is only guaranteed once that many bytes of
        // real frames have flowed — push frames until past that bound.
        let _ = dec.push_all(&junk);
        let frame = encode_frame(&payload).unwrap();
        let mut decoded = false;
        let mut pushed = 0usize;
        while pushed <= 255 + 5 + 2 * frame.len() {
            for r in dec.push_all(&frame) {
                if r == Ok(payload.clone()) {
                    decoded = true;
                }
            }
            if decoded {
                break;
            }
            pushed += frame.len();
        }
        prop_assert!(decoded, "decoder failed to resynchronize");
    }

    #[test]
    fn crc_is_sensitive_to_any_byte_change(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        idx in 0usize..64,
        delta in 1u8..=255,
    ) {
        let mut corrupted = payload.clone();
        let i = idx % corrupted.len();
        corrupted[i] = corrupted[i].wrapping_add(delta);
        prop_assert_ne!(crc16_ccitt(&payload), crc16_ccitt(&corrupted));
    }

    #[test]
    fn any_split_decodes_like_one_push(
        parts in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u8>(), 0..300),
                0usize..400,
                proptest::collection::vec((0u8..3, any::<u8>()), 0..6),
            ),
            0..8,
        ),
        cuts in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        // Frames (long ones truncated to a valid length), some with one
        // bit flipped, separated by junk rich in sync bytes.
        let mut stream = Vec::new();
        for (payload, flip, junk) in &parts {
            let mut frame = encode_frame(&payload[..payload.len().min(MAX_PAYLOAD)]).unwrap();
            if *flip < frame.len() * 8 {
                frame[flip / 8] ^= 1 << (flip % 8);
            }
            stream.extend_from_slice(&frame);
            stream.extend(junk.iter().map(|&(kind, b)| match kind {
                0 => SYNC1,
                1 => SYNC2,
                _ => b,
            }));
        }
        let mut whole = FrameDecoder::new();
        let expect = whole.push_all(&stream);

        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| usize::from(c) % (stream.len() + 1))
            .collect();
        points.sort_unstable();
        let mut split = FrameDecoder::new();
        let mut got = Vec::new();
        let mut from = 0;
        for to in points.into_iter().chain([stream.len()]) {
            got.extend(split.push_all(&stream[from..to]));
            from = to;
        }
        prop_assert_eq!(got, expect);
        prop_assert_eq!(split.frames_ok(), whole.frames_ok());
        prop_assert_eq!(split.frames_bad(), whole.frames_bad());
        prop_assert_eq!(split.bytes_skipped(), whole.bytes_skipped());
        prop_assert_eq!(split.bytes_accepted(), whole.bytes_accepted());
        prop_assert_eq!(split.pending_bytes(), whole.pending_bytes());
        prop_assert_eq!(
            split.bytes_skipped() + split.bytes_accepted() + split.pending_bytes(),
            stream.len() as u64
        );
    }
}

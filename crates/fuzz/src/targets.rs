//! The three fuzz targets and their oracles.
//!
//! Each target is a pure function of its input bytes returning an
//! [`Outcome`]: a feature signature (hashed counter profile, used for
//! corpus growth) and the first oracle violation, if any. Panics are
//! caught one level up, in the driver.
//!
//! * [`run_frame`] — differential: the streaming [`FrameDecoder`] against
//!   an offline reference decoder, plus exact counter equality and the
//!   byte-conservation law, with the input pushed whole, byte at a time
//!   and at split points derived from it (split invariance).
//! * [`run_stream`] — [`StreamDecoder`] in all three modes (plain, ARQ,
//!   ARQ-resync) over raw bytes: never panics, never delivers from a
//!   bad-CRC frame, counters stay consistent, and split pushes yield the
//!   records and counters of one push.
//! * [`run_arq`] — a full `ArqTx`↔`ArqRx` session where the input bytes
//!   are the *decision tape* driving an [`AdversarialChannel`]; delivery
//!   must be an exact duplicate-free prefix (honest channel) and the
//!   `LinkQuality` ledger must balance (always).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use distscroll_host::telemetry::StreamDecoder;
use distscroll_hw::arq::{decode_ack, decode_data, ArqClass, ArqRx, ArqTx, Seq16};
use distscroll_hw::link::{
    encode_frame, AdversarialChannel, FrameDecoder, GilbertElliott, SYNC1, SYNC2,
};

use crate::corpus::{fnv1a, fnv1a_fold};

/// What one target execution produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Hash of the execution's counter profile; a previously unseen
    /// signature means the input exercised a new behavior.
    pub sig: u64,
    /// The first oracle violation, or `None` for a clean run.
    pub violation: Option<String>,
}

impl Outcome {
    fn clean(sig: u64) -> Outcome {
        Outcome {
            sig,
            violation: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Frame target
// ---------------------------------------------------------------------------

/// What the offline reference decoder expects from a byte stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct RefModel {
    payloads: Vec<Vec<u8>>,
    bad: u64,
    skipped: u64,
    pending: u64,
}

/// CRC-16/CCITT-FALSE a bit at a time, written from the definition so
/// that the differential checks the decoder's table-driven CRC too.
fn reference_crc(bytes: &[u8]) -> u16 {
    let mut crc = 0xffff_u16;
    for &b in bytes {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Reference decode: a straightforward offline scan with none of the
/// streaming decoder's state-machine complexity. On a CRC failure it
/// advances past the sync pair only and re-scans — the specified resync
/// behavior the streaming decoder must match.
fn reference_decode(input: &[u8]) -> RefModel {
    let mut m = RefModel::default();
    let mut i = 0usize;
    while i < input.len() {
        if input[i] != SYNC1 {
            m.skipped += 1;
            i += 1;
            continue;
        }
        let Some(&second) = input.get(i + 1) else {
            break; // held sync byte, stream ended
        };
        if second != SYNC2 {
            // Not a sync pair; the 0xAA is spent, re-examine the next
            // byte (it may itself start a pair).
            m.skipped += 1;
            i += 1;
            continue;
        }
        let Some(&len_byte) = input.get(i + 2) else {
            break;
        };
        let len = usize::from(len_byte);
        let end = i + 5 + len;
        if end > input.len() {
            break; // partial frame attempt pending
        }
        let wire_crc = u16::from(input[end - 2]) << 8 | u16::from(input[end - 1]);
        if reference_crc(&input[i + 2..i + 3 + len]) == wire_crc {
            m.payloads.push(input[i + 3..i + 3 + len].to_vec());
            i = end;
        } else {
            m.bad += 1;
            m.skipped += 2;
            i += 2;
        }
    }
    m.pending = (input.len() - i) as u64;
    m
}

/// The three ways every input is pushed: whole, byte at a time, and in
/// chunks whose sizes are drawn from a generator seeded by the input.
/// The derived chunks mix short splits with ones longer than a frame.
fn pushes(input: &[u8]) -> [(&'static str, Vec<&[u8]>); 3] {
    let mut rng = StdRng::seed_from_u64(fnv1a(input));
    let mut split = Vec::new();
    let mut rest = input;
    while !rest.is_empty() {
        let want: usize = if rng.gen_bool(0.5) {
            rng.gen_range(1..=8)
        } else {
            rng.gen_range(1..=300)
        };
        let (chunk, tail) = rest.split_at(want.min(rest.len()));
        split.push(chunk);
        rest = tail;
    }
    [
        ("one push", vec![input]),
        ("byte at a time", input.chunks(1).collect()),
        ("derived splits", split),
    ]
}

/// Differential + conservation oracle over [`FrameDecoder`], for each
/// of the three ways of splitting the input into pushes.
pub fn run_frame(input: &[u8]) -> Outcome {
    let model = reference_decode(input);
    let mut sig = None;
    for (way, chunks) in pushes(input) {
        let mut dec = FrameDecoder::new();
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for chunk in chunks {
            dec.push_with(chunk, |r| {
                if let Ok(p) = r {
                    payloads.push(p.to_vec());
                }
            });
        }
        let sig = *sig.get_or_insert_with(|| {
            let mut sig = fnv1a_fold(fnv1a(b"frame"), dec.frames_ok());
            sig = fnv1a_fold(sig, dec.frames_bad());
            sig = fnv1a_fold(sig, dec.bytes_skipped());
            sig = fnv1a_fold(sig, dec.pending_bytes());
            fnv1a_fold(sig, payloads.iter().map(|p| p.len() as u64).sum())
        });
        if let Some(v) = frame_violation(&dec, &payloads, &model, input.len()) {
            return Outcome {
                sig,
                violation: Some(format!("frame ({way}): {v}")),
            };
        }
    }
    Outcome::clean(sig.unwrap_or_default())
}

/// The first way `dec` and its delivered `payloads` disagree with the
/// reference model of a `pushed`-byte input.
fn frame_violation(
    dec: &FrameDecoder,
    payloads: &[Vec<u8>],
    model: &RefModel,
    pushed: usize,
) -> Option<String> {
    let conservation = dec.bytes_skipped() + dec.bytes_accepted() + dec.pending_bytes();
    if payloads != model.payloads {
        Some(format!(
            "payload streams diverge (streaming {} frames, reference {})",
            payloads.len(),
            model.payloads.len()
        ))
    } else if dec.frames_ok() != model.payloads.len() as u64 {
        Some(format!(
            "frames_ok {} != delivered payloads {}",
            dec.frames_ok(),
            model.payloads.len()
        ))
    } else if dec.frames_bad() != model.bad {
        Some(format!(
            "frames_bad {} != reference {}",
            dec.frames_bad(),
            model.bad
        ))
    } else if dec.bytes_skipped() != model.skipped {
        Some(format!(
            "bytes_skipped {} != reference {}",
            dec.bytes_skipped(),
            model.skipped
        ))
    } else if dec.pending_bytes() != model.pending {
        Some(format!(
            "pending_bytes {} != reference {}",
            dec.pending_bytes(),
            model.pending
        ))
    } else if conservation != pushed as u64 {
        Some(format!(
            "byte conservation broken — skipped+accepted+pending {conservation} != pushed {pushed}"
        ))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Stream target
// ---------------------------------------------------------------------------

/// [`StreamDecoder`] sanity over raw bytes, in all three modes, plus
/// split invariance: pushing the input in pieces must yield the records
/// and counters of one push.
pub fn run_stream(input: &[u8]) -> Outcome {
    let mut sig = fnv1a(b"stream");
    let decoder = |mode: u8| match mode {
        0 => StreamDecoder::new(),
        1 => StreamDecoder::with_arq(),
        _ => StreamDecoder::with_arq_resync(),
    };
    for mode in 0..3u8 {
        let mut dec = decoder(mode);
        let mut records = Vec::new();
        dec.push_bytes_with(input, |rec| records.push(rec));
        let sunk = records.len() as u64;

        let (skipped, accepted, pending) = dec.link_byte_accounting();
        if skipped + accepted + pending != input.len() as u64 {
            return Outcome {
                sig,
                violation: Some(format!(
                    "stream(mode {mode}): link byte conservation broken — {} != {}",
                    skipped + accepted + pending,
                    input.len()
                )),
            };
        }
        if sunk != dec.records_ok() {
            return Outcome {
                sig,
                violation: Some(format!(
                    "stream(mode {mode}): sink saw {sunk} records but records_ok is {}",
                    dec.records_ok()
                )),
            };
        }
        // Frames either parse, fail parsing, or are ARQ-buffered; record
        // outcomes can never exceed deliveries from valid frames.
        if let Some(q) = dec.arq_quality() {
            if dec.records_ok() + dec.records_bad() < q.delivered {
                return Outcome {
                    sig,
                    violation: Some(format!(
                        "stream(mode {mode}): arq delivered {} exceeds parse outcomes {}",
                        q.delivered,
                        dec.records_ok() + dec.records_bad()
                    )),
                };
            }
        } else if dec.records_ok() + dec.records_bad() > dec.link_frames_ok() {
            return Outcome {
                sig,
                violation: Some(format!(
                    "stream(mode {mode}): {} record outcomes from {} valid frames",
                    dec.records_ok() + dec.records_bad(),
                    dec.link_frames_ok()
                )),
            };
        }
        for (way, chunks) in pushes(input).into_iter().skip(1) {
            let mut split = decoder(mode);
            let mut split_records = Vec::new();
            for chunk in chunks {
                split.push_bytes_with(chunk, |rec| split_records.push(rec));
            }
            if split_records != records || stream_counters(&split) != stream_counters(&dec) {
                return Outcome {
                    sig,
                    violation: Some(format!(
                        "stream(mode {mode}, {way}): split pushes diverge from one push \
                         ({} records vs {})",
                        split_records.len(),
                        records.len()
                    )),
                };
            }
        }
        sig = fnv1a_fold(sig, dec.records_ok());
        sig = fnv1a_fold(sig, dec.records_bad());
        sig = fnv1a_fold(sig, dec.crc_failures());
        sig = fnv1a_fold(sig, dec.link_frames_ok());
    }
    Outcome::clean(sig)
}

/// Every counter a [`StreamDecoder`] exposes, for split-invariance.
fn stream_counters(dec: &StreamDecoder) -> impl PartialEq {
    (
        dec.records_ok(),
        dec.records_bad(),
        dec.crc_failures(),
        dec.link_frames_ok(),
        dec.link_byte_accounting(),
        dec.arq_quality(),
        dec.arq_resynced(),
    )
}

// ---------------------------------------------------------------------------
// ARQ session target
// ---------------------------------------------------------------------------

/// Interprets the input as a decision tape driving a full ARQ session
/// over an adversarial channel.
///
/// Tape layout: byte 0 configures the channel (bit 0: malicious
/// truncation forgeries on), every following byte is one scheduler step
/// whose bits select tick advance, enqueue, data service, ack return and
/// reorder flush. The channel RNG is seeded from the tape content, so
/// the whole session is a pure function of the input.
///
/// Oracles:
/// * honest channel: the delivered record stream is exactly
///   `sent[..delivered.len()]` — duplicate-free, in order, no invention;
/// * always: the transmit ledger balances
///   (`assigned == acked + expired + in_flight`), receive-side counts
///   match the callback count, and per-call counter deltas stay sane.
pub fn run_arq(input: &[u8]) -> Outcome {
    let Some((&cfg, tape)) = input.split_first() else {
        return Outcome::clean(fnv1a(b"arq-empty"));
    };
    let malicious = cfg & 0x01 != 0;
    let mut chan = AdversarialChannel::new(GilbertElliott::bursty());
    chan.dup_probability = 0.15;
    chan.reorder_probability = 0.1;
    chan.reorder_depth = 12;
    if malicious {
        // Forged CRC-valid truncations void the delivery oracles: the
        // framing cannot distinguish them from real traffic.
        chan.truncate_probability = 0.1;
        chan.bit_error_rate = 0.001;
    }
    let mut ack_chan = AdversarialChannel::new(GilbertElliott::bursty());
    ack_chan.dup_probability = 0.1;

    let mut rng = StdRng::seed_from_u64(fnv1a(input) ^ 0x9e37_79b9_7f4a_7c15);
    let mut tx = ArqTx::new();
    let mut rx: ArqRx<Vec<u8>> = ArqRx::new();
    let mut fd = FrameDecoder::new();
    let mut fd_back = FrameDecoder::new();
    let mut tick = 0u64;
    let mut next_id: u16 = 0;
    let mut sent: Vec<Vec<u8>> = Vec::new();
    let mut delivered: Vec<Vec<u8>> = Vec::new();
    let mut delta_violation: Option<String> = None;

    for (step, &op) in tape.iter().enumerate() {
        tick += u64::from(op & 0x03) + 1;
        if op & 0x04 != 0 {
            // Events are never shed and never superseded, so every
            // enqueue assigns a fresh sequence number.
            let rec = [b'E', (next_id >> 8) as u8, (next_id & 0xff) as u8, b'A', 0];
            if let Ok(Some(_)) = tx.enqueue(ArqClass::Event, &rec, tick) {
                sent.push(rec.to_vec());
                next_id = next_id.wrapping_add(1);
            }
        }
        if op & 0x08 != 0 {
            service_data(
                &mut tx,
                &mut rx,
                &mut chan,
                &mut fd,
                &mut rng,
                tick,
                &mut delivered,
                &mut delta_violation,
                step,
            );
        }
        if op & 0x10 != 0 {
            return_ack(&mut tx, &rx, &mut ack_chan, &mut fd_back, &mut rng);
        }
        if op & 0x20 != 0 {
            flush_data(
                &mut rx,
                &mut chan,
                &mut fd,
                &mut delivered,
                &mut delta_violation,
                step,
            );
        }
    }
    // End of session: release reordered traffic and drain the decoder so
    // the books close.
    flush_data(
        &mut rx,
        &mut chan,
        &mut fd,
        &mut delivered,
        &mut delta_violation,
        tape.len(),
    );
    ack_chan.flush(|_| {});

    let qt = tx.quality();
    let qr = rx.quality();
    let assigned = sent.len() as u64;

    let mut sig = fnv1a_fold(fnv1a(b"arq"), assigned);
    for v in [
        qt.sent,
        qt.retransmitted,
        qt.acked,
        qt.expired,
        qr.delivered,
        qr.duplicates,
        qr.out_of_order,
        delivered.len() as u64,
        chan.stats().forged,
    ] {
        sig = fnv1a_fold(sig, v);
    }

    let violation = if let Some(v) = delta_violation {
        Some(v)
    } else if qt.acked + qt.expired + tx.in_flight() as u64 != assigned {
        Some(format!(
            "arq: tx ledger broken — acked {} + expired {} + in_flight {} != assigned {assigned}",
            qt.acked,
            qt.expired,
            tx.in_flight()
        ))
    } else if qt.sent < qt.retransmitted {
        Some(format!(
            "arq: sent {} < retransmitted {}",
            qt.sent, qt.retransmitted
        ))
    } else if qt.sent - qt.retransmitted > assigned {
        Some(format!(
            "arq: {} first transmissions from {assigned} assigned frames",
            qt.sent - qt.retransmitted
        ))
    } else if qr.delivered != delivered.len() as u64 {
        Some(format!(
            "arq: rx counted {} deliveries, callback saw {}",
            qr.delivered,
            delivered.len()
        ))
    } else if !malicious
        && (delivered.len() > sent.len()
            || delivered.as_slice() != &sent[..delivered.len().min(sent.len())])
    {
        Some(format!(
            "arq: delivered stream is not an exact duplicate-free prefix \
             ({} delivered of {} sent)",
            delivered.len(),
            sent.len()
        ))
    } else {
        None
    };
    Outcome { sig, violation }
}

/// One transmit service round: due frames go through the channel into
/// the receive-side frame decoder and `ArqRx`, with per-call counter
/// delta checks.
#[expect(
    clippy::too_many_arguments,
    reason = "one service round threads both endpoints, both channels and the counters"
)]
fn service_data(
    tx: &mut ArqTx,
    rx: &mut ArqRx<Vec<u8>>,
    chan: &mut AdversarialChannel,
    fd: &mut FrameDecoder,
    rng: &mut StdRng,
    tick: u64,
    delivered: &mut Vec<Vec<u8>>,
    delta_violation: &mut Option<String>,
    step: usize,
) {
    let mut arrivals: Vec<Vec<u8>> = Vec::new();
    tx.service(tick, |wire| match encode_frame(wire) {
        Ok(frame) => chan.transmit(&frame, rng, |bytes| arrivals.push(bytes.to_vec())),
        Err(e) => *delta_violation = Some(format!("arq: a queued wire at step {step}: {e}")),
    });
    for bytes in arrivals {
        ingest_arrival(rx, fd, &bytes, delivered, delta_violation, step);
    }
}

/// Releases every reordered frame into the receiver.
fn flush_data(
    rx: &mut ArqRx<Vec<u8>>,
    chan: &mut AdversarialChannel,
    fd: &mut FrameDecoder,
    delivered: &mut Vec<Vec<u8>>,
    delta_violation: &mut Option<String>,
    step: usize,
) {
    let mut arrivals: Vec<Vec<u8>> = Vec::new();
    chan.flush(|bytes| arrivals.push(bytes.to_vec()));
    for bytes in arrivals {
        ingest_arrival(rx, fd, &bytes, delivered, delta_violation, step);
    }
}

/// Feeds one arrival's bytes through framing into the receiver, checking
/// the per-call `LinkQuality` delta: one `on_data` call either delivers
/// (possibly releasing parked successors), or records a duplicate and/or
/// an out-of-order arrival — never both kinds at once, never more than
/// one dup/ooo each.
fn ingest_arrival(
    rx: &mut ArqRx<Vec<u8>>,
    fd: &mut FrameDecoder,
    bytes: &[u8],
    delivered: &mut Vec<Vec<u8>>,
    delta_violation: &mut Option<String>,
    step: usize,
) {
    fd.push_with(bytes, |r| {
        let Some((seq, inner)) = r.ok().and_then(decode_data) else {
            return;
        };
        let before = rx.quality();
        rx.on_data(seq, || inner.to_vec(), |rec| delivered.push(rec));
        let after = rx.quality();
        let dd = after.delivered - before.delivered;
        let du = after.duplicates - before.duplicates;
        let oo = after.out_of_order - before.out_of_order;
        let sane = (dd > 0 && du == 0 && oo == 0) || (dd == 0 && du <= 1 && oo <= 1);
        if sane || delta_violation.is_some() {
            return;
        }
        *delta_violation = Some(format!(
            "arq: on_data counter delta insane at step {step} \
             (delivered +{dd}, duplicates +{du}, out_of_order +{oo})"
        ));
    });
}

/// Returns the receiver's current ack through its own lossy channel.
#[expect(
    clippy::expect_used,
    reason = "an ack payload is a fixed four bytes and always fits one frame"
)]
fn return_ack(
    tx: &mut ArqTx,
    rx: &ArqRx<Vec<u8>>,
    ack_chan: &mut AdversarialChannel,
    fd_back: &mut FrameDecoder,
    rng: &mut StdRng,
) {
    let frame = encode_frame(&rx.ack_payload()).expect("an ack fits one frame");
    let mut acks: Vec<(Seq16, u8)> = Vec::new();
    ack_chan.transmit(&frame, rng, |bytes| {
        fd_back.push_with(bytes, |r| {
            if let Some(ack) = r.ok().and_then(decode_ack) {
                acks.push(ack);
            }
        });
    });
    for (cum, bitmap) in acks {
        tx.on_ack(cum, bitmap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_decoder_matches_on_clean_traffic() {
        let mut stream = Vec::new();
        for i in 0..5u8 {
            stream.extend_from_slice(&encode_frame(&[i; 4]).unwrap());
        }
        let out = run_frame(&stream);
        assert_eq!(out.violation, None);
    }

    #[test]
    fn frame_target_is_deterministic() {
        let input = b"\xaa\x55\x03abc\xff\xff\xaa\x55junk";
        assert_eq!(run_frame(input), run_frame(input));
    }

    #[test]
    fn stream_target_clean_on_telemetry() {
        let frame = encode_frame(&[b'E', 0, 9, b'>', 1]).unwrap();
        assert_eq!(run_stream(&frame).violation, None);
    }

    #[test]
    fn arq_target_clean_on_busy_honest_tape() {
        // Even config byte: honest channel, full delivery oracles on.
        let mut tape = vec![0x00u8];
        tape.extend(std::iter::repeat_n(0x1f, 600));
        let out = run_arq(&tape);
        assert_eq!(out.violation, None);
    }

    #[test]
    fn arq_target_clean_on_malicious_tape() {
        let mut tape = vec![0x01u8];
        tape.extend(std::iter::repeat_n(0x3f, 600));
        let out = run_arq(&tape);
        assert_eq!(out.violation, None);
    }

    #[test]
    fn arq_target_is_deterministic() {
        let mut tape = vec![0x01u8];
        tape.extend((0..400).map(|i| (i * 7 + 3) as u8));
        assert_eq!(run_arq(&tape), run_arq(&tape));
    }
}

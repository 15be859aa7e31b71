//! Deterministic mutation engine.
//!
//! Everything is driven by the caller's seeded [`StdRng`], so a fuzzing
//! run is a pure function of `(corpus, seed, iterations)` and any
//! failure reproduces from its printed seed. The operators are the
//! classic byte-level set plus three protocol-aware ones that know the
//! wire framing: embedded sync injection, length-byte smashing, and
//! length smashing with the CRC *recomputed* so the mutant survives the
//! checksum (the malicious-frame class an honest channel never makes).

use rand::rngs::StdRng;
use rand::Rng;

use distscroll_hw::link::{crc16_ccitt, SYNC1, SYNC2};

/// Mutants never grow beyond this; corpus entries are small and the
/// decoders are streaming, so length adds little coverage past a point.
pub const MAX_INPUT: usize = 4096;

/// Byte values that sit on protocol edges: sync bytes, tag bytes,
/// record lengths, window-sized and extreme values.
const INTERESTING: &[u8] = &[
    0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x07, 0x08, 0x09, 0x7f, 0x80, 0xfe, 0xff, SYNC1, SYNC2,
    b'D', b'K', b'T', b'E',
];

/// Applies 1–4 random mutation operators to `input`.
pub fn mutate(input: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = input.to_vec();
    let rounds = rng.gen_range(1..=4u32);
    for _ in 0..rounds {
        apply_one(&mut out, rng);
    }
    out.truncate(MAX_INPUT);
    out
}

fn apply_one(buf: &mut Vec<u8>, rng: &mut StdRng) {
    match rng.gen_range(0..10u32) {
        0 => bit_flip(buf, rng),
        1 => byte_set(buf, rng),
        2 => truncate(buf, rng),
        3 => insert(buf, rng),
        4 => splice_self(buf, rng),
        5 => dup_chunk(buf, rng),
        6 => inject_sync(buf, rng),
        7 => smash_length(buf, rng),
        8 => smash_length_fix_crc(buf, rng),
        _ => interesting(buf, rng),
    }
}

fn bit_flip(buf: &mut Vec<u8>, rng: &mut StdRng) {
    if buf.is_empty() {
        buf.push(rng.gen());
        return;
    }
    let i = rng.gen_range(0..buf.len());
    buf[i] ^= 1 << rng.gen_range(0..8u32);
}

fn byte_set(buf: &mut Vec<u8>, rng: &mut StdRng) {
    if buf.is_empty() {
        buf.push(rng.gen());
        return;
    }
    let i = rng.gen_range(0..buf.len());
    buf[i] = rng.gen();
}

fn interesting(buf: &mut Vec<u8>, rng: &mut StdRng) {
    let v = INTERESTING[rng.gen_range(0..INTERESTING.len())];
    if buf.is_empty() {
        buf.push(v);
        return;
    }
    let i = rng.gen_range(0..buf.len());
    buf[i] = v;
}

fn truncate(buf: &mut Vec<u8>, rng: &mut StdRng) {
    if buf.is_empty() {
        return;
    }
    let keep = rng.gen_range(0..buf.len());
    buf.truncate(keep);
}

fn insert(buf: &mut Vec<u8>, rng: &mut StdRng) {
    let n = rng.gen_range(1..=16usize);
    let at = rng.gen_range(0..=buf.len());
    let fresh: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
    buf.splice(at..at, fresh);
}

fn splice_self(buf: &mut Vec<u8>, rng: &mut StdRng) {
    if buf.len() < 2 {
        return;
    }
    let from = rng.gen_range(0..buf.len());
    let len = rng.gen_range(1..=(buf.len() - from).min(32));
    let chunk: Vec<u8> = buf[from..from + len].to_vec();
    let to = rng.gen_range(0..=buf.len());
    buf.splice(to..to, chunk);
}

fn dup_chunk(buf: &mut Vec<u8>, rng: &mut StdRng) {
    if buf.is_empty() {
        return;
    }
    let from = rng.gen_range(0..buf.len());
    let len = rng.gen_range(1..=(buf.len() - from).min(16));
    let chunk: Vec<u8> = buf[from..from + len].to_vec();
    let at = from + len;
    buf.splice(at..at, chunk);
}

/// Inserts a sync pair plus a length byte mid-stream — the seed of every
/// embedded-frame resync scenario.
fn inject_sync(buf: &mut Vec<u8>, rng: &mut StdRng) {
    let at = rng.gen_range(0..=buf.len());
    let len_byte: u8 = if rng.gen_bool(0.5) {
        rng.gen_range(0..=16)
    } else {
        rng.gen()
    };
    buf.splice(at..at, [SYNC1, SYNC2, len_byte]);
}

/// Finds a sync pair and mutates the length byte after it, leaving the
/// CRC stale — the classic corrupted-header cascade trigger.
fn smash_length(buf: &mut Vec<u8>, rng: &mut StdRng) {
    let Some(pos) = find_sync(buf, rng) else {
        return inject_sync(buf, rng);
    };
    if pos + 2 >= buf.len() {
        return;
    }
    let delta = [1u8, 0xff, 2, 0x80, 16][rng.gen_range(0..5usize)];
    buf[pos + 2] = buf[pos + 2].wrapping_add(delta);
}

/// Mutates a frame's length byte *and recomputes the CRC* over the new
/// coverage, producing a checksum-valid frame the encoder never built.
/// This is the "CRC collision on a mutated length byte" attack class:
/// the decoder has no grounds to reject it, so only layers above the
/// framing (ARQ bounds, record parsing) can.
fn smash_length_fix_crc(buf: &mut Vec<u8>, rng: &mut StdRng) {
    let Some(pos) = find_sync(buf, rng) else {
        return inject_sync(buf, rng);
    };
    if pos + 2 >= buf.len() {
        return;
    }
    let avail = buf.len() - (pos + 3);
    if avail < 2 {
        return;
    }
    // New length small enough that payload + CRC still fit in the buffer.
    let new_len = rng.gen_range(0..=(avail - 2).min(255));
    buf[pos + 2] = new_len as u8;
    let crc = crc16_ccitt(&buf[pos + 2..pos + 3 + new_len]);
    buf[pos + 3 + new_len] = (crc >> 8) as u8;
    buf[pos + 4 + new_len] = (crc & 0xff) as u8;
}

/// A random `SYNC1 SYNC2` position in `buf`, if any.
fn find_sync(buf: &[u8], rng: &mut StdRng) -> Option<usize> {
    let positions: Vec<usize> = buf
        .windows(2)
        .enumerate()
        .filter(|(_, w)| w[0] == SYNC1 && w[1] == SYNC2)
        .map(|(i, _)| i)
        .collect();
    if positions.is_empty() {
        None
    } else {
        Some(positions[rng.gen_range(0..positions.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let a: Vec<Vec<u8>> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| mutate(&base, &mut rng)).collect()
        };
        let b: Vec<Vec<u8>> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..100).map(|_| mutate(&base, &mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn mutants_stay_bounded_and_usually_differ() {
        let base = vec![0u8; 64];
        let mut rng = StdRng::seed_from_u64(7);
        let mut changed = 0;
        for _ in 0..200 {
            let m = mutate(&base, &mut rng);
            assert!(m.len() <= MAX_INPUT);
            if m != base {
                changed += 1;
            }
        }
        assert!(changed > 150, "only {changed}/200 mutants differed");
    }

    #[test]
    fn crc_fixing_mutator_yields_valid_frames() {
        use distscroll_hw::link::{encode_frame, FrameDecoder};
        let mut rng = StdRng::seed_from_u64(3);
        let frame = encode_frame(b"some payload bytes here").unwrap();
        let mut fixed_valid = 0;
        for _ in 0..100 {
            let mut buf = frame.clone();
            smash_length_fix_crc(&mut buf, &mut rng);
            let mut dec = FrameDecoder::new();
            if dec.push_all(&buf).iter().any(Result::is_ok) {
                fixed_valid += 1;
            }
        }
        assert!(
            fixed_valid > 80,
            "crc-fixing mutants mostly decode: {fixed_valid}/100"
        );
    }

    #[test]
    fn empty_input_grows() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let _ = mutate(&[], &mut rng);
        }
    }
}

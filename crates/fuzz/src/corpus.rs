//! Corpus management: checked-in seed inputs under `fuzz/corpus/`.
//!
//! Entries are flat `.bin` files named by the FNV-1a hash of their
//! content, so adding one never collides or renames another and `git`
//! diffs stay meaningful. [`builtin_seeds`] holds the starting set —
//! known-vector frames, shrunken proptest failures, ARQ/telemetry wire
//! shapes — so the harness is self-contained even before any corpus is
//! on disk; `cargo run -p xtask -- fuzz --init-corpus` writes them out.
//!
//! Growth policy: during a run with `--grow`, any mutant that produces a
//! new feature signature (a hash of the counter profile the target
//! reports) is saved. Minimized violation reproducers are *not* grown
//! automatically — they become named regression tests instead.

use std::fs;
use std::io;
use std::path::Path;

use distscroll_hw::link::{encode_frame, SYNC1, SYNC2};

/// FNV-1a 64-bit content hash; names corpus entries and feature
/// signatures.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds a word into a running FNV-1a hash (for feature signatures).
pub fn fnv1a_fold(mut h: u64, word: u64) -> u64 {
    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
        h ^= (word >> shift) & 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical file name of a corpus entry.
pub fn entry_name(bytes: &[u8]) -> String {
    format!("{:016x}.bin", fnv1a(bytes))
}

/// Loads every `.bin` entry under `dir`, sorted by file name so the
/// replay order (and therefore the whole run) is deterministic.
///
/// # Errors
///
/// Propagates filesystem errors; a missing directory is an empty corpus.
pub fn load(dir: &Path) -> io::Result<Vec<(String, Vec<u8>)>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "bin") {
            let name = entry.file_name().to_string_lossy().into_owned();
            out.push((name, fs::read(&path)?));
        }
    }
    out.sort();
    Ok(out)
}

/// Writes `bytes` as a corpus entry, returning its file name.
///
/// # Errors
///
/// Propagates filesystem errors creating the directory or the file.
pub fn save(dir: &Path, bytes: &[u8]) -> io::Result<String> {
    fs::create_dir_all(dir)?;
    let name = entry_name(bytes);
    fs::write(dir.join(&name), bytes)?;
    Ok(name)
}

/// Frames one seed payload; every seed below is far shorter than one
/// frame carries.
#[expect(clippy::expect_used, reason = "seed payloads are short constants")]
fn frame(payload: &[u8]) -> Vec<u8> {
    encode_frame(payload).expect("a seed payload fits one frame")
}

/// The built-in seed set.
///
/// Sources, in order: protocol known vectors, the shrunken failures from
/// `crates/hw/tests/proptest_link.proptest-regressions`, embedded-frame
/// cascade shapes, ARQ data/ack wire shapes (including the header-only
/// and oversize forms the hardened parsers reject), and raw telemetry
/// records.
pub fn builtin_seeds() -> Vec<Vec<u8>> {
    // Known vectors from the unit tests.
    let mut seeds: Vec<Vec<u8>> = vec![frame(b"hello distscroll"), frame(b"")];
    // The bit-flipped-length regression vector (frame of [0xff, 0xff]
    // with its length byte flipped 2 -> 0).
    let mut flipped = frame(&[0xff, 0xff]);
    flipped[2] ^= 0x02;
    seeds.push(flipped);

    // Shrunken proptest failures (see proptest-regressions): a sync pair
    // followed by a length byte that swallows what follows.
    let mut shrunk = vec![SYNC1, SYNC2, 35, 0];
    shrunk.extend_from_slice(&frame(&[0])); // payload = [0]
    seeds.push(shrunk);
    let mut shrunk2 = vec![SYNC1, SYNC2, 22];
    for _ in 0..3 {
        shrunk2.extend_from_slice(&frame(b"x"));
    }
    seeds.push(shrunk2);

    // Back-to-back traffic.
    let mut burst = Vec::new();
    for i in 0..3u8 {
        burst.extend_from_slice(&frame(&[i; 3]));
    }
    seeds.push(burst);

    // The embedded-frame cascade: a corrupted header whose bogus length
    // swallows a complete valid frame.
    let inner = frame(b"inner");
    let mut cascade = vec![SYNC1, SYNC2, 20];
    cascade.extend_from_slice(&inner);
    cascade.extend_from_slice(&[0u8; 10]);
    cascade.extend_from_slice(&[0x00, 0x00]); // stale CRC
    seeds.push(cascade);

    // ARQ data frame carrying an event record at seq 0.
    seeds.push(frame(&[b'D', 0, 0, b'E', 0, 1, b'A', 0]));
    // ARQ data frame at a mid-stream sequence number (resync adoption).
    seeds.push(frame(&[b'D', 0x01, 0xf4, b'E', 0, 2, b'H', 3]));
    // Header-only data frame: valid CRC, no record — must be rejected.
    seeds.push(frame(&[b'D', 0, 7]));
    // A well-formed ack, and an oversize one (trailing byte).
    seeds.push(frame(&[b'K', 0, 5, 0b101]));
    seeds.push(frame(&[b'K', 0, 5, 0b101, 9]));

    // Raw telemetry: a state record and an event record, unframed by ARQ.
    seeds.push(frame(&[b'T', 0, 1, 0x02, 0x00, 0xff, 0, 2]));
    seeds.push(frame(&[b'E', 0, 9, b'>', 1]));

    // Truncated frame: header plus half a payload.
    let full = frame(b"truncate me");
    seeds.push(full[..6].to_vec());
    // Sync-byte starvation: a wall of SYNC1 with no SYNC2.
    seeds.push(vec![SYNC1; 64]);
    // Giant declared length followed by too few bytes.
    let mut giant = vec![SYNC1, SYNC2, 0xff];
    giant.extend_from_slice(&[0x41; 100]);
    seeds.push(giant);

    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vector() {
        // FNV-1a 64-bit of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // And it is sensitive to content and order.
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn builtin_seeds_are_distinct() {
        let seeds = builtin_seeds();
        assert!(seeds.len() >= 15);
        let names: std::collections::BTreeSet<String> =
            seeds.iter().map(|s| entry_name(s)).collect();
        assert_eq!(names.len(), seeds.len(), "hash collision among seeds");
    }

    #[test]
    fn save_then_load_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("distscroll-fuzz-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = save(&dir, b"alpha").expect("save");
        let b = save(&dir, b"beta").expect("save");
        let loaded = load(&dir).expect("load");
        assert_eq!(loaded.len(), 2);
        let names: Vec<&str> = loaded.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&a.as_str()) && names.contains(&b.as_str()));
        // Sorted by name: deterministic replay order.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        let _ = fs::remove_dir_all(&dir);
    }
}

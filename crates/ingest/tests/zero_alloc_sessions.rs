//! Proof that a resident fleet session owns no heap memory: once a
//! capacity-bounded shard's slot table has reached its bound, opening a
//! session (and evicting the least recently touched one to make room)
//! and decoding its captured radio stream performs **zero** heap
//! allocations. The ARQ receiver parks out-of-order records in a ring,
//! and a frame split across two batches waits in a carry; both are
//! entries of stores the shard owns, taken while a session has a gap or
//! a split frame and given back when it closes them or is evicted. Once
//! the stores have grown to the most entries the traffic holds at once
//! they stop growing, so a store that leaked entries under churn would
//! allocate here. A round's bytes wait in one buffer the service owns,
//! so a round with more bytes grows that one buffer, not one per shard.
//!
//! The same counting-allocator wrapper as `distscroll-host`'s
//! `zero_alloc_decode` test, tallying per thread so the multi-threaded
//! test harness cannot pollute the count. The service runs at
//! `jobs = 1`, where a round is a plain loop on this thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distscroll_host::telemetry::StreamDecoder;
use distscroll_ingest::loadgen::{capture_template, inorder_template, LinkProfile, Template};
use distscroll_ingest::{IngestConfig, IngestService};

thread_local! {
    /// Allocation calls (alloc + realloc) made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocation calls, then forwards everything to [`System`].
struct CountingAlloc;

#[expect(
    unsafe_code,
    reason = "a counting GlobalAlloc forwards to System, which takes unsafe"
)]
// SAFETY: every operation forwards verbatim to the system allocator;
// the only addition is a thread-local counter bump, which allocates
// nothing and upholds the GlobalAlloc contract by construction.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: counting aside, this is the system allocator verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds GlobalAlloc's contract for `layout`;
        // it is forwarded to the system allocator unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: frees are not counted; the call is the system allocator verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `Self::alloc`, i.e. from `System`, with
        // this same `layout`; both are forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: counting aside, this is the system allocator verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `Self::alloc`, i.e. from `System`, with
        // this same `layout`; all arguments are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_on_this_thread() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Live sessions the shard may hold.
const CAPACITY: usize = 8;
/// Devices taking turns on the shard: six times its capacity, so every
/// batch evicts a session and opens one.
const DEVICES: u64 = 48;

/// Offers round `round` of the schedule and drains it: every device in
/// id order sends its template's next chunk. Device `d` replays
/// template `d % templates.len()`, wrapping at the end of it.
fn play_round(svc: &mut IngestService, templates: &[Template], round: usize) {
    for device in 0..DEVICES {
        let template = &templates[device as usize % templates.len()];
        let chunk = &template.rounds[round % template.rounds.len()];
        if !chunk.is_empty() {
            assert!(svc.offer(device, chunk), "the queue has no high-water mark");
        }
    }
    svc.process_round(1);
}

#[test]
fn opening_and_evicting_sessions_at_the_bound_allocates_nothing() {
    let templates = [
        capture_template(LinkProfile::CLEAN, 12, 100, 20050607),
        capture_template(LinkProfile::LOSSY, 12, 100, 20050607),
    ];
    let rounds = templates.iter().map(|t| t.rounds.len()).max().unwrap_or(0);
    let mut svc = IngestService::new(&IngestConfig {
        shards: 1,
        high_water: usize::MAX,
        session_capacity: CAPACITY,
    });

    // Warm-up: one pass over every chunk fills the slot table to its
    // bound and grows the shard's queue, the round buffer and the device
    // index to the most this schedule needs.
    for round in 0..rounds {
        play_round(&mut svc, &templates, round);
    }
    assert_eq!(
        svc.live_sessions(),
        CAPACITY,
        "the slot table is at its bound"
    );

    // The measured pass replays the same chunks: 48 opens and 48
    // evictions a round, each session decoding a captured stream.
    let before = allocations_on_this_thread();
    for round in rounds..2 * rounds {
        play_round(&mut svc, &templates, round);
    }
    let allocated = allocations_on_this_thread() - before;

    let stats = svc.finish().totals;
    let batches = stats.batches_in;
    assert_eq!(
        stats.sessions_opened, batches,
        "every batch opens a session"
    );
    assert_eq!(stats.evicted, batches - CAPACITY as u64);
    assert!(stats.records > 0, "the sessions must decode records");
    assert!(
        stats.link.out_of_order > 0,
        "the lossy stream must park records"
    );
    assert_eq!(
        allocated, 0,
        "sessions opened and evicted at the bound must not allocate"
    );
}

/// The high-bit-error link of the fleet benchmark: CRC failures keep the
/// frame scan resyncing, and at [`SPLIT_SEED`] a frame straddles a
/// chunk boundary.
const HIGH_BER: LinkProfile = LinkProfile {
    drop_prob: 0.02,
    ber: 1e-3,
    jitter_ms: 5,
};

/// A capture seed whose [`HIGH_BER`] template, at 12 rounds, ends two
/// chunks inside a frame.
const SPLIT_SEED: u64 = 20050603;

/// Chunks of `template` after which a decoder replaying it holds a
/// frame's head back for the next chunk.
fn split_chunks(template: &Template) -> usize {
    let mut dec = StreamDecoder::with_arq_resync();
    template
        .rounds
        .iter()
        .filter(|chunk| {
            dec.push_bytes_with(chunk, |_| {});
            dec.link_byte_accounting().2 > 0
        })
        .count()
}

#[test]
fn split_frames_and_gaps_at_the_bound_allocate_nothing() {
    let templates = [
        capture_template(HIGH_BER, 12, 100, SPLIT_SEED),
        capture_template(LinkProfile::LOSSY, 12, 100, 20050607),
    ];
    assert!(
        split_chunks(&templates[0]) > 0,
        "the template must split a frame across chunks"
    );
    let rounds = templates.iter().map(|t| t.rounds.len()).max().unwrap_or(0);
    let mut svc = IngestService::new(&IngestConfig {
        shards: 1,
        high_water: usize::MAX,
        session_capacity: CAPACITY,
    });

    // Warm-up: one pass grows the slot table, the queue, the index, the
    // round buffer and both stores to the most this schedule needs.
    for round in 0..rounds {
        play_round(&mut svc, &templates, round);
    }

    // The measured pass replays the same chunks, every batch evicting a
    // session (and with it any gap or split frame it holds) to open one.
    let before = allocations_on_this_thread();
    for round in rounds..2 * rounds {
        play_round(&mut svc, &templates, round);
    }
    let allocated = allocations_on_this_thread() - before;

    let stats = svc.finish().totals;
    assert_eq!(stats.evicted, stats.batches_in - CAPACITY as u64);
    assert!(stats.crc_failures > 0, "the BER link must fail CRCs");
    assert!(
        stats.link.out_of_order > 0,
        "the lossy streams must park records"
    );
    assert_eq!(
        allocated, 0,
        "gaps and split frames at the bound must not allocate"
    );
}

#[test]
fn a_longer_round_grows_one_buffer_not_one_per_shard() {
    const SHARDS: usize = 8;
    const DEVICES: u64 = 4 * SHARDS as u64;
    // Three equal in-order chunks per device: the warm-up round sends
    // the first, the measured round the other two back to back, so every
    // measured chunk is twice as long and continues its stream in order.
    let template = inorder_template(3, 4);
    let [first, second, third] = &template.rounds[..] else {
        panic!("three rounds");
    };
    assert_eq!(second.len(), first.len());
    assert_eq!(third.len(), first.len());
    let doubled = [second.as_slice(), third.as_slice()].concat();
    let mut svc = IngestService::new(&IngestConfig::unbounded(SHARDS));

    // Warm-up: opens every session and grows every queue to the
    // per-shard batch count, which the measured round repeats.
    for device in 0..DEVICES {
        assert!(svc.offer(device, first));
    }
    svc.process_round(1);

    let before = allocations_on_this_thread();
    for device in 0..DEVICES {
        assert!(svc.offer(device, &doubled));
    }
    svc.process_round(1);
    let allocated = allocations_on_this_thread() - before;

    let stats = svc.finish().totals;
    assert_eq!(stats.records, DEVICES * template.records);
    assert_eq!(stats.sessions_opened, DEVICES);
    assert!(
        allocated <= 1,
        "{allocated} allocation calls: twice the round's bytes must grow one buffer at most once"
    );
}

//! Proof that the host decode path holds the same zero-allocation bar
//! as the firmware loop: pushing radio bytes through
//! [`StreamDecoder::push_bytes_with`] performs **zero** heap
//! allocations — `Record` is `Copy`, every payload is borrowed, and the
//! ARQ receiver parks out-of-order records in a fixed ring inside the
//! decoder. A fresh decoder holds that from its very first push, on a
//! clean stream with reordering and on a corrupted one (CRC failures
//! and resync inside failed attempts). Frames split across pushes need
//! the frame decoder's carry, which allocates until it has grown to the
//! longest split attempt; after that warm-up they allocate nothing too.
//!
//! The same counting-allocator wrapper as `distscroll-core`'s
//! `zero_alloc` test, tallying per thread so the multi-threaded test
//! harness cannot pollute the count.

#![expect(
    clippy::unwrap_used,
    reason = "test helpers fail the test by panicking"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use distscroll_host::telemetry::{Record, StreamDecoder};
use distscroll_hw::arq::{ArqClass, ArqTx};
use distscroll_hw::link::{encode_frame, SYNC1, SYNC2};

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

/// `count` sequenced data frames, with every pair swapped so the
/// receiver's reorder path (parking and releasing) stays exercised, not
/// just the fast in-order path.
fn data_frames(tx: &mut ArqTx, count: u16) -> Vec<Vec<u8>> {
    let mut wires: Vec<Vec<u8>> = Vec::new();
    for i in 0..count {
        let stamp = i.to_be_bytes();
        tx.enqueue(
            ArqClass::State,
            &[b'T', stamp[0], stamp[1], 0, 100, 0xff, 0, 0],
            0,
        )
        .unwrap();
        tx.service(0, |w| wires.push(encode_frame(w).unwrap()));
        // Pretend the ack arrived so the queue never fills or resends.
        tx.on_ack(
            distscroll_hw::arq::decode_data(&wires.last().unwrap()[3..])
                .unwrap()
                .0,
            0,
        );
    }
    for pair in wires.chunks_mut(2) {
        if let [a, b] = pair {
            std::mem::swap(a, b);
        }
    }
    wires
}

/// [`data_frames`] as one contiguous radio byte stream.
fn data_stream(tx: &mut ArqTx, count: u16) -> Vec<u8> {
    data_frames(tx, count).concat()
}

/// [`data_frames`] with damage the decoder must resync through: every
/// third frame is preceded by a bit-flipped copy of itself, and every
/// third by a bogus header whose length swallows the frames after it.
/// Every real frame still arrives intact and is decided by the end.
fn corrupted_stream(tx: &mut ArqTx, count: u16) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, frame) in data_frames(tx, count).into_iter().enumerate() {
        match i % 3 {
            0 => {
                let mut bad = frame.clone();
                bad[4] ^= 0x10;
                out.extend_from_slice(&bad);
            }
            // The swallowed frames must arrive for the attempt to fail.
            1 if i + 3 < usize::from(count) => out.extend_from_slice(&[SYNC1, SYNC2, 40]),
            _ => {}
        }
        out.extend_from_slice(&frame);
    }
    out
}

/// Pushes `bytes` in chunks cycling through short sizes, so most frames
/// are split across two or more pushes.
fn push_split(dec: &mut StreamDecoder, bytes: &[u8], records: &mut u64) {
    let mut rest = bytes;
    for size in [1usize, 2, 3, 5, 8, 13, 21, 34].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        dec.push_bytes_with(chunk, |_: Record| *records += 1);
        rest = tail;
    }
}

#[test]
fn arq_decode_allocates_nothing_from_the_first_push() {
    let mut tx = ArqTx::new();
    // Both streams are built *before* the window: building frames
    // allocates, decoding them must not. Nothing is warmed up.
    let first = data_stream(&mut tx, 200);
    let second = data_stream(&mut tx, 200);
    let mut records = 0u64;

    let before = allocations_on_this_thread();
    let mut dec = StreamDecoder::with_arq();
    dec.push_bytes_with(&first, |_: Record| records += 1);
    dec.push_bytes_with(&second, |_: Record| records += 1);
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(records, 400, "every record must decode");
    assert_eq!(allocated, 0, "a fresh decoder must not allocate");
    let q = dec.arq_quality().expect("arq decoder");
    assert_eq!(q.delivered, 400);
    assert!(q.out_of_order > 0, "the reorder path must be exercised");
}

#[test]
fn corrupted_stream_decode_allocates_nothing() {
    let mut tx = ArqTx::new();
    let first = corrupted_stream(&mut tx, 200);
    let second = corrupted_stream(&mut tx, 200);
    let mut records = 0u64;

    let before = allocations_on_this_thread();
    let mut dec = StreamDecoder::with_arq();
    dec.push_bytes_with(&first, |_: Record| records += 1);
    let crc_after_first = dec.crc_failures();
    dec.push_bytes_with(&second, |_: Record| records += 1);
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(records, 400, "every intact frame survives the damage");
    assert!(crc_after_first > 0, "the damage must fail CRCs");
    assert!(
        dec.crc_failures() > crc_after_first,
        "the second stream must resync too"
    );
    let (_, _, pending) = dec.link_byte_accounting();
    assert_eq!(pending, 0, "every attempt is decided inside its push");
    assert_eq!(
        allocated, 0,
        "resync through CRC failures must not allocate"
    );
}

#[test]
fn frames_split_across_pushes_allocate_nothing() {
    let mut tx = ArqTx::new();
    let mut dec = StreamDecoder::with_arq();
    let mut records = 0u64;

    // Warm-up with the same split pattern grows the carry to the most it
    // ever holds.
    let warm = data_stream(&mut tx, 200);
    push_split(&mut dec, &warm, &mut records);
    assert_eq!(records, 200, "warm-up records must all decode");

    let hot = data_stream(&mut tx, 200);
    let before = allocations_on_this_thread();
    push_split(&mut dec, &hot, &mut records);
    let allocated = allocations_on_this_thread() - before;
    assert_eq!(records, 400, "measured records must all decode");
    let (_, _, pending) = dec.link_byte_accounting();
    assert_eq!(pending, 0, "the stream ends on a frame boundary");
    assert_eq!(allocated, 0, "frames split across pushes must not allocate");
}

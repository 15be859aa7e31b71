//! Deterministic fan-out over scoped threads.
//!
//! The evaluation pipeline is embarrassingly parallel — every trial is
//! independently seeded — but results must stay *byte-for-byte
//! identical* to the serial path. This crate provides the primitive
//! that makes that easy to guarantee: an **ordered** parallel map.
//! Items are grouped into chunks, chunks are claimed dynamically (a
//! shared queue, so long items don't serialize behind short ones),
//! outputs are tagged with their chunk index, and the join reassembles
//! them in input order. The caller's closure therefore only needs to be
//! a pure function of `(index, item)` for `par_map(jobs, ..)` ≡
//! `par_map(1, ..)`.
//!
//! Every fan-out runs inside one `std::thread::scope`: the caller
//! claims chunks alongside the helpers it spawned, and the scope joins
//! them before returning, so borrowed items need no lifetime tricks
//! and [`par_for_each_mut`] can hand out `&mut` items.
//!
//! **Budget.** `--jobs N` means at most `N` threads doing fan-out work,
//! across all nesting levels. One process-wide counter holds the
//! helpers alive; the caller's own thread is the last token. A fan-out
//! spawns at most `jobs - 1 - live` helpers, so a nested fan-out (an
//! experiment's cohort map inside the experiment-level map) borrows
//! whatever tokens are idle and otherwise runs its chunks inline on
//! the thread it already owns. A helper hands its token back as soon
//! as the queue is empty.
//!
//! [`par_map_ctx`] additionally amortizes per-item setup by building
//! one context per *chunk* (the eval runner uses this to construct one
//! technique instance per chunk instead of per user).
//!
//! `jobs <= 1`, a single item, or no free token all take the plain
//! serial loop: no thread is spawned, and [`pool_stats`] counts every
//! helper that ever was, which the pipeline benchmark gates on.

#![deny(missing_docs)]

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::thread::{Scope, ScopedJoinHandle};

/// Helpers holding a token right now, process-wide.
static HELPERS_LIVE: AtomicUsize = AtomicUsize::new(0);
/// Helpers spawned since the process started.
static WORKERS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// A snapshot of the fan-out's instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Helper threads spawned since the process started. A run at
    /// `jobs = 1` leaves it at zero.
    pub workers_spawned: usize,
}

/// Snapshots the fan-out counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        workers_spawned: WORKERS_SPAWNED.load(Ordering::Relaxed),
    }
}

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn max_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses a `--jobs` style argument: a positive thread count, or `0`
/// meaning "auto" (resolved through [`max_jobs`]).
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        max_jobs()
    } else {
        requested
    }
}

/// How many chunks each token gets under [`par_map`] and
/// [`par_for_each_mut`]: items there are coarse and uneven (whole
/// experiments, ingest shards), so favor re-balancing.
const MAP_CHUNKS_PER_TOKEN: usize = 4;

/// How many chunks each token gets under [`par_map_ctx`]: items there
/// are fine and uniform (cohort users), so favor amortizing the
/// per-chunk context.
const CTX_CHUNKS_PER_TOKEN: usize = 2;

/// Maps `f` over `items` on up to `jobs` threads, returning outputs
/// **in input order** regardless of completion order.
///
/// `f` receives `(index, &item)`. Chunk claiming is dynamic, so uneven
/// item costs still load-balance. A panic in any thread propagates to
/// the caller with its original payload.
pub fn par_map<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    map_chunks(
        jobs,
        items,
        MAP_CHUNKS_PER_TOKEN,
        || (),
        |(): &mut (), i, item| f(i, item),
    )
}

/// Like [`par_map`], but builds one context per chunk with `mk_ctx`
/// and threads it mutably through that chunk's items.
///
/// This is the amortization hook: anything expensive to construct but
/// reusable across items (a technique instance, a scratch buffer) is
/// built once per chunk instead of once per item. Determinism demands
/// that reuse be observationally pure — `f`'s output must not depend on
/// which chunk an item landed in — which the determinism regression
/// tests enforce by comparing runs whose chunk boundaries differ.
pub fn par_map_ctx<T, U, C, G, F>(jobs: usize, items: &[T], mk_ctx: G, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    G: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T) -> U + Sync,
{
    map_chunks(jobs, items, CTX_CHUNKS_PER_TOKEN, mk_ctx, f)
}

/// Runs `f(index, &mut item)` over `items` on up to `jobs` threads;
/// each item is visited exactly once, by one thread.
///
/// At `jobs <= 1`, or with one item, this is a plain loop on the
/// caller: no thread, no allocation.
pub fn par_for_each_mut<T, F>(jobs: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n_chunks = chunk_count(jobs, items.len(), MAP_CHUNKS_PER_TOKEN);
    if n_chunks <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut rest = items;
    for (start, end) in chunk_bounds(rest.len(), n_chunks) {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
        chunks.push((start, head));
        rest = tail;
    }
    fan_out(jobs, chunks, |(start, chunk): (usize, &mut [T])| {
        for (k, item) in chunk.iter_mut().enumerate() {
            f(start + k, item);
        }
        Vec::<()>::new()
    });
}

/// The shared-slice map behind [`par_map`] and [`par_map_ctx`].
/// `chunks_per_token` tunes task granularity: higher values re-balance
/// better across uneven items, lower values amortize `mk_ctx` over more
/// items.
fn map_chunks<T, U, C, G, F>(
    jobs: usize,
    items: &[T],
    chunks_per_token: usize,
    mk_ctx: G,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    G: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let n_chunks = chunk_count(jobs, items.len(), chunks_per_token);
    let chunks = chunk_bounds(items.len(), n_chunks)
        .into_iter()
        .map(|(start, end)| (start, &items[start..end]))
        .collect();
    fan_out(jobs, chunks, |(start, chunk): (usize, &[T])| {
        let mut ctx = mk_ctx();
        let mut out = Vec::with_capacity(chunk.len());
        for (k, item) in chunk.iter().enumerate() {
            out.push(f(&mut ctx, start + k, item));
        }
        out
    })
}

/// Chunks a fan-out of `n` items splits into at a `jobs` budget: one
/// below two tokens, else `chunks_per_token` per token, capped at `n`.
fn chunk_count(jobs: usize, n: usize, chunks_per_token: usize) -> usize {
    if jobs <= 1 {
        1
    } else {
        n.min(jobs.saturating_mul(chunks_per_token))
    }
}

/// Splits `0..n` into `chunks` contiguous ranges whose sizes differ by
/// at most one.
fn chunk_bounds(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let base = n / chunks;
    let extra = n % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        bounds.push((start, start + len));
        start += len;
    }
    bounds
}

/// Runs `work` over every chunk, on the caller plus as many helpers as
/// the budget still covers, and concatenates the outputs in chunk
/// order. With no helper to spare the caller runs every chunk itself.
///
/// A panicking chunk unwinds its thread; the scope lets every other
/// thread finish, then the caller re-throws the original payload.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the fan-out is the one place that spawns threads and locks: the lock guards the chunk queue only, never user code"
)]
fn fan_out<S, U, W>(jobs: usize, chunks: Vec<S>, work: W) -> Vec<U>
where
    S: Send,
    U: Send,
    W: Fn(S) -> Vec<U> + Sync,
{
    let helpers = reserve(jobs, chunks.len().saturating_sub(1));
    if helpers == 0 {
        let mut out = Vec::new();
        for chunk in chunks {
            out.extend(work(chunk));
        }
        return out;
    }
    let queue = std::sync::Mutex::new(chunks.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            // Its own statement, so the guard drops before `work` runs.
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((c, chunk)) = claimed else {
                return done;
            };
            done.push((c, work(chunk)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers).filter_map(|_| spawn(s, &drain)).collect();
        let mut done = drain();
        for handle in handles {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(done.iter().map(|(_, part)| part.len()).sum());
    for (_, part) in done {
        out.extend(part);
    }
    out
}

/// Takes up to `want` helper tokens out of the `jobs - 1` the caller's
/// own thread leaves, less those already live. Returns how many it got.
fn reserve(jobs: usize, want: usize) -> usize {
    let mut got = 0;
    // An `Err` means no token was free: `got` is then 0.
    let _ = HELPERS_LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        got = jobs.saturating_sub(1).saturating_sub(live).min(want);
        (got > 0).then_some(live + got)
    });
    got
}

/// One reserved helper token; dropping it hands the token back, also
/// when the helper unwinds or never starts.
struct Token;

impl Drop for Token {
    fn drop(&mut self) {
        HELPERS_LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Spawns one helper running `job` with a token of its own. Thread
/// exhaustion is not fatal: the token goes back and the caller drains
/// the chunks the helper would have taken.
#[expect(
    clippy::disallowed_types,
    reason = "the fan-out is the one place that spawns threads"
)]
fn spawn<'scope, 'env, R, J>(
    s: &'scope Scope<'scope, 'env>,
    job: &'scope J,
) -> Option<ScopedJoinHandle<'scope, R>>
where
    R: Send + 'scope,
    J: Fn() -> R + Sync,
{
    let token = Token;
    let handle = std::thread::Builder::new()
        .name("distscroll-par".into())
        .spawn_scoped(s, move || {
            let _token = token;
            job()
        })
        .ok()?;
    WORKERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    Some(handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_job_count() {
        let items: Vec<usize> = (0..257).collect();
        let serial = par_map(1, &items, |i, &x| i * 1000 + x);
        for jobs in [2, 3, 8, 64] {
            let parallel = par_map(jobs, &items, |i, &x| i * 1000 + x);
            assert_eq!(serial, parallel, "jobs={jobs} must match the serial path");
        }
    }

    #[test]
    fn uneven_item_costs_still_reassemble_in_order() {
        let items: Vec<u64> = (0..40).rev().collect();
        let out = par_map(4, &items, |_, &ms| {
            std::thread::sleep(std::time::Duration::from_micros(ms * 50));
            ms
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[7u8], |_, &x| x), vec![7]);
        let mut none: [u8; 0] = [];
        par_for_each_mut(8, &mut none, |_, x| *x += 1);
        let mut one = [41u8];
        par_for_each_mut(8, &mut one, |i, x| *x += 1 + i as u8);
        assert_eq!(one, [42]);
    }

    #[test]
    fn more_jobs_than_items_claims_each_item_exactly_once() {
        let items = [10u32, 20, 30];
        assert_eq!(par_map(64, &items, |i, &x| x + i as u32), vec![10, 21, 32]);
        let mut visits = [0u32; 3];
        par_for_each_mut(64, &mut visits, |i, v| *v += 1 + i as u32);
        assert_eq!(visits, [1, 2, 3]);
    }

    #[test]
    fn ctx_is_reused_within_a_chunk_and_results_stay_ordered() {
        let items: Vec<u64> = (0..100).collect();
        let run = |jobs| {
            par_map_ctx(
                jobs,
                &items,
                || 0u64,
                |acc, _, &x| {
                    *acc += x; // per-chunk running state must not leak into results
                    x * 3
                },
            )
        };
        let serial = run(1);
        for jobs in [2, 4, 5, 8, 16] {
            assert_eq!(serial, run(jobs), "jobs={jobs} must match the serial path");
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once_at_any_job_count() {
        let serial: Vec<(usize, u64)> = {
            let mut items: Vec<(usize, u64)> = (0..50).map(|x| (usize::MAX, x)).collect();
            par_for_each_mut(1, &mut items, |i, (at, x)| {
                *at = i;
                *x = *x * 7 + 1;
            });
            items
        };
        assert!(serial.iter().enumerate().all(|(i, &(at, _))| at == i));
        for jobs in [2, 3, 8, 64] {
            let mut items: Vec<(usize, u64)> = (0..50).map(|x| (usize::MAX, x)).collect();
            par_for_each_mut(jobs, &mut items, |i, (at, x)| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                *at = i;
                *x = *x * 7 + 1;
            });
            assert_eq!(serial, items, "jobs={jobs} must match the serial path");
        }
    }

    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload must keep its type")
    }

    #[test]
    fn caller_panics_propagate_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, &[1, 2, 3, 4, 5], |_, &x| {
                if x == 3 {
                    panic!("boom on {x}");
                }
                x
            })
        });
        let payload = result.expect_err("a panic must reach the caller");
        assert_eq!(payload_text(&*payload), "boom on 3");
    }

    #[test]
    fn helper_panics_propagate_with_their_payload() {
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            // A budget sibling tests cannot exhaust: helpers always start.
            par_map(256, &items, |_, &x| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                if std::thread::current().id() != caller {
                    panic!("helper boom");
                }
                x
            })
        });
        let payload = result.expect_err("a helper's panic must reach the caller");
        assert_eq!(payload_text(&*payload), "helper boom");
    }

    #[test]
    fn resolve_jobs_maps_zero_to_auto() {
        assert_eq!(resolve_jobs(0), max_jobs());
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for n in [1usize, 2, 7, 16, 257] {
            for chunks in 1..=n.min(9) {
                let bounds = chunk_bounds(n, chunks);
                assert_eq!(bounds.len(), chunks);
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[chunks - 1].1, n);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must tile {n} over {chunks}");
                }
                let sizes: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(
                    max - min <= 1,
                    "sizes must differ by at most one: {sizes:?}"
                );
            }
        }
    }
}

//! Deterministic fan-out over a shared worker pool.
//!
//! The evaluation pipeline is embarrassingly parallel — every trial is
//! independently seeded — but results must stay *byte-for-byte
//! identical* to the serial path. This crate provides the primitive
//! that makes that easy to guarantee: an **ordered** parallel map.
//! Items are grouped into chunks, chunks are claimed dynamically (an
//! atomic cursor, so long items don't serialize behind short ones),
//! outputs are slotted by chunk index, and the join reassembles them in
//! input order. The caller's closure therefore only needs to be a pure
//! function of `(index, item)` for `par_map(jobs, ..)` ≡
//! `par_map(1, ..)`.
//!
//! Unlike the first-generation harness — which spawned a fresh
//! `std::thread::scope` for every call and oversubscribed the machine
//! whenever fan-outs nested (experiments × cohort users) — all work now
//! runs on **one process-wide pool of parked helper threads** under a
//! **global token budget**:
//!
//! * the pool is grown lazily, only by top-level callers, and only up
//!   to `jobs - 1` helpers (the caller itself is the last token);
//! * a nested fan-out borrows whatever idle tokens the budget still
//!   covers — it never spawns, and if every token is busy it simply
//!   runs its chunks inline on the thread it already owns;
//! * budgets above the machine's core count are clamped (extra compute
//!   threads on a saturated machine are pure overhead); set
//!   `DISTSCROLL_PAR_OVERSUBSCRIBE=1` to lift the clamp, which the
//!   thread-budget tests use to exercise real concurrency on small
//!   machines;
//! * [`par_map_ctx`] additionally amortizes per-item setup by building
//!   one context per *chunk* (the eval runner uses this to construct
//!   one technique instance per worker-chunk instead of per user).
//!
//! `jobs <= 1`, a single item, or a single granted token all take the
//! plain serial loop — no helper hand-off, and the natural `--jobs 1`
//! escape hatch the CLI exposes.
//!
//! The executor is instrumented: [`pool_stats`] reports jobs and tasks
//! executed, inline claims vs helper steals, the peak number of live
//! worker threads, and pool size; the pipeline benchmark gates on the
//! snapshot (a run that spawns a worker fails).

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

mod pool;
mod stats;

pub use pool::granted_tokens;
pub use stats::{pool_stats, reset_pool_stats, PoolStats};

use std::num::NonZeroUsize;

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

/// How many chunks each token gets under [`par_map`]: items there are
/// coarse and uneven (whole experiments), so favor re-balancing.
const MAP_CHUNKS_PER_TOKEN: usize = 4;

/// How many chunks each token gets under [`par_map_ctx`]: items there
/// are fine and uniform (cohort users), so favor amortizing the
/// per-chunk context.
const CTX_CHUNKS_PER_TOKEN: usize = 2;

/// Maps `f` over `items` on up to `jobs` pool workers, returning
/// outputs **in input order** regardless of completion order.
///
/// `f` receives `(index, &item)`. Chunk claiming is dynamic, so uneven
/// item costs still load-balance. A panic in any worker propagates to
/// the caller with its original payload.
pub fn par_map<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    pool::run_chunked(
        jobs,
        items,
        MAP_CHUNKS_PER_TOKEN,
        || (),
        |(): &mut (), i, item| f(i, item),
    )
}

/// Like [`par_map`], but builds one context per worker-chunk with
/// `mk_ctx` and threads it mutably through that chunk's items.
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
    pool::run_chunked(jobs, items, CTX_CHUNKS_PER_TOKEN, mk_ctx, f)
}

/// Runs independent thunks on up to `jobs` pool workers, returning
/// their results in declaration order. The fan-out used across
/// experiments.
pub fn par_invoke<U, F>(jobs: usize, tasks: &[F]) -> Vec<U>
where
    U: Send,
    F: Fn() -> U + Sync,
{
    par_map(jobs, tasks, |_, task| task())
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
    }

    #[test]
    fn more_jobs_than_items_claims_each_item_exactly_once() {
        let items = [10u32, 20, 30];
        assert_eq!(par_map(64, &items, |i, &x| x + i as u32), vec![10, 21, 32]);
    }

    #[test]
    fn ctx_is_reused_within_a_chunk_and_results_stay_ordered() {
        let items: Vec<u32> = (0..100).collect();
        let serial = par_map_ctx(1, &items, Vec::<u32>::new, |scratch, _, &x| {
            scratch.push(x);
            x * 2
        });
        for jobs in [2, 5, 16] {
            let parallel = par_map_ctx(jobs, &items, Vec::<u32>::new, |scratch, _, &x| {
                scratch.push(x);
                x * 2
            });
            assert_eq!(serial, parallel, "jobs={jobs} must match the serial path");
        }
    }

    #[test]
    fn par_invoke_returns_in_declaration_order() {
        let tasks: Vec<Box<dyn Fn() -> usize + Sync>> =
            vec![Box::new(|| 10), Box::new(|| 20), Box::new(|| 30)];
        assert_eq!(par_invoke(3, &tasks), vec![10, 20, 30]);
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map(4, &[1, 2, 3, 4, 5], |_, &x| {
                if x == 3 {
                    panic!("boom on {x}");
                }
                x
            })
        });
        let payload = result.expect_err("a worker panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload must survive the pool hand-off");
        assert_eq!(message, "boom on 3");
    }

    #[test]
    fn resolve_jobs_maps_zero_to_auto() {
        assert_eq!(resolve_jobs(0), max_jobs());
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    fn stats_count_submitted_jobs_and_tasks() {
        let before = pool_stats();
        let items: Vec<u8> = (0..10).collect();
        let _ = par_map(2, &items, |_, &x| x);
        let after = pool_stats();
        assert!(after.jobs_submitted > before.jobs_submitted);
        assert!(after.tasks_executed > before.tasks_executed);
        assert_eq!(
            after.tasks_executed,
            after.inline_claims + after.helper_steals,
            "every task is either claimed inline or stolen by a helper"
        );
    }
}

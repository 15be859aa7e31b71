//! Process-wide executor counters.
//!
//! The pool is a process-wide singleton, so its instrumentation is too:
//! a handful of relaxed atomics that cost nothing on the hot path and
//! let the harness prove (rather than hope) that the parallelism budget
//! holds. [`pool_stats`] snapshots them; [`reset_pool_stats`] rewinds
//! the monotonic counters so a caller can attribute deltas to one stage
//! of a run.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static JOBS_SUBMITTED: AtomicU64 = AtomicU64::new(0);
static TASKS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static INLINE_CLAIMS: AtomicU64 = AtomicU64::new(0);
static HELPER_STEALS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE: AtomicUsize = AtomicUsize::new(0);
pub(crate) static WORKERS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// A snapshot of the executor's instrumentation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Helper threads ever spawned by the pool (they park when idle and
    /// live for the rest of the process).
    pub workers_spawned: usize,
    /// Fan-outs submitted to the executor (both levels: experiment
    /// suites and per-cohort user maps).
    pub jobs_submitted: u64,
    /// Chunked tasks executed, across all jobs.
    pub tasks_executed: u64,
    /// Tasks the submitting thread claimed and ran itself.
    pub inline_claims: u64,
    /// Tasks pool helpers stole from a submitter's queue.
    pub helper_steals: u64,
    /// Threads executing tasks right now (a thread blocked waiting on a
    /// nested fan-out releases its slot while it waits).
    pub live: usize,
    /// High-water mark of [`live`](PoolStats::live) since the last
    /// [`reset_pool_stats`] — the observable ceiling the `--jobs`
    /// budget imposes.
    pub peak_live: usize,
}

/// Snapshots the executor counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        workers_spawned: WORKERS_SPAWNED.load(Ordering::Relaxed),
        jobs_submitted: JOBS_SUBMITTED.load(Ordering::Relaxed),
        tasks_executed: TASKS_EXECUTED.load(Ordering::Relaxed),
        inline_claims: INLINE_CLAIMS.load(Ordering::Relaxed),
        helper_steals: HELPER_STEALS.load(Ordering::Relaxed),
        live: LIVE.load(Ordering::Relaxed),
        peak_live: PEAK_LIVE.load(Ordering::Relaxed),
    }
}

/// Rewinds the monotonic counters and restarts the peak-live watermark
/// from the current live count. Spawned workers are not forgotten —
/// threads stay alive — so `workers_spawned` is left untouched.
pub fn reset_pool_stats() {
    JOBS_SUBMITTED.store(0, Ordering::Relaxed);
    TASKS_EXECUTED.store(0, Ordering::Relaxed);
    INLINE_CLAIMS.store(0, Ordering::Relaxed);
    HELPER_STEALS.store(0, Ordering::Relaxed);
    PEAK_LIVE.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

pub(crate) fn job_submitted() {
    JOBS_SUBMITTED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn task_executed(by_helper: bool) {
    TASKS_EXECUTED.fetch_add(1, Ordering::Relaxed);
    if by_helper {
        HELPER_STEALS.fetch_add(1, Ordering::Relaxed);
    } else {
        INLINE_CLAIMS.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

pub(crate) fn live_up() {
    let now = LIVE.fetch_add(1, Ordering::Relaxed) + 1;
    PEAK_LIVE.fetch_max(now, Ordering::Relaxed);
}

pub(crate) fn live_down() {
    LIVE.fetch_sub(1, Ordering::Relaxed);
}

impl std::fmt::Display for PoolStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs, {} tasks ({} inline, {} stolen), peak {} live, {} workers spawned",
            self.jobs_submitted,
            self.tasks_executed,
            self.inline_claims,
            self.helper_steals,
            self.peak_live,
            self.workers_spawned
        )
    }
}

//! The shared worker pool and global parallelism budget.
//!
//! One set of helper threads serves every fan-out in the process. A
//! submitting caller chunks its items, parks the chunk descriptors on
//! its own stack, hands a lifetime-erased reference to up to
//! `budget - 1` *idle* helpers, and then claims chunks itself alongside
//! them. Claiming is an atomic cursor, so uneven chunks still balance;
//! outputs are slotted by chunk index and reassembled in input order,
//! which keeps the executor invisible in the results.
//!
//! **Budget.** `--jobs` is a token budget, not a thread-per-call count.
//! A fan-out may light at most `jobs` tokens across *all* nesting
//! levels: the caller's own token plus however many idle helpers the
//! budget still covers. A nested fan-out (an experiment's `run_users`
//! inside the experiment-level map) therefore borrows unused tokens
//! instead of spawning experiments × users threads, and it never spawns
//! new helpers at all — only top-level submitters grow the pool, and
//! only up to `jobs - 1` threads. Budgets above the machine's core
//! count are clamped: extra compute threads on a saturated machine are
//! pure overhead (set `DISTSCROLL_PAR_OVERSUBSCRIBE=1` to lift the
//! clamp, which the thread-budget tests use to exercise real
//! concurrency on small machines).
//!
//! **Why the latch is an `Arc`.** A helper touches the caller's
//! stack-held job only between assignment and its final
//! `helper_exit`; that exit — and the notification that wakes the
//! caller — goes through a reference-counted latch, so the last thing a
//! helper touches can never be freed underneath it. This is the same
//! shape `std::thread::scope` uses for its completion packet.
//!
//! **Panics.** A panicking chunk is caught, recorded, and re-thrown
//! with its original payload on the submitting thread — after every
//! other chunk has finished, so no helper is left holding a reference
//! into a dead stack frame.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::stats;

/// Locks a pool mutex, recovering from poisoning instead of panicking.
///
/// Sound here because no pool lock is ever held across user code — the
/// mapped closure runs under `catch_unwind` *outside* every critical
/// section — so a poisoned mutex can only mean a panic inside one of
/// our own short, assignment-only sections, after which the protected
/// state is still consistent. Recovering keeps the executor itself free
/// of panic paths (`clippy::unwrap_used` is denied) and stops one
/// worker's panic from cascading into unrelated jobs.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Depth of chunk executions live on this thread: 0 outside the
    /// executor, >0 inside a task (nested fan-outs raise it further).
    /// Only the 0↔1 transitions move the global live-thread count, so
    /// nesting never double-books a token.
    static EXEC_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Translates a `--jobs` request into the token budget the executor
/// will actually grant: at least one, and no more than the machine's
/// available parallelism unless `DISTSCROLL_PAR_OVERSUBSCRIBE=1` is set
/// (compute threads beyond the core count only add contention).
pub fn granted_tokens(jobs: usize) -> usize {
    let jobs = jobs.max(1);
    if std::env::var_os("DISTSCROLL_PAR_OVERSUBSCRIBE").is_some() {
        jobs
    } else {
        jobs.min(crate::max_jobs())
    }
}

/// Completion latch shared between a submitting caller and the helpers
/// assigned to its job.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    chunks_done: usize,
    helpers_out: usize,
}

impl Latch {
    fn new() -> Arc<Latch> {
        Arc::new(Latch {
            state: Mutex::new(LatchState {
                chunks_done: 0,
                helpers_out: 0,
            }),
            cv: Condvar::new(),
        })
    }

    fn chunk_done(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.chunks_done += 1;
        drop(s);
        self.cv.notify_all();
    }

    /// A helper's very last action for a job. Touches only this `Arc`,
    /// never the job itself — see the module docs.
    fn helper_exit(&self) {
        let mut s = lock_unpoisoned(&self.state);
        s.helpers_out -= 1;
        drop(s);
        self.cv.notify_all();
    }

    fn wait(&self, total_chunks: usize) {
        let mut s = lock_unpoisoned(&self.state);
        while s.chunks_done < total_chunks || s.helpers_out > 0 {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A submitted job as helper threads see it: claim-and-run until no
/// chunk is left unclaimed. `Sync` is a supertrait because helpers only
/// ever hold `&dyn Drain` across threads.
trait Drain: Sync {
    fn drain(&self, by_helper: bool);
}

/// Lifetime-erased pointer to a live job on a submitting caller's
/// stack.
///
/// Soundness rests on the join protocol, not the type system: the
/// caller blocks in [`Latch::wait`] until `helpers_out` returns to
/// zero, and every helper calls [`Latch::helper_exit`] strictly after
/// its last dereference of this pointer, so the pointee outlives every
/// access.
struct ErasedJob(*const (dyn Drain + 'static));

#[expect(unsafe_code, reason = "lifetime-erased job handle; see ErasedJob")]
// SAFETY: the pointee is `Sync` (supertrait of `Drain`) and is kept
// alive for the duration of every helper's use by the join protocol
// described on [`ErasedJob`].
unsafe impl Send for ErasedJob {}

#[expect(unsafe_code, reason = "lifetime-erased job handle; see ErasedJob")]
fn erase<'a>(job: &'a (dyn Drain + 'a)) -> ErasedJob {
    let ptr: *const (dyn Drain + 'a) = job;
    // SAFETY: only the lifetime brand changes; layout and vtable are
    // identical. The join protocol (see `ErasedJob`) guarantees no
    // dereference outlives `'a`.
    ErasedJob(unsafe {
        std::mem::transmute::<*const (dyn Drain + 'a), *const (dyn Drain + 'static)>(ptr)
    })
}

/// One pool helper: a parked thread waiting for a job assignment.
struct Helper {
    slot: Mutex<Option<Assignment>>,
    cv: Condvar,
}

struct Assignment {
    job: ErasedJob,
    latch: Arc<Latch>,
}

fn idle_helpers() -> &'static Mutex<Vec<Arc<Helper>>> {
    static IDLE: OnceLock<Mutex<Vec<Arc<Helper>>>> = OnceLock::new();
    IDLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn helper_loop(me: Arc<Helper>) {
    loop {
        let Assignment { job, latch } = {
            let mut slot = lock_unpoisoned(&me.slot);
            loop {
                if let Some(a) = slot.take() {
                    break a;
                }
                slot = me.cv.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
        };
        #[expect(unsafe_code, reason = "lifetime-erased job handle; see ErasedJob")]
        // SAFETY: see `ErasedJob` — the submitter cannot unwind its
        // stack before `latch.helper_exit()` below has run.
        let job_ref: &dyn Drain = unsafe { &*job.0 };
        job_ref.drain(true);
        // Re-park first (the idle list is a process-wide static), then
        // release the submitter. Nothing after this line touches the
        // job.
        lock_unpoisoned(idle_helpers()).push(Arc::clone(&me));
        latch.helper_exit();
    }
}

/// Spawns parked helpers until `target` exist process-wide. Only
/// top-level submitters call this; nested fan-outs borrow idle tokens
/// but never mint threads.
#[expect(
    clippy::disallowed_types,
    reason = "the pool is the one place that spawns threads"
)]
fn ensure_helpers(target: usize) {
    loop {
        let spawned = stats::WORKERS_SPAWNED.load(Ordering::Relaxed);
        if spawned >= target {
            return;
        }
        if stats::WORKERS_SPAWNED
            .compare_exchange(spawned, spawned + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            continue;
        }
        let helper = Arc::new(Helper {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let for_thread = Arc::clone(&helper);
        let spawn_result = std::thread::Builder::new()
            .name(format!("distscroll-par-{spawned}"))
            .spawn(move || helper_loop(for_thread));
        if spawn_result.is_err() {
            // Thread exhaustion is not fatal: hand the token back and
            // run with the helpers that exist — the submitter drains
            // every chunk inline in the worst case.
            stats::WORKERS_SPAWNED.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        lock_unpoisoned(idle_helpers()).push(helper);
    }
}

/// Takes up to `budget`-many idle helpers for a job with `chunks`
/// tasks, where the budget counts tokens already burning (the global
/// live count, plus the one a top-level caller is about to light for
/// itself).
fn grab_helpers(tokens: usize, chunks: usize) -> Vec<Arc<Helper>> {
    let nested = EXEC_DEPTH.with(Cell::get) > 0;
    if !nested {
        ensure_helpers(tokens.saturating_sub(1));
    }
    let occupied = stats::live() + usize::from(!nested);
    let want = tokens
        .saturating_sub(occupied)
        .min(chunks.saturating_sub(1));
    if want == 0 {
        return Vec::new();
    }
    let mut idle = lock_unpoisoned(idle_helpers());
    let take = want.min(idle.len());
    let keep = idle.len() - take;
    idle.split_off(keep)
}

fn assign(helper: &Helper, assignment: Assignment) {
    *lock_unpoisoned(&helper.slot) = Some(assignment);
    helper.cv.notify_one();
}

fn enter_task() {
    EXEC_DEPTH.with(|d| {
        if d.get() == 0 {
            stats::live_up();
        }
        d.set(d.get() + 1);
    });
}

fn exit_task() {
    EXEC_DEPTH.with(|d| {
        d.set(d.get() - 1);
        if d.get() == 0 {
            stats::live_down();
        }
    });
}

struct JobOut<U> {
    chunks: Vec<Option<Vec<U>>>,
    panic: Option<Box<dyn Any + Send>>,
}

struct ChunkJob<'a, T, U, G, F> {
    items: &'a [T],
    bounds: Vec<(usize, usize)>,
    cursor: AtomicUsize,
    mk_ctx: &'a G,
    f: &'a F,
    out: Mutex<JobOut<U>>,
    latch: Arc<Latch>,
}

impl<T, U, C, G, F> Drain for ChunkJob<'_, T, U, G, F>
where
    T: Sync,
    U: Send,
    G: Fn() -> C + Sync,
    F: Fn(&mut C, usize, &T) -> U + Sync,
{
    fn drain(&self, by_helper: bool) {
        loop {
            let c = self.cursor.fetch_add(1, Ordering::Relaxed);
            if c >= self.bounds.len() {
                break;
            }
            let (start, end) = self.bounds[c];
            enter_task();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = (self.mk_ctx)();
                let mut out = Vec::with_capacity(end - start);
                for i in start..end {
                    out.push((self.f)(&mut ctx, i, &self.items[i]));
                }
                out
            }));
            exit_task();
            stats::task_executed(by_helper);
            {
                let mut out = lock_unpoisoned(&self.out);
                match result {
                    Ok(values) => out.chunks[c] = Some(values),
                    Err(payload) => {
                        out.panic.get_or_insert(payload);
                    }
                }
            }
            self.latch.chunk_done();
        }
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

/// The executor entry point: maps `f` (with a per-chunk context from
/// `mk_ctx`) over `items` under a `jobs`-token budget, returning
/// outputs in input order. `chunks_per_token` tunes task granularity:
/// higher values re-balance better across uneven items, lower values
/// amortize `mk_ctx` over more items.
pub(crate) fn run_chunked<T, U, C, G, F>(
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
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let tokens = granted_tokens(jobs);
    let n_chunks = if tokens <= 1 {
        1
    } else {
        n.min(tokens * chunks_per_token.max(1))
    };
    let job = ChunkJob {
        items,
        bounds: chunk_bounds(n, n_chunks),
        cursor: AtomicUsize::new(0),
        mk_ctx: &mk_ctx,
        f: &f,
        out: Mutex::new(JobOut {
            chunks: (0..n_chunks).map(|_| None).collect(),
            panic: None,
        }),
        latch: Latch::new(),
    };
    stats::job_submitted();

    let helpers = if n_chunks > 1 {
        grab_helpers(tokens, n_chunks)
    } else {
        Vec::new()
    };
    if !helpers.is_empty() {
        lock_unpoisoned(&job.latch.state).helpers_out = helpers.len();
        for helper in &helpers {
            assign(
                helper,
                Assignment {
                    job: erase(&job),
                    latch: Arc::clone(&job.latch),
                },
            );
        }
    }

    // The submitter claims chunks alongside its helpers — it holds a
    // token too — then blocks until every chunk is done *and* every
    // helper has let go of the job. A nested submitter hands its token
    // back while it waits so a sibling fan-out can use it.
    job.drain(false);
    let waiting_inside_task = EXEC_DEPTH.with(Cell::get) > 0;
    if waiting_inside_task {
        stats::live_down();
    }
    job.latch.wait(n_chunks);
    if waiting_inside_task {
        stats::live_up();
    }

    let ChunkJob { out, .. } = job;
    let out = out.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(payload) = out.panic {
        resume_unwind(payload);
    }
    let mut result = Vec::with_capacity(n);
    for chunk in out.chunks {
        #[expect(
            clippy::expect_used,
            reason = "latch.wait returned, so the cursor protocol filled every slot"
        )]
        result.extend(chunk.expect("every chunk claimed exactly once"));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn granted_tokens_never_zero_and_core_capped() {
        assert_eq!(granted_tokens(0), 1);
        assert_eq!(granted_tokens(1), 1);
        if std::env::var_os("DISTSCROLL_PAR_OVERSUBSCRIBE").is_none() {
            assert!(granted_tokens(4096) <= crate::max_jobs());
        }
    }
}

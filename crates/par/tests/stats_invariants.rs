//! Executor-stats invariants: the counters `pool_stats` reports must
//! actually mean what they claim.
//!
//! One test function (phases run sequentially) because the counters are
//! process-wide — a concurrent sibling test would fold its own jobs
//! into the deltas asserted here. `DISTSCROLL_PAR_OVERSUBSCRIBE=1`
//! lifts the core-count clamp so the token budget is honored literally
//! even on single-core CI machines.

use distscroll_par::{granted_tokens, par_map, pool_stats, reset_pool_stats};

#[test]
fn executor_stats_invariants_hold_and_reset_between_jobs() {
    std::env::set_var("DISTSCROLL_PAR_OVERSUBSCRIBE", "1");
    const BUDGET: usize = 4;
    let items: Vec<u64> = (0..64).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();

    // Phase 1: one fan-out under a BUDGET-token budget.
    reset_pool_stats();
    let out = par_map(BUDGET, &items, |_, &x| {
        // Enough work that helpers genuinely overlap with the caller.
        std::thread::sleep(std::time::Duration::from_micros(200));
        x * 2
    });
    assert_eq!(
        out, expected,
        "stats instrumentation must not perturb results"
    );
    let s1 = pool_stats();
    assert_eq!(s1.jobs_submitted, 1, "exactly one fan-out was submitted");
    assert!(s1.tasks_executed >= 1, "the job must decompose into tasks");
    assert_eq!(
        s1.tasks_executed,
        s1.inline_claims + s1.helper_steals,
        "every task is either claimed inline by the submitter or stolen by a helper"
    );
    assert!(
        s1.peak_live <= granted_tokens(BUDGET),
        "peak live workers ({}) exceeded the granted token budget ({})",
        s1.peak_live,
        granted_tokens(BUDGET)
    );
    assert!(s1.peak_live >= 1, "the submitter itself holds a token");
    assert_eq!(s1.live, 0, "no worker is live once the join returns");

    // Phase 2: reset rewinds the monotonic counters and restarts the
    // peak watermark from the (idle) live count; spawned helper threads
    // stay alive and are deliberately not forgotten.
    reset_pool_stats();
    let s2 = pool_stats();
    assert_eq!(s2.jobs_submitted, 0);
    assert_eq!(s2.tasks_executed, 0);
    assert_eq!(s2.inline_claims, 0);
    assert_eq!(s2.helper_steals, 0);
    assert_eq!(s2.live, 0);
    assert_eq!(s2.peak_live, 0, "peak restarts from the current live count");
    assert_eq!(
        s2.workers_spawned, s1.workers_spawned,
        "reset must not forget living helper threads"
    );

    // Phase 3: the next job is attributed to a clean slate, so stage
    // deltas never bleed into each other.
    let smaller_budget = 2;
    let _ = par_map(smaller_budget, &items, |_, &x| x + 1);
    let s3 = pool_stats();
    assert_eq!(s3.jobs_submitted, 1);
    assert_eq!(s3.tasks_executed, s3.inline_claims + s3.helper_steals);
    assert!(
        s3.peak_live <= granted_tokens(smaller_budget),
        "a smaller budget must also cap the post-reset watermark ({} > {})",
        s3.peak_live,
        granted_tokens(smaller_budget)
    );
}

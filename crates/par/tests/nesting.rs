//! The nesting guard: a fan-out inside a fan-out borrows tokens from
//! the same `--jobs` budget and never multiplies threads.
//!
//! Concurrency is measured from inside the closures: a thread counts as
//! live from the moment it enters any closure until it leaves the
//! outermost one, whether it is working or waiting on a nested join.
//! This file holds a single test so no sibling test holds tokens while
//! it runs.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use distscroll_par::{par_map, par_map_ctx};

/// A high-water mark of threads inside a closure.
#[derive(Default)]
struct Gauge {
    live: AtomicUsize,
    peak: AtomicUsize,
}

thread_local! {
    /// Closures this thread is inside of: only the 0↔1 steps move the gauge.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

impl Gauge {
    fn inside<R>(&self, body: impl FnOnce() -> R) -> R {
        if DEPTH.with(|d| d.replace(d.get() + 1)) == 0 {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
        }
        let out = body();
        if DEPTH.with(|d| d.replace(d.get() - 1)) == 1 {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
        out
    }
}

#[test]
fn nested_fan_outs_never_exceed_the_token_budget() {
    const BUDGET: usize = 4;
    let gauge = Gauge::default();
    let outer: Vec<u64> = (0..2 * BUDGET as u64).collect();
    let inner: Vec<u64> = (0..6).collect();
    let expected: Vec<Vec<u64>> = outer
        .iter()
        .map(|&o| inner.iter().map(|&i| o * 100 + i * i).collect())
        .collect();

    let nested: Vec<Vec<u64>> = par_map(BUDGET, &outer, |_, &o| {
        gauge.inside(|| {
            par_map_ctx(
                BUDGET,
                &inner,
                || (),
                |(), _, &i| {
                    gauge.inside(|| {
                        // Enough work that outer items genuinely overlap.
                        std::thread::sleep(Duration::from_millis(2));
                        o * 100 + i * i
                    })
                },
            )
        })
    });

    assert_eq!(nested, expected, "nesting must not perturb results");
    let peak = gauge.peak.load(Ordering::SeqCst);
    assert!(
        peak <= BUDGET,
        "{peak} threads were live at once under a --jobs budget of {BUDGET}; \
         the inner fan-out must borrow tokens, not add threads"
    );
    assert!(
        peak >= 2,
        "the outer fan-out must actually go parallel (peak {peak})"
    );
}

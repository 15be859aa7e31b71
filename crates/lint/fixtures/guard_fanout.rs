//@ path: crates/ingest/src/batcher.rs
//@ expect: guard-across-fanout@7
//@ expect: guard-across-fanout@13

fn flush(stats: &Mutex<u64>, jobs: &[u32]) {
    let guard = stats.lock();
    let totals = distscroll_par::par_map(jobs, &(), |_, j| u64::from(*j));
    drop(guard);
}

fn flush_unpoisoned(stats: &Mutex<u64>, jobs: &[u32]) {
    let guard = lock_unpoisoned(stats);
    let totals = distscroll_par::par_map_ctx(jobs, &(), |_, _, j| u64::from(*j));
    drop(guard);
}

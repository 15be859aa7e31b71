//@ path: crates/ingest/src/batcher.rs

// Drop the guard before fanning out, or lock inside the worker.
fn flush(stats: &Mutex<u64>, shards: &[Mutex<u64>], jobs: &[u32]) {
    let guard = stats.lock();
    let base = *guard;
    drop(guard);
    distscroll_par::par_map(jobs, shards, |shards, j| {
        *lock_unpoisoned(&shards[*j as usize]) += base;
    });
}

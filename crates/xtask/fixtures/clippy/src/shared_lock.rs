//@ expect: clippy::disallowed_types@6
//@ expect: clippy::disallowed_types@7

// No lock outside distscroll-par, so no guard can be live across a
// fan-out: workers get `&mut` items from par_for_each_mut instead.
pub fn tally(counts: &std::sync::Mutex<u64>) -> u64 {
    let table = std::sync::RwLock::new(1u64);
    let seen = *table.read().unwrap_or_else(std::sync::PoisonError::into_inner);
    *counts.lock().unwrap_or_else(std::sync::PoisonError::into_inner) + seen
}

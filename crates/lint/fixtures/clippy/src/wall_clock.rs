//@ expect: clippy::disallowed_methods@5
//@ expect: clippy::disallowed_methods@6

pub fn stamp() -> u64 {
    let _t0 = std::time::Instant::now();
    let _wall = std::time::SystemTime::now();
    0
}

//@ expect: clippy::disallowed_methods@6
//@ expect: clippy::disallowed_methods@8
//@ expect: clippy::disallowed_types@9

pub fn fan_out() {
    let h = std::thread::spawn(|| 1 + 1);
    let _ = h.join();
    std::thread::scope(|_| {});
    let _ = std::thread::Builder::new();
}

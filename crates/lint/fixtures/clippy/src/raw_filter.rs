//@ expect: clippy::disallowed_methods@9
//@ expect: clippy::disallowed_methods@10
//@ expect: clippy::disallowed_methods@11

use distscroll_sensors::filter::{Ema, MedianFilter, SlewGate};

// Wiring the distance stages by hand escapes the recognizer's budgets.
pub fn hand_wired_chain() -> (MedianFilter, Ema, SlewGate) {
    let median = MedianFilter::new(9);
    let ema = Ema::new(0.45);
    (median, ema, SlewGate::new(120.0, 4))
}

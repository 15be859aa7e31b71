// Known-clean: named types, justified expectations and test code.

use distscroll_host::telemetry::Stamp16;
use distscroll_hw::arq::Seq16;
use distscroll_hw::board::Board;
use distscroll_hw::clock::SimDuration;
use distscroll_sensors::filter::{Ema, MedianFilter};

pub fn smooth(median: &mut MedianFilter, ema: &mut Ema, x: f64) -> f64 {
    ema.push(median.push(x))
}

#[expect(
    clippy::disallowed_methods,
    reason = "this fixture board is its own dispatch site"
)]
pub fn sanctioned(board: &mut Board) -> Ema {
    board.step(SimDuration::from_millis(10));
    Ema::new(0.2)
}

#[expect(clippy::unwrap_used, reason = "callers pass Some by contract")]
pub fn timed(x: Option<u32>) -> f64 {
    #[expect(clippy::disallowed_methods, reason = "timing is the measured quantity")]
    let t0 = std::time::Instant::now();
    f64::from(x.unwrap()) + t0.elapsed().as_secs_f64()
}

// Wrapping serial numbers compare through their RFC 1982 helpers.
pub fn in_order(seq: Seq16, front: Seq16, stamp: Stamp16, last: Stamp16) -> Option<u16> {
    (seq.newer_or_equal(front) && stamp.newer_or_equal(last)).then(|| stamp.distance_from(last))
}

// A hash map that is looked up and never iterated has no order to leak.
#[expect(
    clippy::disallowed_types,
    reason = "lookup, insert and remove only: never iterated"
)]
pub type SlotIndex = std::collections::HashMap<u64, usize>;

pub fn slot_of(index: &SlotIndex, device: u64) -> Option<usize> {
    index.get(&device).copied()
}

// Tests may unwrap, expect and panic: a failing test is a panic.
#[cfg(test)]
mod tests {
    #[test]
    fn doubles() {
        assert_eq!(2u32.checked_mul(2).unwrap(), 4);
        assert_eq!(3u32.checked_mul(2).expect("small"), 6);
        if u32::MAX.checked_mul(2).is_some() {
            panic!("overflow must be caught");
        }
    }
}

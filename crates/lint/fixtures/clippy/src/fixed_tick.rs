//@ expect: clippy::disallowed_methods@11
//@ expect: clippy::disallowed_methods@12
//@ expect: clippy::disallowed_methods@13
//@ expect: clippy::disallowed_methods@14

use distscroll_hw::board::Board;
use distscroll_hw::clock::{SimClock, SimDuration, SimInstant};

// A harness grinding the simulation forward instead of registering deadlines.
pub fn drive(board: &mut Board, clock: &mut SimClock) {
    board.step(SimDuration::from_millis(10));
    board.step_recount(SimDuration::from_millis(10));
    clock.advance(SimDuration::from_millis(10));
    clock.advance_to(SimInstant::from_micros(20_000));
}

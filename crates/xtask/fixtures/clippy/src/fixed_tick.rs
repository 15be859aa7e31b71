//@ expect: clippy::disallowed_methods@9
//@ expect: clippy::disallowed_methods@10

use distscroll_hw::board::Board;
use distscroll_hw::clock::{SimClock, SimDuration};

// A harness grinding the simulation forward instead of ticking the device.
pub fn drive(board: &mut Board, clock: &mut SimClock) {
    board.step(SimDuration::from_millis(10));
    clock.advance(SimDuration::from_millis(10));
}

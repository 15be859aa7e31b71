//@ expect: clippy::disallowed_methods@8

use distscroll_user::strategy::PositionAim;
use rand::rngs::StdRng;

// A trial loop stepping the user by hand instead of through select_loop.
pub fn step_once(aim: &mut PositionAim, rng: &mut StdRng) -> f64 {
    aim.step(0.0, 0, rng).0
}

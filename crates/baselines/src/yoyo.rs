//! Rantanen et al.'s YoYo interface: a garment-mounted pull-string wheel.
//!
//! "They suggested a YoYo-like device attached to the garment. It can be
//! pulled with one hand and retracts automatically using a spring. By
//! pulling, a wheel is turned and this is translated as an input
//! parameter" (paper, Section 2). The YoYo is DistScroll's closest
//! relative: positional control over an arm-length range — but measured
//! *mechanically*. That buys it a noise-free encoder (detents, no IR
//! noise), and costs it the mechanics the DistScroll authors argue
//! against: the spring load on the arm, cable backlash, and attachment
//! to the clothing.
//!
//! The model reuses the positional-aim user controller against a
//! mechanical transfer: linear pull-length → detent quantization with a
//! little backlash, plus a spring-tension slowdown factor on reaches.

use distscroll_user::population::UserParams;
use distscroll_user::strategy::{DeviceGeometry, PositionAim, UserCommand};
use rand::rngs::StdRng;

use crate::technique::{gaussian, ScrollTechnique, TrialResult, TrialSetup, TRIAL_TIMEOUT_S};

/// Pull range of the string, cm (about the same reach envelope as
/// DistScroll's 4–30 cm).
const PULL_MIN_CM: f64 = 2.0;
/// Maximum comfortable pull, cm.
const PULL_MAX_CM: f64 = 28.0;
/// Cable backlash: the wheel ignores direction reversals smaller than
/// this, cm.
const BACKLASH_CM: f64 = 0.25;
/// Working against the retraction spring slows reaches by this factor.
const SPRING_SLOWDOWN: f64 = 1.12;

/// The YoYo pull-string technique.
#[derive(Debug, Clone, Default)]
pub struct YoyoTechnique {
    _priv: (),
}

impl YoyoTechnique {
    /// A YoYo with an arm-length pull range.
    pub fn new() -> Self {
        YoyoTechnique::default()
    }

    /// The mechanical transfer: pull length → displayed entry. Detents
    /// are equally spaced along the pull; backlash adds a direction-
    /// dependent offset.
    fn display(pull_cm: f64, backlash_offset: f64, n: usize) -> usize {
        let span = PULL_MAX_CM - PULL_MIN_CM;
        let u = ((pull_cm + backlash_offset - PULL_MIN_CM) / span).clamp(0.0, 0.999_999);
        (u * n as f64) as usize
    }
}

impl ScrollTechnique for YoyoTechnique {
    fn name(&self) -> &'static str {
        "yoyo"
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the yo-yo's cable model has no DistScroll device to run select_loop on"
    )]
    fn run_trial(
        &mut self,
        user: &UserParams,
        setup: &TrialSetup,
        rng: &mut StdRng,
    ) -> TrialResult {
        // The spring load scales the user's movement times slightly.
        let mut slowed = *user;
        slowed.fitts.a_s *= SPRING_SLOWDOWN;
        slowed.fitts.b_s_per_bit *= SPRING_SLOWDOWN;

        let geometry = DeviceGeometry {
            near_cm: PULL_MIN_CM,
            far_cm: PULL_MAX_CM,
            n_entries: setup.n_entries,
            toward_is_down: false, // pulling out = down the list
        };
        let start_cm = geometry.entry_position_cm(setup.start_idx);
        let mut aim = PositionAim::new(
            slowed,
            geometry,
            setup.target_idx,
            start_cm,
            setup.trial_number,
            rng,
        );

        let dt = 0.01;
        let mut t = 0.0;
        let mut pull = start_cm;
        let mut last_pull = start_cm;
        let mut backlash_offset = 0.0;
        let mut displayed = YoyoTechnique::display(pull, 0.0, setup.n_entries);
        let mut selected: Option<usize> = None;
        let mut pressed_at: Option<f64> = None;

        while t < TRIAL_TIMEOUT_S {
            let (pos, cmd) = aim.step(t, displayed, rng);
            // Backlash: the wheel lags reversals by up to BACKLASH_CM.
            let delta = pos - last_pull;
            if delta.abs() > 1e-9 {
                backlash_offset =
                    (backlash_offset - delta).clamp(-BACKLASH_CM / 2.0, BACKLASH_CM / 2.0);
            }
            last_pull = pull;
            pull = pos.clamp(PULL_MIN_CM - 1.0, PULL_MAX_CM + 1.0);
            // Detent jitter: ±0.05 cm of cable stretch noise.
            let jitter = gaussian(rng) * 0.05;
            displayed = YoyoTechnique::display(pull + jitter, backlash_offset, setup.n_entries);
            match cmd {
                UserCommand::PressSelect => pressed_at = Some(t),
                UserCommand::ReleaseSelect => {
                    if pressed_at.is_some() {
                        selected = Some(displayed);
                    }
                }
                UserCommand::None => {}
            }
            if selected.is_some() && aim.is_done() {
                break;
            }
            t += dt;
        }

        match selected {
            Some(idx) => TrialResult {
                time_s: t,
                selected_idx: Some(idx),
                correct: idx == setup.target_idx,
                corrections: aim.corrections(),
            },
            None => TrialResult::timeout(t, aim.corrections()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(setup: TrialSetup, seed: u64) -> TrialResult {
        let mut tech = YoyoTechnique::new();
        let mut rng = StdRng::seed_from_u64(seed);
        tech.run_trial(&UserParams::expert(), &setup, &mut rng)
    }

    #[test]
    fn display_maps_the_pull_range_evenly() {
        assert_eq!(YoyoTechnique::display(PULL_MIN_CM, 0.0, 10), 0);
        assert_eq!(YoyoTechnique::display(PULL_MAX_CM, 0.0, 10), 9);
        assert_eq!(
            YoyoTechnique::display((PULL_MIN_CM + PULL_MAX_CM) / 2.0, 0.0, 10),
            5
        );
    }

    #[test]
    fn trials_mostly_succeed() {
        let correct = (0..30)
            .filter(|&s| run(TrialSetup::new(12, 1, 9, 50), s).correct)
            .count();
        assert!(correct >= 24, "yoyo positional control works: {correct}/30");
    }

    #[test]
    fn times_scale_with_distance() {
        let avg = |target: usize| {
            (0..12)
                .map(|s| run(TrialSetup::new(16, 0, target, 50), s).time_s)
                .sum::<f64>()
                / 12.0
        };
        assert!(avg(14) > avg(2), "fitts holds for the yoyo too");
    }
}

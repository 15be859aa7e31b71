//! Up/down buttons with typematic repeat — the mainstream baseline.
//!
//! The paper positions DistScroll against "inputting … via a keypad"
//! (Section 1), the way every phone of the era scrolled its menus: an
//! up/down rocker, one entry per press, auto-repeat when held. The model
//! runs the standard closed loop: after a reaction delay the user either
//! taps (short distances) or holds for auto-repeat (long distances),
//! releases when their discretely-sampled view of the cursor says they
//! are close, and finishes with single corrective taps before pressing
//! select. Overshoot comes from exactly where it does in reality: the
//! repeat keeps firing during the user's release latency.

use distscroll_user::perception::VisualSampler;
use distscroll_user::population::UserParams;
use rand::rngs::StdRng;
use rand::Rng;

use crate::technique::{ScrollTechnique, TrialResult, TrialSetup, TRIAL_TIMEOUT_S};

/// Typematic initial delay, seconds (standard keyboard default).
const REPEAT_DELAY_S: f64 = 0.50;
/// Typematic repeat rate, presses per second.
const REPEAT_RATE_HZ: f64 = 10.0;
/// Distance at or above which users hold instead of tapping.
const HOLD_THRESHOLD: usize = 5;

/// The up/down-buttons technique.
#[derive(Debug, Clone, Default)]
pub struct ButtonsTechnique {
    _priv: (),
}

impl ButtonsTechnique {
    /// A standard rocker with typematic repeat.
    pub fn new() -> Self {
        ButtonsTechnique::default()
    }
}

impl ScrollTechnique for ButtonsTechnique {
    fn name(&self) -> &'static str {
        "buttons"
    }

    fn run_trial(
        &mut self,
        user: &UserParams,
        setup: &TrialSetup,
        rng: &mut StdRng,
    ) -> TrialResult {
        let practice = user.practice_factor(setup.trial_number);
        let dt = 0.01;
        let mut t = 0.0;
        let mut cursor = setup.start_idx as i64;
        let target = setup.target_idx as i64;
        let n = setup.n_entries as i64;
        let mut sampler = VisualSampler::new(user.perception.visual_sampling_s);
        let mut corrections = 0u32;

        #[derive(PartialEq)]
        enum Phase {
            React,
            Holding {
                since: f64,
                pressed: u32,
                release_at: Option<f64>,
            },
            Tapping {
                next_press: f64,
            },
            Verify {
                since: Option<f64>,
            },
            Done {
                at: f64,
            },
        }

        let mut phase = Phase::React;
        let react_until = user.perception.reaction_time_s(rng) * practice;
        let keystroke = user.keystroke_s * practice;
        let mut direction_changes = 0;
        let mut last_dir = 0i64;

        while t < TRIAL_TIMEOUT_S {
            let seen = sampler
                .observe(t, cursor.max(0) as usize)
                .unwrap_or(setup.start_idx) as i64;
            match phase {
                Phase::React => {
                    if t >= react_until {
                        let dist = (target - cursor).unsigned_abs() as usize;
                        phase = if dist >= HOLD_THRESHOLD {
                            Phase::Holding {
                                since: t,
                                pressed: 0,
                                release_at: None,
                            }
                        } else {
                            Phase::Tapping { next_press: t }
                        };
                    }
                }
                Phase::Holding {
                    since,
                    ref mut pressed,
                    ref mut release_at,
                } => {
                    let dir = (target - cursor).signum();
                    if dir != 0 && dir != last_dir && last_dir != 0 {
                        direction_changes += 1;
                    }
                    if dir != 0 {
                        last_dir = dir;
                    }
                    // Typematic engine: first repeat after the delay, then
                    // at the repeat rate.
                    let held = t - since;
                    let due = if held < REPEAT_DELAY_S {
                        if *pressed == 0 {
                            Some(0)
                        } else {
                            None
                        }
                    } else {
                        let n_due = 1 + ((held - REPEAT_DELAY_S) * REPEAT_RATE_HZ) as u32;
                        (n_due > *pressed).then_some(n_due)
                    };
                    if let Some(n_due) = due {
                        let dir = if *pressed == 0 {
                            (target - cursor).signum()
                        } else {
                            last_dir
                        };
                        cursor = (cursor + dir * i64::from(n_due - *pressed)).clamp(0, n - 1);
                        *pressed = n_due;
                    }
                    // Decide to release when the *seen* cursor is close;
                    // the release lands a release-latency later.
                    match release_at {
                        None => {
                            if (target - seen).unsigned_abs() <= 2 {
                                *release_at = Some(t + user.perception.reaction_time_s(rng) * 0.6);
                            }
                        }
                        Some(at) => {
                            if t >= *at {
                                phase = Phase::Tapping {
                                    next_press: t + keystroke,
                                };
                            }
                        }
                    }
                }
                Phase::Tapping { ref mut next_press } => {
                    if cursor == target && seen == target {
                        phase = Phase::Verify { since: None };
                    } else if t >= *next_press {
                        let dir = (target - seen).signum();
                        if dir != 0 {
                            if dir != last_dir && last_dir != 0 {
                                direction_changes += 1;
                            }
                            last_dir = dir;
                            // Occasional double-press slip.
                            let step = if rng.gen_bool(0.02) { 2 } else { 1 };
                            cursor = (cursor + dir * step).clamp(0, n - 1);
                            if step == 2 {
                                corrections += 1;
                            }
                        }
                        *next_press = t + keystroke;
                    }
                }
                Phase::Verify { ref mut since } => {
                    if seen == target {
                        let started = *since.get_or_insert(t);
                        let dwell = user.dwell_s * practice.sqrt();
                        let impulsive = rng.gen_bool((user.impulsivity * practice * dt).min(1.0));
                        if t - started >= dwell || impulsive {
                            phase = Phase::Done { at: t + keystroke };
                        }
                    } else {
                        *since = None;
                        phase = Phase::Tapping { next_press: t };
                        corrections += 1;
                    }
                }
                Phase::Done { at } => {
                    if t >= at {
                        // The select press lands on the *true* cursor; a
                        // stale verification can make this wrong.
                        let selected = cursor.max(0) as usize;
                        return TrialResult {
                            time_s: t,
                            selected_idx: Some(selected),
                            correct: selected == setup.target_idx,
                            corrections: corrections + direction_changes,
                        };
                    }
                }
            }
            t += dt;
        }
        TrialResult::timeout(t, corrections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(setup: TrialSetup, seed: u64) -> TrialResult {
        let mut tech = ButtonsTechnique::new();
        let mut rng = StdRng::seed_from_u64(seed);
        tech.run_trial(&UserParams::expert(), &setup, &mut rng)
    }

    #[test]
    fn short_hops_are_quick_and_correct() {
        for seed in 0..20 {
            let r = run(TrialSetup::new(16, 4, 6, 50), seed);
            assert!(r.correct, "seed {seed}: {r:?}");
            assert!(r.time_s < 3.0, "two taps should be fast: {}", r.time_s);
        }
    }

    #[test]
    fn long_distances_engage_auto_repeat() {
        // 30 entries at ~4.5 presses/s of tapping would cost ≥ 6 s; with
        // auto-repeat it must land well under that.
        let r = run(TrialSetup::new(64, 0, 40, 50), 1);
        assert!(r.correct);
        assert!(r.time_s < 8.5, "auto-repeat must engage: {}", r.time_s);
        assert!(r.time_s > 2.0, "but repeat is not free: {}", r.time_s);
    }

    #[test]
    fn scroll_time_grows_with_distance() {
        let avg = |target: usize| {
            (0..10)
                .map(|s| run(TrialSetup::new(64, 0, target, 50), s).time_s)
                .sum::<f64>()
                / 10.0
        };
        assert!(avg(40) > avg(3));
    }

    #[test]
    fn nearly_all_trials_end_correct() {
        let correct = (0..40)
            .filter(|&s| run(TrialSetup::new(32, 2, 20, 50), s).correct)
            .count();
        assert!(
            correct >= 35,
            "buttons are a precise technique: {correct}/40"
        );
    }

    #[test]
    fn zero_distance_needs_only_confirmation() {
        let r = run(TrialSetup::new(8, 3, 3, 50), 0);
        assert!(r.correct);
        assert!(r.time_s < 1.5);
    }
}

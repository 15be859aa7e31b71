//! The plan: a closed-loop aim–verify–correct–confirm controller for
//! positional input devices.
//!
//! DistScroll is a *position-control* device: hand distance maps
//! directly to a menu entry, and the paper's island design makes entries
//! feel "equally spaced on the complete scrollable distance"
//! (Section 4.2). A user exploits exactly that: they form an internal
//! model "entry k sits at about near + (k+½)·slot", reach for it
//! ballistically, glance at the display, and issue small corrective
//! reaches until the right entry is highlighted, then press select.
//! This is the classic iterative-corrections account of aimed movement,
//! and it is what produces Fitts'-law selection times end to end.
//!
//! [`PositionAim`] implements that controller. It is device-agnostic:
//! each step consumes the currently-displayed highlight and produces a
//! hand position plus (possibly) a button command; the evaluation runner
//! wires it to the real simulated device — or to a baseline technique
//! with positional control (the YoYo).

use rand::Rng;

use crate::motor::{Hand, Tremor};
use crate::perception::VisualSampler;
use crate::population::UserParams;

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Geometry of the positional device as the user understands it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceGeometry {
    /// Near edge of the control range (cm).
    pub near_cm: f64,
    /// Far edge of the control range (cm).
    pub far_cm: f64,
    /// Number of entries at the current level.
    pub n_entries: usize,
    /// `true` when pulling towards the body moves down the list (menu
    /// index 0 sits at the far edge).
    pub toward_is_down: bool,
}

impl DeviceGeometry {
    /// Where the user believes entry `idx` sits, in cm.
    pub fn entry_position_cm(&self, idx: usize) -> f64 {
        let slot = (self.far_cm - self.near_cm) / self.n_entries as f64;
        let island_idx = if self.toward_is_down {
            self.n_entries - 1 - idx
        } else {
            idx
        };
        self.near_cm + (island_idx as f64 + 0.5) * slot
    }

    /// Width of one entry's distance slot, cm.
    pub fn slot_cm(&self) -> f64 {
        (self.far_cm - self.near_cm) / self.n_entries as f64
    }
}

/// A command the user issues this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserCommand {
    /// Keep holding.
    None,
    /// Press the select button.
    PressSelect,
    /// Release the select button.
    ReleaseSelect,
}

/// The controller's current phase (visible for experiment tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AimPhase {
    /// Waiting out the initial reaction time, planning the reach.
    React,
    /// Ballistic (or corrective) reach in flight.
    Move,
    /// Glancing at the display, dwelling on the (believed) target.
    Verify,
    /// Pressing the select button.
    Confirm,
    /// Button released; the trial is over from the user's side.
    Done,
}

/// Closed-loop positional aiming at one menu entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionAim {
    params: UserParams,
    geometry: DeviceGeometry,
    target_idx: usize,
    practice_factor: f64,
    hand: Hand,
    sampler: VisualSampler,
    phase: AimPhase,
    phase_until_s: f64,
    verified_since_s: Option<f64>,
    corrections: u32,
    press_started_s: f64,
    pressed: bool,
    skip_verification: bool,
    /// Learned sign flip on corrections: if corrective reaches make the
    /// error *worse*, the user realizes their direction model is wrong
    /// and inverts it (how people recover from a mismatched stereotype).
    corr_sign: f64,
    last_err_entries: Option<f64>,
}

/// Hard cap on corrective submovements before the user gives up honing
/// and confirms whatever is highlighted (counts as an error if wrong).
const MAX_CORRECTIONS: u32 = 12;
/// Duration of a button press, seconds.
const PRESS_S: f64 = 0.10;

impl PositionAim {
    /// Starts a trial: the hand is at `start_cm`, the goal is to select
    /// `target_idx`. `trial` (1-based) applies the practice curve.
    pub fn new<R: Rng + ?Sized>(
        params: UserParams,
        geometry: DeviceGeometry,
        target_idx: usize,
        start_cm: f64,
        trial: u32,
        rng: &mut R,
    ) -> Self {
        assert!(target_idx < geometry.n_entries, "target outside the menu");
        let practice_factor = params.practice_factor(trial);
        let tremor = Tremor::new(params.tremor_amp_cm, params.tremor_hz);
        let hand = Hand::new(start_cm, tremor, params.endpoint_noise_frac);
        let reaction = params.perception.reaction_time_s(rng) * practice_factor;
        let skip_verification = rng.gen_bool((params.impulsivity * practice_factor).min(0.9));
        PositionAim {
            sampler: VisualSampler::new(params.perception.visual_sampling_s),
            params,
            geometry,
            target_idx,
            practice_factor,
            hand,
            phase: AimPhase::React,
            phase_until_s: reaction,
            verified_since_s: None,
            corrections: 0,
            press_started_s: 0.0,
            pressed: false,
            skip_verification,
            corr_sign: 1.0,
            last_err_entries: None,
        }
    }

    /// The current phase.
    pub fn phase(&self) -> AimPhase {
        self.phase
    }

    /// Corrective submovements issued so far.
    pub fn corrections(&self) -> u32 {
        self.corrections
    }

    /// Whether the trial is finished from the user's side.
    pub fn is_done(&self) -> bool {
        self.phase == AimPhase::Done
    }

    /// Where the user believes the target entry sits, including their
    /// (practice-scaled) internal-model error.
    fn believed_target_cm<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let ideal = self.geometry.entry_position_cm(self.target_idx);
        let sd = self.params.mapping_model_sd_frac
            * self.practice_factor
            * (self.geometry.far_cm - self.geometry.near_cm);
        (ideal + gaussian(rng) * sd).clamp(self.geometry.near_cm, self.geometry.far_cm)
    }

    fn start_reach_to<R: Rng + ?Sized>(&mut self, t: f64, to_cm: f64, rng: &mut R) {
        let d = (to_cm - self.hand.position()).abs();
        let w = (self.geometry.slot_cm() * 0.65).max(0.3);
        let mt = self.params.fitts.movement_time_s(d, w) * self.practice_factor;
        self.hand.start_reach(to_cm, t, mt.max(0.08), rng);
    }

    /// Advances the controller to time `t`.
    ///
    /// `displayed` is the highlight the device currently shows. Returns
    /// the hand position (the runner feeds it to the device) and any
    /// button command.
    pub fn step<R: Rng + ?Sized>(
        &mut self,
        t: f64,
        displayed: usize,
        rng: &mut R,
    ) -> (f64, UserCommand) {
        let mut cmd = UserCommand::None;
        match self.phase {
            AimPhase::React => {
                if t >= self.phase_until_s {
                    let aim = self.believed_target_cm(rng);
                    self.start_reach_to(t, aim, rng);
                    self.phase = AimPhase::Move;
                }
            }
            AimPhase::Move => {
                if !self.hand.is_moving(t) {
                    if self.skip_verification && self.corrections == 0 {
                        self.phase = AimPhase::Confirm;
                        self.press_started_s = t;
                    } else {
                        self.phase = AimPhase::Verify;
                        self.verified_since_s = None;
                        self.sampler.invalidate();
                    }
                }
            }
            AimPhase::Verify => {
                if let Some(seen) = self.sampler.observe(t, displayed) {
                    if seen == self.target_idx {
                        let since = *self.verified_since_s.get_or_insert(t);
                        if t - since >= self.params.dwell_s * self.practice_factor.sqrt() {
                            self.phase = AimPhase::Confirm;
                            self.press_started_s = t;
                        }
                    } else {
                        self.verified_since_s = None;
                        if self.corrections >= MAX_CORRECTIONS {
                            // Give up honing; confirm whatever is there.
                            self.phase = AimPhase::Confirm;
                            self.press_started_s = t;
                        } else {
                            // Corrective reach: move by the perceived error
                            // in entries, converted through the slot width.
                            self.corrections += 1;
                            let err_entries = seen as f64 - self.target_idx as f64;
                            // If the last correction made the error worse,
                            // the direction model was wrong: invert it.
                            if let Some(last) = self.last_err_entries {
                                if err_entries.abs() > last.abs() {
                                    self.corr_sign = -self.corr_sign;
                                }
                            }
                            self.last_err_entries = Some(err_entries);
                            let sign = if self.geometry.toward_is_down {
                                1.0
                            } else {
                                -1.0
                            };
                            let delta =
                                self.corr_sign * sign * err_entries * self.geometry.slot_cm();
                            let to = (self.hand.position() + delta)
                                .clamp(self.geometry.near_cm - 1.0, self.geometry.far_cm + 1.0);
                            self.start_reach_to(t, to, rng);
                            self.phase = AimPhase::Move;
                        }
                    }
                }
            }
            AimPhase::Confirm => {
                if !self.pressed {
                    self.pressed = true;
                    cmd = UserCommand::PressSelect;
                } else if t - self.press_started_s >= PRESS_S {
                    cmd = UserCommand::ReleaseSelect;
                    self.phase = AimPhase::Done;
                }
            }
            AimPhase::Done => {}
        }
        (self.hand.update(t, rng), cmd)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the aim model's own tests step it against an ideal display"
)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn geometry(n: usize) -> DeviceGeometry {
        DeviceGeometry {
            near_cm: 4.0,
            far_cm: 30.0,
            n_entries: n,
            toward_is_down: true,
        }
    }

    /// An idealized noiseless device: highlight = nearest slot.
    fn ideal_display(g: &DeviceGeometry, pos_cm: f64) -> usize {
        let slot = g.slot_cm();
        let island = (((pos_cm - g.near_cm) / slot).floor().max(0.0) as usize).min(g.n_entries - 1);
        if g.toward_is_down {
            g.n_entries - 1 - island
        } else {
            island
        }
    }

    /// Runs one trial against the ideal device; returns (time, final
    /// displayed entry, corrections).
    fn run_trial(params: UserParams, n: usize, target: usize, seed: u64) -> (f64, usize, u32) {
        let g = geometry(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut aim = PositionAim::new(params, g, target, 17.0, 50, &mut rng);
        let mut displayed = ideal_display(&g, 17.0);
        let dt = 0.01;
        let mut t = 0.0;
        let mut selected_at = None;
        while !aim.is_done() && t < 30.0 {
            let (pos, cmd) = aim.step(t, displayed, &mut rng);
            displayed = ideal_display(&g, pos);
            if cmd == UserCommand::PressSelect {
                selected_at = Some((t, displayed));
            }
            t += dt;
        }
        let (at, sel) = selected_at.expect("the user must eventually select");
        (at, sel, aim.corrections())
    }

    #[test]
    fn practiced_user_selects_the_right_entry() {
        let mut correct = 0;
        for seed in 0..30 {
            let (_, sel, _) = run_trial(UserParams::expert(), 8, 5, seed);
            if sel == 5 {
                correct += 1;
            }
        }
        assert!(correct >= 27, "experts are nearly errorless: {correct}/30");
    }

    #[test]
    fn trials_take_plausible_human_times() {
        for seed in 0..10 {
            let (t, _, _) = run_trial(UserParams::expert(), 8, 6, seed);
            assert!((0.3..6.0).contains(&t), "selection time {t}s");
        }
    }

    #[test]
    fn farther_targets_take_longer_on_average() {
        let avg = |target: usize| {
            (0..20)
                .map(|s| run_trial(UserParams::expert(), 16, target, s).0)
                .sum::<f64>()
                / 20.0
        };
        // Start 17 cm ≈ entry 8; entry 15 is much farther than entry 8.
        let near = avg(8);
        let far = avg(15);
        assert!(far > near, "fitts: far {far:.2}s vs near {near:.2}s");
    }

    #[test]
    fn corrections_happen_but_stay_bounded() {
        let mut total = 0;
        for seed in 0..30 {
            let (_, _, c) = run_trial(UserParams::typical(), 16, 12, seed);
            assert!(c <= MAX_CORRECTIONS);
            total += c;
        }
        assert!(total > 0, "novices need at least some corrections overall");
    }

    #[test]
    fn phases_progress_in_order() {
        let g = geometry(8);
        let mut rng = StdRng::seed_from_u64(3);
        let mut aim = PositionAim::new(UserParams::expert(), g, 4, 17.0, 1, &mut rng);
        assert_eq!(aim.phase(), AimPhase::React);
        let mut saw_move = false;
        let mut t = 0.0;
        let mut displayed = 0;
        while !aim.is_done() && t < 20.0 {
            let (pos, _) = aim.step(t, displayed, &mut rng);
            displayed = ideal_display(&g, pos);
            if aim.phase() == AimPhase::Move {
                saw_move = true;
            }
            t += 0.01;
        }
        assert!(saw_move);
        assert!(aim.is_done());
    }

    #[test]
    fn geometry_places_entries_with_direction() {
        let g = geometry(10);
        // toward_is_down: entry 0 sits at the far edge.
        assert!(g.entry_position_cm(0) > g.entry_position_cm(9));
        let up = DeviceGeometry {
            toward_is_down: false,
            ..g
        };
        assert!(up.entry_position_cm(0) < up.entry_position_cm(9));
        assert!((g.slot_cm() - 2.6).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "target outside the menu")]
    fn target_must_exist() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = PositionAim::new(UserParams::typical(), geometry(4), 4, 17.0, 1, &mut rng);
    }
}

//! DistScroll as a trial-running technique: the full simulation stack.
//!
//! This is the flagship path of the whole reproduction: the synthetic
//! user's hand moves the simulated device, the GP2D120 model measures
//! the hand, the ADC digitizes it, the firmware filters and island-maps
//! the code, the display shows the highlight, and the user's discretely-
//! sampling eye closes the loop. Nothing here is shortcut: selection
//! times and errors emerge from physics + firmware + motor control.
//!
//! [`select_loop`] is that loop, written once, for a menu of any shape:
//! every full-stack trial (this technique, the PDA add-on, the robustness
//! and long-menu experiments, the example sessions) runs through it and
//! gets back the device's last [`Selection`].

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::{Event, TimedEvent};
use distscroll_core::menu::{Menu, Selection};
use distscroll_core::profile::{DeviceProfile, DirectionMapping, RecognizerKind};
use distscroll_user::population::UserParams;
use distscroll_user::strategy::{DeviceGeometry, PositionAim, UserCommand};
use rand::rngs::StdRng;
use rand::Rng;

use crate::technique::{ScrollTechnique, TrialResult, TrialSetup, TRIAL_TIMEOUT_S};

/// DistScroll, run end to end on the simulated prototype.
#[derive(Debug, Clone)]
pub struct DistScrollTechnique {
    profile: DeviceProfile,
    user_direction_belief: Option<DirectionMapping>,
    environment: Option<(
        distscroll_sensors::environment::Surface,
        distscroll_sensors::environment::AmbientLight,
    )>,
}

impl DistScrollTechnique {
    /// The paper's device profile.
    pub fn paper() -> Self {
        DistScrollTechnique {
            profile: DeviceProfile::paper(),
            user_direction_belief: None,
            environment: None,
        }
    }

    /// DistScroll++: the paper's device with the stream-segmented
    /// recognizer (`distscroll-recognizer`) instead of the classic
    /// filter chain — same hardware, same mapping, different firmware
    /// front end. Enters the shootout as its own lineup entry.
    pub fn segmented() -> Self {
        let mut profile = DeviceProfile::paper();
        profile.recognizer = RecognizerKind::Segmented;
        DistScrollTechnique {
            profile,
            user_direction_belief: None,
            environment: None,
        }
    }

    /// A custom profile (range sweeps, direction flips, ablations).
    pub fn with_profile(profile: DeviceProfile) -> Self {
        DistScrollTechnique {
            profile,
            user_direction_belief: None,
            environment: None,
        }
    }

    /// Runs trials under specific clothing and light conditions instead
    /// of the lab defaults (robustness and filter-ablation experiments).
    pub fn with_environment(
        mut self,
        surface: distscroll_sensors::environment::Surface,
        ambient: distscroll_sensors::environment::AmbientLight,
    ) -> Self {
        self.environment = Some((surface, ambient));
        self
    }

    /// Overrides the *user's belief* about the direction mapping without
    /// changing the device (experiment E3: the cost of a mismatched
    /// direction stereotype). The user initially reaches according to
    /// `belief` and only visual feedback corrects them.
    pub fn with_user_direction_belief(mut self, belief: DirectionMapping) -> Self {
        self.user_direction_belief = Some(belief);
        self
    }

    /// The profile trials run with.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }
}

impl ScrollTechnique for DistScrollTechnique {
    fn name(&self) -> &'static str {
        match self.profile.recognizer {
            RecognizerKind::Classic => "distscroll",
            RecognizerKind::Segmented => "distscroll++",
        }
    }

    fn run_trial(
        &mut self,
        user: &UserParams,
        setup: &TrialSetup,
        rng: &mut StdRng,
    ) -> TrialResult {
        let device_seed: u64 = rng.gen();
        let mut dev = DistScrollDevice::new(
            self.profile.clone(),
            Menu::flat(setup.n_entries),
            device_seed,
        );
        if let Some((surface, ambient)) = self.environment {
            dev.set_surface(surface);
            dev.set_ambient(ambient);
        }

        let believed_direction = self.user_direction_belief.unwrap_or(self.profile.direction);
        let geometry = DeviceGeometry {
            toward_is_down: believed_direction == DirectionMapping::TowardIsDown,
            ..user_geometry(&self.profile, setup.n_entries)
        };
        // Park the hand on the start entry and let the firmware settle
        // there before the trial clock starts (as study procedures do).
        let start_cm = dev
            .island_center_cm(setup.start_idx)
            .unwrap_or_else(|| geometry.entry_position_cm(setup.start_idx));
        dev.set_distance(start_cm);
        if dev.run_for_ms(500).is_err() {
            return TrialResult::timeout(0.0, 0);
        }
        dev.poll_events(&mut |_: &TimedEvent| {}); // settle events are not the trial's

        let mut aim = PositionAim::new(
            *user,
            geometry,
            setup.target_idx,
            start_cm,
            setup.trial_number,
            rng,
        );

        let (t, selected) = select_loop(&mut dev, &mut aim, TRIAL_TIMEOUT_S, rng, |dev| {
            dev.highlighted()
        });
        match selected.as_ref().and_then(Selection::flat_index) {
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

/// How the user sees a device with `profile` showing a level of
/// `n_entries`: its range and which way "down the menu" lies.
pub fn user_geometry(profile: &DeviceProfile, n_entries: usize) -> DeviceGeometry {
    DeviceGeometry {
        near_cm: profile.near_cm,
        far_cm: profile.far_cm,
        n_entries,
        toward_is_down: profile.direction == DirectionMapping::TowardIsDown,
    }
}

/// The closed selection loop every full-stack DistScroll trial runs,
/// over a menu of any shape.
///
/// Each step the user reads the index `seen` shows them (the onboard
/// panel, or a host-rendered screen), moves the hand and presses or
/// releases select; the device then ticks. `seen` runs before every
/// step, so after every tick but the last. The loop ends once a select
/// action has landed and the user is done, on brown-out, or after
/// `timeout_s` seconds. Returns the elapsed trial time and the last
/// [`Selection`] the device reported, if any: an activated leaf or an
/// entered submenu.
#[expect(
    clippy::disallowed_methods,
    reason = "this is the one user⇄device step every full-stack trial shares"
)]
pub fn select_loop(
    dev: &mut DistScrollDevice,
    aim: &mut PositionAim,
    timeout_s: f64,
    rng: &mut StdRng,
    mut seen: impl FnMut(&mut DistScrollDevice) -> usize,
) -> (f64, Option<Selection>) {
    let t0 = dev.now();
    let mut t = 0.0;
    let mut selected = None;
    while t < timeout_s {
        let (pos, cmd) = aim.step(t, seen(dev), rng);
        dev.set_distance(pos);
        match cmd {
            UserCommand::PressSelect => dev.press_select(),
            UserCommand::ReleaseSelect => dev.release_select(),
            UserCommand::None => {}
        }
        if dev.tick().is_err() {
            break; // brown-out mid-trial
        }
        selected = poll_selection(dev).or(selected);
        if selected.is_some() && aim.is_done() {
            break;
        }
        t = (dev.now() - t0).as_secs_f64();
    }
    (t, selected)
}

/// Visits the device's pending events and returns the last select
/// action among them, if any.
pub fn poll_selection(dev: &mut DistScrollDevice) -> Option<Selection> {
    let mut selected = None;
    dev.poll_events(&mut |ev: &TimedEvent| match &ev.event {
        Event::Activated { path } => selected = Some(Selection::Activated { path: path.clone() }),
        Event::EnteredSubmenu { label } => {
            selected = Some(Selection::EnteredSubmenu {
                label: label.clone(),
            });
        }
        _ => {}
    });
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(user: UserParams, setup: TrialSetup, seed: u64) -> TrialResult {
        let mut tech = DistScrollTechnique::paper();
        let mut rng = StdRng::seed_from_u64(seed);
        tech.run_trial(&user, &setup, &mut rng)
    }

    #[test]
    fn expert_trials_mostly_succeed() {
        let mut correct = 0;
        for seed in 0..20 {
            let r = run(UserParams::expert(), TrialSetup::new(8, 1, 6, 50), seed);
            if r.correct {
                correct += 1;
            }
        }
        assert!(
            correct >= 16,
            "experts nearly errorless end to end: {correct}/20"
        );
    }

    #[test]
    fn trial_times_are_human_scale() {
        for seed in 0..5 {
            let r = run(UserParams::expert(), TrialSetup::new(8, 0, 5, 50), seed);
            assert!(
                r.time_s > 0.3,
                "faster than human possibility: {}",
                r.time_s
            );
            assert!(r.time_s < 15.0, "implausibly slow: {}", r.time_s);
        }
    }

    #[test]
    fn longer_distances_cost_more_time() {
        let avg = |target: usize| {
            (0..12)
                .map(|s| run(UserParams::expert(), TrialSetup::new(12, 0, target, 50), s).time_s)
                .sum::<f64>()
                / 12.0
        };
        let near = avg(2);
        let far = avg(11);
        assert!(
            far > near,
            "fitts through the whole stack: {near:.2}s vs {far:.2}s"
        );
    }

    /// Runs one expert selection of top-level entry `target` of `menu`.
    fn select_in(menu: Menu, target: usize, seed: u64) -> Option<Selection> {
        let profile = DeviceProfile::paper();
        let mut dev = DistScrollDevice::new(profile.clone(), menu, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let geometry = user_geometry(&profile, dev.level_len());
        let mut aim = PositionAim::new(
            UserParams::expert(),
            geometry,
            target,
            dev.distance(),
            50,
            &mut rng,
        );
        select_loop(&mut dev, &mut aim, 20.0, &mut rng, |dev| dev.highlighted()).1
    }

    #[test]
    fn selecting_a_submenu_reports_entering_it() {
        let menu = distscroll_core::phone_menu::phone_menu();
        let label = menu.root().children()[2].label().to_string();
        assert_eq!(
            select_in(menu, 2, 5),
            Some(Selection::EnteredSubmenu { label })
        );
    }

    #[test]
    fn selecting_a_named_leaf_reports_its_path() {
        use distscroll_core::menu::MenuNode;
        let labels = ["Red", "Green", "Blue", "Cyan", "Magenta"];
        let menu = Menu::new(MenuNode::submenu(
            "Colours",
            labels.iter().map(|&l| MenuNode::leaf(l)).collect(),
        ));
        let selection = select_in(menu, 3, 9);
        assert_eq!(
            selection,
            Some(Selection::Activated {
                path: vec!["Cyan".to_string()]
            })
        );
        assert_eq!(selection.and_then(|s| s.flat_index()), None);
    }

    #[test]
    fn results_are_reproducible_by_seed() {
        let a = run(UserParams::typical(), TrialSetup::new(8, 2, 6, 1), 7);
        let b = run(UserParams::typical(), TrialSetup::new(8, 2, 6, 1), 7);
        assert_eq!(a, b);
    }
}

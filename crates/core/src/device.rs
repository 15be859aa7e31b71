//! The assembled DistScroll prototype behind one handle.
//!
//! [`DistScrollDevice`] wires together the simulated board
//! (`distscroll-hw`), the GP2D120 model and scene (`distscroll-sensors`)
//! and the firmware — the whole of the paper's Figure 2 — and exposes
//! exactly the affordances a user (real or synthetic) has:
//!
//! * move the device (change the hand–body distance),
//! * press and release the buttons,
//! * read the displays.
//!
//! Everything else (filtering, mapping, menus) happens behind the sensor
//! and the buttons, as it does on the physical prototype.

use std::cell::RefCell;
use std::rc::Rc;

use distscroll_hw::board::{AdcChannel, Board, VoltageSource};
use distscroll_hw::clock::SimInstant;
use distscroll_hw::display::DisplayRole;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::events::EventSink;
use crate::firmware::Firmware;
use crate::menu::Menu;
use crate::profile::DeviceProfile;
use crate::CoreError;
use distscroll_hw::board::TelemetrySink;
use distscroll_sensors::adxl311::{Adxl311, Orientation};
use distscroll_sensors::environment::{AmbientLight, Scene, Surface};
use distscroll_sensors::gp2d120::Gp2d120;

/// The GP2D120 looking at a shared scene, as a board voltage source.
struct SensorChannel {
    sensor: Gp2d120,
    scene: Rc<RefCell<Scene>>,
}

impl VoltageSource for SensorChannel {
    fn voltage(&mut self, now: SimInstant, rng: &mut dyn rand::RngCore) -> f64 {
        let scene = *self.scene.borrow();
        self.sensor.output(now.as_secs_f64(), &scene, rng)
    }
}

/// Physical pose of the device: held in a hand (with the sway a held
/// object always has) or resting on a surface.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pose {
    held: bool,
    base: Orientation,
}

/// One ADXL311 axis looking at the shared pose, as a board voltage
/// source. A held device sways a few degrees at about walking-arm
/// frequencies; a resting device is still — that *is* the context
/// signal §4.3 anticipates exploiting.
struct AccelChannel {
    accel: Adxl311,
    pose: Rc<RefCell<Pose>>,
    axis_is_pitch: bool,
}

impl VoltageSource for AccelChannel {
    fn voltage(&mut self, now: SimInstant, rng: &mut dyn rand::RngCore) -> f64 {
        let pose = *self.pose.borrow();
        let t = now.as_secs_f64();
        let sway_deg = if pose.held {
            5.0 * (2.0 * std::f64::consts::PI * 1.2 * t).sin()
                + 2.0 * (2.0 * std::f64::consts::PI * 0.3 * t + 1.0).sin()
        } else {
            0.0
        };
        let o = Orientation {
            pitch_rad: pose.base.pitch_rad + sway_deg.to_radians(),
            roll_rad: pose.base.roll_rad + (sway_deg * 0.4).to_radians(),
        };
        if self.axis_is_pitch {
            self.accel.y_volts(&o, 0.0, rng)
        } else {
            self.accel.x_volts(&o, 0.0, rng)
        }
    }
}

/// The fully-assembled simulated prototype.
pub struct DistScrollDevice {
    board: Board,
    fw: Firmware,
    scene: Rc<RefCell<Scene>>,
    pose: Rc<RefCell<Pose>>,
    rng: StdRng,
}

impl std::fmt::Debug for DistScrollDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistScrollDevice")
            .field("now", &self.board.now())
            .field("distance_cm", &self.scene.borrow().distance_cm)
            .field("level", &self.fw.navigator().level())
            .field("highlighted", &self.fw.navigator().highlighted())
            .finish_non_exhaustive()
    }
}

impl DistScrollDevice {
    /// Assembles a device with the given profile and menu, seeding all
    /// stochastic physics from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid; use [`DistScrollDevice::try_new`]
    /// to handle that as an error.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor (# Panics); try_new is the fallible path"
    )]
    pub fn new(profile: DeviceProfile, menu: Menu, seed: u64) -> Self {
        DistScrollDevice::try_new(profile, menu, seed).expect("valid device profile")
    }

    /// Assembles a device around a *specific sensor unit* (with
    /// part-to-part gain/offset variation) instead of the datasheet-
    /// typical part. Until calibrated, its distance estimates carry the
    /// unit's bias — run [`DistScrollDevice::calibrate_on_jig`] once and
    /// [`DistScrollDevice::load_calibration`] at boot thereafter.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking constructor (# Panics); try_new is the fallible path"
    )]
    pub fn new_with_unit_variation(profile: DeviceProfile, menu: Menu, seed: u64) -> Self {
        let mut dev = DistScrollDevice::try_new(profile, menu, seed).expect("valid device profile");
        let mut part_rng = StdRng::seed_from_u64(seed ^ 0x9a27);
        let scene = Rc::clone(&dev.scene);
        dev.board.wire(
            AdcChannel::Distance,
            Box::new(SensorChannel {
                sensor: Gp2d120::with_unit_variation(&mut part_rng),
                scene,
            }),
        );
        dev
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadProfile`] or [`CoreError::BadMapping`] from
    /// firmware boot.
    pub fn try_new(profile: DeviceProfile, menu: Menu, seed: u64) -> Result<Self, CoreError> {
        let scene = Rc::new(RefCell::new(Scene::lab()));
        // Held at a comfortable reading tilt until told otherwise.
        let pose = Rc::new(RefCell::new(Pose {
            held: true,
            base: Orientation::from_degrees(18.0, 3.0),
        }));
        let mut board = Board::new();
        board.wire(
            AdcChannel::Distance,
            Box::new(SensorChannel {
                sensor: Gp2d120::typical(),
                scene: Rc::clone(&scene),
            }),
        );
        board.wire(
            AdcChannel::AccelY,
            Box::new(AccelChannel {
                accel: Adxl311::typical(),
                pose: Rc::clone(&pose),
                axis_is_pitch: true,
            }),
        );
        board.wire(
            AdcChannel::AccelX,
            Box::new(AccelChannel {
                accel: Adxl311::typical(),
                pose: Rc::clone(&pose),
                axis_is_pitch: false,
            }),
        );
        let fw = Firmware::new(profile, menu)?;
        board.mcu.memory.reserve("firmware state", fw.ram_bytes());
        Ok(DistScrollDevice {
            board,
            fw,
            scene,
            pose,
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Puts the device down flat on a surface (or picks it back up).
    /// With [`orientation standby`](crate::profile::DeviceProfile::orientation_standby)
    /// enabled, the firmware uses the accelerometer to notice and power
    /// down the sensor and displays.
    pub fn set_resting(&mut self, resting: bool) {
        let mut pose = self.pose.borrow_mut();
        pose.held = !resting;
        pose.base = if resting {
            Orientation::from_degrees(0.0, 0.0)
        } else {
            Orientation::from_degrees(18.0, 3.0)
        };
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.board.now()
    }

    /// Swaps the battery (e.g. a nearly-flat cell for power-failure
    /// tests, or a fresh one mid-study).
    pub fn set_battery(&mut self, battery: distscroll_hw::power::Battery) {
        self.board.set_battery(battery);
    }

    /// Replaces the radio channel model (e.g. a lossy one for link
    /// experiments).
    pub fn set_radio(&mut self, radio: distscroll_hw::link::RadioChannel) {
        self.board.set_radio(radio);
    }

    /// Moves the device to `cm` from the body (the user's arm motion).
    pub fn set_distance(&mut self, cm: f64) {
        self.scene.borrow_mut().set_distance(cm);
    }

    /// The true hand–body distance.
    pub fn distance(&self) -> f64 {
        self.scene.borrow().distance_cm
    }

    /// Changes the clothing surface in front of the sensor.
    pub fn set_surface(&mut self, surface: Surface) {
        self.scene.borrow_mut().surface = surface;
    }

    /// Changes the ambient light.
    pub fn set_ambient(&mut self, ambient: AmbientLight) {
        self.scene.borrow_mut().ambient = ambient;
    }

    /// Presses the select button (thumb).
    pub fn press_select(&mut self) {
        self.board.press_button(self.fw.profile().select_button());
    }

    /// Releases the select button.
    pub fn release_select(&mut self) {
        self.board.release_button(self.fw.profile().select_button());
    }

    /// Presses the back button.
    pub fn press_back(&mut self) {
        self.board.press_button(self.fw.profile().back_button());
    }

    /// Releases the back button.
    pub fn release_back(&mut self) {
        self.board.release_button(self.fw.profile().back_button());
    }

    /// Runs one firmware tick, then advances time by the tick period.
    /// This is the *sanctioned stepping site*: the only place outside
    /// `crates/hw` where simulated time advances (`clippy.toml` disallows
    /// `Board::step` everywhere else).
    ///
    /// Every per-tick component (ADC noise draw, sensor refresh,
    /// debounce, telemetry cadence, ARQ service) is pinned to the tick
    /// grid, so nothing runs between ticks (DESIGN.md §8).
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] on hardware faults (e.g. brown-out). No time
    /// passes on a fault, so a caller that retries ticks at the same
    /// instant.
    pub fn tick(&mut self) -> Result<(), CoreError> {
        self.fw.tick(&mut self.board, &mut self.rng)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "the device tick is the sanctioned stepping site"
        )]
        self.board.step(self.fw.tick_period());
        Ok(())
    }

    /// Ticks until the clock reaches `target`, leaving it at the first
    /// tick boundary at or after `target`. The eval runner and the bench
    /// drive the simulation through this entry point.
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] on hardware faults.
    pub fn run_until(&mut self, target: SimInstant) -> Result<(), CoreError> {
        while self.board.now() < target {
            self.tick()?;
        }
        Ok(())
    }

    /// Runs the firmware for (at least) `ms` milliseconds of simulated
    /// time.
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] on hardware faults.
    pub fn run_for_ms(&mut self, ms: u64) -> Result<(), CoreError> {
        let tick_ms = self.fw.tick_period().as_millis().max(1);
        let ticks = ms.div_ceil(tick_ms);
        self.run_until(self.board.now() + self.fw.tick_period() * ticks)
    }

    /// Convenience: a full select click (press, hold, release) with
    /// realistic 80 ms hold time.
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] on hardware faults.
    pub fn click_select(&mut self) -> Result<(), CoreError> {
        self.press_select();
        self.run_for_ms(80)?;
        self.release_select();
        self.run_for_ms(40)
    }

    /// Convenience: a select press held for `hold_ms` before release —
    /// under the one-large button layout the duration decides between
    /// select (short) and back (long).
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] on hardware faults.
    pub fn click_select_held(&mut self, hold_ms: u64) -> Result<(), CoreError> {
        self.press_select();
        self.run_for_ms(hold_ms)?;
        self.release_select();
        self.run_for_ms(40)
    }

    /// Convenience: a full back click.
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] on hardware faults.
    pub fn click_back(&mut self) -> Result<(), CoreError> {
        self.press_back();
        self.run_for_ms(80)?;
        self.release_back();
        self.run_for_ms(40)
    }

    /// Factory calibration: holds a reference surface at each jig
    /// distance, averages the firmware's filtered readings, fits the
    /// unit's own curve, stores it in the EEPROM and applies it.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadMapping`] if the fit fails, or hardware faults.
    pub fn calibrate_on_jig(&mut self, jig_cm: &[f64]) -> Result<(), CoreError> {
        let mut points = Vec::with_capacity(jig_cm.len());
        for &d in jig_cm {
            self.set_distance(d);
            self.run_for_ms(400)?;
            // Average a handful of filtered codes for the point.
            let mut sum = 0.0;
            let reps = 8;
            for _ in 0..reps {
                self.run_for_ms(50)?;
                sum += f64::from(self.fw.filtered_code());
            }
            points.push((d, sum / f64::from(reps)));
        }
        let fit = crate::calibration::run_jig_calibration(&points)?;
        crate::calibration::store(&mut self.board.eeprom, &fit)?;
        self.fw.set_curve(fit)
    }

    /// Writes a calibration record into the EEPROM without applying it
    /// (e.g. restoring a record that physically persisted across a
    /// simulated reboot).
    ///
    /// # Errors
    ///
    /// As [`calibration::store`](crate::calibration::store).
    pub fn store_calibration(
        &mut self,
        curve: &distscroll_sensors::calibrate::InverseCurveFit,
    ) -> Result<(), CoreError> {
        crate::calibration::store(&mut self.board.eeprom, curve)
    }

    /// Loads a previously stored calibration from the EEPROM and applies
    /// it; returns `false` (and keeps the typical curve) if none is
    /// stored or the record is corrupted.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadMapping`] if a *valid* record cannot map the
    /// current level (physically impossible for real calibrations).
    pub fn load_calibration(&mut self) -> Result<bool, CoreError> {
        match crate::calibration::load(&self.board.eeprom) {
            Some(curve) => {
                self.fw.set_curve(curve)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Shows a study-task prompt on the lower display (§6), or returns
    /// it to the debug view with `None`.
    pub fn set_instruction(&mut self, instruction: Option<&str>) {
        self.fw.set_instruction(instruction.map(str::to_string));
    }

    /// The firmware (read-only).
    pub fn firmware(&self) -> &Firmware {
        &self.fw
    }

    /// The board (read-only).
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The index highlighted at the current level.
    pub fn highlighted(&self) -> usize {
        self.fw.navigator().highlighted()
    }

    /// The label highlighted at the current level.
    pub fn highlighted_label(&self) -> String {
        self.fw.navigator().highlighted_entry().label().to_string()
    }

    /// The menu depth (0 = top level).
    pub fn level(&self) -> usize {
        self.fw.navigator().level()
    }

    /// Number of entries at the current level.
    pub fn level_len(&self) -> usize {
        self.fw.navigator().len()
    }

    /// Visits and clears the firmware's pending interaction events, in
    /// emission order — the zero-allocation poll. Any
    /// `FnMut(&TimedEvent)` closure is a sink.
    ///
    /// There is no owned-`Vec` drain that would allocate on every poll:
    ///
    /// ```compile_fail,E0599
    /// use distscroll_core::{device::DistScrollDevice, menu::Menu, profile::DeviceProfile};
    /// let mut dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(4), 1);
    /// let events = dev.drain_events();
    /// ```
    pub fn poll_events<S: EventSink + ?Sized>(&mut self, sink: &mut S) {
        self.fw.poll_events(sink);
    }

    /// Visits telemetry frames that have reached the host by now, in
    /// arrival order, recycling the frame buffers afterwards — the
    /// zero-allocation poll. Any `FnMut(&Telemetry)` closure is a sink.
    pub fn poll_telemetry<S: TelemetrySink + ?Sized>(&mut self, sink: &mut S) {
        self.board.poll_received(sink);
    }

    /// Sends a payload from the host back to the device over the radio's
    /// reverse channel — how the host's ARQ acknowledgements reach the
    /// firmware. Subject to the same loss, corruption and jitter as
    /// device telemetry; the device reads it on its next tick.
    ///
    /// Returns whether the payload went on air: `false` means the board
    /// refused it as longer than one frame carries
    /// ([`MAX_PAYLOAD`](distscroll_hw::link::MAX_PAYLOAD)), and nothing
    /// was sent. A frame the channel then drops still returns `true`.
    pub fn host_send(&mut self, payload: &[u8]) -> bool {
        self.board.host_send(payload, &mut self.rng).is_ok()
    }

    /// ASCII art of the upper (menu) display.
    pub fn upper_display_art(&self) -> String {
        self.board.display(DisplayRole::Upper).as_ascii_art()
    }

    /// ASCII art of the lower (status) display.
    pub fn lower_display_art(&self) -> String {
        self.board.display(DisplayRole::Lower).as_ascii_art()
    }

    /// Physical centre (cm) of the island that selects menu index `idx`
    /// at the current level, honouring the direction mapping — where a
    /// user aiming for `idx` should hold the device.
    pub fn island_center_cm(&self, idx: usize) -> Option<f64> {
        let map = self.fw.island_map();
        let n = map.len();
        if idx >= self.fw.navigator().len() {
            return None;
        }
        let island_idx = match self.fw.profile().direction {
            crate::profile::DirectionMapping::TowardIsUp => idx.min(n - 1),
            crate::profile::DirectionMapping::TowardIsDown => n - 1 - idx.min(n - 1),
        };
        Some(map.islands()[island_idx].center_cm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phone_menu::phone_menu;

    #[test]
    fn quickstart_flow() {
        let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 7);
        dev.set_distance(dev.island_center_cm(0).unwrap());
        dev.run_for_ms(400).unwrap();
        assert_eq!(dev.highlighted(), 0);
        assert_eq!(dev.highlighted_label(), "Messages");
        dev.click_select().unwrap();
        assert_eq!(dev.level(), 1);
        assert_eq!(dev.level_len(), 6);
        dev.click_back().unwrap();
        assert_eq!(dev.level(), 0);
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = || {
            let mut dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(8), 99);
            dev.set_distance(13.0);
            dev.run_for_ms(600).unwrap();
            (dev.highlighted(), dev.firmware().filtered_code())
        };
        assert_eq!(run(), run(), "simulation must be deterministic per seed");
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let code = |seed| {
            let mut dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(8), seed);
            dev.set_distance(13.0);
            dev.run_for_ms(300).unwrap();
            dev.firmware().filtered_code()
        };
        let codes: std::collections::BTreeSet<u16> = (0..8).map(code).collect();
        assert!(codes.len() > 1, "noise must vary across seeds");
    }

    #[test]
    fn surface_and_ambient_are_settable() {
        let mut dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(4), 1);
        dev.set_surface(Surface::BlackLeather);
        dev.set_ambient(AmbientLight::Sunlight);
        dev.set_distance(10.0);
        dev.run_for_ms(400).unwrap();
        // Still usable mid-range: the paper's robustness claim.
        assert!(dev.firmware().distance_estimate().is_some());
    }

    #[test]
    fn island_center_cm_is_inside_the_range() {
        let dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(6), 1);
        for i in 0..6 {
            let cm = dev.island_center_cm(i).unwrap();
            assert!((4.0..=30.0).contains(&cm));
        }
        assert_eq!(dev.island_center_cm(6), None);
    }

    #[test]
    fn try_new_rejects_bad_profiles() {
        let bad = DeviceProfile {
            tick_ms: 0,
            ..DeviceProfile::paper()
        };
        assert!(DistScrollDevice::try_new(bad, Menu::flat(4), 0).is_err());
    }

    #[test]
    fn displays_render_ascii_art() {
        let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 3);
        dev.set_distance(17.0);
        dev.run_for_ms(500).unwrap();
        let art = dev.upper_display_art();
        assert!(art.contains("Messages") || art.contains('>'), "{art}");
        assert!(dev.lower_display_art().contains("adc"));
    }
}

//! The device firmware: the paper's C program, in Rust, against the
//! simulated board.
//!
//! "The DistScroll works as follows. It is to be held with one hand. By
//! moving the DistScroll towards oneself, the values of the distance
//! sensor change and are mapped to the current data structure, in our
//! initial study a menu. … The menu entries are selected by clicking a
//! specified button, here the top right button which is most
//! conveniently operated with the thumb" (paper, Section 5.1).
//!
//! Per tick (default 10 ms, well above the sensor's ~38 ms refresh so no
//! update is missed) the loop:
//!
//! 1. feeds the watchdog,
//! 2. samples the distance channel and runs the profile-selected
//!    recognizer (the paper's slew gate → median → EMA chain, or the
//!    stream-segmented state machine — see `distscroll-recognizer`),
//! 3. classifies the code against the island map, applies the direction
//!    mapping and the hold-in-gaps hysteresis, and moves the highlight,
//! 4. debounces the buttons; select enters submenus / activates leaves,
//!    back moves up a level (rebuilding the island map for the new
//!    level's entry count, exactly as Section 4.2 prescribes),
//! 5. redraws the two displays when something changed,
//! 6. ships a telemetry frame every few ticks.

use distscroll_hw::arq::{decode_ack, ArqClass, ArqTx, LinkQuality};
use distscroll_hw::board::{AdcChannel, Board};
use distscroll_hw::clock::SimDuration;
use distscroll_hw::display::DisplayRole;
use distscroll_recognizer::{
    AnyRecognizer, ClassicChain, ClassicConfig, Recognizer, Segmented, SegmentedConfig,
};
use distscroll_sensors::calibrate::InverseCurveFit;
use distscroll_sensors::filter::{Debouncer, Ema};
use rand::Rng;

use crate::events::{Event, EventLog, EventSink};
use crate::long_menu::{LongMenuAction, LongMenuController, LongMenuStrategy};
use crate::mapping::{paper_curve, IslandHit, IslandMap, MappingState};
use crate::menu::{Menu, Navigator, Selection};
use crate::profile::{DeviceProfile, DirectionMapping};
use crate::ui;
use crate::CoreError;

/// Cycle cost charged to the MCU per firmware tick *excluding* the
/// recognizer stages (sampling, mapping, buttons — measured from a
/// PIC18 C build of comparable code). The recognizer reports its own
/// per-stage budget; base + the classic chain's 62 cycles equals the
/// 420-cycle figure the firmware carried as one opaque constant before
/// the recognizer refactor.
const TICK_BASE_CYCLES: u64 = 358;

/// Bytes of PIC RAM the two button debouncers cost — the last piece of
/// the old `+ 16 // ema, slew, debouncers` literal that stays
/// firmware-owned now that the filter stages account for themselves.
const DEBOUNCERS_RAM_BYTES: usize = 4;

/// Ticks between refreshes of the lower (status/debug) display.
const LOWER_REDRAW_TICKS: u64 = 25;

/// Builds the recognizer the profile selects, resolving the firmware's
/// filter settings into the recognizer's own configuration. The classic
/// chain folds the slew-gate activation rule (`filters.slew_gate &&
/// !expert_foldback`) into its construction; the segmented engine takes
/// a copy of the boot-calibrated curve so it can classify in distance
/// space.
fn build_recognizer(profile: &DeviceProfile, curve: &InverseCurveFit) -> AnyRecognizer {
    match profile.recognizer {
        crate::profile::RecognizerKind::Classic => {
            AnyRecognizer::Classic(ClassicChain::new(&ClassicConfig {
                median_len: profile.filters.median_len,
                ema_alpha: profile.filters.ema_alpha,
                slew_max_codes: profile.filters.slew_max_codes,
                slew_enabled: profile.filters.slew_gate && !profile.expert_foldback,
            }))
        }
        crate::profile::RecognizerKind::Segmented => {
            AnyRecognizer::Segmented(Box::new(Segmented::new(SegmentedConfig {
                curve: *curve,
                near_cm: profile.near_cm,
                far_cm: profile.far_cm,
                tick_ms: profile.tick_ms,
            })))
        }
    }
}

/// The firmware image: all state the program keeps in the PIC's RAM.
#[derive(Debug)]
pub struct Firmware {
    profile: DeviceProfile,
    curve: InverseCurveFit,
    nav: Navigator,
    map: IslandMap,
    map_state: MappingState,
    long: Option<LongMenuController>,
    recognizer: AnyRecognizer,
    /// Cycles charged per tick: the fixed loop base plus the selected
    /// recognizer's stage budget (cached — it never changes at runtime).
    tick_cycles: u64,
    select_db: Debouncer,
    back_db: Debouncer,
    log: EventLog,
    ticks: u64,
    /// `true` when (entries, highlight) changed since the last upper
    /// redraw — the render is only built (and allocated) then.
    upper_dirty: bool,
    last_upper: Vec<String>,
    last_lower: Vec<String>,
    last_code: u16,
    last_distance: Option<f64>,
    /// One-large layout: tick the press started, and whether the
    /// long-press "back" already fired for it.
    press_started_tick: Option<u64>,
    long_fired: bool,
    /// Orientation-context standby (§4.3 future work).
    accel_ema: Ema,
    accel_window: std::collections::VecDeque<f64>,
    rest_since_tick: Option<u64>,
    standby: bool,
    /// Study-instruction mode for the lower display (§6: "instructions
    /// which items are to be searched or selected").
    instruction: Option<String>,
    /// Reliable-transport sender, present when the profile enables ARQ.
    arq_tx: Option<ArqTx>,
    /// Deadline counters for the loop's periodic tasks, kept in exact
    /// lockstep with the modulo cadence they replaced (debug-asserted at
    /// each check): the next tick the lower display refreshes and the
    /// next tick a state record is due.
    next_lower_redraw_tick: u64,
    next_state_record_tick: u64,
    /// Reusable render target for the periodic status view, so the
    /// steady-state tick allocates nothing.
    lower_scratch: Vec<String>,
    /// Telemetry records produced since boot (state snapshots plus
    /// events) — the ground-truth denominator for delivery measurements.
    records_emitted: u64,
}

impl Firmware {
    /// Boots the firmware: validates the profile, calibrates the curve
    /// (the boot-time equivalent of the authors' Figure 4 fit) and builds
    /// the island map for the menu's top level.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadProfile`] or [`CoreError::BadMapping`].
    pub fn new(profile: DeviceProfile, menu: Menu) -> Result<Self, CoreError> {
        profile.validate()?;
        let curve = paper_curve();
        let nav = Navigator::new(menu);
        let recognizer = build_recognizer(&profile, &curve);
        let tick_cycles = TICK_BASE_CYCLES + recognizer.cycle_budget();
        let mut fw = Firmware {
            recognizer,
            tick_cycles,
            select_db: Debouncer::new(3),
            back_db: Debouncer::new(3),
            map: IslandMap::build(1, profile.near_cm, profile.far_cm, 0.0, &curve)?,
            map_state: MappingState::new(),
            long: None,
            log: EventLog::new(),
            ticks: 0,
            upper_dirty: true,
            last_upper: Vec::new(),
            last_lower: Vec::new(),
            last_code: 0,
            last_distance: None,
            press_started_tick: None,
            long_fired: false,
            #[expect(
                clippy::disallowed_methods,
                reason = "§4.3 standby engine smooths the accelerometer channel, not the scroll input"
            )]
            accel_ema: Ema::new(0.2),
            accel_window: std::collections::VecDeque::with_capacity(64),
            rest_since_tick: None,
            standby: false,
            instruction: None,
            arq_tx: profile.arq.then(ArqTx::new),
            records_emitted: 0,
            next_lower_redraw_tick: LOWER_REDRAW_TICKS,
            next_state_record_tick: profile.telemetry_every_ticks,
            lower_scratch: Vec::new(),
            profile,
            curve,
            nav,
        };
        fw.rebuild_level()?;
        Ok(fw)
    }

    /// The device profile in force.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// The boot-calibrated sensor curve.
    pub fn curve(&self) -> &InverseCurveFit {
        &self.curve
    }

    /// Replaces the sensor curve (e.g. with a per-unit calibration from
    /// the EEPROM) and rebuilds the island map against it.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadMapping`] if the new curve cannot map the current
    /// level (physically impossible for real calibrations).
    pub fn set_curve(&mut self, curve: InverseCurveFit) -> Result<(), CoreError> {
        self.curve = curve;
        // The segmented recognizer classifies in distance space through a
        // copy of the curve, so it must be rebuilt alongside the map.
        self.recognizer = build_recognizer(&self.profile, &self.curve);
        self.tick_cycles = TICK_BASE_CYCLES + self.recognizer.cycle_budget();
        self.rebuild_level()
    }

    /// The recognizer in force — exposes the trait's cost accounting and
    /// (for the segmented engine) its classification diagnostics.
    pub fn recognizer(&self) -> &AnyRecognizer {
        &self.recognizer
    }

    /// The navigation cursor (read-only).
    pub fn navigator(&self) -> &Navigator {
        &self.nav
    }

    /// The island map of the current level.
    pub fn island_map(&self) -> &IslandMap {
        &self.map
    }

    /// The interaction event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Visits and clears the pending interaction events — the
    /// zero-allocation drain.
    pub fn poll_events<S: EventSink + ?Sized>(&mut self, sink: &mut S) {
        self.log.poll(sink);
    }

    /// Telemetry records produced since boot (state snapshots plus
    /// events), whether or not the radio delivered them.
    pub fn records_emitted(&self) -> u64 {
        self.records_emitted
    }

    /// Transmit-side link-quality counters, when ARQ is enabled.
    pub fn arq_quality(&self) -> Option<LinkQuality> {
        self.arq_tx.as_ref().map(ArqTx::quality)
    }

    /// Records awaiting acknowledgement, when ARQ is enabled.
    pub fn arq_in_flight(&self) -> Option<usize> {
        self.arq_tx.as_ref().map(ArqTx::in_flight)
    }

    /// The firmware's latest distance estimate, cm (None while out of
    /// range).
    pub fn distance_estimate(&self) -> Option<f64> {
        self.last_distance
    }

    /// The latest filtered ADC code.
    pub fn filtered_code(&self) -> u16 {
        self.last_code
    }

    /// Whether the orientation-context engine has put the device into
    /// standby (sensor and displays powered down).
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// Switches the lower display into study-instruction mode: instead
    /// of debug state it shows the experimenter's task prompt. "We later
    /// plan to provide the user with information necessary for
    /// conducting the user study itself, such as instructions which
    /// items are to be searched or selected" (paper, Section 6).
    /// `None` returns to the debug view.
    pub fn set_instruction(&mut self, instruction: Option<String>) {
        self.instruction = instruction;
        self.last_lower.clear(); // force a redraw
    }

    /// The tick period as a duration.
    pub fn tick_period(&self) -> SimDuration {
        SimDuration::from_millis(self.profile.tick_ms)
    }

    /// The firmware's periodic task set for schedulability analysis —
    /// what an engineer would check before committing this layout to the
    /// 1-MIPS PIC.
    pub fn task_set(&self) -> distscroll_hw::mcu::TaskSet {
        let mut ts = distscroll_hw::mcu::TaskSet::new();
        let period_us = self.profile.tick_ms * 1_000;
        // The main loop: sample + recognize + map.
        ts.register("interaction tick", period_us, self.tick_cycles + 20 + 4);
        // Worst-case full redraw of both displays (clear + 5 lines each
        // over 100 kHz I2C, bit-banged: ~cycles = microseconds).
        ts.register(
            "display redraw",
            period_us * LOWER_REDRAW_TICKS,
            2 * (200 + 5 * 1_700),
        );
        // Telemetry frame: encode + hand to the radio.
        ts.register(
            "telemetry",
            period_us * self.profile.telemetry_every_ticks,
            8 * 13,
        );
        if self.profile.orientation_standby {
            ts.register("orientation watch", period_us, 80);
        }
        ts
    }

    /// Bytes of PIC RAM the firmware state costs; the device registers
    /// this against the 1536-byte budget.
    pub fn ram_bytes(&self) -> usize {
        // Recognizer + mapping tables + navigation state + frame
        // buffers, as the C firmware would lay them out.
        self.recognizer.ram_bytes()
            + DEBOUNCERS_RAM_BYTES
            + self.map.len() * 6 // island table: lo, hi, center codes
            + 32 // navigation state
            + 2 * 80 // two 5x16 text buffers
    }

    fn rebuild_level(&mut self) -> Result<(), CoreError> {
        let n = self.nav.len();
        self.map_state.reset();
        self.recognizer.reset();
        if n <= self.profile.max_islands {
            self.long = None;
            self.map = match self.profile.mapping_kind {
                crate::profile::MappingKind::EqualDistance => IslandMap::build(
                    n,
                    self.profile.near_cm,
                    self.profile.far_cm,
                    self.profile.gap_fraction,
                    &self.curve,
                )?,
                crate::profile::MappingKind::LinearInCode => IslandMap::linear_in_code(
                    n,
                    self.profile.near_cm,
                    self.profile.far_cm,
                    self.profile.gap_fraction,
                    &self.curve,
                )?,
            };
        } else {
            let ctl = LongMenuController::new(self.profile.long_menu, n);
            self.map = match self.profile.long_menu {
                LongMenuStrategy::Continuous => IslandMap::build_dense(
                    n,
                    self.profile.near_cm,
                    self.profile.far_cm,
                    &self.curve,
                )?,
                LongMenuStrategy::Chunked { .. } => IslandMap::build(
                    ctl.islands_needed(),
                    self.profile.near_cm,
                    self.profile.far_cm,
                    self.profile.gap_fraction,
                    &self.curve,
                )?,
                LongMenuStrategy::Sdaz { .. } => IslandMap::build(
                    1,
                    self.profile.near_cm,
                    self.profile.far_cm,
                    0.0,
                    &self.curve,
                )?,
            };
            self.long = Some(ctl);
        }
        self.last_upper.clear(); // force a redraw
        self.upper_dirty = true;
        Ok(())
    }

    /// Orients an island hit according to the direction mapping: under
    /// [`DirectionMapping::TowardIsDown`] pulling the device closer must
    /// move *down* the list, so island indices reverse and the
    /// too-near/too-far zones swap roles.
    fn orient(&self, hit: IslandHit, n: usize) -> IslandHit {
        match self.profile.direction {
            DirectionMapping::TowardIsUp => hit,
            DirectionMapping::TowardIsDown => match hit {
                IslandHit::Entry(i) => IslandHit::Entry(n - 1 - i),
                IslandHit::TooNear => IslandHit::TooFar,
                IslandHit::TooFar => IslandHit::TooNear,
                IslandHit::Gap => IslandHit::Gap,
            },
        }
    }

    /// The §4.3 context engine: watch the accelerometer's pitch axis;
    /// a device lying flat *and* still (no handheld sway) for two
    /// seconds goes to standby — sensor rail and displays off; sway or
    /// tilt wakes it. Returns `true` while in standby (the interaction
    /// loop is skipped).
    fn standby_engine<R: Rng + ?Sized>(
        &mut self,
        board: &mut Board,
        rng: &mut R,
    ) -> Result<bool, CoreError> {
        const FLAT_OFFSET_CODES: f64 = 8.0; // |pitch| below ~13 degrees
        const STILL_RANGE_CODES: f64 = 3.0;
        const WAKE_RANGE_CODES: f64 = 5.0;
        const WINDOW: usize = 64;
        const DWELL_MS: u64 = 2_000;

        let raw = board.sample(AdcChannel::AccelY, rng)?;
        let smoothed = self.accel_ema.push(f64::from(raw));
        if self.accel_window.len() == WINDOW {
            self.accel_window.pop_front();
        }
        self.accel_window.push_back(smoothed);
        if self.accel_window.len() < WINDOW {
            return Ok(self.standby);
        }
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &self.accel_window {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = hi - lo;
        // Zero-g sits at mid-supply: code 512 at Vref 5 V.
        let zero_g = 1023.0 * distscroll_sensors::adxl311::ZERO_G_V / 5.0;
        let flat = (smoothed - zero_g).abs() < FLAT_OFFSET_CODES;

        if self.standby {
            if range > WAKE_RANGE_CODES || !flat {
                self.standby = false;
                self.rest_since_tick = None;
                board.set_sensor_power(true);
                board.write_display(
                    DisplayRole::Upper,
                    &[distscroll_hw::display::cmd::SET_POWER, 1],
                )?;
                board.write_display(
                    DisplayRole::Lower,
                    &[distscroll_hw::display::cmd::SET_POWER, 1],
                )?;
                self.last_upper.clear(); // force redraw on wake
                self.upper_dirty = true;
                self.last_lower.clear();
                // Standby skipped the periodic tasks; realign their
                // deadlines with the modulo grid they fire on.
                self.next_lower_redraw_tick = self.ticks.next_multiple_of(LOWER_REDRAW_TICKS);
                self.next_state_record_tick = self
                    .ticks
                    .next_multiple_of(self.profile.telemetry_every_ticks);
            }
        } else if flat && range < STILL_RANGE_CODES {
            let since = *self.rest_since_tick.get_or_insert(self.ticks);
            if (self.ticks - since) * self.profile.tick_ms >= DWELL_MS {
                self.standby = true;
                board.set_sensor_power(false);
                board.write_display(
                    DisplayRole::Upper,
                    &[distscroll_hw::display::cmd::SET_POWER, 0],
                )?;
                board.write_display(
                    DisplayRole::Lower,
                    &[distscroll_hw::display::cmd::SET_POWER, 0],
                )?;
            }
        } else {
            self.rest_since_tick = None;
        }
        Ok(self.standby)
    }

    fn fire_select(&mut self, now: distscroll_hw::clock::SimInstant) -> Result<(), CoreError> {
        match self.nav.select() {
            Selection::Activated { path } => {
                self.log.push(now, Event::Activated { path });
            }
            Selection::EnteredSubmenu { label } => {
                self.log.push(now, Event::EnteredSubmenu { label });
                self.rebuild_level()?;
            }
        }
        Ok(())
    }

    /// Runs one firmware tick against the board.
    ///
    /// # Errors
    ///
    /// [`CoreError::Hw`] on hardware faults (brown-out ends the session);
    /// menu/mapping errors cannot occur after a successful boot.
    pub fn tick<R: Rng + ?Sized>(
        &mut self,
        board: &mut Board,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        let now = board.now();
        board.mcu.watchdog.feed(now);
        board.mcu.charge(self.tick_cycles);
        self.ticks += 1;
        let events_at_tick_start = self.log.len();

        // 0. Orientation context (§4.3): in standby only the
        // accelerometer is watched; everything else sleeps.
        if self.profile.orientation_standby && self.standby_engine(board, rng)? {
            return Ok(());
        }

        // 1. Sample the distance channel and run the recognizer.
        let raw = match board.sample(AdcChannel::Distance, rng) {
            Ok(code) => code,
            Err(e) => {
                self.log.push(now, Event::BrownOut);
                return Err(e.into());
            }
        };
        let code = self.recognizer.process(raw, self.ticks);
        self.last_code = code;
        self.last_distance = self
            .curve
            .distance_at(f64::from(code) / 1023.0 * 5.0)
            .filter(|d| (self.profile.near_cm - 1.0..=self.profile.far_cm + 3.0).contains(d));

        // 2. Map the code onto the current level.
        let raw_hit = self.map.lookup(code);
        let n_islands = self.map.len();
        let hit = self.orient(raw_hit, n_islands);
        let target = match &mut self.long {
            None => self.map_state.resolve(hit),
            Some(ctl) => {
                let u = self.last_distance.map(|d| {
                    let u = (d - self.profile.near_cm) / self.profile.span_cm();
                    let u = u.clamp(0.0, 1.0);
                    match self.profile.direction {
                        DirectionMapping::TowardIsUp => u,
                        DirectionMapping::TowardIsDown => 1.0 - u,
                    }
                });
                let current = self.nav.highlighted();
                let (idx, action) =
                    ctl.update(hit, u, self.profile.tick_ms as f64 / 1000.0, current);
                match action {
                    LongMenuAction::PageBack => self.log.push(now, Event::PageBack),
                    LongMenuAction::PageForward => self.log.push(now, Event::PageForward),
                    LongMenuAction::None => {}
                }
                Some(idx)
            }
        };
        if let Some(idx) = target {
            if idx != self.nav.highlighted() && idx < self.nav.len() {
                self.nav.highlight(idx)?;
                self.upper_dirty = true;
                self.log.push(
                    now,
                    Event::Highlight {
                        index: idx,
                        label: self.nav.highlighted_entry().label().into(),
                    },
                );
            }
        }

        // 3. Buttons. Layouts differ (§6 future work): separate select
        // and back buttons, or one large button where press duration
        // decides (short = select, held past the threshold = back).
        match self.profile.button_layout {
            crate::profile::ButtonLayout::OneLarge { long_press_ms } => {
                let raw = board
                    .read_button(self.profile.select_button(), rng)
                    .is_low();
                let was_down = self.select_db.state();
                let is_down = self.select_db.push(raw);
                if is_down && !was_down {
                    self.press_started_tick = Some(self.ticks);
                    self.long_fired = false;
                }
                if is_down && !self.long_fired {
                    if let Some(start) = self.press_started_tick {
                        if (self.ticks - start) * self.profile.tick_ms >= long_press_ms {
                            // Long press: back fires while still held, so
                            // the user gets feedback without releasing.
                            self.long_fired = true;
                            if self.nav.back() {
                                self.log.push(now, Event::WentBack);
                                self.rebuild_level()?;
                            }
                        }
                    }
                }
                if !is_down && was_down {
                    if !self.long_fired {
                        self.fire_select(now)?;
                    }
                    self.press_started_tick = None;
                }
            }
            _ => {
                let select_raw = board
                    .read_button(self.profile.select_button(), rng)
                    .is_low();
                let back_raw = board.read_button(self.profile.back_button(), rng).is_low();
                if self.select_db.push_edge(select_raw) {
                    self.fire_select(now)?;
                }
                if self.back_db.push_edge(back_raw) && self.nav.back() {
                    self.log.push(now, Event::WentBack);
                    self.rebuild_level()?;
                }
            }
        }

        // 4. Displays (only when content changed: I2C traffic is the
        // slowest thing the loop does). The PDA add-on has no panels:
        // power them down once and let the host render from telemetry.
        if self.profile.display_fit == crate::profile::DisplayFit::HostRendered {
            if self.ticks == 1 {
                board.write_display(
                    DisplayRole::Upper,
                    &[distscroll_hw::display::cmd::SET_POWER, 0],
                )?;
                board.write_display(
                    DisplayRole::Lower,
                    &[distscroll_hw::display::cmd::SET_POWER, 0],
                )?;
            }
            return self.emit_telemetry(board, rng, code, events_at_tick_start);
        }
        // Render only when the menu or highlight changed: the render
        // itself allocates, so the steady-state tick must skip it.
        if self.upper_dirty {
            let upper = ui::render_menu(self.nav.entries(), self.nav.highlighted());
            if upper != self.last_upper {
                for c in ui::encode_redraw(&upper) {
                    board.write_display(DisplayRole::Upper, &c)?;
                }
                self.last_upper = upper;
            }
            self.upper_dirty = false;
        }
        debug_assert_eq!(
            self.ticks == self.next_lower_redraw_tick,
            self.ticks.is_multiple_of(LOWER_REDRAW_TICKS),
            "lower-redraw deadline counter drifted off the modulo grid"
        );
        if self.ticks == self.next_lower_redraw_tick {
            self.next_lower_redraw_tick += LOWER_REDRAW_TICKS;
            match &self.instruction {
                Some(text) => {
                    let lower = ui::render_instruction(text);
                    if lower != self.last_lower {
                        for c in ui::encode_redraw(&lower) {
                            board.write_display(DisplayRole::Lower, &c)?;
                        }
                        self.last_lower = lower;
                    }
                }
                None => {
                    ui::render_status_into(
                        code,
                        self.last_distance,
                        self.map_state.current(),
                        self.nav.level(),
                        board.battery_soc(),
                        &mut self.lower_scratch,
                    );
                    if self.lower_scratch != self.last_lower {
                        for c in ui::encode_redraw(&self.lower_scratch) {
                            board.write_display(DisplayRole::Lower, &c)?;
                        }
                        std::mem::swap(&mut self.last_lower, &mut self.lower_scratch);
                    }
                }
            }
        }

        // 5. Telemetry.
        self.emit_telemetry(board, rng, code, events_at_tick_start)
    }

    /// Periodic state records plus one event record per interaction
    /// event, all stamped with the low 16 bits of the tick counter so
    /// the host can reconstruct the timeline (see the distscroll-host
    /// crate).
    ///
    /// With ARQ enabled (profile `arq`), records are queued on the
    /// reliable transport instead of going straight to the radio: the
    /// host's acknowledgements (arriving on the board's reverse channel)
    /// are folded in first, then every due frame — fresh or timed-out —
    /// is handed to the radio. With ARQ off the path is byte-for-byte
    /// (and RNG-draw-for-draw) the old fire-and-forget one.
    fn emit_telemetry<R: Rng + ?Sized>(
        &mut self,
        board: &mut Board,
        rng: &mut R,
        code: u16,
        events_at_tick_start: usize,
    ) -> Result<(), CoreError> {
        let stamp = (self.ticks & 0xffff) as u16;
        if let Some(tx) = self.arq_tx.as_mut() {
            // Acknowledgements release retransmit-queue slots before this
            // tick's records are queued.
            board.poll_host_received(|payload| {
                if let Some((cum, bitmap)) = decode_ack(payload) {
                    tx.on_ack(cum, bitmap);
                }
            });
        }
        debug_assert_eq!(
            self.ticks == self.next_state_record_tick,
            self.ticks
                .is_multiple_of(self.profile.telemetry_every_ticks),
            "state-record deadline counter drifted off the modulo grid"
        );
        if self.ticks == self.next_state_record_tick {
            self.next_state_record_tick += self.profile.telemetry_every_ticks;
            let island = self.map_state.current().map_or(0xff, |i| i as u8);
            let payload = [
                b'T',
                (stamp >> 8) as u8,
                (stamp & 0xff) as u8,
                (code >> 8) as u8,
                (code & 0xff) as u8,
                island,
                self.nav.level() as u8,
                self.nav.highlighted() as u8,
            ];
            self.records_emitted += 1;
            match self.arq_tx.as_mut() {
                Some(tx) => {
                    tx.enqueue(ArqClass::State, &payload, self.ticks);
                }
                None => board.send_telemetry(&payload, rng),
            }
        }
        for te in &self.log.events()[events_at_tick_start..] {
            let aux = match &te.event {
                Event::Highlight { index, .. } => *index as u8,
                Event::Activated { path } => path.len() as u8,
                _ => self.nav.level() as u8,
            };
            let payload = te.event.wire_payload(stamp, aux);
            self.records_emitted += 1;
            match self.arq_tx.as_mut() {
                Some(tx) => {
                    tx.enqueue(ArqClass::Event, &payload, self.ticks);
                }
                None => board.send_telemetry(&payload, rng),
            }
        }
        if let Some(tx) = self.arq_tx.as_mut() {
            // `service` before the transport's next due tick only
            // compares `due_tick`s (no sends, no RNG, no counter changes),
            // so skipping it is byte-exact. Frames enqueued this tick and
            // ack-triggered fast retransmits are due at or before
            // `self.ticks`, so they always service.
            if tx.next_due_tick().is_some_and(|due| due <= self.ticks) {
                tx.service(self.ticks, |wire| board.send_telemetry(wire, rng));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::phone_menu::phone_menu;
    use distscroll_hw::board::{Telemetry, VoltageSource};
    use distscroll_hw::clock::SimInstant;
    use distscroll_sensors::environment::Scene;
    use distscroll_sensors::gp2d120::Gp2d120;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sensor + shared scene as a board voltage source.
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

    struct Rig {
        board: Board,
        fw: Firmware,
        scene: Rc<RefCell<Scene>>,
        rng: StdRng,
    }

    fn rig_with(profile: DeviceProfile, menu: Menu) -> Rig {
        let scene = Rc::new(RefCell::new(Scene::lab()));
        let mut board = Board::new();
        board.wire(
            AdcChannel::Distance,
            Box::new(SensorChannel {
                sensor: Gp2d120::typical(),
                scene: Rc::clone(&scene),
            }),
        );
        let fw = Firmware::new(profile, menu).unwrap();
        Rig {
            board,
            fw,
            scene,
            rng: StdRng::seed_from_u64(1234),
        }
    }

    fn rig() -> Rig {
        rig_with(DeviceProfile::paper(), Menu::flat(8))
    }

    impl Rig {
        fn run_ms(&mut self, ms: u64) {
            let tick = self.fw.tick_period();
            let mut elapsed = 0;
            while elapsed < ms {
                self.fw.tick(&mut self.board, &mut self.rng).unwrap();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "the firmware test rig steps the board without a device around it"
                )]
                self.board.step(tick);
                elapsed += tick.as_millis();
            }
        }

        fn hold_at(&mut self, cm: f64, ms: u64) {
            self.scene.borrow_mut().set_distance(cm);
            self.run_ms(ms);
        }

        fn click_select(&mut self) {
            self.board.press_button(self.fw.profile().select_button());
            self.run_ms(60);
            self.board.release_button(self.fw.profile().select_button());
            self.run_ms(60);
        }

        fn click_back(&mut self) {
            self.board.press_button(self.fw.profile().back_button());
            self.run_ms(60);
            self.board.release_button(self.fw.profile().back_button());
            self.run_ms(60);
        }
    }

    /// Centre distance of the island that selects menu index `idx`.
    fn island_center_for_menu_index(fw: &Firmware, idx: usize) -> f64 {
        let n = fw.island_map().len();
        let island_idx = match fw.profile().direction {
            DirectionMapping::TowardIsUp => idx,
            DirectionMapping::TowardIsDown => n - 1 - idx,
        };
        fw.island_map().islands()[island_idx].center_cm
    }

    #[test]
    fn holding_an_island_highlights_its_entry() {
        let mut r = rig();
        for target in [0usize, 3, 7] {
            let cm = island_center_for_menu_index(&r.fw, target);
            r.hold_at(cm, 400);
            assert_eq!(
                r.fw.navigator().highlighted(),
                target,
                "holding {cm:.1} cm should highlight entry {target}"
            );
        }
    }

    #[test]
    fn direction_mapping_reverses_the_list() {
        let mut down = rig();
        let mut up = rig_with(
            DeviceProfile {
                direction: DirectionMapping::TowardIsUp,
                ..DeviceProfile::paper()
            },
            Menu::flat(8),
        );
        down.hold_at(6.0, 400); // near the body
        up.hold_at(6.0, 400);
        assert_eq!(
            down.fw.navigator().highlighted(),
            7,
            "toward-is-down: near = bottom"
        );
        assert_eq!(
            up.fw.navigator().highlighted(),
            0,
            "toward-is-up: near = top"
        );
    }

    #[test]
    fn dead_zones_hold_the_selection() {
        let mut r = rig();
        let a = island_center_for_menu_index(&r.fw, 4);
        r.hold_at(a, 400);
        assert_eq!(r.fw.navigator().highlighted(), 4);
        // Move into the gap between island 4's and the neighbour's zones.
        let map = r.fw.island_map();
        let i4 = map.islands()[map.len() - 1 - 4];
        let gap_cm = i4.center_cm + i4.width_cm / 2.0 + 0.2;
        r.hold_at(gap_cm, 400);
        assert_eq!(
            r.fw.navigator().highlighted(),
            4,
            "gap keeps the previous entry"
        );
    }

    #[test]
    fn out_of_range_holds_the_selection() {
        // Moving outward from the island nearest the far edge crosses no
        // other island, so going out of range must simply hold it. (From
        // an inner island the hand physically sweeps the outer islands on
        // its way out — that is correct device behaviour, not an error.)
        let mut r = rig();
        let far_menu_idx = 0; // toward-is-down: menu 0 sits at the far edge
        let cm = island_center_for_menu_index(&r.fw, far_menu_idx);
        r.hold_at(cm, 400);
        assert_eq!(r.fw.navigator().highlighted(), far_menu_idx);
        r.hold_at(45.0, 500); // beyond the sensor range
        assert_eq!(r.fw.navigator().highlighted(), far_menu_idx);
    }

    #[test]
    fn select_button_descends_and_back_ascends() {
        let mut r = rig_with(DeviceProfile::paper(), phone_menu());
        let cm = island_center_for_menu_index(&r.fw, 0);
        r.hold_at(cm, 400);
        let top_len = r.fw.navigator().len();
        r.click_select();
        assert_eq!(r.fw.navigator().level(), 1, "entered the first submenu");
        assert_ne!(r.fw.navigator().len(), 0);
        r.click_back();
        assert_eq!(r.fw.navigator().level(), 0);
        assert_eq!(r.fw.navigator().len(), top_len);
        let tags: Vec<u8> =
            r.fw.log()
                .events()
                .iter()
                .map(|e| e.event.wire_tag())
                .collect();
        assert!(tags.contains(&b'S'));
        assert!(tags.contains(&b'B'));
    }

    #[test]
    fn island_map_rebuilds_per_level() {
        let mut r = rig_with(DeviceProfile::paper(), phone_menu());
        let n_top = r.fw.island_map().len();
        r.hold_at(island_center_for_menu_index(&r.fw, 0), 400);
        r.click_select(); // Messages: 6 entries
        let n_sub = r.fw.island_map().len();
        assert_eq!(n_top, 7);
        assert_eq!(n_sub, 6);
    }

    #[test]
    fn selecting_a_leaf_logs_activation() {
        let mut r = rig_with(DeviceProfile::paper(), Menu::flat(5));
        r.hold_at(island_center_for_menu_index(&r.fw, 1), 400);
        r.click_select();
        let activated =
            r.fw.log()
                .events()
                .iter()
                .find_map(|e| match &e.event {
                    Event::Activated { path } => Some(path.clone()),
                    _ => None,
                })
                .expect("a leaf was activated");
        assert_eq!(activated, vec!["Item 01".to_string()]);
    }

    #[test]
    fn upper_display_shows_the_menu() {
        let mut r = rig();
        r.hold_at(island_center_for_menu_index(&r.fw, 3), 500);
        let art = r.board.display(DisplayRole::Upper).as_ascii_art();
        assert!(
            art.contains(">Item 03"),
            "display shows the highlight:\n{art}"
        );
    }

    #[test]
    fn lower_display_shows_debug_state() {
        let mut r = rig();
        r.hold_at(17.0, 600);
        let lines = r.board.display(DisplayRole::Lower).lines();
        assert!(
            lines[0].starts_with("adc"),
            "status line present: {lines:?}"
        );
        assert!(lines[3].contains('%'));
    }

    #[test]
    fn telemetry_frames_reach_the_host() {
        let mut r = rig();
        r.hold_at(12.0, 800);
        let mut frames = Vec::new();
        r.board
            .poll_received(&mut |t: &Telemetry| frames.push(t.clone()));
        assert!(!frames.is_empty(), "telemetry must flow");
        let mut dec = distscroll_hw::link::FrameDecoder::new();
        let mut payloads = Vec::new();
        for f in frames {
            for p in dec.push_all(&f.bytes).into_iter().flatten() {
                payloads.push(p);
            }
        }
        assert!(payloads.iter().all(|p| p[0] == b'T' || p[0] == b'E'));
    }

    #[test]
    fn highlight_events_report_movement() {
        let mut r = rig();
        // The initial highlight is 0, so start somewhere else: the event
        // log only records *changes*.
        r.hold_at(island_center_for_menu_index(&r.fw, 5), 400);
        r.hold_at(island_center_for_menu_index(&r.fw, 1), 600);
        let highlights: Vec<usize> =
            r.fw.log()
                .events()
                .iter()
                .filter_map(|e| match e.event {
                    Event::Highlight { index, .. } => Some(index),
                    _ => None,
                })
                .collect();
        assert!(highlights.contains(&5), "events: {highlights:?}");
        assert!(highlights.contains(&1), "events: {highlights:?}");
    }

    #[test]
    fn long_menu_engages_chunked_controller() {
        let mut r = rig_with(DeviceProfile::paper(), Menu::flat(40));
        // 40 entries > max_islands=12: chunked paging with 10 islands.
        assert_eq!(r.fw.island_map().len(), 10);
        // Under toward-is-down the "page forward" zone is the too-near
        // side. Physically, codes above the 4 cm edge only occur in the
        // 3–4 cm sliver before the fold-back peak — dwell there.
        r.hold_at(17.0, 300);
        let before = r.fw.log().events().len();
        r.hold_at(3.4, 1500);
        let flips =
            r.fw.log()
                .events()
                .iter()
                .skip(before)
                .filter(|e| matches!(e.event, Event::PageForward))
                .count();
        assert!(flips >= 1, "dwelling past the edge must flip pages");
    }

    #[test]
    fn mcu_keeps_up_with_the_loop() {
        let mut r = rig();
        r.run_ms(2000);
        let util = r.board.mcu.utilization(r.board.now());
        assert!(
            util < 0.5,
            "firmware must fit the pic: utilization {util:.2}"
        );
    }

    #[test]
    fn firmware_task_set_is_schedulable_on_the_pic() {
        let fw = Firmware::new(DeviceProfile::paper(), phone_menu()).unwrap();
        let ts = fw.task_set();
        assert!(ts.tasks().len() >= 3);
        let u = ts.total_utilization();
        assert!(u < 0.5, "plenty of headroom expected: u = {u:.2}");
        assert!(ts.is_schedulable());
        // Standby adds a task but stays schedulable.
        let fw = Firmware::new(
            DeviceProfile {
                orientation_standby: true,
                ..DeviceProfile::paper()
            },
            phone_menu(),
        )
        .unwrap();
        assert!(fw.task_set().is_schedulable());
    }

    #[test]
    fn firmware_fits_pic_ram() {
        let r = rig_with(DeviceProfile::paper(), phone_menu());
        assert!(
            r.fw.ram_bytes() <= distscroll_hw::mcu::RAM_BYTES,
            "firmware state {} bytes exceeds the 18f452's ram",
            r.fw.ram_bytes()
        );
    }

    #[test]
    fn menu_of_one_entry_still_works() {
        let mut r = rig_with(DeviceProfile::paper(), Menu::flat(1));
        r.hold_at(17.0, 400);
        assert_eq!(r.fw.navigator().highlighted(), 0);
        r.click_select();
        assert!(r
            .fw
            .log()
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::Activated { .. })));
    }

    #[test]
    fn one_large_short_press_selects() {
        let profile = DeviceProfile {
            button_layout: crate::profile::ButtonLayout::one_large(),
            ..DeviceProfile::paper()
        };
        let mut r = rig_with(profile, phone_menu());
        r.hold_at(island_center_for_menu_index(&r.fw, 0), 400);
        // Short press: 120 ms, well under the 600 ms threshold.
        r.board.press_button(r.fw.profile().select_button());
        r.run_ms(120);
        r.board.release_button(r.fw.profile().select_button());
        r.run_ms(60);
        assert_eq!(r.fw.navigator().level(), 1, "short press selected");
        assert!(!r
            .fw
            .log()
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::WentBack)));
    }

    #[test]
    fn one_large_long_press_goes_back() {
        let profile = DeviceProfile {
            button_layout: crate::profile::ButtonLayout::one_large(),
            ..DeviceProfile::paper()
        };
        let mut r = rig_with(profile, phone_menu());
        r.hold_at(island_center_for_menu_index(&r.fw, 0), 400);
        r.board.press_button(r.fw.profile().select_button());
        r.run_ms(120);
        r.board.release_button(r.fw.profile().select_button());
        r.run_ms(60);
        assert_eq!(r.fw.navigator().level(), 1);
        // Long press: back fires at the threshold, while still held.
        r.board.press_button(r.fw.profile().select_button());
        r.run_ms(700);
        assert_eq!(
            r.fw.navigator().level(),
            0,
            "long press went back while held"
        );
        r.board.release_button(r.fw.profile().select_button());
        r.run_ms(60);
        assert_eq!(
            r.fw.navigator().level(),
            0,
            "release after a long press does not select"
        );
    }

    #[test]
    fn two_slidable_left_hand_mirrors_buttons() {
        use distscroll_hw::gpio::ButtonId;
        let profile = DeviceProfile {
            button_layout: crate::profile::ButtonLayout::TwoSlidable,
            handedness: crate::profile::Handedness::Left,
            ..DeviceProfile::paper()
        };
        assert_eq!(profile.select_button(), ButtonId::LeftUpper);
        assert_eq!(profile.back_button(), ButtonId::TopRight);
        let mut r = rig_with(profile, phone_menu());
        r.hold_at(island_center_for_menu_index(&r.fw, 0), 400);
        r.click_select();
        assert_eq!(r.fw.navigator().level(), 1, "left-handed select works");
    }

    #[test]
    fn boot_rejects_invalid_profiles() {
        let bad = DeviceProfile {
            near_cm: -2.0,
            ..DeviceProfile::paper()
        };
        assert!(matches!(
            Firmware::new(bad, Menu::flat(4)),
            Err(CoreError::BadProfile { .. })
        ));
    }
}

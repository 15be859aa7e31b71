//! The assembled DistScroll board: the wiring of Figures 2 and 3.
//!
//! The paper's system architecture (Figure 2) connects, around the
//! Smart-Its base board with its PIC 18F452:
//!
//! * the Sharp GP2D120 distance sensor and the ADXL311 accelerometer's
//!   two axes into ADC channels,
//! * the contrast potentiometer into another ADC channel,
//! * three push buttons into GPIO,
//! * two BT96040 displays onto the I2C bus,
//! * the radio link towards the host PC,
//! * everything powered from a 9 V block battery.
//!
//! [`Board`] owns all of those models plus the simulation clock. The
//! *firmware* (in `distscroll-core`) is written strictly against this
//! API: it samples channels, reads pins, writes display commands and
//! queues telemetry frames — never touching simulation internals, just
//! as the C firmware on the real prototype only touches registers.
//!
//! Analog inputs are wired as [`VoltageSource`] trait objects so the
//! sensor physics can live in `distscroll-sensors` without this crate
//! depending on it.

#![expect(
    clippy::disallowed_methods,
    reason = "the board is the stepping site the device tick drives"
)]

use rand::Rng;

use crate::adc::Adc10;
use crate::clock::{SimClock, SimDuration, SimInstant};
use crate::display::{Bt96040, DisplayRole};
use crate::gpio::{Button, ButtonId, PinLevel};
use crate::i2c::I2cBus;
use crate::link::{encode_frame_into, FrameDecoder, RadioChannel};
use crate::mcu::Mcu;
use crate::pot::Potentiometer;
use crate::power::{Battery, LoadProfile};
use crate::HwError;

/// Something that produces an analog voltage on an ADC channel.
///
/// Implemented by the sensor models in `distscroll-sensors`; the `rng`
/// lets physical noise stay inside the source.
pub trait VoltageSource {
    /// The instantaneous output voltage at `now`.
    fn voltage(&mut self, now: SimInstant, rng: &mut dyn rand::RngCore) -> f64;
}

impl<F> VoltageSource for F
where
    F: FnMut(SimInstant) -> f64,
{
    fn voltage(&mut self, now: SimInstant, _rng: &mut dyn rand::RngCore) -> f64 {
        self(now)
    }
}

/// ADC channel assignments on the DistScroll board.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdcChannel {
    /// Channel 0: the GP2D120 distance sensor output.
    Distance,
    /// Channel 1: ADXL311 X axis.
    AccelX,
    /// Channel 2: ADXL311 Y axis.
    AccelY,
    /// Channel 3: contrast potentiometer wiper.
    Contrast,
}

impl AdcChannel {
    fn index(self) -> usize {
        match self {
            AdcChannel::Distance => 0,
            AdcChannel::AccelX => 1,
            AdcChannel::AccelY => 2,
            AdcChannel::Contrast => 3,
        }
    }

    fn number(self) -> u8 {
        self.index() as u8
    }
}

/// I2C address of the upper (menu) display.
pub const UPPER_DISPLAY_ADDR: u8 = 0x3c;
/// I2C address of the lower (status/debug) display.
pub const LOWER_DISPLAY_ADDR: u8 = 0x3d;

/// A telemetry frame queued for (or arrived from) the air.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// When the frame arrives at the host.
    pub arrival: SimInstant,
    /// Raw wire bytes as received (possibly corrupted by the channel).
    pub bytes: Vec<u8>,
}

/// Visitor for telemetry frames arriving at the host.
///
/// [`Board::poll_received`] hands each arrived frame to the sink by
/// reference and recycles the byte buffer afterwards, so a steady-state
/// poll loop performs no heap allocation. Any `FnMut(&Telemetry)`
/// closure is a sink.
pub trait TelemetrySink {
    /// Called once per arrived frame, in arrival order.
    fn frame(&mut self, telemetry: &Telemetry);
}

impl<F: FnMut(&Telemetry)> TelemetrySink for F {
    fn frame(&mut self, telemetry: &Telemetry) {
        self(telemetry)
    }
}

/// The fully-wired DistScroll prototype.
pub struct Board {
    clock: SimClock,
    /// The microcontroller; public so the firmware can charge cycles and
    /// feed the watchdog, mirroring direct register access.
    pub mcu: Mcu,
    /// The data EEPROM; public because the firmware reads and writes it
    /// directly, like the registers.
    pub eeprom: crate::eeprom::Eeprom,
    adc: Adc10,
    channels: [Option<Box<dyn VoltageSource>>; 4],
    buttons: [Button; 3],
    bus: I2cBus,
    pot: Potentiometer,
    battery: Battery,
    load: LoadProfile,
    radio: RadioChannel,
    air: Vec<Telemetry>,
    /// Scratch for frames that have arrived, reused across polls.
    arrived: Vec<Telemetry>,
    /// Frames in flight from the host back to the device (the ARQ
    /// acknowledgement channel), through the same radio model.
    host_air: Vec<Telemetry>,
    /// Scratch for arrived host frames, reused across polls.
    host_arrived: Vec<Telemetry>,
    /// The device-side UART decoder for host frames.
    host_decoder: FrameDecoder,
    /// Recycled wire-frame byte buffers, so steady-state telemetry
    /// traffic stops allocating once capacities have warmed up.
    spare: Vec<Vec<u8>>,
    frames_sent: u64,
    frames_dropped: u64,
    host_frames_sent: u64,
    host_frames_dropped: u64,
    browned_out: bool,
    sensor_powered: bool,
}

impl std::fmt::Debug for Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Board")
            .field("now", &self.clock.now())
            .field("soc", &self.battery.state_of_charge())
            .field("frames_sent", &self.frames_sent)
            .field("browned_out", &self.browned_out)
            .finish_non_exhaustive()
    }
}

impl Board {
    /// Assembles a fresh board: charged battery, cleared displays, no
    /// analog sources wired yet.
    pub fn new() -> Self {
        let mut bus = I2cBus::new();
        bus.attach(Box::new(Bt96040::new(
            UPPER_DISPLAY_ADDR,
            DisplayRole::Upper,
        )));
        bus.attach(Box::new(Bt96040::new(
            LOWER_DISPLAY_ADDR,
            DisplayRole::Lower,
        )));
        Board {
            clock: SimClock::new(),
            mcu: Mcu::new(SimInstant::BOOT),
            eeprom: crate::eeprom::Eeprom::new(),
            adc: Adc10::with_noise(5.0, 1.5),
            channels: [None, None, None, None],
            buttons: [
                Button::new(ButtonId::TopRight),
                Button::new(ButtonId::LeftUpper),
                Button::new(ButtonId::LeftLower),
            ],
            bus,
            pot: Potentiometer::new(5.0),
            battery: Battery::fresh(),
            load: LoadProfile::distscroll(),
            radio: RadioChannel::clean(),
            air: Vec::new(),
            arrived: Vec::new(),
            host_air: Vec::new(),
            host_arrived: Vec::new(),
            host_decoder: FrameDecoder::new(),
            spare: Vec::new(),
            frames_sent: 0,
            frames_dropped: 0,
            host_frames_sent: 0,
            host_frames_dropped: 0,
            browned_out: false,
            sensor_powered: true,
        }
    }

    /// Replaces the radio channel model (e.g. with a lossy one).
    pub fn set_radio(&mut self, radio: RadioChannel) {
        self.radio = radio;
    }

    /// Replaces the battery (e.g. with a nearly-flat one for tests).
    pub fn set_battery(&mut self, battery: Battery) {
        self.battery = battery;
    }

    /// Wires an analog source into an ADC channel.
    pub fn wire(&mut self, channel: AdcChannel, source: Box<dyn VoltageSource>) {
        self.channels[channel.index()] = Some(source);
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Powers the distance sensor on or off (a GPIO-switched rail on the
    /// board; the GP2D120 is the dominant consumer, so standby modes
    /// switch it).
    pub fn set_sensor_power(&mut self, on: bool) {
        self.sensor_powered = on;
    }

    /// Whether the distance sensor rail is powered.
    pub fn is_sensor_powered(&self) -> bool {
        self.sensor_powered
    }

    /// Advances simulated time by `dt`, draining the battery according to
    /// the current display and sensor load. The display load reads the
    /// panels' O(1) ink caches, so this is cheap enough to run on every
    /// device tick.
    pub fn step(&mut self, dt: SimDuration) {
        let lit = self.display(DisplayRole::Upper).lit_pixels()
            + self.display(DisplayRole::Lower).lit_pixels();
        let mut load = self.load.total_ma(lit, false);
        if !self.sensor_powered {
            load -= self.load.sensor_ma;
        }
        self.battery.drain(load, dt);
        if self.battery.is_browned_out(load) {
            self.browned_out = true;
        }
        self.clock.advance(dt);
    }

    /// `true` once the supply has browned out; the firmware is dead.
    pub fn is_browned_out(&self) -> bool {
        self.browned_out
    }

    /// Remaining battery state of charge, `0.0..=1.0`.
    pub fn battery_soc(&self) -> f64 {
        self.battery.state_of_charge()
    }

    /// Samples an ADC channel.
    ///
    /// Charges the conversion time's worth of cycles to the MCU.
    ///
    /// # Errors
    ///
    /// [`HwError::AdcBadChannel`] if nothing is wired to the channel;
    /// [`HwError::BrownOut`] once the supply has collapsed.
    pub fn sample<R: Rng + ?Sized>(
        &mut self,
        channel: AdcChannel,
        rng: &mut R,
    ) -> Result<u16, HwError> {
        if self.browned_out {
            return Err(HwError::BrownOut {
                volts: self.battery.terminal_volts(40.0),
            });
        }
        let now = self.clock.now();
        let volts = match channel {
            AdcChannel::Contrast => self.pot.sample(rng),
            // An unpowered sensor's output floats near ground.
            AdcChannel::Distance if !self.sensor_powered => 0.02,
            _ => {
                let src =
                    self.channels[channel.index()]
                        .as_mut()
                        .ok_or(HwError::AdcBadChannel {
                            channel: channel.number(),
                        })?;
                let mut boxed_rng = ErasedRng(rng);
                src.voltage(now, &mut boxed_rng)
            }
        };
        self.mcu.charge(self.adc.conversion_time().as_micros());
        Ok(self.adc.sample(volts, rng))
    }

    /// The ADC itself (for code↔volt conversions in the firmware).
    pub fn adc(&self) -> &Adc10 {
        &self.adc
    }

    /// Reads a (bouncy) button pin level.
    pub fn read_button<R: Rng + ?Sized>(&mut self, id: ButtonId, rng: &mut R) -> PinLevel {
        let now = self.clock.now();
        self.mcu.charge(2);
        self.button(id).level(now, rng)
    }

    /// Mechanically presses a button (driven by the simulated user).
    pub fn press_button(&mut self, id: ButtonId) {
        let now = self.clock.now();
        self.button_mut(id).press(now);
    }

    /// Mechanically releases a button.
    pub fn release_button(&mut self, id: ButtonId) {
        let now = self.clock.now();
        self.button_mut(id).release(now);
    }

    #[expect(
        clippy::expect_used,
        reason = "every ButtonId is wired at construction; a miss is a board-construction bug"
    )]
    fn button(&self, id: ButtonId) -> &Button {
        self.buttons
            .iter()
            .find(|b| b.id() == id)
            .expect("all buttons wired")
    }

    #[expect(
        clippy::expect_used,
        reason = "every ButtonId is wired at construction; a miss is a board-construction bug"
    )]
    fn button_mut(&mut self, id: ButtonId) -> &mut Button {
        self.buttons
            .iter_mut()
            .find(|b| b.id() == id)
            .expect("all buttons wired")
    }

    /// The contrast potentiometer (the user's thumb can turn it).
    pub fn pot_mut(&mut self) -> &mut Potentiometer {
        &mut self.pot
    }

    /// Writes a command to one of the displays over I2C, charging the MCU
    /// for the wire time.
    ///
    /// # Errors
    ///
    /// Propagates I2C and display protocol errors.
    pub fn write_display(&mut self, role: DisplayRole, bytes: &[u8]) -> Result<(), HwError> {
        let addr = match role {
            DisplayRole::Upper => UPPER_DISPLAY_ADDR,
            DisplayRole::Lower => LOWER_DISPLAY_ADDR,
        };
        let wire_time = self.bus.write(addr, bytes)?;
        // The PIC bit-bangs/waits the transfer: cycles ~ microseconds.
        self.mcu.charge(wire_time.as_micros());
        Ok(())
    }

    /// Read-only view of a display's state.
    #[expect(
        clippy::expect_used,
        reason = "both displays are attached at construction and never removed"
    )]
    pub fn display(&self, role: DisplayRole) -> &Bt96040 {
        let addr = match role {
            DisplayRole::Upper => UPPER_DISPLAY_ADDR,
            DisplayRole::Lower => LOWER_DISPLAY_ADDR,
        };
        self.bus
            .device(addr)
            .and_then(|d| d.as_any().downcast_ref::<Bt96040>())
            .expect("displays are attached at construction")
    }

    /// Queues a telemetry payload for the host over the radio.
    ///
    /// The frame may be dropped or corrupted by the channel model;
    /// arrivals are visited with [`Board::poll_received`]. Wire-frame buffers are
    /// recycled from previous polls, so steady-state traffic allocates
    /// nothing once capacities have warmed up.
    pub fn send_telemetry<R: Rng + ?Sized>(&mut self, payload: &[u8], rng: &mut R) {
        let mut frame = self.spare.pop().unwrap_or_default();
        encode_frame_into(payload, &mut frame);
        self.frames_sent += 1;
        // Encoding + handing to the radio: ~8 cycles per byte.
        self.mcu.charge(8 * frame.len() as u64);
        match self
            .radio
            .transmit_in_place(&mut frame, self.clock.now(), rng)
        {
            Some(arrival) => self.air.push(Telemetry {
                arrival,
                bytes: frame,
            }),
            None => {
                self.frames_dropped += 1;
                self.spare.push(frame);
            }
        }
    }

    /// Moves every frame whose arrival time has passed from `air` into
    /// the `arrived` scratch, in arrival order (stable for ties), without
    /// allocating.
    fn collect_arrived(&mut self) {
        let now = self.clock.now();
        collect_due(&mut self.air, &mut self.arrived, now);
    }

    /// Visits every frame that has arrived at the host by now, in
    /// arrival order, recycling the byte buffers afterwards.
    ///
    /// This is the zero-allocation poll: in steady state neither the
    /// partition, the ordering, nor the visit allocates.
    pub fn poll_received<S: TelemetrySink + ?Sized>(&mut self, sink: &mut S) {
        self.collect_arrived();
        for t in &self.arrived {
            sink.frame(t);
        }
        for mut t in self.arrived.drain(..) {
            t.bytes.clear();
            self.spare.push(t.bytes);
        }
    }

    /// Frames handed to the radio since boot.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Frames the channel dropped since boot.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped
    }

    /// Queues a payload from the host back to the device — the reverse
    /// channel the ARQ acknowledgements ride on.
    ///
    /// Goes through the same [`RadioChannel`] model as device telemetry
    /// (the air does not care about direction): the frame may be
    /// dropped, corrupted or jittered. Buffers are recycled from the
    /// shared spare pool.
    pub fn host_send<R: Rng + ?Sized>(&mut self, payload: &[u8], rng: &mut R) {
        let mut frame = self.spare.pop().unwrap_or_default();
        encode_frame_into(payload, &mut frame);
        self.host_frames_sent += 1;
        match self
            .radio
            .transmit_in_place(&mut frame, self.clock.now(), rng)
        {
            Some(arrival) => self.host_air.push(Telemetry {
                arrival,
                bytes: frame,
            }),
            None => {
                self.host_frames_dropped += 1;
                frame.clear();
                self.spare.push(frame);
            }
        }
    }

    /// Visits every frame payload the device's UART decoder completes
    /// from host frames that have arrived by now, in arrival order.
    ///
    /// Payloads failing their CRC are dropped by the decoder (visible in
    /// [`Board::host_decoder_frames_bad`]); byte buffers are recycled,
    /// so a steady-state poll loop performs no heap allocation.
    pub fn poll_host_received<F: FnMut(&[u8])>(&mut self, mut sink: F) {
        let now = self.clock.now();
        collect_due(&mut self.host_air, &mut self.host_arrived, now);
        for t in &self.host_arrived {
            self.host_decoder.push_with(&t.bytes, |res| {
                if let Ok(payload) = res {
                    sink(payload);
                }
            });
        }
        for mut t in self.host_arrived.drain(..) {
            t.bytes.clear();
            self.spare.push(t.bytes);
        }
    }

    /// Host-to-device frames handed to the radio since boot.
    pub fn host_frames_sent(&self) -> u64 {
        self.host_frames_sent
    }

    /// Host-to-device frames the channel dropped since boot.
    pub fn host_frames_dropped(&self) -> u64 {
        self.host_frames_dropped
    }

    /// Host-to-device frames the device rejected (bad CRC) since boot.
    pub fn host_decoder_frames_bad(&self) -> u64 {
        self.host_decoder.frames_bad()
    }
}

/// Moves every frame whose arrival time has passed from `air` into the
/// `arrived` scratch, in arrival order (stable for ties), without
/// allocating.
fn collect_due(air: &mut Vec<Telemetry>, arrived: &mut Vec<Telemetry>, now: SimInstant) {
    let mut keep = 0;
    for i in 0..air.len() {
        if air[i].arrival <= now {
            let t = std::mem::replace(
                &mut air[i],
                Telemetry {
                    arrival: SimInstant::BOOT,
                    bytes: Vec::new(),
                },
            );
            arrived.push(t);
        } else {
            air.swap(keep, i);
            keep += 1;
        }
    }
    air.truncate(keep);
    // Stable insertion sort by arrival: queues are a handful of frames
    // deep, and `sort_by_key` would allocate.
    for i in 1..arrived.len() {
        let mut j = i;
        while j > 0 && arrived[j - 1].arrival > arrived[j].arrival {
            arrived.swap(j - 1, j);
            j -= 1;
        }
    }
}

impl Default for Board {
    fn default() -> Self {
        Board::new()
    }
}

/// Adapter so generic `R: Rng` callers can hand a `&mut dyn RngCore` to
/// trait-object voltage sources.
struct ErasedRng<'a, R: Rng + ?Sized>(&'a mut R);

impl<R: Rng + ?Sized> rand::RngCore for ErasedRng<'_, R> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::display::cmd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unwired_channel_errors() {
        let mut board = Board::new();
        let mut rng = StdRng::seed_from_u64(0);
        let err = board.sample(AdcChannel::Distance, &mut rng).unwrap_err();
        assert_eq!(err, HwError::AdcBadChannel { channel: 0 });
    }

    #[test]
    fn wired_channel_samples_the_source() {
        let mut board = Board::new();
        let mut rng = StdRng::seed_from_u64(0);
        board.wire(AdcChannel::Distance, Box::new(|_now: SimInstant| 2.5));
        let code = board.sample(AdcChannel::Distance, &mut rng).unwrap();
        assert!((i32::from(code) - 512).abs() < 10, "code {code}");
    }

    #[test]
    fn contrast_channel_reads_the_pot() {
        let mut board = Board::new();
        let mut rng = StdRng::seed_from_u64(0);
        board.pot_mut().set_position(1.0);
        let code = board.sample(AdcChannel::Contrast, &mut rng).unwrap();
        assert!(code > 1000, "code {code}");
    }

    #[test]
    fn display_write_changes_framebuffer_and_charges_mcu() {
        let mut board = Board::new();
        let before = board.mcu.cycles_charged();
        let mut payload = vec![cmd::WRITE_TEXT];
        payload.extend_from_slice(b"Settings");
        board.write_display(DisplayRole::Upper, &payload).unwrap();
        assert_eq!(board.display(DisplayRole::Upper).line(0), "Settings");
        assert!(
            board.mcu.cycles_charged() > before,
            "i2c time must be charged"
        );
        assert_eq!(board.display(DisplayRole::Lower).line(0), "");
    }

    #[test]
    fn buttons_press_and_read_after_settle() {
        let mut board = Board::new();
        let mut rng = StdRng::seed_from_u64(0);
        board.press_button(ButtonId::TopRight);
        board.step(SimDuration::from_millis(10));
        assert_eq!(
            board.read_button(ButtonId::TopRight, &mut rng),
            PinLevel::Low
        );
        assert_eq!(
            board.read_button(ButtonId::LeftUpper, &mut rng),
            PinLevel::High
        );
        board.release_button(ButtonId::TopRight);
        board.step(SimDuration::from_millis(10));
        assert_eq!(
            board.read_button(ButtonId::TopRight, &mut rng),
            PinLevel::High
        );
    }

    #[test]
    fn telemetry_round_trips_over_clean_air() {
        let mut board = Board::new();
        let mut rng = StdRng::seed_from_u64(0);
        board.send_telemetry(b"adc=512", &mut rng);
        let mut got = Vec::new();
        board.poll_received(&mut |t: &Telemetry| got.push(t.clone()));
        assert!(got.is_empty(), "nothing arrives instantly");
        board.step(SimDuration::from_millis(50));
        board.poll_received(&mut |t: &Telemetry| got.push(t.clone()));
        assert_eq!(got.len(), 1);
        let mut dec = crate::link::FrameDecoder::new();
        let frames = dec.push_all(&got[0].bytes);
        assert_eq!(frames, vec![Ok(b"adc=512".to_vec())]);
    }

    #[test]
    fn poll_received_visits_in_arrival_order_and_recycles_buffers() {
        let mut board = Board::new();
        let mut rng = StdRng::seed_from_u64(0);
        board.send_telemetry(b"first", &mut rng);
        board.send_telemetry(b"second", &mut rng);
        board.step(SimDuration::from_millis(50));
        let mut seen: Vec<(SimInstant, Vec<u8>)> = Vec::new();
        board.poll_received(&mut |t: &Telemetry| seen.push((t.arrival, t.bytes.clone())));
        assert_eq!(seen.len(), 2);
        assert!(seen[0].0 <= seen[1].0, "visited in arrival order");
        let mut dec = crate::link::FrameDecoder::new();
        assert_eq!(dec.push_all(&seen[0].1), vec![Ok(b"first".to_vec())]);
        // The visited buffers were recycled into the spare pool.
        assert_eq!(board.spare.len(), 2);
        board.send_telemetry(b"third", &mut rng);
        assert_eq!(board.spare.len(), 1, "send reuses a recycled buffer");
    }

    #[test]
    fn host_send_round_trips_to_the_device_decoder() {
        let mut board = Board::new();
        let mut rng = StdRng::seed_from_u64(3);
        board.host_send(b"K\x00\x07\x01", &mut rng);
        let mut got: Vec<Vec<u8>> = Vec::new();
        board.poll_host_received(|p| got.push(p.to_vec()));
        assert!(got.is_empty(), "nothing arrives instantly");
        board.step(SimDuration::from_millis(50));
        board.poll_host_received(|p| got.push(p.to_vec()));
        assert_eq!(got, vec![b"K\x00\x07\x01".to_vec()]);
        assert_eq!(board.host_frames_sent(), 1);
        assert_eq!(board.host_frames_dropped(), 0);
        // The arrived buffer was recycled into the shared spare pool.
        assert_eq!(board.spare.len(), 1);
    }

    #[test]
    fn host_channel_is_lossy_too() {
        let mut board = Board::new();
        board.set_radio(RadioChannel::lossy(1.0, 0.0));
        let mut rng = StdRng::seed_from_u64(0);
        board.host_send(b"K\x00\x00\x00", &mut rng);
        assert_eq!(board.host_frames_sent(), 1);
        assert_eq!(board.host_frames_dropped(), 1);
    }

    #[test]
    fn lossy_radio_counts_drops() {
        let mut board = Board::new();
        board.set_radio(RadioChannel::lossy(1.0, 0.0));
        let mut rng = StdRng::seed_from_u64(0);
        board.send_telemetry(b"x", &mut rng);
        assert_eq!(board.frames_sent(), 1);
        assert_eq!(board.frames_dropped(), 1);
    }

    #[test]
    fn flat_battery_browns_out_and_blocks_sampling() {
        let mut board = Board::new();
        board.set_battery(Battery::with_capacity(0.2));
        board.wire(AdcChannel::Distance, Box::new(|_now: SimInstant| 1.0));
        let mut rng = StdRng::seed_from_u64(0);
        // Burn the battery down.
        for _ in 0..120 {
            board.step(SimDuration::from_secs(10));
        }
        assert!(board.is_browned_out());
        let err = board.sample(AdcChannel::Distance, &mut rng).unwrap_err();
        assert!(matches!(err, HwError::BrownOut { .. }));
    }

    #[test]
    fn step_advances_the_clock() {
        let mut board = Board::new();
        board.step(SimDuration::from_millis(38));
        assert_eq!(board.now().as_micros(), 38_000);
    }

    #[test]
    fn fresh_board_has_healthy_battery() {
        let board = Board::new();
        assert!(board.battery_soc() > 0.99);
        assert!(!board.is_browned_out());
    }
}

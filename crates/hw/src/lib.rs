//! Simulated Smart-Its hardware platform for the DistScroll reproduction.
//!
//! The DistScroll prototype (Kranz, Holleis, Schmidt 2005) is built on the
//! Smart-Its platform: a Microchip PIC 18F452 microcontroller (32 KiB flash,
//! 1.5 KiB RAM) with an add-on board carrying a Sharp GP2D120 infra-red
//! distance sensor, an ADXL311 two-axis accelerometer, three push buttons,
//! a contrast potentiometer and two Barton BT96040 chip-on-glass displays
//! on the I2C bus, all powered from a 9 V block battery (paper, Section 4).
//!
//! This crate models every one of those components in software so that the
//! firmware in `distscroll-core` runs against the same interfaces and the
//! same timing constraints as it would on the physical board:
//!
//! * [`clock`] — the simulated monotonic clock every component is stepped by,
//! * [`adc`] — the PIC's 10-bit successive-approximation ADC,
//! * [`gpio`] — push buttons with mechanical contact bounce,
//! * [`i2c`] — a byte-level I2C bus with addressable devices,
//! * [`display`] — the BT96040 96×40 display with a 5-line text mode,
//! * [`eeprom`] — the PIC's 256-byte data EEPROM (calibration storage),
//! * [`pot`] — the display-contrast potentiometer,
//! * [`power`] — the 9 V battery with a discharge curve and brown-out,
//! * [`mcu`] — a cooperative task loop with a cycle budget and watchdog,
//! * [`link`] — the framed radio link from the device to the host PC,
//! * [`arq`] — reliable delivery (sequence numbers, acks, retransmission)
//!   layered on the link,
//! * [`board`] — the wiring of the whole DistScroll board (paper, Fig. 2/3),
//!   stepped once per fixed-period firmware tick.
//!
//! Everything is deterministic: components never read wall-clock time or
//! global randomness; callers pass a [`clock::SimInstant`] and, where a
//! physical process is noisy, an explicit random-number generator.
//!
//! # Example
//!
//! ```
//! use distscroll_hw::clock::{SimClock, SimDuration};
//! use distscroll_hw::adc::Adc10;
//!
//! let mut clock = SimClock::new();
//! clock.advance(SimDuration::from_millis(5));
//! let adc = Adc10::ideal(5.0);
//! let code = adc.quantize(2.5);
//! assert_eq!(code, 512);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adc;
pub mod arq;
pub mod board;
pub mod clock;
pub mod display;
pub mod eeprom;
pub mod font;
pub mod gpio;
pub mod i2c;
pub mod link;
pub mod mcu;
pub mod pot;
pub mod power;

/// Errors reported by simulated hardware components.
#[derive(Debug, Clone, PartialEq)]
pub enum HwError {
    /// An I2C transaction was addressed to a device that is not on the bus.
    I2cNoAck {
        /// The 7-bit address that went unanswered.
        address: u8,
    },
    /// An I2C device rejected a command or payload it does not understand.
    I2cProtocol {
        /// The 7-bit address of the rejecting device.
        address: u8,
        /// Human-readable reason, lowercase, no trailing punctuation.
        reason: &'static str,
    },
    /// The ADC was asked to sample a channel that is not wired.
    AdcBadChannel {
        /// The requested channel number.
        channel: u8,
    },
    /// The supply voltage dropped below the brown-out threshold.
    BrownOut {
        /// Supply voltage at the time of the failed operation, in volts.
        volts: f64,
    },
    /// A radio frame failed its CRC check on reception.
    LinkCrc {
        /// CRC transmitted in the frame.
        expected: u16,
        /// CRC computed over the received payload.
        actual: u16,
    },
    /// A radio frame was truncated or malformed.
    LinkFraming {
        /// Human-readable reason, lowercase, no trailing punctuation.
        reason: &'static str,
    },
    /// The watchdog timer expired because the firmware stopped feeding it.
    WatchdogReset,
}

impl std::fmt::Display for HwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwError::I2cNoAck { address } => {
                write!(f, "no acknowledge from i2c address {address:#04x}")
            }
            HwError::I2cProtocol { address, reason } => {
                write!(
                    f,
                    "i2c device {address:#04x} rejected transaction: {reason}"
                )
            }
            HwError::AdcBadChannel { channel } => {
                write!(f, "adc channel {channel} is not wired")
            }
            HwError::BrownOut { volts } => {
                write!(
                    f,
                    "supply voltage {volts:.2} V is below brown-out threshold"
                )
            }
            HwError::LinkCrc { expected, actual } => {
                write!(
                    f,
                    "link crc mismatch: frame says {expected:#06x}, computed {actual:#06x}"
                )
            }
            HwError::LinkFraming { reason } => write!(f, "link framing error: {reason}"),
            HwError::WatchdogReset => write!(f, "watchdog timer expired"),
        }
    }
}

impl std::error::Error for HwError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_trailing_period() {
        let errors = [
            HwError::I2cNoAck { address: 0x3c },
            HwError::I2cProtocol {
                address: 0x3c,
                reason: "unknown command",
            },
            HwError::AdcBadChannel { channel: 9 },
            HwError::BrownOut { volts: 3.1 },
            HwError::LinkCrc {
                expected: 1,
                actual: 2,
            },
            HwError::LinkFraming {
                reason: "short frame",
            },
            HwError::WatchdogReset,
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'), "{msg}");
            let first = msg.chars().next().unwrap();
            assert!(first.is_lowercase() || !first.is_alphabetic(), "{msg}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HwError>();
    }
}

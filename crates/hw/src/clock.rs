//! Simulated monotonic time.
//!
//! All timing in the reproduction is *simulated*: nothing ever reads the
//! wall clock, so experiments are exact, fast and reproducible. Time is
//! tracked in integer microseconds, which comfortably covers both the
//! ~38 ms sample period of the GP2D120 sensor and multi-hour battery
//! simulations without drift.
//!
//! The three types mirror `std::time` deliberately:
//!
//! * [`SimInstant`] — a point in simulated time (microseconds since boot),
//! * [`SimDuration`] — a span of simulated time,
//! * [`SimClock`] — the mutable clock the board steps forward.
//!
//! # Example
//!
//! ```
//! use distscroll_hw::clock::{SimClock, SimDuration};
//!
//! let mut clock = SimClock::new();
//! let boot = clock.now();
//! clock.advance(SimDuration::from_millis(38));
//! assert_eq!(clock.now() - boot, SimDuration::from_micros(38_000));
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time, stored as whole microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    micros: u64,
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { micros }
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            micros: millis * 1_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            micros: secs * 1_000_000,
        }
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration {
            micros: (secs * 1e6).round() as u64,
        }
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// The duration in whole milliseconds, truncating.
    pub const fn as_millis(self) -> u64 {
        self.micros / 1_000
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(rhs.micros),
        }
    }

    /// Returns `true` for the zero duration.
    pub const fn is_zero(self) -> bool {
        self.micros == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros += rhs.micros;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros - rhs.micros,
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.micros -= rhs.micros;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros * rhs,
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            micros: self.micros / rhs,
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micros >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.micros >= 1_000 {
            write!(f, "{:.3}ms", self.micros as f64 / 1e3)
        } else {
            write!(f, "{}us", self.micros)
        }
    }
}

/// A point in simulated time: microseconds since simulation boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant {
    micros: u64,
}

impl SimInstant {
    /// The instant of simulation boot (time zero).
    pub const BOOT: SimInstant = SimInstant { micros: 0 };

    /// Creates an instant at a given number of microseconds since boot.
    pub const fn from_micros(micros: u64) -> Self {
        SimInstant { micros }
    }

    /// Microseconds since boot.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// Seconds since boot, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Time elapsed from `earlier` to `self`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(earlier.micros),
        }
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            micros: self.micros + rhs.micros,
        }
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros += rhs.micros;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            micros: self.micros - rhs.micros,
        }
    }
}

impl Sub for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration {
            micros: self.micros - rhs.micros,
        }
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

/// The simulation's monotonic clock.
///
/// One `SimClock` is owned by the board; components receive the current
/// [`SimInstant`] as an argument instead of sharing mutable clock state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimClock {
    now: SimInstant,
}

impl SimClock {
    /// Creates a clock at boot time.
    pub fn new() -> Self {
        SimClock {
            now: SimInstant::BOOT,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Moves the clock forward by `dt`.
    pub fn advance(&mut self, dt: SimDuration) {
        self.now += dt;
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the clock tests exercise advance directly"
)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2_000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn instant_arithmetic_and_ordering() {
        let t0 = SimInstant::BOOT;
        let t1 = t0 + SimDuration::from_micros(100);
        assert!(t1 > t0);
        assert_eq!(t1 - t0, SimDuration::from_micros(100));
        assert_eq!(t1 - SimDuration::from_micros(100), t0);
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), SimInstant::BOOT);
        clock.advance(SimDuration::from_millis(38));
        clock.advance(SimDuration::from_millis(12));
        assert_eq!(clock.now().as_micros(), 50_000);
    }

    #[test]
    fn display_formats_pick_sensible_units() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(2_500).to_string(), "2.500s");
        assert_eq!(
            SimInstant::from_micros(1_000_000).to_string(),
            "t+1.000000s"
        );
    }
}

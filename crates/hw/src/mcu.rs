//! The PIC 18F452 microcontroller: cycle budget, memory map, watchdog.
//!
//! The paper (Section 4) specifies the exact part: "a Microchip PIC
//! 18F452 8 bit microcontroller with 32 kbytes of flash memory and 1.5
//! kbytes RAM", programmed in C. Those numbers are *constraints* on the
//! firmware: a 5-tap median filter is fine, a 1 k-sample FFT is not.
//!
//! Rather than emulating instructions, the model makes the constraints
//! checkable:
//!
//! * [`Mcu::charge`] — firmware tasks report the cycles they consume; the
//!   MCU tracks utilization so a task set that would overrun the real
//!   chip fails tests here,
//! * [`MemoryMap`] — firmware registers its RAM buffers; exceeding the
//!   1536 bytes of the 18F452 is an error,
//! * [`Watchdog`] — must be fed periodically or the board resets,
//!   exactly like the hardware WDT.

use crate::clock::{SimDuration, SimInstant};
use crate::HwError;

/// Instruction clock of the Smart-Its PIC (4 MHz crystal, Fosc/4 = 1 MIPS).
pub const INSTRUCTION_HZ: u64 = 1_000_000;

/// Flash size of the PIC 18F452 in bytes.
pub const FLASH_BYTES: usize = 32 * 1024;

/// RAM size of the PIC 18F452 in bytes ("1,5 kbytes RAM").
pub const RAM_BYTES: usize = 1536;

/// A named RAM allocation registered by the firmware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RamRegion {
    /// What the buffer is for (e.g. "median window", "frame buffer").
    pub name: String,
    /// Size in bytes.
    pub bytes: usize,
}

/// Static memory accounting for the firmware image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryMap {
    regions: Vec<RamRegion>,
}

impl MemoryMap {
    /// An empty memory map.
    pub fn new() -> Self {
        MemoryMap::default()
    }

    /// Registers a buffer; returns `false` (and does not register) if it
    /// would exceed the chip's RAM.
    pub fn reserve(&mut self, name: &str, bytes: usize) -> bool {
        if self.used() + bytes > RAM_BYTES {
            return false;
        }
        self.regions.push(RamRegion {
            name: name.to_string(),
            bytes,
        });
        true
    }

    /// Total bytes reserved.
    pub fn used(&self) -> usize {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Bytes still free.
    pub fn free(&self) -> usize {
        RAM_BYTES - self.used()
    }

    /// The registered regions in registration order.
    pub fn regions(&self) -> &[RamRegion] {
        &self.regions
    }
}

/// The hardware watchdog timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watchdog {
    timeout: SimDuration,
    last_fed: SimInstant,
    resets: u64,
}

impl Watchdog {
    /// A watchdog with the given timeout, initially fed at boot.
    pub fn new(timeout: SimDuration) -> Self {
        Watchdog {
            timeout,
            last_fed: SimInstant::BOOT,
            resets: 0,
        }
    }

    /// Feeds (clears) the watchdog.
    pub fn feed(&mut self, now: SimInstant) {
        self.last_fed = now;
    }

    /// Checks the timer at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::WatchdogReset`] if the watchdog has not been fed
    /// within its timeout; the reset is also counted, and the timer
    /// restarts as a reset chip's would.
    pub fn check(&mut self, now: SimInstant) -> Result<(), HwError> {
        if now.saturating_since(self.last_fed) > self.timeout {
            self.resets += 1;
            self.last_fed = now;
            return Err(HwError::WatchdogReset);
        }
        Ok(())
    }

    /// Number of watchdog resets since boot.
    pub fn reset_count(&self) -> u64 {
        self.resets
    }
}

/// A periodic firmware task for schedulability accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// What the task does (e.g. "sample distance", "redraw display").
    pub name: String,
    /// Invocation period in microseconds.
    pub period_us: u64,
    /// Worst-case cycles per invocation.
    pub wcet_cycles: u64,
}

impl Task {
    /// The task's CPU utilization fraction at 1 MIPS.
    pub fn utilization(&self) -> f64 {
        (self.wcet_cycles as f64 / INSTRUCTION_HZ as f64) / (self.period_us as f64 / 1e6)
    }
}

/// A registered set of periodic tasks with classic rate-monotonic
/// schedulability analysis — the design check an embedded engineer runs
/// before committing a task layout to a 1-MIPS part.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// An empty task set.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Registers a task.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn register(&mut self, name: &str, period_us: u64, wcet_cycles: u64) {
        assert!(period_us > 0, "task period must be positive");
        self.tasks.push(Task {
            name: name.to_string(),
            period_us,
            wcet_cycles,
        });
    }

    /// The registered tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Total CPU utilization of the set.
    pub fn total_utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// The Liu & Layland rate-monotonic bound for `n` tasks:
    /// `n(2^(1/n) − 1)`. Utilization at or below it guarantees
    /// schedulability under fixed-priority RM scheduling.
    pub fn rm_bound(&self) -> f64 {
        let n = self.tasks.len();
        if n == 0 {
            return 1.0;
        }
        let nf = n as f64;
        nf * (2f64.powf(1.0 / nf) - 1.0)
    }

    /// `true` when the set provably fits the chip: either under the RM
    /// bound, or passing exact response-time analysis.
    pub fn is_schedulable(&self) -> bool {
        let u = self.total_utilization();
        if u > 1.0 {
            return false;
        }
        if u <= self.rm_bound() {
            return true;
        }
        self.response_time_analysis()
    }

    /// Exact response-time analysis for fixed RM priorities (shorter
    /// period = higher priority): each task's worst-case response time
    /// must not exceed its period.
    fn response_time_analysis(&self) -> bool {
        let mut by_priority: Vec<&Task> = self.tasks.iter().collect();
        by_priority.sort_by_key(|t| t.period_us);
        let wcet_us = |t: &Task| t.wcet_cycles as f64 / INSTRUCTION_HZ as f64 * 1e6;
        for (i, task) in by_priority.iter().enumerate() {
            let c = wcet_us(task);
            let mut r = c;
            for _ in 0..1000 {
                let interference: f64 = by_priority[..i]
                    .iter()
                    .map(|hp| (r / hp.period_us as f64).ceil() * wcet_us(hp))
                    .sum();
                let next = c + interference;
                if (next - r).abs() < 1e-9 {
                    break;
                }
                r = next;
                if r > task.period_us as f64 {
                    return false;
                }
            }
            if r > task.period_us as f64 {
                return false;
            }
        }
        true
    }
}

/// The microcontroller: cycle accounting plus watchdog plus memory map.
#[derive(Debug, Clone, PartialEq)]
pub struct Mcu {
    cycles_charged: u64,
    booted_at: SimInstant,
    /// The watchdog timer; public because firmware feeds it directly.
    pub watchdog: Watchdog,
    /// The static RAM map; public because firmware reserves into it.
    pub memory: MemoryMap,
}

impl Mcu {
    /// A freshly-booted MCU with an 18 ms-class watchdog scaled up to a
    /// firmware-friendly 250 ms (the 18F452's postscaled WDT range).
    pub fn new(booted_at: SimInstant) -> Self {
        Mcu {
            cycles_charged: 0,
            booted_at,
            watchdog: Watchdog::new(SimDuration::from_millis(250)),
            memory: MemoryMap::new(),
        }
    }

    /// Charges `cycles` instruction cycles of work to the budget.
    pub fn charge(&mut self, cycles: u64) {
        self.cycles_charged += cycles;
    }

    /// Total cycles charged since boot.
    pub fn cycles_charged(&self) -> u64 {
        self.cycles_charged
    }

    /// Fraction of the instruction budget consumed between boot and `now`;
    /// greater than 1.0 means the firmware cannot keep up on real silicon.
    pub fn utilization(&self, now: SimInstant) -> f64 {
        let elapsed = now.saturating_since(self.booted_at).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.cycles_charged as f64 / (elapsed * INSTRUCTION_HZ as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> SimInstant {
        SimInstant::from_micros(ms * 1000)
    }

    #[test]
    fn memory_map_enforces_ram_limit() {
        let mut m = MemoryMap::new();
        assert!(m.reserve("median window", 10));
        assert!(m.reserve("frame buffer", 1024));
        assert_eq!(m.used(), 1034);
        assert_eq!(m.free(), RAM_BYTES - 1034);
        assert!(!m.reserve("too big", 600), "would exceed 1536 bytes");
        assert_eq!(m.regions().len(), 2);
    }

    #[test]
    fn watchdog_fires_only_when_starved() {
        let mut wd = Watchdog::new(SimDuration::from_millis(250));
        assert!(wd.check(at_ms(200)).is_ok());
        wd.feed(at_ms(200));
        assert!(wd.check(at_ms(400)).is_ok());
        assert_eq!(wd.check(at_ms(500)), Err(HwError::WatchdogReset));
        assert_eq!(wd.reset_count(), 1);
        // After the reset the timer restarted.
        assert!(wd.check(at_ms(600)).is_ok());
    }

    #[test]
    fn utilization_reflects_charged_cycles() {
        let mut mcu = Mcu::new(SimInstant::BOOT);
        // 100k cycles in 1 second at 1 MIPS: 10 % load.
        mcu.charge(100_000);
        let u = mcu.utilization(at_ms(1000));
        assert!((u - 0.1).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_at_boot_is_zero() {
        let mcu = Mcu::new(SimInstant::BOOT);
        assert_eq!(mcu.utilization(SimInstant::BOOT), 0.0);
    }

    #[test]
    fn overload_is_visible() {
        let mut mcu = Mcu::new(SimInstant::BOOT);
        mcu.charge(2_000_000);
        assert!(mcu.utilization(at_ms(1000)) > 1.0);
    }

    #[test]
    fn empty_task_set_is_trivially_schedulable() {
        let ts = TaskSet::new();
        assert!(ts.is_schedulable());
        assert_eq!(ts.total_utilization(), 0.0);
    }

    #[test]
    fn light_task_set_passes_the_rm_bound() {
        let mut ts = TaskSet::new();
        ts.register("sample distance", 10_000, 420);
        ts.register("redraw display", 100_000, 9_000);
        ts.register("telemetry", 100_000, 1_000);
        assert!(
            ts.total_utilization() < 0.2,
            "u = {}",
            ts.total_utilization()
        );
        assert!(ts.is_schedulable());
    }

    #[test]
    fn overloaded_set_is_rejected() {
        let mut ts = TaskSet::new();
        ts.register("impossible", 1_000, 2_000); // 2 ms of work per 1 ms
        assert!(ts.total_utilization() > 1.0);
        assert!(!ts.is_schedulable());
    }

    #[test]
    fn rm_bound_matches_liu_layland() {
        let mut ts = TaskSet::new();
        ts.register("a", 10_000, 1);
        assert!((ts.rm_bound() - 1.0).abs() < 1e-12, "one task: bound 1.0");
        ts.register("b", 20_000, 1);
        assert!((ts.rm_bound() - 0.8284).abs() < 1e-3, "two tasks: ~0.83");
    }

    #[test]
    fn response_time_analysis_accepts_above_bound_but_feasible_sets() {
        // Harmonic periods are schedulable up to u = 1.0 even though the
        // RM bound is lower.
        let mut ts = TaskSet::new();
        ts.register("a", 10_000, 4_000);
        ts.register("b", 20_000, 8_000);
        ts.register("c", 40_000, 7_900);
        let u = ts.total_utilization();
        assert!(u > ts.rm_bound(), "u = {u} above the bound");
        assert!(u < 1.0);
        assert!(ts.is_schedulable(), "harmonic sets schedule to 100 %");
    }

    #[test]
    fn chip_constants_match_paper() {
        assert_eq!(FLASH_BYTES, 32 * 1024);
        assert_eq!(RAM_BYTES, 1536);
    }
}

//! A byte-level I2C bus model.
//!
//! The two Barton BT96040 displays of the prototype "are connected to the
//! Smart-Its via the I2C-bus" (paper, Section 4.4). The model is a
//! single-master bus: the MCU issues write and read transactions to 7-bit
//! addresses; devices on the bus either acknowledge and handle the bytes
//! or the transaction fails with [`HwError::I2cNoAck`].
//!
//! Transfer *time* is modelled from the configured bus clock so the MCU
//! task budget accounts for display traffic — redrawing both displays over
//! a 100 kHz bus is the slowest thing the firmware does, and pacing it
//! correctly matters for the interaction loop's latency.

use crate::clock::SimDuration;
use crate::HwError;

/// A slave device that can be attached to an [`I2cBus`].
pub trait I2cDevice {
    /// The device's 7-bit address.
    fn address(&self) -> u8;

    /// The device as [`Any`](std::any::Any), so callers holding the bus can
    /// downcast to the concrete device type (e.g. to read a display's
    /// framebuffer in a test).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable counterpart of [`as_any`](I2cDevice::as_any).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Handles a master-to-slave write of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::I2cProtocol`] if the payload is not a valid
    /// command sequence for this device.
    fn write(&mut self, bytes: &[u8]) -> Result<(), HwError>;

    /// Handles a slave-to-master read filling `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::I2cProtocol`] if the device has nothing to say
    /// or the read is malformed.
    fn read(&mut self, buf: &mut [u8]) -> Result<(), HwError>;
}

/// Counters describing bus traffic since boot; useful in tests and for the
/// MCU cycle budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct I2cStats {
    /// Completed write transactions.
    pub writes: u64,
    /// Completed read transactions.
    pub reads: u64,
    /// Total payload bytes moved in either direction.
    pub bytes: u64,
    /// Transactions that found no device (NAK on address).
    pub nacks: u64,
}

/// A single-master I2C bus holding boxed slave devices.
pub struct I2cBus {
    devices: Vec<Box<dyn I2cDevice>>,
    clock_hz: u32,
    stats: I2cStats,
}

impl std::fmt::Debug for I2cBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("I2cBus")
            .field(
                "devices",
                &self.devices.iter().map(|d| d.address()).collect::<Vec<_>>(),
            )
            .field("clock_hz", &self.clock_hz)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Standard-mode bus clock used on the Smart-Its board.
pub const STANDARD_MODE_HZ: u32 = 100_000;

impl I2cBus {
    /// An empty bus at standard-mode 100 kHz.
    pub fn new() -> Self {
        I2cBus::with_clock(STANDARD_MODE_HZ)
    }

    /// An empty bus with an explicit clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is zero.
    pub fn with_clock(clock_hz: u32) -> Self {
        assert!(clock_hz > 0, "bus clock must be non-zero");
        I2cBus {
            devices: Vec::new(),
            clock_hz,
            stats: I2cStats::default(),
        }
    }

    /// Attaches a device.
    ///
    /// # Panics
    ///
    /// Panics if another device already claims the same address — that is
    /// a wiring error, not a runtime condition.
    pub fn attach(&mut self, device: Box<dyn I2cDevice>) {
        let addr = device.address();
        assert!(
            self.devices.iter().all(|d| d.address() != addr),
            "i2c address {addr:#04x} already attached"
        );
        self.devices.push(device);
    }

    /// The addresses currently acknowledged on the bus, sorted.
    pub fn scan(&self) -> Vec<u8> {
        let mut addrs: Vec<u8> = self.devices.iter().map(|d| d.address()).collect();
        addrs.sort_unstable();
        addrs
    }

    /// Traffic counters since boot.
    pub fn stats(&self) -> I2cStats {
        self.stats
    }

    /// Wire time for moving `payload_len` bytes in one transaction:
    /// start + address byte + payload bytes, 9 clocks per byte (8 data +
    /// ACK), plus stop.
    pub fn transfer_time(&self, payload_len: usize) -> SimDuration {
        let bits = 2 + 9 * (1 + payload_len as u64);
        SimDuration::from_micros(bits * 1_000_000 / u64::from(self.clock_hz))
    }

    /// Master write transaction.
    ///
    /// # Errors
    ///
    /// [`HwError::I2cNoAck`] if no device answers `address`, or the
    /// device's own protocol error.
    pub fn write(&mut self, address: u8, bytes: &[u8]) -> Result<SimDuration, HwError> {
        let stats = &mut self.stats;
        match self.devices.iter_mut().find(|d| d.address() == address) {
            Some(dev) => {
                dev.write(bytes)?;
                stats.writes += 1;
                stats.bytes += bytes.len() as u64;
                Ok(time_for(self.clock_hz, bytes.len()))
            }
            None => {
                stats.nacks += 1;
                Err(HwError::I2cNoAck { address })
            }
        }
    }

    /// Master read transaction filling `buf`.
    ///
    /// # Errors
    ///
    /// [`HwError::I2cNoAck`] if no device answers `address`, or the
    /// device's own protocol error.
    pub fn read(&mut self, address: u8, buf: &mut [u8]) -> Result<SimDuration, HwError> {
        let stats = &mut self.stats;
        match self.devices.iter_mut().find(|d| d.address() == address) {
            Some(dev) => {
                dev.read(buf)?;
                stats.reads += 1;
                stats.bytes += buf.len() as u64;
                Ok(time_for(self.clock_hz, buf.len()))
            }
            None => {
                stats.nacks += 1;
                Err(HwError::I2cNoAck { address })
            }
        }
    }

    /// Borrows an attached device for inspection (e.g. reading a display's
    /// framebuffer in a test or example).
    pub fn device(&self, address: u8) -> Option<&dyn I2cDevice> {
        self.devices
            .iter()
            .find(|d| d.address() == address)
            .map(|b| b.as_ref())
    }
}

impl Default for I2cBus {
    fn default() -> Self {
        I2cBus::new()
    }
}

fn time_for(clock_hz: u32, payload_len: usize) -> SimDuration {
    let bits = 2 + 9 * (1 + payload_len as u64);
    SimDuration::from_micros(bits * 1_000_000 / u64::from(clock_hz))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback device that stores writes and plays them back on read.
    #[derive(Debug, Default)]
    struct Echo {
        addr: u8,
        buf: Vec<u8>,
    }

    impl I2cDevice for Echo {
        fn address(&self) -> u8 {
            self.addr
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
        fn write(&mut self, bytes: &[u8]) -> Result<(), HwError> {
            if bytes.is_empty() {
                return Err(HwError::I2cProtocol {
                    address: self.addr,
                    reason: "empty write",
                });
            }
            self.buf = bytes.to_vec();
            Ok(())
        }
        fn read(&mut self, buf: &mut [u8]) -> Result<(), HwError> {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.buf.get(i).copied().unwrap_or(0);
            }
            Ok(())
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut bus = I2cBus::new();
        bus.attach(Box::new(Echo {
            addr: 0x3c,
            ..Echo::default()
        }));
        bus.write(0x3c, &[1, 2, 3]).unwrap();
        let mut out = [0u8; 3];
        bus.read(0x3c, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        let stats = bus.stats();
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.reads, 1);
        assert_eq!(stats.bytes, 6);
    }

    #[test]
    fn missing_address_nacks() {
        let mut bus = I2cBus::new();
        let err = bus.write(0x50, &[0]).unwrap_err();
        assert_eq!(err, HwError::I2cNoAck { address: 0x50 });
        assert_eq!(bus.stats().nacks, 1);
    }

    #[test]
    fn device_protocol_errors_propagate() {
        let mut bus = I2cBus::new();
        bus.attach(Box::new(Echo {
            addr: 0x10,
            ..Echo::default()
        }));
        let err = bus.write(0x10, &[]).unwrap_err();
        assert!(matches!(err, HwError::I2cProtocol { address: 0x10, .. }));
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn duplicate_address_is_a_wiring_error() {
        let mut bus = I2cBus::new();
        bus.attach(Box::new(Echo {
            addr: 0x3c,
            ..Echo::default()
        }));
        bus.attach(Box::new(Echo {
            addr: 0x3c,
            ..Echo::default()
        }));
    }

    #[test]
    fn scan_lists_sorted_addresses() {
        let mut bus = I2cBus::new();
        bus.attach(Box::new(Echo {
            addr: 0x3d,
            ..Echo::default()
        }));
        bus.attach(Box::new(Echo {
            addr: 0x3c,
            ..Echo::default()
        }));
        assert_eq!(bus.scan(), vec![0x3c, 0x3d]);
    }

    #[test]
    fn transfer_time_scales_with_payload() {
        let bus = I2cBus::with_clock(100_000);
        let t1 = bus.transfer_time(1);
        let t100 = bus.transfer_time(100);
        assert!(t100 > t1 * 40);
        // 100 kHz, 1 payload byte: 2 + 9*2 = 20 bits = 200 us.
        assert_eq!(t1.as_micros(), 200);
    }

    #[test]
    fn device_accessors_find_by_address() {
        let mut bus = I2cBus::new();
        bus.attach(Box::new(Echo {
            addr: 0x22,
            ..Echo::default()
        }));
        assert!(bus.device(0x22).is_some());
        assert!(bus.device(0x23).is_none());
    }
}

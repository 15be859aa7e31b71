//! The device tick is one firmware tick followed by one board step of
//! the tick period, and `run_for_ms` is that tick in a loop. These tests
//! hold the loop to its parts: the panels' O(1) ink caches against a
//! full recount under real firmware traffic, `run_for_ms` against the
//! same number of single ticks, and a golden record of a long run.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::TimedEvent;
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use distscroll_hw::board::Telemetry;
use distscroll_hw::display::DisplayRole;

fn device(profile: DeviceProfile, seed: u64) -> DistScrollDevice {
    let mut dev = DistScrollDevice::new(profile, Menu::flat(12), seed);
    dev.set_distance(18.0);
    dev
}

/// Everything the device has pending: its events and the telemetry
/// frames that reached the host.
fn drained(dev: &mut DistScrollDevice) -> (Vec<TimedEvent>, Vec<Telemetry>) {
    let (mut events, mut frames) = (Vec::new(), Vec::new());
    dev.poll_events(&mut |e: &TimedEvent| events.push(e.clone()));
    dev.poll_telemetry(&mut |t: &Telemetry| frames.push(t.clone()));
    (events, frames)
}

/// One tick, then both panels' cached ink totals checked against a scan
/// of their text buffers through the font table.
fn tick_checked(dev: &mut DistScrollDevice) {
    dev.tick().expect("fresh battery");
    for role in [DisplayRole::Upper, DisplayRole::Lower] {
        let panel = dev.board().display(role);
        assert_eq!(
            panel.lit_pixels(),
            panel.recount_lit_pixels(),
            "{role:?} ink cache diverged from the recount at {:?}",
            dev.now()
        );
    }
}

#[test]
fn paper_profile_ink_cache_matches_the_recount_every_tick() {
    let mut dev = device(DeviceProfile::paper(), 20050607);
    // (distance in cm, select click?, back click?) per phase: a sweep
    // across islands and gaps with a few menu interactions thrown in.
    let script = [
        (18.0, false, false),
        (9.5, true, false),
        (27.0, false, false),
        (41.0, false, true),
        (6.0, true, false),
        (33.3, false, false),
    ];
    for (cm, select, back) in script {
        dev.set_distance(cm);
        if select {
            dev.press_select();
        }
        if back {
            dev.press_back();
        }
        for _ in 0..400 {
            tick_checked(&mut dev);
        }
        if select {
            dev.release_select();
        }
        if back {
            dev.release_back();
        }
    }
    let (events, frames) = drained(&mut dev);
    assert!(!events.is_empty(), "the script must produce events");
    assert!(!frames.is_empty(), "the script must produce telemetry");
}

#[test]
fn standby_profile_ink_cache_matches_the_recount_every_tick() {
    let profile = DeviceProfile {
        orientation_standby: true,
        ..DeviceProfile::paper()
    };
    // Long enough phases that the device falls asleep and wakes again,
    // powering both panels down and back up.
    let mut dev = device(profile, 7);
    dev.set_resting(true);
    let mut slept = false;
    for _ in 0..600 {
        tick_checked(&mut dev);
        slept |= dev.firmware().is_standby();
    }
    assert!(slept, "a resting device must go to standby");
    dev.set_resting(false);
    for _ in 0..400 {
        tick_checked(&mut dev);
    }
    assert!(!dev.firmware().is_standby(), "a held device must wake");
}

/// 200 simulated seconds through `run_for_ms` against the same number of
/// single ticks: every externally visible surface agrees bit for bit.
#[test]
fn run_for_ms_equals_the_same_number_of_ticks_over_a_long_span() {
    let profile = DeviceProfile::paper();
    let ticks: u64 = 20_000;
    let mut by_ms = device(profile.clone(), 20050607);
    let mut by_tick = device(profile.clone(), 20050607);
    by_ms
        .run_for_ms(ticks * profile.tick_ms)
        .expect("fresh battery");
    for _ in 0..ticks {
        by_tick.tick().expect("fresh battery");
    }
    assert_eq!(by_ms.now(), by_tick.now());
    assert_eq!(by_ms.upper_display_art(), by_tick.upper_display_art());
    assert_eq!(by_ms.lower_display_art(), by_tick.lower_display_art());
    assert_eq!(
        by_ms.board().battery_soc().to_bits(),
        by_tick.board().battery_soc().to_bits(),
        "battery SOC diverged between run_for_ms and single ticks"
    );
    let (events_ms, frames_ms) = drained(&mut by_ms);
    let (events_tick, frames_tick) = drained(&mut by_tick);
    assert_eq!(events_ms, events_tick, "event logs diverged");
    assert!(!frames_ms.is_empty(), "a 200 s run must produce telemetry");
    assert_eq!(frames_ms, frames_tick, "telemetry frames diverged");
}

/// 64-bit FNV-1a: a fixed, dependency-free hash, so the golden value
/// below cannot move with the standard library's hasher.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A golden record of 20,000 ticks at 18 cm: the clock, the battery
/// bits, the event count and a hash of every telemetry byte. Any change
/// to what a tick computes, or to the order it draws random numbers in,
/// moves at least one of these.
#[test]
fn twenty_thousand_ticks_match_the_golden_record() {
    let mut dev = device(DeviceProfile::paper(), 20050607);
    for _ in 0..20_000 {
        dev.tick().expect("fresh battery");
    }
    let (events, frames) = drained(&mut dev);
    let hash = frames
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, t| fnv1a(h, &t.bytes));
    assert_eq!(dev.now().as_micros(), 200_000_000);
    assert_eq!(dev.board().battery_soc().to_bits(), 0x3fef_dee9_5546_c8ec);
    assert_eq!(events.len(), 3);
    assert_eq!(frames.len(), 2003);
    assert_eq!(hash, 0x6913_efba_6b8c_5f19);
}

//! The jump-to-deadline event core must be invisible in the outputs:
//! a device driven through the scheduler (`tick` / `run_for_ms`) and an
//! identical twin driven through the legacy-cost compatibility path
//! (`tick_compat`, which recounts the display load from the panel RAM
//! every step) must agree byte for byte — display art, battery state,
//! telemetry frames, event logs and the simulated clock.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::TimedEvent;
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use distscroll_hw::board::Telemetry;

fn twin(profile: DeviceProfile, seed: u64) -> DistScrollDevice {
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

/// Drives both devices through the same input script, one tick at a
/// time, comparing every externally visible surface after each phase.
fn assert_lockstep(profile: DeviceProfile, seed: u64, ticks_per_phase: u64) {
    let mut event = twin(profile.clone(), seed);
    let mut compat = twin(profile, seed);

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
    for (phase, (cm, select, back)) in script.into_iter().enumerate() {
        event.set_distance(cm);
        compat.set_distance(cm);
        if select {
            event.press_select();
            compat.press_select();
        }
        if back {
            event.press_back();
            compat.press_back();
        }
        for _ in 0..ticks_per_phase {
            event.tick().expect("fresh battery");
            compat.tick_compat().expect("fresh battery");
        }
        if select {
            event.release_select();
            compat.release_select();
        }
        if back {
            event.release_back();
            compat.release_back();
        }

        assert_eq!(event.now(), compat.now(), "clock diverged in phase {phase}");
        assert_eq!(
            event.upper_display_art(),
            compat.upper_display_art(),
            "upper panel diverged in phase {phase}"
        );
        assert_eq!(
            event.lower_display_art(),
            compat.lower_display_art(),
            "lower panel diverged in phase {phase}"
        );
        assert_eq!(
            event.board().battery_soc().to_bits(),
            compat.board().battery_soc().to_bits(),
            "battery SOC diverged in phase {phase}"
        );
        assert_eq!(
            event.highlighted(),
            compat.highlighted(),
            "menu highlight diverged in phase {phase}"
        );
    }

    let (a, ta) = drained(&mut event);
    let (b, tb) = drained(&mut compat);
    assert_eq!(a, b, "event logs diverged");
    assert!(!ta.is_empty(), "the script must produce telemetry");
    assert_eq!(ta, tb, "telemetry frames diverged");
}

#[test]
fn paper_profile_event_core_matches_tick_compat() {
    assert_lockstep(DeviceProfile::paper(), 20050607, 400);
}

#[test]
fn standby_profile_event_core_matches_tick_compat() {
    let profile = DeviceProfile {
        orientation_standby: true,
        ..DeviceProfile::paper()
    };
    // Long enough phases that the twins fall asleep and wake again,
    // crossing the standby deadline-resync path in both drivers.
    let mut event = twin(profile.clone(), 7);
    let mut compat = twin(profile, 7);
    event.set_resting(true);
    compat.set_resting(true);
    for _ in 0..600 {
        event.tick().expect("fresh battery");
        compat.tick_compat().expect("fresh battery");
    }
    event.set_resting(false);
    compat.set_resting(false);
    for _ in 0..400 {
        event.tick().expect("fresh battery");
        compat.tick_compat().expect("fresh battery");
    }
    assert_eq!(event.now(), compat.now());
    assert_eq!(event.lower_display_art(), compat.lower_display_art());
    assert_eq!(
        event.board().battery_soc().to_bits(),
        compat.board().battery_soc().to_bits()
    );
    assert_eq!(drained(&mut event), drained(&mut compat));
}

#[test]
fn run_for_ms_covers_exactly_the_requested_span() {
    let mut by_ms = twin(DeviceProfile::paper(), 11);
    let mut by_tick = twin(DeviceProfile::paper(), 11);
    by_ms.run_for_ms(2_000).expect("fresh battery");
    for _ in 0..200 {
        // paper profile ticks every 10 ms
        by_tick.tick().expect("fresh battery");
    }
    assert_eq!(by_ms.now(), by_tick.now());
    assert_eq!(by_ms.lower_display_art(), by_tick.lower_display_art());
    assert_eq!(drained(&mut by_ms).1, drained(&mut by_tick).1);
}

/// A long uninterrupted run: `run_for_ms` jumps from deadline to
/// deadline over 200 simulated seconds while its twin pays the
/// per-tick recount on every step. The battery must still agree bit
/// for bit, so the event core's saving is never bought with drift.
#[test]
fn run_for_ms_matches_tick_compat_over_a_long_span() {
    let profile = DeviceProfile::paper();
    let ticks: u64 = 20_000;
    let mut by_ms = twin(profile.clone(), 20050607);
    let mut compat = twin(profile.clone(), 20050607);
    by_ms
        .run_for_ms(ticks * profile.tick_ms)
        .expect("fresh battery");
    for _ in 0..ticks {
        compat.tick_compat().expect("fresh battery");
    }
    assert_eq!(by_ms.now(), compat.now());
    assert_eq!(by_ms.upper_display_art(), compat.upper_display_art());
    assert_eq!(by_ms.lower_display_art(), compat.lower_display_art());
    assert_eq!(
        by_ms.board().battery_soc().to_bits(),
        compat.board().battery_soc().to_bits(),
        "battery SOC diverged between run_for_ms and tick_compat"
    );
    let (_, ta) = drained(&mut by_ms);
    let (_, tb) = drained(&mut compat);
    assert!(!ta.is_empty(), "a 200 s run must produce telemetry");
    assert_eq!(ta, tb, "telemetry frames diverged");
}

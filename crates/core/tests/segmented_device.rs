//! End-to-end coverage of the segmented recognizer inside a full
//! device: the profile knob selects it, navigation works through it,
//! and the closed loop stays deterministic.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::TimedEvent;
use distscroll_core::menu::Menu;
use distscroll_core::profile::{DeviceProfile, RecognizerKind};
use distscroll_recognizer::AnyRecognizer;

fn segmented_profile() -> DeviceProfile {
    let mut p = DeviceProfile::paper();
    p.recognizer = RecognizerKind::Segmented;
    p
}

fn settle(dev: &mut DistScrollDevice, ticks: u64) {
    for _ in 0..ticks {
        dev.tick().expect("healthy device");
    }
}

#[test]
fn profile_knob_selects_the_segmented_recognizer() {
    let mut dev = DistScrollDevice::new(segmented_profile(), Menu::flat(8), 7);
    settle(&mut dev, 5);
    assert!(
        matches!(dev.firmware().recognizer(), AnyRecognizer::Segmented(_)),
        "profile.recognizer = Segmented must build the state machine"
    );
    let mut classic = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(8), 7);
    settle(&mut classic, 5);
    assert!(
        matches!(classic.firmware().recognizer(), AnyRecognizer::Classic(_)),
        "the default profile keeps the legacy chain"
    );
}

#[test]
fn segmented_device_navigates_to_each_island() {
    let mut dev = DistScrollDevice::new(segmented_profile(), Menu::flat(8), 42);
    for idx in [0usize, 3, 7, 2] {
        let cm = dev.island_center_cm(idx).expect("island exists");
        dev.set_distance(cm);
        settle(&mut dev, 80);
        assert_eq!(
            dev.highlighted(),
            idx,
            "holding the island-{idx} center at {cm:.1} cm must land there"
        );
    }
}

#[test]
fn segmented_device_selects_entries() {
    let mut dev = DistScrollDevice::new(segmented_profile(), Menu::flat(8), 11);
    let cm = dev.island_center_cm(5).expect("island exists");
    dev.set_distance(cm);
    settle(&mut dev, 80);
    assert_eq!(dev.highlighted(), 5, "settled on island 5 before the click");
    dev.click_select().expect("healthy device");
    settle(&mut dev, 5);
    let mut events: Vec<TimedEvent> = Vec::new();
    dev.poll_events(&mut |e: &TimedEvent| events.push(e.clone()));
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, distscroll_core::events::Event::Activated { .. })),
        "selecting on island 5 must activate the highlighted leaf: {events:?}"
    );
}

#[test]
fn segmented_closed_loop_is_deterministic() {
    let run = || {
        let mut dev = DistScrollDevice::new(segmented_profile(), Menu::flat(12), 99);
        let mut trace = Vec::new();
        let mut events: Vec<TimedEvent> = Vec::new();
        for step in 0..6u64 {
            // A scripted sweep across the band with a fold-back dip.
            let cm = match step {
                0 => 18.0,
                1 => 9.0,
                2 => 3.0, // below the near edge: fold-back territory
                3 => 9.0,
                4 => 26.0,
                _ => 13.0,
            };
            dev.set_distance(cm);
            for _ in 0..40 {
                dev.tick().expect("healthy device");
                trace.push(dev.highlighted());
            }
        }
        dev.poll_events(&mut |e: &TimedEvent| events.push(e.clone()));
        (trace, events)
    };
    assert_eq!(run(), run(), "same seed, same script, same record");
}

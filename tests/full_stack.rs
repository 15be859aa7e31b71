//! End-to-end integration: synthetic user ⇄ firmware ⇄ sensor ⇄ board.
//!
//! These tests cross every crate boundary in the workspace: the user
//! model (distscroll-user) drives the device handle (distscroll-core),
//! which samples the GP2D120 model (distscroll-sensors) through the
//! simulated board (distscroll-hw), and the baselines trait
//! (distscroll-baselines) wraps the whole loop.

use distscroll::baselines::distscroll::DistScrollTechnique;
use distscroll::baselines::{ScrollTechnique, TrialSetup};
use distscroll::core::device::DistScrollDevice;
use distscroll::core::events::{Event, TimedEvent};
use distscroll::core::phone_menu::{phone_menu, RINGING_TONE_PATH};
use distscroll::core::profile::DeviceProfile;
use distscroll::hw::board::Telemetry;
use distscroll::user::population::UserParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn deep_navigation_to_a_leaf_through_the_whole_stack() {
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 11);
    // Walk Settings -> Tone settings -> Ringing tone by holding each
    // island and clicking, as a careful user would.
    for &idx in &RINGING_TONE_PATH {
        let cm = dev
            .island_center_cm(idx)
            .expect("index exists at this level");
        dev.set_distance(cm);
        dev.run_for_ms(500).expect("battery is fresh");
        assert_eq!(dev.highlighted(), idx, "highlight settles on the island");
        dev.click_select().expect("battery is fresh");
    }
    let mut activated: Option<Vec<String>> = None;
    dev.poll_events(&mut |e: &TimedEvent| {
        if let Event::Activated { path } = &e.event {
            activated.get_or_insert_with(|| path.clone());
        }
    });
    let activated = activated.expect("the leaf was activated");
    assert_eq!(activated, vec!["Settings", "Tone settings", "Ringing tone"]);
}

#[test]
fn synthetic_user_selects_correctly_through_the_trait() {
    let mut tech = DistScrollTechnique::paper();
    let mut rng = StdRng::seed_from_u64(77);
    let mut correct = 0;
    for k in 0..10 {
        let setup = TrialSetup::new(8, k % 8, (k + 4) % 8, 50);
        let r = tech.run_trial(&UserParams::expert(), &setup, &mut rng);
        correct += u32::from(r.correct);
    }
    assert!(correct >= 8, "experts succeed end to end: {correct}/10");
}

#[test]
fn telemetry_stream_decodes_on_the_host_side() {
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 5);
    dev.set_distance(12.0);
    dev.run_for_ms(2_000).expect("battery is fresh");
    let mut frames = Vec::new();
    dev.poll_telemetry(&mut |t: &Telemetry| frames.push(t.clone()));
    assert!(
        frames.len() > 10,
        "telemetry flows: {} frames",
        frames.len()
    );
    let mut dec = distscroll::hw::link::FrameDecoder::new();
    let mut decoded = 0;
    for f in frames {
        for r in dec.push_all(&f.bytes) {
            let payload = r.expect("clean channel frames decode");
            assert!(payload[0] == b'T' || payload[0] == b'E', "record kind");
            match payload[0] {
                b'T' => assert_eq!(payload.len(), 8, "state record layout"),
                _ => assert_eq!(payload.len(), 5, "event record layout"),
            }
            decoded += 1;
        }
    }
    assert!(decoded > 10);
}

#[test]
fn displays_track_the_interaction() {
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 9);
    dev.set_distance(dev.island_center_cm(4).expect("settings index"));
    dev.run_for_ms(700).expect("battery is fresh");
    let upper = dev.upper_display_art();
    assert!(
        upper.contains(">Settings"),
        "upper display highlights Settings:\n{upper}"
    );
    let lower = dev.lower_display_art();
    assert!(
        lower.contains("adc"),
        "lower display shows debug state:\n{lower}"
    );
    assert!(lower.contains("lvl 0"));
}

#[test]
fn a_session_runs_for_minutes_without_draining_the_battery() {
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 2);
    dev.set_distance(15.0);
    dev.run_for_ms(120_000)
        .expect("two minutes on a fresh 9 V block");
    assert!(
        dev.board().battery_soc() > 0.95,
        "a study session barely dents the battery"
    );
    let util = dev.board().mcu.utilization(dev.now());
    assert!(
        util < 0.5,
        "firmware fits the pic through a long session: {util:.2}"
    );
}

#[test]
fn the_whole_stack_is_deterministic_per_seed() {
    let run = || {
        let mut tech = DistScrollTechnique::paper();
        let mut rng = StdRng::seed_from_u64(123);
        let setup = TrialSetup::new(10, 2, 8, 7);
        tech.run_trial(&UserParams::typical(), &setup, &mut rng)
    };
    assert_eq!(run(), run());
}

#[test]
fn flat_battery_ends_the_session_with_a_brownout_error() {
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 3);
    // Swap in a nearly-dead cell: the session must end with a brown-out
    // error (and an event) rather than silently wrong readings.
    dev.set_battery(distscroll::hw::power::Battery::with_capacity(0.05));
    dev.set_distance(15.0);
    let mut died = false;
    for _ in 0..60 {
        if dev.run_for_ms(10_000).is_err() {
            died = true;
            break;
        }
    }
    assert!(
        died,
        "a 0.05 mAh cell cannot power the board for 10 minutes"
    );
    // The tick fails before it steps the board: a dead device stays dead
    // and its clock stands still.
    let dead_at = dev.now();
    for _ in 0..3 {
        assert!(dev.tick().is_err(), "a browned-out device cannot tick");
        assert_eq!(dev.now(), dead_at, "no time passes on a fault");
    }
    let mut brownout_logged = false;
    dev.poll_events(&mut |e: &TimedEvent| {
        brownout_logged |= matches!(e.event, Event::BrownOut);
    });
    assert!(brownout_logged, "the firmware logs the brown-out");
}

//! Device → radio → host: the experimenter's instrumentation loop.
//!
//! Runs a real session on the simulated prototype, pipes the raw radio
//! bytes through the host-side stream decoder, and checks that the
//! reconstructed session matches what actually happened on the device.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use distscroll::core::device::DistScrollDevice;
use distscroll::core::menu::Menu;
use distscroll::core::phone_menu::phone_menu;
use distscroll::core::profile::DeviceProfile;
use distscroll::host::replay::Trajectory;
use distscroll::host::session::SessionLog;
use distscroll::host::telemetry::{EventKind, Record, StreamDecoder};
use distscroll::hw::board::Telemetry;
use distscroll::hw::link::RadioChannel;

/// Runs a short scripted session and returns the host's session log.
fn run_session(lossy: bool) -> (SessionLog, StreamDecoder) {
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), phone_menu(), 31);
    if lossy {
        dev.set_radio(RadioChannel::lossy(0.1, 0.0005));
    }
    let mut decoder = StreamDecoder::new();
    let mut log = SessionLog::new();

    let pump = |dev: &mut DistScrollDevice, decoder: &mut StreamDecoder, log: &mut SessionLog| {
        dev.poll_telemetry(&mut |t: &Telemetry| {
            log.ingest_all(decoder.push_bytes(&t.bytes));
        });
    };

    // Scroll to Settings (index 4), select, go back, scroll near.
    dev.set_distance(dev.island_center_cm(4).expect("settings exists"));
    dev.run_for_ms(600).expect("fresh battery");
    pump(&mut dev, &mut decoder, &mut log);
    dev.click_select().expect("fresh battery");
    dev.run_for_ms(300).expect("fresh battery");
    pump(&mut dev, &mut decoder, &mut log);
    dev.click_back().expect("fresh battery");
    dev.set_distance(8.0);
    dev.run_for_ms(600).expect("fresh battery");
    pump(&mut dev, &mut decoder, &mut log);
    (log, decoder)
}

#[test]
fn host_reconstructs_the_interaction_timeline() {
    let (log, decoder) = run_session(false);
    assert!(
        decoder.records_ok() > 20,
        "records flowed: {}",
        decoder.records_ok()
    );
    assert_eq!(decoder.crc_failures(), 0, "clean channel");

    // The submenu entry and the back step are visible host-side.
    let kinds: Vec<EventKind> = log
        .records()
        .iter()
        .filter_map(|r| match r.record {
            Record::Event(e) => Some(e.kind),
            _ => None,
        })
        .collect();
    assert!(
        kinds.contains(&EventKind::EnteredSubmenu),
        "kinds: {kinds:?}"
    );
    assert!(kinds.contains(&EventKind::WentBack), "kinds: {kinds:?}");
    assert!(kinds.contains(&EventKind::Highlight), "kinds: {kinds:?}");

    // Selections segment sensibly.
    let sels = log.selections();
    assert!(!sels.is_empty());
    assert!(sels[0].duration_s > 0.1 && sels[0].duration_s < 10.0);

    // CSV export carries every record.
    let csv = log.to_csv();
    assert_eq!(csv.lines().count(), log.records().len() + 1);
}

#[test]
fn host_reconstructs_the_hand_trajectory() {
    let (log, _) = run_session(false);
    let curve = distscroll::core::mapping::paper_curve();
    let traj = Trajectory::from_log(&log, &curve, 0.010);
    assert!(traj.samples.len() > 10);
    // The session moved from the Settings island (~13 cm) out to 8 cm;
    // the reconstructed trajectory must show the travel and end near.
    assert!(traj.travel_cm() > 4.0, "travel {:.1} cm", traj.travel_cm());
    let last = traj.samples.last().expect("samples exist").1;
    assert!(last < 10.0, "trajectory ends near the body: {last:.1} cm");
    let chart = traj.strip_chart(60, 10);
    assert!(chart.contains('*'));
}

#[test]
fn lossy_channel_degrades_but_does_not_corrupt_the_log() {
    let (log, decoder) = run_session(true);
    assert!(decoder.crc_failures() > 0 || decoder.records_ok() > 0);
    // Whatever arrived parses cleanly; the bad stuff is counted, not
    // silently mixed in.
    assert_eq!(
        decoder.records_bad(),
        0,
        "crc should catch corruption before parsing"
    );
    assert!(log.brownouts() == 0);
}

#[test]
fn long_sessions_unwrap_the_16_bit_stamp() {
    // 16-bit stamps at a 10 ms tick wrap after ~11 minutes; run a
    // 12-minute idle session and check monotonicity.
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(4), 8);
    dev.set_distance(15.0);
    let mut decoder = StreamDecoder::new();
    let mut log = SessionLog::new();
    for _ in 0..72 {
        dev.run_for_ms(10_000).expect("fresh battery");
        dev.poll_telemetry(&mut |t: &Telemetry| {
            log.ingest_all(decoder.push_bytes(&t.bytes));
        });
    }
    let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
    assert!(
        ticks.windows(2).all(|w| w[1] >= w[0]),
        "host ticks must be monotonic"
    );
    assert!(
        log.duration_s() > 700.0,
        "session spans {:.0} s",
        log.duration_s()
    );
}

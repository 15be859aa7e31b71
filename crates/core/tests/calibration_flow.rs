//! End-to-end per-unit calibration: a device built around an off-nominal
//! GP2D120 estimates distances with a bias until the jig calibration
//! runs; the stored record survives "power cycles" (it lives in EEPROM).

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use distscroll_core::device::DistScrollDevice;
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;

/// Mean absolute distance-estimate error over a few probe positions.
fn estimate_bias(dev: &mut DistScrollDevice) -> f64 {
    let probes = [8.0, 14.0, 20.0, 26.0];
    let mut total = 0.0;
    let mut n = 0;
    for &d in &probes {
        dev.set_distance(d);
        dev.run_for_ms(500).expect("fresh battery");
        if let Some(est) = dev.firmware().distance_estimate() {
            total += (est - d).abs();
            n += 1;
        }
    }
    assert!(n >= 3, "estimates must exist at most probes");
    total / f64::from(n)
}

/// A seed whose sampled unit is measurably off-nominal.
const UNIT_SEED: u64 = 17;

#[test]
fn calibration_removes_the_units_bias() {
    let mut dev =
        DistScrollDevice::new_with_unit_variation(DeviceProfile::paper(), Menu::flat(8), UNIT_SEED);
    let before = estimate_bias(&mut dev);
    dev.calibrate_on_jig(&[5.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0])
        .expect("jig fit succeeds");
    let after = estimate_bias(&mut dev);
    assert!(
        after < before,
        "calibration must reduce the unit's bias: {before:.2} cm -> {after:.2} cm"
    );
    assert!(
        after < 0.6,
        "calibrated estimates are sub-centimetre-ish: {after:.2} cm"
    );
}

#[test]
fn typical_part_needs_no_calibration() {
    let mut dev = DistScrollDevice::new(DeviceProfile::paper(), Menu::flat(8), 5);
    let bias = estimate_bias(&mut dev);
    assert!(
        bias < 0.6,
        "the datasheet curve already fits the typical part: {bias:.2} cm"
    );
}

#[test]
fn stored_record_survives_a_reboot() {
    // Calibrate one device, extract its record bytes, and hand them to a
    // fresh board (the EEPROM would physically persist).
    let mut dev =
        DistScrollDevice::new_with_unit_variation(DeviceProfile::paper(), Menu::flat(8), UNIT_SEED);
    dev.calibrate_on_jig(&[5.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0])
        .expect("jig fit succeeds");
    let stored =
        distscroll_core::calibration::load(&dev.board().eeprom).expect("record was stored");

    let mut rebooted =
        DistScrollDevice::new_with_unit_variation(DeviceProfile::paper(), Menu::flat(8), UNIT_SEED);
    assert!(
        !rebooted.load_calibration().expect("load runs"),
        "fresh eeprom has no record"
    );
    rebooted.store_calibration(&stored).expect("record stores");
    assert!(
        rebooted.load_calibration().expect("load runs"),
        "record now present"
    );
    let bias = estimate_bias(&mut rebooted);
    assert!(
        bias < 0.6,
        "rebooted device uses the stored curve: {bias:.2} cm"
    );
}

#[test]
fn uncalibrated_unit_still_works_just_less_precisely() {
    // The technique is robust to a few percent of curve error — islands
    // are wide — so an uncalibrated unit remains usable.
    let mut dev =
        DistScrollDevice::new_with_unit_variation(DeviceProfile::paper(), Menu::flat(8), UNIT_SEED);
    let cm = dev.island_center_cm(3).expect("entry exists");
    dev.set_distance(cm);
    dev.run_for_ms(500).expect("fresh battery");
    assert_eq!(dev.highlighted(), 3, "island widths absorb unit variation");
}

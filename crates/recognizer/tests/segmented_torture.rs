//! Property torture for the [`Segmented`] recognizer: arbitrary code
//! streams never panic, output codes stay in ADC range, and replay is
//! deterministic — the state machine is a pure function of its stream.

#![expect(
    clippy::expect_used,
    reason = "test helpers fail the test by panicking"
)]

use distscroll_recognizer::{Recognizer, Segmented, SegmentedConfig};
use distscroll_sensors::calibrate::{fit_inverse_curve, InverseCurveFit};
use distscroll_sensors::gp2d120::ideal_voltage;
use proptest::prelude::*;

fn curve() -> InverseCurveFit {
    let pts: Vec<(f64, f64)> = (4..=30)
        .map(|d| (f64::from(d), ideal_voltage(f64::from(d))))
        .collect();
    fit_inverse_curve(&pts).expect("ideal curve fits")
}

fn seg() -> Segmented {
    Segmented::new(SegmentedConfig {
        curve: curve(),
        near_cm: 4.0,
        far_cm: 30.0,
        tick_ms: 10,
    })
}

proptest! {
    // Any u16 stream — in-band, fold-back, rail values, garbage far
    // beyond the 10-bit converter — runs to completion with in-range
    // output.
    #[test]
    fn arbitrary_u16_streams_never_panic(
        stream in proptest::collection::vec(any::<u16>(), 1..400),
    ) {
        let mut s = seg();
        for (t, &raw) in stream.iter().enumerate() {
            let code = s.process(raw, t as u64);
            prop_assert!(code <= 1023);
        }
    }

    // Two instances fed the same stream agree tick for tick, and a
    // reset instance replays the stream identically to a fresh one.
    #[test]
    fn replay_is_deterministic_and_reset_is_complete(
        stream in proptest::collection::vec(0u16..=1023, 1..400),
    ) {
        let mut a = seg();
        let mut b = seg();
        for (t, &raw) in stream.iter().enumerate() {
            prop_assert_eq!(a.process(raw, t as u64), b.process(raw, t as u64));
        }
        // A full reset must erase every trace of the first pass: replay
        // the stream on the used instance against a fresh one.
        a.reset();
        let mut fresh = seg();
        for (t, &raw) in stream.iter().enumerate() {
            prop_assert_eq!(a.process(raw, t as u64), fresh.process(raw, t as u64));
        }
    }
}

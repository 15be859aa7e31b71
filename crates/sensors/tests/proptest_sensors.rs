//! Property tests of the sensor physics, filters and calibration.

#![expect(
    clippy::disallowed_methods,
    reason = "the property tests exercise the filter stages directly"
)]

use distscroll_sensors::calibrate::{fit_inverse_curve, linear_fit};
use distscroll_sensors::environment::{AmbientLight, Scene, Surface};
use distscroll_sensors::filter::{Ema, Hysteresis, MedianFilter, SlewGate};
use distscroll_sensors::gp2d120::{self, Gp2d120};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn curve_is_monotone_on_the_valid_branch(a in 4.0f64..30.0, b in 4.0f64..30.0) {
        let (near, far) = if a < b { (a, b) } else { (b, a) };
        prop_assume!(far - near > 0.01);
        prop_assert!(gp2d120::ideal_voltage(near) > gp2d120::ideal_voltage(far));
    }

    #[test]
    fn inverse_round_trips_anywhere_in_range(d in 4.0f64..=30.0) {
        let v = gp2d120::ideal_voltage(d);
        let back = gp2d120::ideal_distance(v);
        prop_assert!((back - d).abs() < 0.02, "{d} cm round-tripped to {back} cm");
    }

    #[test]
    fn measurements_stay_on_the_rails_for_any_scene(
        d in 0.0f64..80.0,
        surface_idx in 0usize..6,
        ambient_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut sensor = Gp2d120::typical();
        let scene = Scene {
            distance_cm: d,
            surface: Surface::ALL[surface_idx],
            ambient: AmbientLight::ALL[ambient_idx],
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let v = sensor.measure(&scene, &mut rng);
            prop_assert!((0.0..=3.0).contains(&v), "voltage {v} off the rails");
        }
    }

    #[test]
    fn fit_recovers_synthetic_curves(
        a in 5.0f64..15.0,
        d0 in 0.1f64..1.5,
        c in 0.0f64..0.2,
    ) {
        let points: Vec<(f64, f64)> =
            (4..=30).step_by(2).map(|d| (f64::from(d), a / (f64::from(d) + d0) + c)).collect();
        let fit = fit_inverse_curve(&points).expect("clean synthetic points fit");
        prop_assert!((fit.a - a).abs() < 0.05 * a, "a: {} vs {a}", fit.a);
        prop_assert!((fit.d0 - d0).abs() < 0.1, "d0: {} vs {d0}", fit.d0);
        prop_assert!(fit.r2 > 0.9999);
    }

    #[test]
    fn linear_fit_is_exact_on_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
    ) {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = linear_fit(&xs, &ys).expect("line fits");
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs()));
    }

    #[test]
    fn median_output_is_always_a_recent_input(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut m = MedianFilter::new(5);
        for (i, &x) in xs.iter().enumerate() {
            let y = m.push(x);
            let lo = i.saturating_sub(4);
            prop_assert!(
                xs[lo..=i].contains(&y),
                "median {y} is not among the last window of inputs"
            );
        }
    }

    #[test]
    fn ema_stays_within_input_hull(xs in proptest::collection::vec(-1e3f64..1e3, 1..100), alpha in 0.01f64..1.0) {
        let mut e = Ema::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in &xs {
            lo = lo.min(x);
            hi = hi.max(x);
            let y = e.push(x);
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9, "ema {y} escaped [{lo}, {hi}]");
        }
    }

    #[test]
    fn slew_gate_never_jumps_more_than_allowed_without_persistence(
        xs in proptest::collection::vec(0.0f64..1000.0, 2..80),
        max_step in 1.0f64..100.0,
    ) {
        let mut g = SlewGate::new(max_step, 3);
        let mut last: Option<f64> = None;
        let mut consecutive_rejects = 0u32;
        for &x in &xs {
            let y = g.push(x);
            if let Some(l) = last {
                if (y - l).abs() > max_step {
                    // A large output jump is only allowed after the gate
                    // yielded to persistence.
                    prop_assert!(consecutive_rejects >= 2, "gate leaked a teleport");
                }
            }
            if Some(y) == last && last.is_some_and(|l| (x - l).abs() > max_step) {
                consecutive_rejects += 1;
            } else {
                consecutive_rejects = 0;
            }
            last = Some(y);
        }
    }

    #[test]
    fn hysteresis_output_only_changes_outside_the_band(
        xs in proptest::collection::vec(-10.0f64..10.0, 1..100),
    ) {
        let mut h = Hysteresis::new(-1.0, 1.0);
        let mut prev = h.state();
        for &x in &xs {
            let now = h.push(x);
            if now != prev {
                prop_assert!(!(-1.0..=1.0).contains(&x), "state flipped inside the dead band at {x}");
            }
            prev = now;
        }
    }
}

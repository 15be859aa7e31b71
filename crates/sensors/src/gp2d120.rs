//! The Sharp GP2D120 infra-red triangulation distance sensor.
//!
//! "The integral part of the presented hardware is the distance sensor at
//! the bottom of the DistScroll device. … We chose this special sensor as
//! its measurement range fits perfectly for the predicted normal usage of
//! the DistScroll device of about 4 to 30 cm" (paper, Section 4.2).
//!
//! The model reproduces every property the paper's design responds to:
//!
//! * **The nonlinear transfer curve of Figures 4 and 5.** Triangulation
//!   sensors output a voltage roughly proportional to `1/(d + d0)`; the
//!   paper fits an "idealized curve" through measured points and notes
//!   that on logarithmic axes "the measured values (asterisks) nearly
//!   perfectly fit the curve". [`Gp2d120::ideal_voltage`] implements
//!   `V(d) = a/(d + d0) + c` over the valid range, with the constants
//!   chosen to match the datasheet's typical output (≈ 2.25 V at 4 cm,
//!   ≈ 0.38 V at 30 cm).
//! * **The fold-back below 4 cm.** "If the user moves the device too
//!   close, the values decline again. … it therefore cannot be detected
//!   if the device is moved away (> 4 cm) or towards the user (< 4 cm)"
//!   — and "the much faster declining sensor values between 0 and 4 cms"
//!   can be "exploited by advanced users for faster scrolling".
//! * **Near-insensitivity to surface colour.** "The color (the
//!   reflectivity) of the object in front of the sensor does nearly not
//!   matter" — reflectance only slightly scales the output, raises noise
//!   and shortens the maximum usable range for very dark surfaces.
//! * **Specular banding.** "Potentially problematic could be reflective
//!   surfaces with clear boundaries" — such surfaces occasionally
//!   produce wild readings.
//! * **Sample-and-hold timing.** The real part updates its analog output
//!   about every 38 ms; between updates the output holds, which lower-
//!   bounds the interaction loop's latency.

use rand::Rng;

use crate::environment::Scene;
use crate::noise::{gaussian, RandomWalk};

/// Numerator of the idealized transfer curve, in volt·cm.
pub const CURVE_A: f64 = 9.7;
/// Distance offset of the idealized curve, in cm.
pub const CURVE_D0: f64 = 0.42;
/// Additive offset of the idealized curve, in volts.
pub const CURVE_C: f64 = 0.05;

/// Distance of the output peak: below this the curve folds back.
pub const PEAK_CM: f64 = 3.0;
/// Lower edge of the valid measuring range (paper: 4 cm).
pub const MIN_VALID_CM: f64 = 4.0;
/// Upper edge of the valid measuring range (paper: 30 cm).
pub const MAX_VALID_CM: f64 = 30.0;
/// Output voltage at zero distance (lens blocked).
pub const BLOCKED_V: f64 = 0.3;
/// Dark output floor when nothing reflects within range.
pub const FLOOR_V: f64 = 0.25;

/// Nominal output update period of the GP2D120 (datasheet: 38.3 ms ±9.6).
pub const SAMPLE_PERIOD_S: f64 = 0.0383;

/// The sensor model. Stateful: it carries the sample-and-hold output and
/// a slow thermal drift process.
#[derive(Debug, Clone, PartialEq)]
pub struct Gp2d120 {
    noise_sd_v: f64,
    drift: RandomWalk,
    held_v: f64,
    next_update_s: f64,
    /// Part-to-part gain variation (1.0 = nominal).
    gain: f64,
    /// Part-to-part output offset, volts.
    offset_v: f64,
}

impl Gp2d120 {
    /// A typical production part: ±8 mV base noise, small thermal drift.
    pub fn typical() -> Self {
        Gp2d120::with_noise(0.008)
    }

    /// A part with explicit base output noise (1 σ, volts).
    ///
    /// # Panics
    ///
    /// Panics if `noise_sd_v` is negative or not finite.
    pub fn with_noise(noise_sd_v: f64) -> Self {
        assert!(
            noise_sd_v.is_finite() && noise_sd_v >= 0.0,
            "noise must be non-negative"
        );
        Gp2d120 {
            noise_sd_v,
            drift: RandomWalk::new(0.02, 0.0005, 0.02),
            held_v: FLOOR_V,
            next_update_s: 0.0,
            gain: 1.0,
            offset_v: 0.0,
        }
    }

    /// A specific *unit* rather than the datasheet-typical part: the
    /// GP2D120's output varies a few percent part-to-part (gain) plus a
    /// small offset — the reason production devices calibrate each unit
    /// (see `distscroll-core`'s calibration module).
    pub fn with_unit_variation<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut part = Gp2d120::typical();
        part.gain = 1.0 + 0.04 * gaussian(rng).clamp(-2.0, 2.0);
        part.offset_v = 0.02 * gaussian(rng).clamp(-2.0, 2.0);
        part
    }

    /// The unit's gain relative to the typical part.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The idealized (noiseless, white-surface) transfer curve — the
    /// solid line of Figures 4 and 5.
    ///
    /// Piecewise:
    /// * `d < PEAK_CM` — fold-back: a steep, nearly linear rise from
    ///   [`BLOCKED_V`] at contact to the peak,
    /// * `d ≥ PEAK_CM` — the triangulation law `a/(d + d0) + c`,
    ///   bottoming out at [`FLOOR_V`] far away.
    pub fn ideal_voltage(&self, distance_cm: f64) -> f64 {
        ideal_voltage(distance_cm)
    }

    /// One instantaneous physical measurement of `scene`, with optics,
    /// reflectance, ambient light, drift and shot noise applied — but
    /// without the sample-and-hold (see [`Gp2d120::output`]).
    pub fn measure<R: Rng + ?Sized>(&mut self, scene: &Scene, rng: &mut R) -> f64 {
        let d = scene.distance_cm;
        let refl = scene.surface.reflectance();
        let mut v = ideal_voltage(d);

        // Reflectance barely scales the triangulation signal (the paper's
        // "does nearly not matter"), but very dark surfaces stop returning
        // enough light near max range: soft cutoff beyond an effective
        // maximum that shrinks with reflectance.
        v = FLOOR_V + (v - FLOOR_V) * (0.96 + 0.04 * refl);
        // The datasheet shows 18 % gray paper tracking white paper through
        // the whole specified range; only *very* dark surfaces lose signal,
        // and only right at the far end.
        let d_max_eff = 30.0 + 12.0 * refl;
        if d > PEAK_CM {
            let rolloff = 1.0 / (1.0 + ((d - d_max_eff) / 1.5).exp());
            v = FLOOR_V + (v - FLOOR_V) * rolloff;
        }

        // Specular banded surfaces occasionally "distract the emitted
        // light so that no correct measurement could be made" (§4.2).
        if scene.surface.is_specular_banded() && rng.gen_bool(0.02) {
            let wild = rng.gen_range(FLOOR_V..2.8);
            return wild;
        }

        let noise_sd = self.noise_sd_v * scene.ambient.noise_factor() * (1.0 + 0.6 * (1.0 - refl));
        // Part-to-part gain acts on the signal above the floor; the
        // offset shifts everything.
        v = FLOOR_V + (v - FLOOR_V) * self.gain + self.offset_v;
        v += self.drift.value() + gaussian(rng) * noise_sd;
        v.clamp(0.0, 3.0)
    }

    /// The analog output pin at time `t` (seconds since boot).
    ///
    /// The part refreshes its internal measurement every
    /// [`SAMPLE_PERIOD_S`] (with a little period jitter) and holds the
    /// output in between, exactly like the real silicon. Call with
    /// monotonically non-decreasing `t`.
    pub fn output<R: Rng + ?Sized>(&mut self, t: f64, scene: &Scene, rng: &mut R) -> f64 {
        while t >= self.next_update_s {
            self.held_v = self.measure(scene, rng);
            self.drift.step(rng);
            // ±10 % period jitter, bounded, keeps update boundaries
            // incommensurate with the firmware tick as in reality.
            let jitter = 1.0 + 0.1 * (gaussian(rng).clamp(-1.5, 1.5)) / 1.5;
            self.next_update_s += SAMPLE_PERIOD_S * jitter;
        }
        self.held_v
    }

    /// Whether a distance is inside the sensor's valid measuring range.
    pub fn in_range(distance_cm: f64) -> bool {
        (MIN_VALID_CM..=MAX_VALID_CM).contains(&distance_cm)
    }
}

impl Default for Gp2d120 {
    fn default() -> Self {
        Gp2d120::typical()
    }
}

/// The idealized transfer curve as a free function (used by the island
/// mapping and the calibration fit).
pub fn ideal_voltage(distance_cm: f64) -> f64 {
    if !distance_cm.is_finite() || distance_cm < 0.0 {
        return FLOOR_V;
    }
    if distance_cm < PEAK_CM {
        let peak_v = CURVE_A / (PEAK_CM + CURVE_D0) + CURVE_C;
        BLOCKED_V + (peak_v - BLOCKED_V) * (distance_cm / PEAK_CM)
    } else {
        (CURVE_A / (distance_cm + CURVE_D0) + CURVE_C).max(FLOOR_V)
    }
}

/// The inverse of the idealized curve on the valid branch: voltage →
/// distance in cm. Voltages above the 4 cm output clamp to 4 cm, voltages
/// at or below the floor clamp to the far limit of the curve.
pub fn ideal_distance(volts: f64) -> f64 {
    let v_min = ideal_voltage(MIN_VALID_CM);
    if !volts.is_finite() || volts >= v_min {
        return MIN_VALID_CM;
    }
    if volts <= CURVE_C || volts <= FLOOR_V {
        return CURVE_A / (FLOOR_V - CURVE_C) - CURVE_D0;
    }
    CURVE_A / (volts - CURVE_C) - CURVE_D0
}

/// Datasheet-style anchor points (distance cm, typical output volts) used
/// to validate the model against the published part.
pub fn datasheet_anchors() -> Vec<(f64, f64)> {
    vec![
        (4.0, 2.25),
        (6.0, 1.55),
        (8.0, 1.20),
        (10.0, 0.98),
        (15.0, 0.68),
        (20.0, 0.53),
        (25.0, 0.44),
        (30.0, 0.38),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::{AmbientLight, Surface};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn curve_matches_datasheet_anchors() {
        for (d, v_typ) in datasheet_anchors() {
            let v = ideal_voltage(d);
            let tol = 0.06 + 0.06 * v_typ; // a few percent plus a fixed band
            assert!(
                (v - v_typ).abs() < tol,
                "at {d} cm: model {v:.3} V vs datasheet {v_typ} V"
            );
        }
    }

    #[test]
    fn curve_is_strictly_decreasing_in_valid_range() {
        let mut last = f64::INFINITY;
        let mut d = MIN_VALID_CM;
        while d <= MAX_VALID_CM {
            let v = ideal_voltage(d);
            assert!(v < last, "curve must fall at {d} cm");
            last = v;
            d += 0.1;
        }
    }

    #[test]
    fn fold_back_peaks_near_three_cm() {
        let peak = ideal_voltage(PEAK_CM);
        assert!(peak > ideal_voltage(1.0), "rising branch below the peak");
        assert!(peak > ideal_voltage(5.0), "falling branch above the peak");
        assert!(
            ideal_voltage(0.0) < ideal_voltage(2.0),
            "fold-back rises towards the peak"
        );
    }

    #[test]
    fn fold_back_declines_faster_than_valid_branch() {
        // Paper: "much faster declining sensor values between 0 and 4 cms".
        let slope_foldback = (ideal_voltage(3.0) - ideal_voltage(1.0)) / 2.0;
        let slope_valid = (ideal_voltage(4.0) - ideal_voltage(6.0)) / 2.0;
        assert!(slope_foldback.abs() > slope_valid.abs());
    }

    #[test]
    fn inverse_round_trips_on_valid_branch() {
        let mut d = MIN_VALID_CM;
        while d <= MAX_VALID_CM {
            let v = ideal_voltage(d);
            let back = ideal_distance(v);
            assert!(
                (back - d).abs() < 0.01,
                "round trip at {d} cm gave {back} cm"
            );
            d += 0.25;
        }
    }

    #[test]
    fn inverse_clamps_out_of_range_voltages() {
        assert_eq!(ideal_distance(3.0), MIN_VALID_CM);
        assert!(ideal_distance(0.0) > MAX_VALID_CM);
        assert_eq!(ideal_distance(f64::NAN), MIN_VALID_CM);
    }

    #[test]
    fn reflectance_barely_matters_in_range() {
        // Paper §4.2: arbitrary colored clothing works.
        let mut s = Gp2d120::with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut white = Scene::lab();
        white.surface = Surface::WhiteCotton;
        let mut dark = Scene::lab();
        dark.surface = Surface::DarkParka;
        for d in [5.0, 10.0, 15.0, 20.0] {
            white.set_distance(d);
            dark.set_distance(d);
            let vw = s.measure(&white, &mut rng);
            let vd = s.measure(&dark, &mut rng);
            let rel = (vw - vd).abs() / vw;
            assert!(
                rel < 0.05,
                "at {d} cm reflectance shifted output by {:.1} %",
                rel * 100.0
            );
        }
    }

    #[test]
    fn black_leather_loses_range_early() {
        let mut s = Gp2d120::with_noise(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut scene = Scene::lab();
        scene.surface = Surface::BlackLeather;
        scene.set_distance(30.0);
        let v_dark = s.measure(&scene, &mut rng);
        scene.surface = Surface::WhiteCotton;
        let v_white = s.measure(&scene, &mut rng);
        assert!(
            v_dark < v_white,
            "dark surface collapses towards the floor at max range"
        );
    }

    #[test]
    fn sunlight_raises_noise() {
        let mut s = Gp2d120::typical();
        let mut rng = StdRng::seed_from_u64(3);
        let sd = |ambient: AmbientLight, s: &mut Gp2d120, rng: &mut StdRng| {
            let mut scene = Scene::lab();
            scene.ambient = ambient;
            let xs: Vec<f64> = (0..4000).map(|_| s.measure(&scene, rng)).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        let indoor = sd(AmbientLight::Indoor, &mut s, &mut rng);
        let sun = sd(AmbientLight::Sunlight, &mut s, &mut rng);
        assert!(
            sun > 1.5 * indoor,
            "sunlight sd {sun:.4} vs indoor {indoor:.4}"
        );
    }

    #[test]
    fn hi_vis_vest_produces_outliers() {
        let mut s = Gp2d120::with_noise(0.001);
        let mut rng = StdRng::seed_from_u64(4);
        let mut scene = Scene::lab();
        scene.surface = Surface::HiVisVest;
        scene.set_distance(20.0);
        let center = ideal_voltage(20.0);
        let outliers = (0..5000)
            .filter(|_| (s.measure(&scene, &mut rng) - center).abs() > 0.3)
            .count();
        assert!(outliers > 20, "expected wild readings, saw {outliers}");
    }

    #[test]
    fn output_holds_between_updates() {
        let mut s = Gp2d120::typical();
        let mut rng = StdRng::seed_from_u64(5);
        let scene = Scene::lab();
        let v0 = s.output(0.000, &scene, &mut rng);
        let v1 = s.output(0.001, &scene, &mut rng);
        let v2 = s.output(0.010, &scene, &mut rng);
        assert_eq!(v0, v1, "held between internal updates");
        assert_eq!(v1, v2);
    }

    #[test]
    fn output_tracks_scene_changes_after_a_period() {
        let mut s = Gp2d120::typical();
        let mut rng = StdRng::seed_from_u64(6);
        let mut scene = Scene::lab();
        scene.set_distance(5.0);
        let near = s.output(0.0, &scene, &mut rng);
        scene.set_distance(28.0);
        let far = s.output(0.5, &scene, &mut rng);
        assert!(near > far + 0.5, "near {near:.2} V vs far {far:.2} V");
    }

    #[test]
    fn in_range_bounds_match_paper() {
        assert!(Gp2d120::in_range(4.0));
        assert!(Gp2d120::in_range(30.0));
        assert!(!Gp2d120::in_range(3.9));
        assert!(!Gp2d120::in_range(30.1));
    }

    #[test]
    fn measurements_never_leave_physical_rails() {
        let mut s = Gp2d120::with_noise(0.5); // absurdly noisy part
        let mut rng = StdRng::seed_from_u64(7);
        let scene = Scene::lab();
        for _ in 0..2000 {
            let v = s.measure(&scene, &mut rng);
            assert!((0.0..=3.0).contains(&v), "voltage {v} escaped the rail");
        }
    }
}

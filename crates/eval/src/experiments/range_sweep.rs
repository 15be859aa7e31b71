//! E2 — Section 7's second question: "Is the scrolling range of 4 to
//! 30 cm appropriate?"
//!
//! We sweep the profile's far edge while keeping the near edge at the
//! sensor's physical 4 cm limit, and measure three things per range:
//!
//! * **reachability** — hold the device at each entry's island centre
//!   and check the firmware highlights it; entries placed beyond what
//!   the sensor can resolve are simply unreachable,
//! * **selection trials** — time, errors and corrective reaches from
//!   the full closed loop,
//! * the two failure modes that bound the choice: a **short** range
//!   packs islands below the hand's motor precision (corrections climb),
//!   while a range **beyond 30 cm** puts entries outside the sensor
//!   (reachability collapses).

use distscroll_baselines::distscroll::DistScrollTechnique;
use distscroll_core::device::DistScrollDevice;
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use distscroll_user::population::sample_cohort;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Table;
use crate::runner::{run_block, run_users};
use crate::task::TaskPlan;

use super::{jobs, Effort, ExperimentReport};

/// Outcome for one range condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeOutcome {
    /// The far edge tested, cm.
    pub far_cm: f64,
    /// Fraction of entries whose island centre actually highlights them.
    pub reachable: f64,
    /// Mean time of correct trials (None if none were correct).
    pub time_s: Option<f64>,
    /// Error rate.
    pub error_rate: f64,
    /// Mean corrective reaches per trial.
    pub corrections: f64,
}

/// Holds the device at every island centre and checks the highlight.
pub fn reachable_fraction(profile: &DeviceProfile, n: usize, seed: u64) -> f64 {
    let mut dev = DistScrollDevice::new(profile.clone(), Menu::flat(n), seed);
    let mut ok = 0usize;
    for idx in 0..n {
        // Park on a *different* mid-range island first so "highlight never
        // moved" cannot masquerade as "entry reached".
        let park = if idx == n / 2 { n / 2 - 1 } else { n / 2 };
        // lint:allow(panic-hygiene) park entry index is in range for the 10-entry paper menu
        dev.set_distance(dev.island_center_cm(park).expect("park entry exists"));
        if dev.run_for_ms(600).is_err() {
            break;
        }
        if dev.highlighted() != park {
            continue; // even the park failed; the entry cannot be verified
        }
        // lint:allow(panic-hygiene) target entry index is in range for the 10-entry paper menu
        let cm = dev.island_center_cm(idx).expect("entry exists");
        dev.set_distance(cm);
        if dev.run_for_ms(600).is_err() {
            break;
        }
        // Majority vote over a dwell window: a usable entry must show
        // *stably*, not flicker in by noise once. The window has to be
        // long enough that the vote reflects the entry's true hold rate
        // rather than one burst of filtered sensor noise — marginal far
        // entries hold ~95% of the time but can dip below any threshold
        // over a dozen samples.
        let mut hits = 0;
        let samples = 50;
        let mut broke = false;
        for _ in 0..samples {
            if dev.run_for_ms(100).is_err() {
                broke = true;
                break;
            }
            if dev.highlighted() == idx {
                hits += 1;
            }
        }
        if broke {
            break;
        }
        if hits * 10 >= samples * 7 {
            ok += 1;
        }
    }
    ok as f64 / n as f64
}

/// Runs the sweep and returns raw outcomes.
pub fn sweep(effort: Effort, seed: u64) -> Vec<RangeOutcome> {
    let n_users = effort.pick(3, 10);
    let trials = effort.pick(6, 20);
    let fars: &[f64] = effort.pick(
        &[8.0, 18.0, 30.0, 38.0][..],
        &[8.0, 12.0, 16.0, 20.0, 25.0, 30.0, 34.0, 38.0][..],
    );
    let menu = 8;

    let mut rng = StdRng::seed_from_u64(seed);
    let cohort: Vec<_> = sample_cohort(n_users, &mut rng)
        .into_iter()
        .map(|mut u| {
            u.practice = distscroll_user::learning::PracticeCurve::flat();
            u
        })
        .collect();

    fars.iter()
        .map(|&far| {
            let profile = DeviceProfile {
                far_cm: far,
                ..DeviceProfile::paper()
            };
            // The probe uses 12 entries — the device's full island budget —
            // where misplacement past the sensor range is unambiguous.
            let reachable = reachable_fraction(&profile, 12, seed ^ far.to_bits());
            let records = run_users(
                &cohort,
                jobs(),
                || DistScrollTechnique::with_profile(profile.clone()),
                |tech, uid, user| {
                    let plan = TaskPlan::block(menu, trials, 100, seed ^ ((uid as u64) << 11));
                    run_block(
                        tech,
                        user,
                        uid,
                        &plan,
                        seed ^ (uid as u64 * 131) ^ far.to_bits(),
                    )
                },
            );
            let n = records.len() as f64;
            let correct: Vec<f64> = records
                .iter()
                .filter(|r| r.result.correct)
                .map(|r| r.result.time_s)
                .collect();
            RangeOutcome {
                far_cm: far,
                reachable,
                time_s: (!correct.is_empty())
                    .then(|| correct.iter().sum::<f64>() / correct.len() as f64),
                error_rate: records.iter().filter(|r| !r.result.correct).count() as f64 / n,
                corrections: records
                    .iter()
                    .map(|r| f64::from(r.result.corrections))
                    .sum::<f64>()
                    / n,
            }
        })
        .collect()
}

/// Runs E2.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let outcomes = sweep(effort, seed);

    let mut table = Table::new(
        "scroll range sweep (near edge fixed at 4 cm, 8-entry menu)",
        &[
            "far edge [cm]",
            "entries reachable",
            "time [s]",
            "error rate",
            "corrections",
        ],
    );
    for o in &outcomes {
        table.row(&[
            format!("{:.0}", o.far_cm),
            format!("{:.0}%", o.reachable * 100.0),
            o.time_s.map_or("-".into(), |t| format!("{t:.2}")),
            format!("{:.1}%", o.error_rate * 100.0),
            format!("{:.2}", o.corrections),
        ]);
    }

    let at = |far: f64| outcomes.iter().find(|o| (o.far_cm - far).abs() < 0.5);
    // lint:allow(panic-hygiene) the 30 cm condition is in the constant sweep table
    let r30 = at(30.0).expect("30 cm condition always runs");
    // lint:allow(panic-hygiene) the 38 cm condition is in the constant sweep table
    let r38 = at(38.0).expect("38 cm condition always runs");
    // lint:allow(panic-hygiene) the 8 cm condition is in the constant sweep table
    let r8 = at(8.0).expect("8 cm condition always runs");

    let paper_range_fully_reachable = r30.reachable >= 0.999;
    let beyond_sensor_unreachable = r38.reachable < 0.999;
    let short_range_costs_precision =
        r8.corrections > r30.corrections || r8.error_rate > r30.error_rate + 0.02;

    ExperimentReport {
        id: "E2",
        title: "is the 4-30 cm scrolling range appropriate?".into(),
        paper_claim: "open question: is the scrolling range of 4 to 30 cm appropriate? (Sec. 7) \
                      The GP2D120 was chosen because its range fits the predicted usage of \
                      about 4 to 30 cm (Sec. 4.2)"
            .into(),
        sections: vec![table.render()],
        findings: vec![
            format!(
                "at the paper's 30 cm every entry is reachable; at 38 cm only {:.0}% are — the \
                 sensor physically caps the range at 30 cm",
                r38.reachable * 100.0
            ),
            format!(
                "a short 4-8 cm range packs islands below motor precision: {:.2} corrective \
                 reaches per trial vs {:.2} at 30 cm (errors {:.1}% vs {:.1}%)",
                r8.corrections,
                r30.corrections,
                r8.error_rate * 100.0,
                r30.error_rate * 100.0
            ),
            "the paper's full 26 cm span is the widest choice the sensor supports and the \
             most forgiving for the hand — 4-30 cm is appropriate"
                .into(),
        ],
        shape_holds: paper_range_fully_reachable
            && beyond_sensor_unreachable
            && short_range_costs_precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_sweep_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }

    #[test]
    fn reachability_collapses_past_the_sensor() {
        let ok30 = reachable_fraction(&DeviceProfile::paper(), 12, 1);
        let p38 = DeviceProfile {
            far_cm: 38.0,
            ..DeviceProfile::paper()
        };
        let ok38 = reachable_fraction(&p38, 12, 1);
        assert_eq!(ok30, 1.0, "all of 4-30 cm is usable");
        assert!(ok38 < 1.0, "entries past 30 cm are not: {ok38}");
    }
}

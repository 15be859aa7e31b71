//! E5 — Section 4.2's aside: "It is also possible — because of the much
//! faster declining sensor values between 0 and 4 cms — that this sensor
//! characteristic is exploited by advanced users for faster scrolling or
//! browsing."
//!
//! In the fold-back region the whole code range compresses into under
//! 3 cm of hand travel, so an expert can *traverse* a menu with a wrist
//! flick instead of a forearm extension. The cost: the slope is so steep
//! that landing on a specific island is hard, and the firmware's slew
//! gate (which protects novices from fold-back aliasing) must be off.
//!
//! The task is a **browse**: visit every entry of a menu in order (the
//! "browsing" the quote mentions), comparing
//!
//! * a normal user sweeping the full 4–30 cm range (gate on), and
//! * an expert sweeping the 0.5–3 cm fold-back region (gate off,
//!   `expert_foldback` profile).

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::{Event, TimedEvent};
use distscroll_core::menu::Menu;
use distscroll_core::profile::DeviceProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Table;
use crate::stats::Summary;

use super::{Effort, ExperimentReport};

/// Outcome of one browse pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrowseOutcome {
    /// Time until every entry had been highlighted at least once.
    pub time_s: f64,
    /// Entries visited (equals the menu size on success).
    pub visited: usize,
    /// Spurious highlights (an entry flashed out of sweep order).
    pub spurious: u32,
    /// Hand-travel amplitude used, cm.
    pub sweep_cm: f64,
}

/// Sweeps the hand linearly from `from_cm` to `to_cm` over `sweep_s`
/// seconds and records which entries get highlighted.
#[expect(
    clippy::expect_used,
    reason = "battery is sized for the scripted run; Err means the harness broke, not data"
)]
pub fn browse_sweep(
    profile: DeviceProfile,
    n: usize,
    from_cm: f64,
    to_cm: f64,
    sweep_s: f64,
    seed: u64,
) -> BrowseOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dev = DistScrollDevice::new(profile, Menu::flat(n), rng.gen());
    dev.set_distance(from_cm);
    dev.run_for_ms(400).expect("fresh battery");
    dev.poll_events(&mut |_: &TimedEvent| {});

    let t0 = dev.now();
    let mut visited = vec![false; n];
    visited[dev.highlighted()] = true;
    let mut spurious = 0u32;
    let mut last = dev.highlighted() as i64;
    let mut t = 0.0;
    // Allow 2x the sweep time for stragglers, then stop.
    while t < sweep_s * 2.0 + 1.0 {
        let progress = (t / sweep_s).min(1.0);
        dev.set_distance(from_cm + (to_cm - from_cm) * progress);
        if dev.tick().is_err() {
            break;
        }
        dev.poll_events(&mut |ev: &TimedEvent| {
            if let Event::Highlight { index, .. } = ev.event {
                if index < n {
                    visited[index] = true;
                    let step = (index as i64 - last).abs();
                    if step > 1 {
                        spurious += step as u32 - 1;
                    }
                    last = index as i64;
                }
            }
        });
        t = (dev.now() - t0).as_secs_f64();
        if visited.iter().all(|&v| v) {
            break;
        }
    }
    BrowseOutcome {
        time_s: t,
        visited: visited.iter().filter(|&&v| v).count(),
        spurious,
        sweep_cm: (to_cm - from_cm).abs(),
    }
}

/// Runs E5.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let n = 10;
    let repeats = effort.pick(4, 12);

    // Normal browse: sweep far -> near through the islands (toward-is-down
    // visits 0..n-1 going outward; sweep inward visits them in order).
    let normal_profile = DeviceProfile::paper();
    // Expert browse: gate off, sweep the fold-back sliver. Moving *out*
    // through 0.5..3 cm raises the voltage, aliasing from far codes to
    // near codes, i.e. the same code trajectory as pulling the device in.
    let expert_profile = DeviceProfile {
        expert_foldback: true,
        ..DeviceProfile::paper()
    };

    let mut normal = Vec::new();
    let mut expert = Vec::new();
    for k in 0..repeats {
        // Normal users sweep at a speed that gives each island a couple of
        // sensor refreshes: the full 26 cm at ~18 cm/s.
        normal.push(browse_sweep(
            normal_profile.clone(),
            n,
            30.0,
            4.0,
            1.45,
            seed ^ k,
        ));
        // Experts flick 2.5 cm of fold-back at the same *relative* pacing:
        // the region spans the same codes, so the same dwell per island
        // needs the same total time per code — but the hand only moves
        // 2.5 cm, so the flick can be quicker, bounded by the sensor's
        // 38 ms refresh per island (10 islands -> ~0.5 s minimum).
        expert.push(browse_sweep(
            expert_profile.clone(),
            n,
            0.1,
            3.0,
            0.9,
            seed ^ (k + 1000),
        ));
    }

    let mut table = Table::new(
        format!("browse-all task, {n} entries ({repeats} passes each)"),
        &[
            "condition",
            "sweep [cm]",
            "time [s]",
            "entries visited",
            "spurious highlights",
        ],
    );
    let summarize_rows = |rows: &[BrowseOutcome]| {
        let times: Vec<f64> = rows.iter().map(|r| r.time_s).collect();
        let visited: Vec<f64> = rows.iter().map(|r| r.visited as f64).collect();
        let spurious: Vec<f64> = rows.iter().map(|r| f64::from(r.spurious)).collect();
        (
            Summary::of(&times),
            Summary::of(&visited),
            Summary::of(&spurious),
        )
    };
    let (nt, nv, ns) = summarize_rows(&normal);
    let (et, ev, es) = summarize_rows(&expert);
    table.row(&[
        "normal sweep 30->4 cm (gate on)".into(),
        "26.0".into(),
        format!("{:.2} ± {:.2}", nt.mean, nt.ci95),
        format!("{:.1}/{n}", nv.mean),
        format!("{:.1}", ns.mean),
    ]);
    table.row(&[
        "expert fold-back flick 0.1->3 cm (gate off)".into(),
        "2.9".into(),
        format!("{:.2} ± {:.2}", et.mean, et.ci95),
        format!("{:.1}/{n}", ev.mean),
        format!("{:.1}", es.mean),
    ]);

    // The sensor's ~38 ms refresh gates both conditions to a similar
    // absolute floor; the expert's win is the 10x smaller hand travel
    // (a wrist flick instead of a forearm extension) at comparable time.
    let expert_not_slower = et.mean <= 1.5 * nt.mean;
    let expert_complete = ev.mean > 0.9 * n as f64;
    let expert_rougher = es.mean >= ns.mean;
    let travel_ratio = 2.9 / 26.0;

    ExperimentReport {
        id: "E5",
        title: "advanced users exploiting the <4 cm fold-back for fast browsing".into(),
        paper_claim: "the much faster declining sensor values between 0 and 4 cm can be \
                      exploited by advanced users for faster scrolling or browsing (Sec. 4.2)"
            .into(),
        sections: vec![table.render()],
        findings: vec![
            format!(
                "expert flick browses the menu in {:.2} s over 2.9 cm of hand travel vs {:.2} s \
                 over 26 cm for the normal sweep — comparable time at {:.0}% of the arm \
                 movement ('faster' per unit effort; absolute time is gated by the sensor's \
                 38 ms refresh either way)",
                et.mean,
                nt.mean,
                travel_ratio * 100.0
            ),
            "far entries compress to sub-millimetre slivers in the folded region, so precise \
             far selections there are physically out of reach — the trick is for browsing and \
             coarse jumps, exactly as the paper's wording suggests"
                .into(),
            format!(
                "the price of the steep region: {:.1} spurious highlights per pass vs {:.1} \
                 normally — fine for browsing, risky for precise selection",
                es.mean, ns.mean
            ),
            "the slew gate must be disabled (expert profile), confirming the firmware's \
             gate-for-novices / freedom-for-experts split"
                .into(),
        ],
        shape_holds: expert_not_slower && expert_complete && expert_rougher,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_sweep_visits_everything() {
        let r = browse_sweep(DeviceProfile::paper(), 10, 30.0, 4.0, 1.5, 1);
        assert_eq!(r.visited, 10, "{r:?}");
    }

    #[test]
    fn foldback_flick_works_with_gate_off() {
        let profile = DeviceProfile {
            expert_foldback: true,
            ..DeviceProfile::paper()
        };
        let r = browse_sweep(profile, 10, 0.1, 3.0, 0.9, 2);
        assert!(
            r.visited >= 8,
            "fold-back aliasing reaches most entries: {r:?}"
        );
    }

    #[test]
    fn e5_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }
}

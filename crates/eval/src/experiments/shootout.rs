//! E1 — Section 7's first question: "Is distance-based scrolling faster,
//! equal or slower than other scrolling techniques?"
//!
//! "So far, we only know that Fitt's Law holds for scrolling" (citing
//! Hinckley et al.). Two sub-studies:
//!
//! 1. **Technique comparison** — every technique, one cohort, random
//!    task blocks over several menu sizes: mean selection time, error
//!    rate, corrections.
//! 2. **Fitts regression** — fixed-distance blocks; per technique,
//!    regress mean selection time on the index of difficulty and report
//!    the intercept, slope (throughput) and R².

use distscroll_baselines::all_technique_ctors;
use distscroll_user::fitts::index_of_difficulty;
use distscroll_user::population::sample_cohort;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{AsciiPlot, Table};
use crate::runner::{run_block, run_users, summarize};
use crate::stats::{linear_fit, Summary};
use crate::task::TaskPlan;

use super::{jobs, Effort, ExperimentReport};

/// Runs E1.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let n_users = effort.pick(6, 12);
    let trials = effort.pick(8, 24);
    // Menu sizes stay within the device's island budget (12): one island
    // per entry is the design under comparison here; menus beyond the
    // budget engage the long-menu strategies, which experiment E4 covers.
    let menu_sizes: &[usize] = effort.pick(&[8, 12][..], &[6, 8, 12][..]);
    // The Fitts regression needs all four distances and enough trials
    // per point even in quick mode: a 3-point regression over ~30 noisy
    // trials per point leaves R² at the mercy of the seed (one cohort
    // draw produced R² = 0.002 where every larger setting gives > 0.89).
    let distances: &[usize] = effort.pick(&[1, 2, 4, 8][..], &[1, 2, 4, 8][..]);
    let fitts_trials = effort.pick(16, 20);

    let mut rng = StdRng::seed_from_u64(seed);
    // Practiced participants: the comparison question is about the
    // techniques, not the learning curves.
    let cohort: Vec<_> = sample_cohort(n_users, &mut rng)
        .into_iter()
        .map(|mut u| {
            u.practice = distscroll_user::learning::PracticeCurve::flat();
            u
        })
        .collect();

    let mut sections = Vec::new();
    let mut findings = Vec::new();

    // --- Sub-study 1: comparison table per menu size. ---
    let mut mean_times: Vec<(String, f64)> = Vec::new();
    for &n in menu_sizes {
        let mut table = Table::new(
            format!("technique comparison, {n}-entry menu ({n_users} users x {trials} trials)"),
            &[
                "technique",
                "hands",
                "time [s]",
                "error rate",
                "corrections",
                "timeouts",
            ],
        );
        for ctor in all_technique_ctors() {
            let (name, hands) = {
                let probe = ctor();
                (probe.name(), probe.hands_required())
            };
            // One technique per worker-chunk so the cohort can fan out
            // over `jobs()`; records join in (user, trial) order.
            let records = run_users(&cohort, jobs(), ctor, |tech, uid, user| {
                let plan = TaskPlan::block(n, trials, 100, seed ^ ((uid as u64) << 13) ^ n as u64);
                run_block(
                    tech.as_mut(),
                    user,
                    uid,
                    &plan,
                    seed ^ (uid as u64 * 31) ^ (n as u64) << 3,
                )
            });
            match summarize(&records) {
                Ok(stats) => {
                    table.row(&[
                        name.into(),
                        format!("{hands}"),
                        format!("{:.2} ± {:.2}", stats.time.mean, stats.time.ci95),
                        format!("{:.1}%", stats.errors.p * 100.0),
                        format!("{:.2}", stats.corrections.mean),
                        format!("{}", stats.timeouts),
                    ]);
                    if n == menu_sizes[menu_sizes.len() - 1] {
                        mean_times.push((name.to_string(), stats.time.mean));
                    }
                }
                Err(e) => {
                    // A technique that never succeeds is itself a result:
                    // report the degenerate condition instead of aborting.
                    table.row(&[
                        name.into(),
                        format!("{hands}"),
                        format!("- ({e})"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
        sections.push(table.render());
    }

    // --- Sub-study 2: Fitts regression per technique. ---
    let fitts_menu = 12;
    let mut fitts_table = Table::new(
        format!("fitts regression: time vs index of difficulty ({fitts_menu}-entry menu)"),
        &[
            "technique",
            "a [s]",
            "b [s/bit]",
            "R^2",
            "throughput [bit/s]",
        ],
    );
    let mut plot = AsciiPlot::new(
        "selection time vs index of difficulty (d=distscroll D=distscroll++ b=buttons w=wheel t=tilt y=yoyo T=tuister)",
        "ID [bits]",
        "time [s]",
    );
    let mut distscroll_r2 = 0.0;
    let mut distscroll_b = 0.0;
    for ctor in all_technique_ctors() {
        let tech_name = ctor().name();
        let mut ids = Vec::new();
        let mut ts = Vec::new();
        let mut pts = Vec::new();
        for &dist in distances {
            let id = index_of_difficulty(dist as f64, 1.0);
            let records = run_users(&cohort, jobs(), ctor, |tech, uid, user| {
                let plan = TaskPlan::fixed_distance(fitts_menu, dist, fitts_trials, 100);
                run_block(
                    tech.as_mut(),
                    user,
                    uid,
                    &plan,
                    seed ^ (uid as u64) ^ (dist as u64) << 20,
                )
            });
            let times: Vec<f64> = records
                .iter()
                .filter(|r| r.result.correct)
                .map(|r| r.result.time_s)
                .collect();
            if times.is_empty() {
                continue;
            }
            let mean = Summary::of(&times).mean;
            ids.push(id);
            ts.push(mean);
            pts.push((id, mean));
        }
        let marker = match tech_name {
            "tuister" => 'T',
            // Both DistScroll flavours start with 'd'; the segmented
            // recognizer variant takes the capital.
            "distscroll++" => 'D',
            _ => tech_name.chars().next().unwrap_or('?'),
        };
        plot = plot.series(marker, &pts);
        match linear_fit(&ids, &ts) {
            Ok(fit) => {
                fitts_table.row(&[
                    tech_name.into(),
                    format!("{:.2}", fit.intercept),
                    format!("{:.3}", fit.slope),
                    format!("{:.3}", fit.r2),
                    format!(
                        "{:.2}",
                        if fit.slope > 0.0 {
                            1.0 / fit.slope
                        } else {
                            f64::NAN
                        }
                    ),
                ]);
                if tech_name == "distscroll" {
                    distscroll_r2 = fit.r2;
                    distscroll_b = fit.slope;
                }
            }
            Err(_) => {
                fitts_table.row(&[
                    tech_name.into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    sections.push(fitts_table.render());
    sections.push(plot.render());

    // Findings and shape checks.
    mean_times.sort_by(|a, b| a.1.total_cmp(&b.1));
    let ranking = mean_times
        .iter()
        .map(|(n, t)| format!("{n} {t:.2}s"))
        .collect::<Vec<_>>()
        .join("  <  ");
    findings.push(format!("ranking on the largest menu: {ranking}"));
    findings.push(format!(
        "fitts' law holds for distance scrolling: R² = {distscroll_r2:.3}, slope {distscroll_b:.3} s/bit"
    ));
    let dist_time = mean_times
        .iter()
        .find(|(n, _)| n == "distscroll")
        .map(|(_, t)| *t);
    let best_time = mean_times.first().map(|(_, t)| *t);
    let competitive = match (dist_time, best_time) {
        (Some(d), Some(b)) => d <= 2.5 * b,
        _ => false,
    };
    findings.push(format!(
        "distscroll is {} with the fastest technique (within 2.5x)",
        if competitive {
            "competitive"
        } else {
            "NOT competitive"
        }
    ));

    ExperimentReport {
        id: "E1",
        title: "distance scrolling vs buttons, wheel, tilt and yoyo".into(),
        paper_claim: "open question: is distance-based scrolling faster, equal or slower than \
                      other scrolling techniques? So far we only know that Fitt's Law holds for \
                      scrolling (Sec. 7)"
            .into(),
        sections,
        findings,
        shape_holds: distscroll_r2 > 0.7 && competitive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shootout_runs_and_fitts_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
        assert!(r.sections.len() >= 3);
    }
}

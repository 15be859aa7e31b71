//! E7 — ablations of the design choices Section 4.2 commits to.
//!
//! Four axes, each comparing the paper's choice against its removal:
//!
//! 1. **dead-zone fraction** — boundary chatter and trial performance as
//!    the gaps shrink to nothing or grow to dominate,
//! 2. **inverse-curve equalization** — the paper's equal-distance
//!    islands vs. the naive equal-code mapping it rejects,
//! 3. **input filtering** — the 5-tap-median + EMA chain vs. raw
//!    samples, median-only and EMA-only,
//! 4. **firmware tick rate** — from oversampled to starved.

use distscroll_baselines::distscroll::DistScrollTechnique;
use distscroll_core::profile::{DeviceProfile, FilterConfig, MappingKind};
use distscroll_user::population::UserParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::islands::chatter_rate;
use crate::report::Table;
use crate::runner::run_block;
use crate::task::TaskPlan;

use super::{Effort, ExperimentReport};

/// Runs a small trial block under a profile; returns (mean time of
/// correct trials or None, error rate, mean corrections).
pub fn trial_block(profile: DeviceProfile, trials: usize, seed: u64) -> (Option<f64>, f64, f64) {
    trial_block_env(profile, None, trials, seed)
}

/// Like [`trial_block`] but under explicit clothing/light conditions.
pub fn trial_block_env(
    profile: DeviceProfile,
    environment: Option<(
        distscroll_sensors::environment::Surface,
        distscroll_sensors::environment::AmbientLight,
    )>,
    trials: usize,
    seed: u64,
) -> (Option<f64>, f64, f64) {
    let user = UserParams::expert();
    let mut tech = DistScrollTechnique::with_profile(profile);
    if let Some((surface, ambient)) = environment {
        tech = tech.with_environment(surface, ambient);
    }
    let plan = TaskPlan::block(8, trials, 100, seed);
    let records = run_block(&mut tech, &user, 0, &plan, seed ^ 0x5eed);
    let times: Vec<f64> = records
        .iter()
        .filter(|r| r.result.correct)
        .map(|r| r.result.time_s)
        .collect();
    let errors = records.iter().filter(|r| !r.result.correct).count() as f64 / records.len() as f64;
    let corrections = records
        .iter()
        .map(|r| f64::from(r.result.corrections))
        .sum::<f64>()
        / records.len() as f64;
    let mean = (!times.is_empty()).then(|| times.iter().sum::<f64>() / times.len() as f64);
    (mean, errors, corrections)
}

/// Spurious highlight changes per second while dwelling on one island
/// centre under given conditions — the flicker the input filters exist
/// to suppress.
#[expect(
    clippy::expect_used,
    reason = "battery is sized for the scripted run; Err means the harness broke, not data"
)]
pub fn dwell_flicker(
    profile: DeviceProfile,
    environment: Option<(
        distscroll_sensors::environment::Surface,
        distscroll_sensors::environment::AmbientLight,
    )>,
    secs: f64,
    seed: u64,
) -> f64 {
    use distscroll_core::device::DistScrollDevice;
    use distscroll_core::menu::Menu;
    let mut dev = DistScrollDevice::new(profile, Menu::flat(10), seed);
    if let Some((surface, ambient)) = environment {
        dev.set_surface(surface);
        dev.set_ambient(ambient);
    }
    #[expect(
        clippy::expect_used,
        reason = "entry 5 exists in the 10-entry paper menu by construction"
    )]
    let cm = dev.island_center_cm(5).expect("mid entry exists");
    dev.set_distance(cm);
    dev.run_for_ms(500).expect("fresh battery");
    dev.poll_events(&mut |_: &distscroll_core::events::TimedEvent| {});
    let t0 = dev.now();
    let mut changes = 0u32;
    while (dev.now() - t0).as_secs_f64() < secs {
        dev.run_for_ms(50).expect("fresh battery");
        dev.poll_events(&mut |e: &distscroll_core::events::TimedEvent| {
            if matches!(e.event, distscroll_core::events::Event::Highlight { .. }) {
                changes += 1;
            }
        });
    }
    f64::from(changes) / secs
}

/// Runs E7.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let trials = effort.pick(8, 24);
    let _rng = StdRng::seed_from_u64(seed);
    let mut sections = Vec::new();
    let mut findings = Vec::new();

    // --- Axis 1: dead-zone fraction. ---
    let gaps: &[f64] = effort.pick(&[0.0, 0.35, 0.6][..], &[0.0, 0.15, 0.35, 0.5, 0.65][..]);
    let mut gap_table = Table::new(
        "ablation 1: dead-zone (gap) fraction",
        &[
            "gap fraction",
            "boundary chatter [flips/s]",
            "time [s]",
            "error rate",
        ],
    );
    let mut chatter_at_zero = 0.0;
    let mut chatter_at_paper = 0.0;
    for &g in gaps {
        let chatter = chatter_rate(g, 17.0, effort.pick(4.0, 15.0), seed);
        let profile = DeviceProfile {
            gap_fraction: g,
            ..DeviceProfile::paper()
        };
        let (time, err, _) = trial_block(profile, trials, seed ^ g.to_bits());
        if g == 0.0 {
            chatter_at_zero = chatter;
        }
        if (g - 0.35).abs() < 1e-9 {
            chatter_at_paper = chatter;
        }
        gap_table.row(&[
            format!("{g:.2}"),
            format!("{chatter:.2}"),
            time.map_or("-".into(), |t| format!("{t:.2}")),
            format!("{:.1}%", err * 100.0),
        ]);
    }
    sections.push(gap_table.render());
    findings.push(format!(
        "gaps buy chatter immunity: {chatter_at_zero:.2} flips/s at gap 0 vs \
         {chatter_at_paper:.2} at the paper's 0.35"
    ));

    // --- Axis 2: equalization. ---
    let mut eq_table = Table::new(
        "ablation 2: equal-distance islands (paper) vs equal-code islands (naive)",
        &["mapping", "time [s]", "error rate", "corrections"],
    );
    let mut eq_results = Vec::new();
    for (label, kind) in [
        ("equal-distance (paper)", MappingKind::EqualDistance),
        ("equal-code (naive)", MappingKind::LinearInCode),
    ] {
        let profile = DeviceProfile {
            mapping_kind: kind,
            ..DeviceProfile::paper()
        };
        let (time, err, corr) = trial_block(profile, trials, seed ^ label.len() as u64);
        eq_table.row(&[
            label.into(),
            time.map_or("-".into(), |t| format!("{t:.2}")),
            format!("{:.1}%", err * 100.0),
            format!("{corr:.2}"),
        ]);
        eq_results.push((time.unwrap_or(f64::INFINITY), err, corr));
    }
    sections.push(eq_table.render());
    let equalization_wins = eq_results[0].2 < eq_results[1].2
        || eq_results[0].1 < eq_results[1].1
        || eq_results[0].0 < eq_results[1].0;
    findings.push(format!(
        "the naive equal-code mapping costs {:.2} corrections/trial vs {:.2} for the paper's \
         equalization (near entries cram into millimetres)",
        eq_results[1].2, eq_results[0].2
    ));

    // --- Axis 3: filters. Run under the harshest realistic condition —
    // a hi-vis vest (specular outliers) in direct sunlight (noise) —
    // because that is what the filter chain exists for; under lab
    // conditions raw samples are nearly as good. ---
    let mut filter_table = Table::new(
        "ablation 3: input filter chain (hi-vis vest, direct sunlight)",
        &["filters", "dwell flicker [1/s]", "time [s]", "error rate"],
    );
    let dwell_secs = effort.pick(8.0, 40.0);
    let harsh = Some((
        distscroll_sensors::environment::Surface::HiVisVest,
        distscroll_sensors::environment::AmbientLight::Sunlight,
    ));
    let configs: Vec<(&str, FilterConfig)> = vec![
        ("paper (median9+ema+gate)", FilterConfig::paper()),
        ("raw (no filtering)", FilterConfig::raw()),
        (
            "median only",
            FilterConfig {
                ema_alpha: 1.0,
                slew_gate: false,
                ..FilterConfig::paper()
            },
        ),
        (
            "ema only",
            FilterConfig {
                median_len: 1,
                slew_gate: false,
                ..FilterConfig::paper()
            },
        ),
    ];
    let mut filter_flicker = Vec::new();
    for (label, f) in configs {
        let profile = DeviceProfile {
            filters: f,
            ..DeviceProfile::paper()
        };
        let flicker = dwell_flicker(
            profile.clone(),
            harsh,
            dwell_secs,
            seed ^ (label.len() as u64) << 9,
        );
        let (time, err, _) =
            trial_block_env(profile, harsh, trials, seed ^ (label.len() as u64) << 3);
        filter_table.row(&[
            label.into(),
            format!("{flicker:.2}"),
            time.map_or("-".into(), |t| format!("{t:.2}")),
            format!("{:.1}%", err * 100.0),
        ]);
        filter_flicker.push(flicker);
    }
    sections.push(filter_table.render());
    findings.push(format!(
        "filter chain under hi-vis + sunlight: {:.2} spurious highlight changes/s with the \
         paper chain vs {:.2} raw — the median window earns its 10 bytes of pic ram in \
         exactly the conditions the paper warns about",
        filter_flicker[0], filter_flicker[1]
    ));

    // --- Axis 4: tick rate. ---
    let ticks: &[u64] = effort.pick(&[10, 50][..], &[5, 10, 20, 50][..]);
    let mut tick_table = Table::new(
        "ablation 4: firmware tick period",
        &["tick [ms]", "time [s]", "error rate"],
    );
    for &ms in ticks {
        let profile = DeviceProfile {
            tick_ms: ms,
            ..DeviceProfile::paper()
        };
        let (time, err, _) = trial_block(profile, trials, seed ^ ms);
        tick_table.row(&[
            format!("{ms}"),
            time.map_or("-".into(), |t| format!("{t:.2}")),
            format!("{:.1}%", err * 100.0),
        ]);
    }
    sections.push(tick_table.render());
    findings.push(
        "tick periods up to the sensor's own 38 ms refresh cost little; starving the loop \
         slows the display feedback the user verifies against"
            .into(),
    );

    let chatter_ok = chatter_at_paper <= chatter_at_zero;
    let filters_help = filter_flicker[0] < filter_flicker[1] * 0.6 || filter_flicker[0] < 0.02;
    ExperimentReport {
        id: "E7",
        title: "design ablations: gaps, equalization, filters, tick rate".into(),
        paper_claim: "Section 4.2 commits to islands separated by dead zones, placed through \
                      the inverted fitted curve so entries feel equally spaced; these ablations \
                      measure what each choice buys"
            .into(),
        sections,
        findings,
        shape_holds: chatter_ok && equalization_wins && filters_help,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }

    #[test]
    fn trial_block_reports_sane_numbers() {
        let (time, err, corr) = trial_block(DeviceProfile::paper(), 6, 9);
        assert!(time.is_some());
        assert!((0.0..=1.0).contains(&err));
        assert!(corr >= 0.0);
    }
}

//! T-island — the Section 4.2 island mapping, tabulated.
//!
//! The paper describes the mapping in prose; this experiment prints the
//! table the paper implies: for menus of several sizes, where each
//! island sits physically and in ADC codes, how wide the dead zones
//! are, and the headline property — equal physical spacing despite
//! wildly unequal code spans. It also measures the property the dead
//! zones buy: a tremoring hand resting on an island boundary does *not*
//! chatter between entries.

use distscroll_core::mapping::{paper_curve, IslandMap, MappingState};
use distscroll_user::motor::Tremor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Table;

use super::{Effort, ExperimentReport};

/// Highlight flips per second for a hand resting at `rest_cm`, for a
/// given gap fraction.
///
/// Two physiological processes move the measured distance even when the
/// user "holds still": hand tremor (~1 mm at 9 Hz) and — crucially for
/// this device, whose reference surface is the user's own torso —
/// breathing sway of a few millimetres at ~0.25 Hz.
pub fn chatter_rate(gap_fraction: f64, rest_cm: f64, seconds: f64, seed: u64) -> f64 {
    let curve = paper_curve();
    #[expect(
        clippy::expect_used,
        reason = "ten entries always fit the 4-30 cm range (paper geometry)"
    )]
    let map = IslandMap::build(10, 4.0, 30.0, gap_fraction, &curve)
        .expect("ten entries always fit the range");
    let mut state = MappingState::new();
    let mut tremor = Tremor::new(0.10, 9.0);
    let breathing = distscroll_sensors::noise::Periodic::new(0.40, 0.25);
    let mut rng = StdRng::seed_from_u64(seed);
    let dt = 0.01;
    let mut t = 0.0;
    let mut flips = 0u32;
    let mut last: Option<usize> = None;
    while t < seconds {
        let cm = rest_cm + tremor.sample(t, &mut rng) + breathing.at(t);
        let hit = map.lookup_cm(cm, &curve);
        let sel = state.resolve(hit);
        if sel != last && last.is_some() {
            flips += 1;
        }
        if sel.is_some() {
            last = sel;
        }
        t += dt;
    }
    f64::from(flips) / seconds
}

/// Runs T-island.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let curve = paper_curve();
    let sizes: &[usize] = effort.pick(&[5, 10], &[5, 10, 12]);
    let mut sections = Vec::new();
    let mut findings = Vec::new();
    let mut all_ok = true;

    for &n in sizes {
        #[expect(
            clippy::expect_used,
            reason = "swept sizes are chosen to fit the range; Err would be a sweep bug"
        )]
        let map = IslandMap::build(n, 4.0, 30.0, 0.35, &curve).expect("sizes fit the range");
        let mut table = Table::new(
            format!("island mapping for {n} entries (gap fraction 0.35)"),
            &[
                "entry",
                "centre [cm]",
                "width [cm]",
                "codes [lo..hi]",
                "code span",
            ],
        );
        for i in map.islands() {
            table.row(&[
                format!("{}", i.index),
                format!("{:.2}", i.center_cm),
                format!("{:.2}", i.width_cm),
                format!("{}..{}", i.lo_code, i.hi_code),
                format!("{}", i.hi_code - i.lo_code + 1),
            ]);
        }
        sections.push(table.render());

        let spans: Vec<u16> = map
            .islands()
            .iter()
            .map(|i| i.hi_code - i.lo_code + 1)
            .collect();
        let near = f64::from(spans[0]);
        let far = f64::from(spans[n - 1]);
        let equal_cm = map
            .islands()
            .windows(2)
            .all(|w| ((w[1].center_cm - w[0].center_cm) - 26.0 / n as f64).abs() < 1e-9);
        all_ok &= equal_cm && near > 3.0 * far;
        findings.push(format!(
            "{n} entries: equal {:.2} cm slots; code spans {}..{} (near/far ratio {:.1}x); coverage {:.0}%",
            26.0 / n as f64,
            spans[n - 1],
            spans[0],
            near / far,
            map.code_coverage() * 100.0
        ));
    }

    // The dead zones' purpose: boundary chatter. Compare a gapless map
    // against the paper's 0.35 gaps with the hand resting on a boundary
    // between islands 4 and 5 of a 10-entry map.
    let boundary_cm = 4.0 + 5.0 * 2.6; // exact boundary at 17 cm
    let secs = effort.pick(5.0, 30.0);
    let chatter_gapless = chatter_rate(0.0, boundary_cm, secs, seed);
    let chatter_paper = chatter_rate(0.35, boundary_cm, secs, seed);
    let mut table = Table::new(
        "boundary chatter: flips per second at a boundary (1 mm tremor + 4 mm breathing sway)",
        &["gap fraction", "flips/s"],
    );
    table.row(&[
        "0.00 (no dead zones)".into(),
        format!("{chatter_gapless:.2}"),
    ]);
    table.row(&["0.35 (paper)".into(), format!("{chatter_paper:.2}")]);
    sections.push(table.render());
    let chatter_ok = chatter_paper < chatter_gapless * 0.25 || chatter_paper < 0.05;
    findings.push(format!(
        "dead zones suppress boundary chatter: {chatter_gapless:.2} -> {chatter_paper:.2} flips/s"
    ));

    ExperimentReport {
        id: "T-island",
        title: "the Section 4.2 island mapping, tabulated".into(),
        paper_claim: "entries are distributed over the sensor range so they are perceived as \
                      equally spaced in distance; islands around the calculated sensor values \
                      are separated by intervals in which no entry is selected (Sec. 4.2)"
            .into(),
        sections,
        findings,
        shape_holds: all_ok && chatter_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn islands_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }

    #[test]
    fn gaps_actually_reduce_chatter() {
        let gapless = chatter_rate(0.0, 17.0, 8.0, 3);
        let gapped = chatter_rate(0.35, 17.0, 8.0, 3);
        assert!(
            gapped <= gapless,
            "gapless {gapless:.2} vs gapped {gapped:.2}"
        );
    }
}

//! R1 — does the stream-segmented recognizer widen the usable band?
//!
//! Section 7 leaves open whether the 4–30 cm band and the island
//! hysteresis are the right defense against hand tremor and the <4 cm
//! fold-back alias. The classic chain (slew gate → median → EMA)
//! defends by *smoothing*; the segmented recognizer
//! (`distscroll-recognizer`) defends by *classifying* — tremor is
//! anchored, fold-back ghosts must prove self-consistency before the
//! output moves. This experiment measures the difference as a band
//! property:
//!
//! * **positions** — the hand parks across each island's span, center
//!   and edges (the band-edge axis: edge positions leave the least
//!   margin before tremor crosses into the neighbour island);
//! * **tremor** — a 9 Hz quasi-sinusoid of swept amplitude rides on the
//!   hold, from the typical 1 mm to a pathological 8 mm;
//! * **fold-back incursions** — a finger sweeps through the <4 cm
//!   region in front of the sensor on a fixed cadence. The GP2D120
//!   aliases sub-4 cm distances to in-band voltages, and because the
//!   finger *moves*, the alias wanders: a self-inconsistent ghost
//!   stream. The slew gate yields to any persistent jump after its
//!   give-up window; the segmented FoldBack state only yields to a
//!   stream that stays consistent, so wandering ghosts are rejected
//!   forever.
//!
//! Per (tremor × incursion) cell and per recognizer the report gives
//! the mean error-tick fraction, the usable band width (cm of island
//! span where the highlight stays correct ≥ 85 % of the time), and the
//! highlight flicker count.

use distscroll_core::device::DistScrollDevice;
use distscroll_core::events::{Event, TimedEvent};
use distscroll_core::menu::Menu;
use distscroll_core::profile::{DeviceProfile, DirectionMapping, RecognizerKind};
use distscroll_recognizer::AnyRecognizer;

use crate::report::Table;

use super::{jobs, Effort, ExperimentReport};

/// Tremor frequency, Hz — the middle of the 8–12 Hz physiological band.
const TREMOR_HZ: f64 = 9.0;

/// Ticks one fold-back incursion lasts (140 ms at the 10 ms tick): long
/// enough that the slew gate's 8-tick give-up window expires while the
/// ghost is still on the sensor.
const INCURSION_TICKS: u64 = 14;

/// A position's hold is "reliable" when at least this fraction of
/// measured ticks highlight the right entry.
const RELIABLE_FRAC: f64 = 0.85;

/// One swept disturbance condition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Disturbance {
    /// Tremor amplitude, cm (half peak-to-peak).
    pub tremor_amp_cm: f64,
    /// Fold-back incursions per second (0 = none).
    pub incursions_per_s: f64,
}

/// Aggregated outcome of one (recognizer × disturbance) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutcome {
    /// Mean error-tick fraction across all held positions.
    pub err_frac: f64,
    /// Summed cm of island span held reliably.
    pub usable_band_cm: f64,
    /// Total island span measured, cm.
    pub total_band_cm: f64,
    /// Highlight changes logged during measurement windows (a steady
    /// hold should produce none).
    pub flickers: u64,
    /// Fold-back ghost streams the segmented recognizer rejected
    /// (always 0 for the classic chain, which has no such notion).
    pub ghosts_rejected: u64,
}

/// A parked hand position with its expected highlight.
#[derive(Debug, Clone, Copy)]
struct Position {
    /// Menu entry the device should highlight while parked here.
    expect_idx: usize,
    /// Hold distance, cm.
    cm: f64,
    /// Width of the island this position samples, cm (for the band
    /// accounting: each island's span is split evenly over its
    /// sampled positions).
    island_width_cm: f64,
}

/// Samples hold positions across every island of an 8-entry menu:
/// center plus edge offsets, expressed as fractions of the island
/// half-width.
fn sample_positions(profile: &DeviceProfile, offsets: &[f64]) -> Vec<Position> {
    // Geometry only — the probe device never ticks.
    let probe = DistScrollDevice::new(profile.clone(), Menu::flat(8), 0);
    let map = probe.firmware().island_map();
    let n = map.len();
    let mut positions = Vec::new();
    for idx in 0..n {
        let island_idx = match profile.direction {
            DirectionMapping::TowardIsUp => idx,
            DirectionMapping::TowardIsDown => n - 1 - idx,
        };
        let island = map.islands()[island_idx];
        for &off in offsets {
            positions.push(Position {
                expect_idx: idx,
                cm: island.center_cm + off * island.width_cm / 2.0,
                island_width_cm: island.width_cm / offsets.len() as f64,
            });
        }
    }
    positions
}

/// Holds one position under the disturbance and returns
/// `(error_ticks, measured_ticks, flickers, ghosts_rejected)`.
fn hold_position(
    kind: RecognizerKind,
    pos: Position,
    disturbance: Disturbance,
    settle_ticks: u64,
    measure_ticks: u64,
    seed: u64,
) -> (u64, u64, u64, u64) {
    let mut profile = DeviceProfile::paper();
    profile.recognizer = kind;
    let tick_s = profile.tick_ms as f64 / 1000.0;
    let mut dev = DistScrollDevice::new(profile, Menu::flat(8), seed);

    let period_ticks = if disturbance.incursions_per_s > 0.0 {
        ((1.0 / disturbance.incursions_per_s) / tick_s).round() as u64
    } else {
        u64::MAX
    };
    // Deterministic per-position tremor phase so positions do not all
    // crest together.
    let phase = (seed % 97) as f64 / 97.0 * std::f64::consts::TAU;

    let mut errors = 0u64;
    let mut flickers = 0u64;
    for k in 0..settle_ticks + measure_ticks {
        let t = k as f64 * tick_s;
        let measuring = k >= settle_ticks;
        // Incursions start only after settle, so the recognizer defends
        // an established hold rather than a cold boot.
        let in_incursion = measuring && (k - settle_ticks) % period_ticks < INCURSION_TICKS;
        let d = if in_incursion {
            // A finger sweeping through the fold-back region: 3.2 cm
            // down to 2.2 cm and back, so the alias wanders instead of
            // holding one value.
            let j = ((k - settle_ticks) % period_ticks) as f64;
            3.2 - 1.0 * (std::f64::consts::PI * j / INCURSION_TICKS as f64).sin()
        } else {
            pos.cm
                + disturbance.tremor_amp_cm * (std::f64::consts::TAU * TREMOR_HZ * t + phase).sin()
        };
        dev.set_distance(d);
        if dev.tick().is_err() {
            break;
        }
        let mut moved = false;
        dev.poll_events(&mut |ev: &TimedEvent| {
            if matches!(ev.event, Event::Highlight { .. }) {
                moved = true;
            }
        });
        if measuring {
            if moved {
                flickers += 1;
            }
            if dev.highlighted() != pos.expect_idx {
                errors += 1;
            }
        }
    }
    let ghosts = match dev.firmware().recognizer() {
        AnyRecognizer::Segmented(s) => s.ghosts_rejected(),
        AnyRecognizer::Classic(_) => 0,
    };
    (errors, measure_ticks, flickers, ghosts)
}

/// Runs one (recognizer × disturbance) cell over all positions.
pub fn run_cell(
    kind: RecognizerKind,
    disturbance: Disturbance,
    effort: Effort,
    seed: u64,
) -> CellOutcome {
    let offsets: &[f64] = effort.pick(&[-0.8, 0.0, 0.8][..], &[-0.8, -0.4, 0.0, 0.4, 0.8][..]);
    let settle_ticks = effort.pick(50, 80);
    let measure_ticks = effort.pick(150, 250);
    let positions = sample_positions(&DeviceProfile::paper(), offsets);

    let mut err_sum = 0.0;
    let mut usable_cm = 0.0;
    let mut total_cm = 0.0;
    let mut flickers = 0u64;
    let mut ghosts = 0u64;
    for (i, &pos) in positions.iter().enumerate() {
        let pos_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i as u64) << 8)
            .wrapping_add(kind as u64);
        let (errors, measured, f, g) = hold_position(
            kind,
            pos,
            disturbance,
            settle_ticks,
            measure_ticks,
            pos_seed,
        );
        let err_frac = errors as f64 / measured.max(1) as f64;
        err_sum += err_frac;
        total_cm += pos.island_width_cm;
        if 1.0 - err_frac >= RELIABLE_FRAC {
            usable_cm += pos.island_width_cm;
        }
        flickers += f;
        ghosts += g;
    }
    CellOutcome {
        err_frac: err_sum / positions.len() as f64,
        usable_band_cm: usable_cm,
        total_band_cm: total_cm,
        flickers,
        ghosts_rejected: ghosts,
    }
}

/// Runs R1.
pub fn run(effort: Effort, seed: u64) -> ExperimentReport {
    let amps: &[f64] = effort.pick(&[0.1, 0.8][..], &[0.1, 0.4, 0.8][..]);
    let incursions: &[f64] = effort.pick(&[0.0, 1.0][..], &[0.0, 0.5, 1.0][..]);

    let cells: Vec<Disturbance> = amps
        .iter()
        .flat_map(|&tremor_amp_cm| {
            incursions.iter().map(move |&incursions_per_s| Disturbance {
                tremor_amp_cm,
                incursions_per_s,
            })
        })
        .collect();

    // Both recognizers over every cell, fanned out over `jobs()`; the
    // join keeps input order so the report is identical at any --jobs.
    let outcomes: Vec<(CellOutcome, CellOutcome)> =
        distscroll_par::par_map(jobs(), &cells, |i, &cell| {
            let cell_seed = seed.wrapping_add(0x517c_c1b7_2722_0a95u64.wrapping_mul(i as u64 + 1));
            (
                run_cell(RecognizerKind::Classic, cell, effort, cell_seed),
                run_cell(RecognizerKind::Segmented, cell, effort, cell_seed),
            )
        });

    let mut table = Table::new(
        "usable band and error rate under tremor x fold-back incursions (classic vs segmented)",
        &[
            "tremor [cm]",
            "incursions [1/s]",
            "classic err",
            "segmented err",
            "classic band [cm]",
            "segmented band [cm]",
            "classic flicker",
            "segmented flicker",
        ],
    );
    let mut total_band = 0.0;
    let mut ghosts_total = 0u64;
    for (cell, (classic, segmented)) in cells.iter().zip(&outcomes) {
        table.row(&[
            format!("{:.1}", cell.tremor_amp_cm),
            format!("{:.1}", cell.incursions_per_s),
            format!("{:.1}%", classic.err_frac * 100.0),
            format!("{:.1}%", segmented.err_frac * 100.0),
            format!("{:.1}", classic.usable_band_cm),
            format!("{:.1}", segmented.usable_band_cm),
            format!("{}", classic.flickers),
            format!("{}", segmented.flickers),
        ]);
        total_band = classic.total_band_cm;
        ghosts_total += segmented.ghosts_rejected;
    }

    // The benign cell calibrates; the harsh cell is the headline.
    let benign = &outcomes[0];
    #[expect(
        clippy::expect_used,
        reason = "the cell grid always contains its own maximum"
    )]
    let harsh_i = cells
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            (a.tremor_amp_cm + a.incursions_per_s)
                .total_cmp(&(b.tremor_amp_cm + b.incursions_per_s))
        })
        .map(|(i, _)| i)
        .expect("non-empty cell grid");
    let harsh = &outcomes[harsh_i];

    // The classic device is a working device in benign conditions (the
    // paper's study says so): most of the band must hold. Its residual
    // edge-position errors are exactly the open question under test.
    let benign_classic_works = benign.0.usable_band_cm > 0.5 * total_band;
    // Band width is measured at the granularity of the sampled
    // positions (island centers and ±0.8/±0.4 edge offsets), so one
    // flipped edge position moves the figure by up to an island's
    // half-width — "never worse" tolerates that sampling quantum
    // (1 cm), not a real band loss.
    let never_worse = outcomes.iter().all(|(classic, segmented)| {
        segmented.err_frac <= classic.err_frac + 0.02
            && segmented.usable_band_cm >= classic.usable_band_cm - 1.0
    });
    let harsh_improves =
        harsh.1.err_frac < harsh.0.err_frac && harsh.1.usable_band_cm > harsh.0.usable_band_cm;

    let findings = vec![
        format!(
            "benign cell (tremor {:.1} cm, no incursions): classic holds {:.1} of {:.1} cm \
             ({:.1}% error) vs segmented {:.1} cm ({:.1}% error) — island-edge positions at \
             the far band are where the classic chain already loses ground",
            cells[0].tremor_amp_cm,
            benign.0.usable_band_cm,
            total_band,
            benign.0.err_frac * 100.0,
            benign.1.usable_band_cm,
            benign.1.err_frac * 100.0
        ),
        format!(
            "harshest cell (tremor {:.1} cm, {:.1} incursions/s): usable band {:.1} cm -> \
             {:.1} cm of {:.1} cm, error {:.1}% -> {:.1}%",
            cells[harsh_i].tremor_amp_cm,
            cells[harsh_i].incursions_per_s,
            harsh.0.usable_band_cm,
            harsh.1.usable_band_cm,
            total_band,
            harsh.0.err_frac * 100.0,
            harsh.1.err_frac * 100.0
        ),
        format!(
            "the segmented recognizer rejected {ghosts_total} wandering fold-back ghost streams \
             across the sweep; the slew gate yields to any ghost that outlasts its 8-tick \
             give-up window"
        ),
    ];

    ExperimentReport {
        id: "R1",
        title: "segmented recognizer: usable band under tremor and fold-back".into(),
        paper_claim: "open question: are the 4-30 cm band and the island hysteresis the right \
                      defense against tremor and fold-back artifacts? (Sec. 7, via the filter \
                      chain of Sec. 4.2)"
            .into(),
        sections: vec![table.render()],
        findings,
        shape_holds: benign_classic_works && never_worse && harsh_improves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r1_shape_holds_quick() {
        let r = run(Effort::Quick, 42);
        assert!(r.shape_holds, "{}", r.render());
    }

    #[test]
    fn segmented_defends_the_harsh_cell() {
        let harsh = Disturbance {
            tremor_amp_cm: 0.8,
            incursions_per_s: 1.0,
        };
        let classic = run_cell(RecognizerKind::Classic, harsh, Effort::Quick, 7);
        let segmented = run_cell(RecognizerKind::Segmented, harsh, Effort::Quick, 7);
        assert!(
            segmented.err_frac < classic.err_frac,
            "segmented {:.3} vs classic {:.3}",
            segmented.err_frac,
            classic.err_frac
        );
        assert!(segmented.usable_band_cm >= classic.usable_band_cm);
    }
}

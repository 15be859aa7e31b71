//! Replay: reconstruct the hand's trajectory from logged codes.
//!
//! The host knows the calibration curve (Figure 4), so logged ADC codes
//! convert back to distances. [`Trajectory`] carries the reconstructed
//! motion and renders it as an ASCII strip chart — the experimenter's
//! "what did the participant actually do with their arm" view, and the
//! input to gesture-level statistics (mean speed, travel, dwell
//! fraction).

use distscroll_sensors::calibrate::InverseCurveFit;

use crate::session::{SessionLog, TimedRecord};
use crate::telemetry::Record;

/// A reconstructed hand trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// (seconds, distance cm) samples, in time order.
    pub samples: Vec<(f64, f64)>,
}

impl Trajectory {
    /// Reconstructs from a session log through the calibration curve.
    /// Codes outside the curve's invertible range are skipped (the hand
    /// was out of the sensor's view).
    pub fn from_log(log: &SessionLog, curve: &InverseCurveFit, tick_s: f64) -> Trajectory {
        let samples = log
            .records()
            .iter()
            .filter_map(|tr: &TimedRecord| match tr.record {
                Record::State(s) => {
                    let volts = f64::from(s.code) / 1023.0 * 5.0;
                    curve
                        .distance_at(volts)
                        .filter(|d| (2.0..=45.0).contains(d))
                        .map(|d| (tr.tick as f64 * tick_s, d))
                }
                Record::Event(_) => None,
            })
            .collect();
        Trajectory { samples }
    }

    /// Total hand travel, cm.
    pub fn travel_cm(&self) -> f64 {
        self.samples
            .windows(2)
            .map(|w| (w[1].1 - w[0].1).abs())
            .sum()
    }

    /// Mean absolute hand speed, cm/s.
    pub fn mean_speed(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) if b.0 > a.0 => self.travel_cm() / (b.0 - a.0),
            _ => 0.0,
        }
    }

    /// Fraction of samples where the hand moved less than `eps_cm` since
    /// the previous sample — the dwell fraction.
    pub fn dwell_fraction(&self, eps_cm: f64) -> f64 {
        if self.samples.len() < 2 {
            return 1.0;
        }
        let still = self
            .samples
            .windows(2)
            .filter(|w| (w[1].1 - w[0].1).abs() < eps_cm)
            .count();
        still as f64 / (self.samples.len() - 1) as f64
    }

    /// An ASCII strip chart of distance over time, `width` columns wide
    /// and `height` rows tall (nearest at the bottom).
    pub fn strip_chart(&self, width: usize, height: usize) -> String {
        let (Some(&(t0, _)), Some(&(t_last, _))) = (self.samples.first(), self.samples.last())
        else {
            return "(no trajectory samples)".to_string();
        };
        if width == 0 || height == 0 {
            return "(no trajectory samples)".to_string();
        }
        let t1 = t_last.max(t0 + 1e-9);
        let (mut d_lo, mut d_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, d) in &self.samples {
            d_lo = d_lo.min(d);
            d_hi = d_hi.max(d);
        }
        if (d_hi - d_lo).abs() < 1e-9 {
            d_hi = d_lo + 1.0;
        }
        // Degenerate ranges must not reach the division below. The
        // `t0 + 1e-9` nudge above is absorbed by f64 rounding once t0 is
        // large (one sample at t0 ≈ 1e9 s gives span == 0, and the old
        // 0/0 produced NaN that `as usize` silently turned into cell 0);
        // worse, unsorted samples make `t - t0` exceed a tiny span, and
        // the huge ratio indexed the grid out of bounds.
        let span_t = t1 - t0;
        let span_d = d_hi - d_lo;
        let project = |offset: f64, span: f64, cells: usize| -> usize {
            if span.is_nan() || span <= 0.0 || cells <= 1 {
                return 0;
            }
            ((offset / span).clamp(0.0, 1.0) * (cells - 1) as f64).round() as usize
        };
        let mut grid = vec![vec![' '; width]; height];
        for &(t, d) in &self.samples {
            let col = project(t - t0, span_t, width);
            let row_up = project(d - d_lo, span_d, height);
            grid[height - 1 - row_up][col] = '*';
        }
        let mut out = String::new();
        out.push_str(&format!("{d_hi:>6.1} cm\n"));
        for row in grid {
            out.push('|');
            out.push_str(String::from_iter(row).trim_end());
            out.push('\n');
        }
        out.push_str(&format!("{d_lo:>6.1} cm  ({:.1} s)\n", t1 - t0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Record, Stamp16, StateRecord};
    use distscroll_sensors::calibrate::fit_inverse_curve;
    use distscroll_sensors::gp2d120;

    fn curve() -> InverseCurveFit {
        let pts: Vec<(f64, f64)> = (4..=30)
            .map(|d| (f64::from(d), gp2d120::ideal_voltage(f64::from(d))))
            .collect();
        fit_inverse_curve(&pts).expect("ideal points fit")
    }

    fn log_with_distances(ds: &[f64]) -> SessionLog {
        let c = curve();
        let mut log = SessionLog::new();
        for (i, &d) in ds.iter().enumerate() {
            let code = (c.voltage_at(d) / 5.0 * 1023.0).round() as u16;
            log.ingest(Record::State(StateRecord {
                stamp: Stamp16::new((i * 10) as u16),
                code,
                island: None,
                level: 0,
                highlighted: 0,
            }));
        }
        log
    }

    #[test]
    fn reconstruction_inverts_the_curve() {
        let log = log_with_distances(&[5.0, 10.0, 20.0, 28.0]);
        let traj = Trajectory::from_log(&log, &curve(), 0.01);
        assert_eq!(traj.samples.len(), 4);
        for (sample, want) in traj.samples.iter().zip([5.0, 10.0, 20.0, 28.0]) {
            assert!((sample.1 - want).abs() < 0.3, "{} vs {want}", sample.1);
        }
    }

    #[test]
    fn travel_and_speed_are_computed() {
        let log = log_with_distances(&[10.0, 20.0, 10.0]);
        let traj = Trajectory::from_log(&log, &curve(), 0.01);
        assert!(
            (traj.travel_cm() - 20.0).abs() < 1.0,
            "travel {}",
            traj.travel_cm()
        );
        assert!(traj.mean_speed() > 0.0);
    }

    #[test]
    fn dwell_fraction_distinguishes_rest_from_motion() {
        let still = Trajectory::from_log(&log_with_distances(&[15.0; 20]), &curve(), 0.01);
        let moving = Trajectory::from_log(
            &log_with_distances(&[5.0, 10.0, 15.0, 20.0, 25.0]),
            &curve(),
            0.01,
        );
        assert!(still.dwell_fraction(0.5) > 0.9);
        assert!(moving.dwell_fraction(0.5) < 0.3);
    }

    #[test]
    fn out_of_view_codes_are_skipped() {
        let mut log = SessionLog::new();
        log.ingest(Record::State(StateRecord {
            stamp: Stamp16::default(),
            code: 5, // deep below the sensor floor
            island: None,
            level: 0,
            highlighted: 0,
        }));
        let traj = Trajectory::from_log(&log, &curve(), 0.01);
        assert!(traj.samples.is_empty());
    }

    #[test]
    fn strip_chart_renders_extremes() {
        let log = log_with_distances(&[5.0, 28.0, 5.0, 28.0]);
        let traj = Trajectory::from_log(&log, &curve(), 0.01);
        let chart = traj.strip_chart(40, 8);
        assert!(chart.contains('*'));
        assert!(chart.lines().count() >= 10);
    }

    #[test]
    fn one_sample_far_from_boot_renders_in_bounds() {
        // Regression (found by fuzzing the projection): with one sample
        // at a large timestamp, `t0 + 1e-9 == t0` in f64, the time span
        // collapsed to zero and 0/0 NaN picked a garbage cell.
        let traj = Trajectory {
            samples: vec![(1.0e9, 17.5)],
        };
        let chart = traj.strip_chart(40, 8);
        assert_eq!(chart.matches('*').count(), 1);
        // The single sample lands in the leftmost column, bottom row.
        assert!(chart.lines().nth(8).is_some_and(|l| l.starts_with("|*")));
    }

    #[test]
    fn unsorted_samples_do_not_index_out_of_bounds() {
        // Regression (found by fuzzing the projection): `samples` is pub
        // and nothing promises time order; with t_last < t0 the nudged
        // span was ~1e-9 and (t - t0) / span indexed columns in the
        // billions — an out-of-bounds panic pre-fix. Out-of-range points
        // clamp to the chart edge instead.
        let traj = Trajectory {
            samples: vec![(5.0, 10.0), (10.0, 12.0), (0.0, 11.0)],
        };
        let chart = traj.strip_chart(40, 8);
        assert!(chart.contains('*'));
    }

    #[test]
    fn flat_trace_renders_on_the_bottom_row() {
        // Constant distance: the d-range widens by 1 cm for display and
        // every sample sits on the bottom row.
        let traj = Trajectory::from_log(&log_with_distances(&[15.0; 12]), &curve(), 0.01);
        let chart = traj.strip_chart(30, 6);
        let rows: Vec<&str> = chart.lines().collect();
        assert!(rows[rows.len() - 2].contains('*'), "{chart}");
        for row in &rows[1..rows.len() - 2] {
            assert!(
                !row.contains('*'),
                "flat trace crept above the floor: {chart}"
            );
        }
    }

    #[test]
    fn empty_log_renders_gracefully() {
        let traj = Trajectory { samples: vec![] };
        assert_eq!(traj.strip_chart(40, 8), "(no trajectory samples)");
        assert_eq!(traj.travel_cm(), 0.0);
        assert_eq!(traj.mean_speed(), 0.0);
        assert_eq!(traj.dwell_fraction(0.1), 1.0);
    }
}

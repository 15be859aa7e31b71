//! Text tables and ASCII plots — the harness's "figures".
//!
//! Every experiment renders its results as aligned text tables (the
//! paper's would-be tables) and ASCII scatter/line plots (its figures),
//! so `cargo run -p distscroll-eval` output is self-contained and
//! diffable. Figure 5 needs logarithmic axes; the plotter supports them.

/// A simple aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// A row whose cell count does not match its table's header count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowWidthError {
    /// Cells the rejected row supplied.
    pub got: usize,
    /// Header count the table was built with.
    pub want: usize,
}

impl std::fmt::Display for RowWidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "row has {} cells but the table has {} headers",
            self.got, self.want
        )
    }
}

impl std::error::Error for RowWidthError {}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, rejecting a width mismatch as an error instead of
    /// panicking — for callers assembling rows from non-literal data.
    ///
    /// # Errors
    ///
    /// Returns [`RowWidthError`] when the row's length differs from the
    /// header count; the table is left unchanged.
    pub fn try_row(&mut self, cells: &[String]) -> Result<&mut Self, RowWidthError> {
        if cells.len() != self.headers.len() {
            return Err(RowWidthError {
                got: cells.len(),
                want: self.headers.len(),
            });
        }
        self.rows.push(cells.to_vec());
        Ok(self)
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the header count. Every
    /// experiment builds its rows against a header list two lines above,
    /// so a mismatch is a bug in that experiment, never runtime data;
    /// use [`Table::try_row`] where the width is not statically evident.
    #[expect(
        clippy::panic,
        reason = "documented panic (# Panics): ragged rows are caller bugs caught in tests, not data"
    )]
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.try_row(cells)
            .unwrap_or_else(|e| panic!("row width must match headers: {e}"))
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Axis scale for plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Linear axis.
    Linear,
    /// Logarithmic axis (base 10); all values must be positive.
    Log,
}

/// An ASCII scatter plot with one or more series.
#[derive(Debug, Clone)]
pub struct AsciiPlot {
    title: String,
    x_label: String,
    y_label: String,
    x_scale: Scale,
    y_scale: Scale,
    series: Vec<(char, Vec<(f64, f64)>)>,
    width: usize,
    height: usize,
}

impl AsciiPlot {
    /// A plot with the given labels, 72×22 characters.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        AsciiPlot {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series: Vec::new(),
            width: 72,
            height: 22,
        }
    }

    /// Sets both axis scales (Figure 5 uses log–log).
    pub fn scales(mut self, x: Scale, y: Scale) -> Self {
        self.x_scale = x;
        self.y_scale = y;
        self
    }

    /// Adds a series drawn with `marker`.
    pub fn series(mut self, marker: char, points: &[(f64, f64)]) -> Self {
        self.series.push((marker, points.to_vec()));
        self
    }

    fn transform(scale: Scale, v: f64) -> Option<f64> {
        match scale {
            Scale::Linear => v.is_finite().then_some(v),
            Scale::Log => (v > 0.0 && v.is_finite()).then(|| v.log10()),
        }
    }

    /// Renders the plot; points that do not fit the scale (e.g. zero on a
    /// log axis) are silently dropped.
    pub fn render(&self) -> String {
        let mut pts: Vec<(char, f64, f64)> = Vec::new();
        for (marker, series) in &self.series {
            for &(x, y) in series {
                if let (Some(tx), Some(ty)) = (
                    Self::transform(self.x_scale, x),
                    Self::transform(self.y_scale, y),
                ) {
                    pts.push((*marker, tx, ty));
                }
            }
        }
        let mut out = format!("-- {} --\n", self.title);
        if pts.is_empty() {
            out.push_str("(no plottable points)\n");
            return out;
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(_, x, y) in &pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if (x1 - x0).abs() < 1e-12 {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < 1e-12 {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![' '; self.width]; self.height];
        for &(marker, x, y) in &pts {
            let cx = ((x - x0) / (x1 - x0) * (self.width - 1) as f64).round() as usize;
            let cy = ((y - y0) / (y1 - y0) * (self.height - 1) as f64).round() as usize;
            let row = self.height - 1 - cy;
            // Later series draw over earlier ones, except that a fitted
            // line ('-') never overwrites a data marker.
            if grid[row][cx] == ' ' || marker != '-' {
                grid[row][cx] = marker;
            }
        }
        let scale_tag = |s: Scale| if s == Scale::Log { " (log)" } else { "" };
        out.push_str(&format!("y: {}{}\n", self.y_label, scale_tag(self.y_scale)));
        for (i, row) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{:>9.3}", back(self.y_scale, y1))
            } else if i == self.height - 1 {
                format!("{:>9.3}", back(self.y_scale, y0))
            } else {
                " ".repeat(9)
            };
            out.push_str(&format!(
                "{label} |{}\n",
                row.iter().collect::<String>().trim_end()
            ));
        }
        out.push_str(&format!("{} +{}\n", " ".repeat(9), "-".repeat(self.width)));
        out.push_str(&format!(
            "{} {:<12.3}{:>width$.3}  x: {}{}\n",
            " ".repeat(9),
            back(self.x_scale, x0),
            back(self.x_scale, x1),
            self.x_label,
            scale_tag(self.x_scale),
            width = self.width - 12
        ));
        out
    }
}

fn back(scale: Scale, v: f64) -> f64 {
    match scale {
        Scale::Linear => v,
        Scale::Log => 10f64.powf(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["alpha".into(), "1".into()]);
        t.row(&["b".into(), "22222".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        let lines: Vec<&str> = r.lines().collect();
        // Header and rows share column positions.
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1').unwrap(), col);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn try_row_reports_the_mismatch_without_panicking() {
        let mut t = Table::new("demo", &["a", "b"]);
        let err = t.try_row(&["only one".into()]).unwrap_err();
        assert_eq!(err, RowWidthError { got: 1, want: 2 });
        assert!(err.to_string().contains("1 cells"));
        assert!(t.is_empty(), "the ragged row is not kept");
        t.try_row(&["x".into(), "y".into()]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn plot_renders_markers_within_frame() {
        let p = AsciiPlot::new("t", "x", "y").series('*', &[(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)]);
        let r = p.render();
        assert!(r.contains('*'));
        assert!(r.lines().count() > 20);
    }

    #[test]
    fn log_scale_drops_nonpositive_points() {
        let p = AsciiPlot::new("t", "x", "y")
            .scales(Scale::Log, Scale::Log)
            .series('*', &[(0.0, 1.0), (-1.0, 1.0)]);
        assert!(p.render().contains("no plottable points"));
    }

    #[test]
    fn log_scale_linearizes_a_power_law() {
        // y = 1/x on log-log is a straight anti-diagonal; verify the
        // extremes land in opposite corners.
        let pts: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64, 1.0 / i as f64)).collect();
        let p = AsciiPlot::new("t", "x", "y")
            .scales(Scale::Log, Scale::Log)
            .series('*', &pts);
        let r = p.render();
        let rows: Vec<&str> = r.lines().filter(|l| l.contains('|')).collect();
        let first_star_row = rows.iter().position(|l| l.contains('*')).unwrap();
        let last_star_row = rows.iter().rposition(|l| l.contains('*')).unwrap();
        let first_col = rows[first_star_row].find('*').unwrap();
        let last_col = rows[last_star_row].rfind('*').unwrap();
        assert!(first_col < last_col, "line runs top-left to bottom-right");
    }

    #[test]
    fn fitted_line_does_not_erase_data_markers() {
        let p = AsciiPlot::new("t", "x", "y")
            .series('-', &[(0.5, 0.5)])
            .series('*', &[(0.5, 0.5), (0.0, 0.0), (1.0, 1.0)]);
        assert!(p.render().contains('*'));
    }

    #[test]
    fn degenerate_single_point_still_renders() {
        let p = AsciiPlot::new("t", "x", "y").series('*', &[(5.0, 5.0)]);
        assert!(p.render().contains('*'));
    }
}

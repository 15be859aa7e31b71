//! The PDA screen for the §7 add-on: host-rendered menu UI.
//!
//! "To further investigate user acceptance and possible applications, we
//! also intend to construct a minimized version of the DistScroll as
//! add-on for a PDA" (paper, Section 7). The add-on keeps the sensor,
//! buttons and radio but drops the two small panels; the PDA renders the
//! menu from the telemetry stream instead — more screen real estate, at
//! the price of putting the radio's latency *inside* the user's
//! perception–action loop.
//!
//! [`PdaScreen`] consumes decoded [`Record`]s and maintains the view the
//! PDA shows: current highlight, menu level, and (with labels supplied)
//! a rendered list.

use crate::telemetry::{EventKind, Record};

/// Visible menu rows on a pad-sized screen (vs. 5 on the BT96040).
pub const PDA_VISIBLE_LINES: usize = 12;

/// The host-rendered menu view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PdaScreen {
    highlighted: usize,
    level: usize,
    records_seen: u64,
    stale: bool,
}

impl PdaScreen {
    /// A blank screen awaiting telemetry.
    pub fn new() -> Self {
        PdaScreen {
            stale: true,
            ..PdaScreen::default()
        }
    }

    /// Ingests one decoded record, updating the view.
    pub fn ingest(&mut self, record: &Record) {
        self.records_seen += 1;
        match record {
            Record::State(s) => {
                self.highlighted = usize::from(s.highlighted);
                self.level = usize::from(s.level);
                self.stale = false;
            }
            Record::Event(e) => match e.kind {
                EventKind::Highlight => {
                    self.highlighted = usize::from(e.aux);
                    self.stale = false;
                }
                EventKind::EnteredSubmenu => {
                    self.level += 1;
                    self.highlighted = 0;
                }
                EventKind::WentBack => {
                    self.level = self.level.saturating_sub(1);
                }
                _ => {}
            },
        }
    }

    /// Ingests a batch of records.
    pub fn ingest_all<'a, I: IntoIterator<Item = &'a Record>>(&mut self, records: I) {
        for r in records {
            self.ingest(r);
        }
    }

    /// The entry the PDA currently shows as highlighted.
    pub fn highlighted(&self) -> usize {
        self.highlighted
    }

    /// The menu depth the PDA currently shows.
    pub fn level(&self) -> usize {
        self.level
    }

    /// `true` before the first state-bearing record arrives.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Records consumed.
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Renders the list view with the given labels: a `>` marker, a
    /// window of [`PDA_VISIBLE_LINES`] rows around the highlight.
    pub fn render(&self, labels: &[&str]) -> String {
        let n = labels.len();
        let start = if n <= PDA_VISIBLE_LINES {
            0
        } else {
            self.highlighted
                .saturating_sub(PDA_VISIBLE_LINES / 2)
                .min(n - PDA_VISIBLE_LINES)
        };
        let mut out = String::new();
        for (i, label) in labels
            .iter()
            .enumerate()
            .skip(start)
            .take(PDA_VISIBLE_LINES)
        {
            out.push(if i == self.highlighted { '>' } else { ' ' });
            out.push_str(label);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventRecord, Stamp16, StateRecord};

    fn state(highlighted: u8, level: u8) -> Record {
        Record::State(StateRecord {
            stamp: Stamp16::default(),
            code: 100,
            island: Some(0),
            highlighted,
            level,
        })
    }

    fn event(kind: EventKind, aux: u8) -> Record {
        Record::Event(EventRecord {
            stamp: Stamp16::default(),
            kind,
            aux,
        })
    }

    #[test]
    fn state_records_drive_the_view() {
        let mut s = PdaScreen::new();
        assert!(s.is_stale());
        s.ingest(&state(4, 1));
        assert!(!s.is_stale());
        assert_eq!(s.highlighted(), 4);
        assert_eq!(s.level(), 1);
    }

    #[test]
    fn highlight_events_update_between_state_records() {
        let mut s = PdaScreen::new();
        s.ingest(&state(2, 0));
        s.ingest(&event(EventKind::Highlight, 6));
        assert_eq!(s.highlighted(), 6);
    }

    #[test]
    fn submenu_and_back_events_track_the_level() {
        let mut s = PdaScreen::new();
        s.ingest(&state(3, 0));
        s.ingest(&event(EventKind::EnteredSubmenu, 0));
        assert_eq!(s.level(), 1);
        assert_eq!(s.highlighted(), 0);
        s.ingest(&event(EventKind::WentBack, 0));
        assert_eq!(s.level(), 0);
        s.ingest(&event(EventKind::WentBack, 0));
        assert_eq!(s.level(), 0, "level never underflows");
    }

    #[test]
    fn render_marks_and_windows() {
        let mut s = PdaScreen::new();
        let labels: Vec<String> = (0..20).map(|i| format!("Entry {i}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        s.ingest(&state(15, 0));
        let view = s.render(&refs);
        assert!(view.contains(">Entry 15"));
        assert_eq!(view.lines().count(), PDA_VISIBLE_LINES);
        assert!(!view.contains("Entry 0\n"), "window scrolled past the top");
    }
}

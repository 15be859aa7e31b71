//! Session logging: the experimenter's view of one device session.
//!
//! Ingests telemetry records, unwraps the 16-bit tick stamps into a
//! monotonic timeline, and derives the measures a scrolling study
//! reports per selection: time, scroll path length, direction
//! reversals, and the sequence of entries passed through. Exports a
//! flat CSV for external analysis.

use crate::telemetry::{EventKind, Record, Stamp16};

/// Device tick period the log converts ticks to seconds with: the
/// firmware's 10 ms.
pub const DEFAULT_TICK_S: f64 = 0.010;

/// A record with its unwrapped (monotonic) tick count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedRecord {
    /// Monotonic device tick.
    pub tick: u64,
    /// The record.
    pub record: Record,
}

/// One completed selection, as reconstructed from the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionMeasure {
    /// Tick of the previous selection (or session start).
    pub from_tick: u64,
    /// Tick of this selection's `Activated`/`EnteredSubmenu` event.
    pub at_tick: u64,
    /// Seconds between them.
    pub duration_s: f64,
    /// Entries the highlight passed through on the way.
    pub path: Vec<u8>,
    /// Direction reversals of the highlight along the way.
    pub reversals: u32,
    /// The entry that was selected (last highlight before the event).
    pub selected: Option<u8>,
}

/// A session log under construction.
#[derive(Debug, Clone, Default)]
pub struct SessionLog {
    records: Vec<TimedRecord>,
    /// Newest point of the timeline seen so far: the 16-bit stamp and
    /// the unwrapped tick it resolved to.
    frontier: Option<(Stamp16, u64)>,
}

impl SessionLog {
    /// An empty log on the [`DEFAULT_TICK_S`] timeline.
    pub fn new() -> Self {
        SessionLog::default()
    }

    /// Ingests one record, unwrapping its 16-bit stamp.
    ///
    /// Unwrapping uses serial-number arithmetic (RFC 1982): relative to
    /// the newest stamp seen so far, a forward distance under 32768 is
    /// progress (this is what carries the timeline across the 16-bit
    /// wrap), while anything else is an *older* record that the radio
    /// link delivered late — a reordered or retransmitted frame — and is
    /// placed back where it belongs instead of being misread as a wrap.
    /// The old `stamp < last ⇒ wrap` heuristic added a phantom 65536
    /// ticks on every jitter-induced reordering, corrupting every
    /// subsequent timestamp.
    pub fn ingest(&mut self, record: Record) {
        let stamp = record.stamp();
        let tick = match self.frontier {
            None => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "widening out of the wrapping domain: the first stamp anchors the timeline"
                )]
                let tick = u64::from(stamp.raw());
                self.frontier = Some((stamp, tick));
                tick
            }
            Some((front_stamp, front_tick)) => {
                let delta = u64::from(stamp.distance_from(front_stamp));
                if stamp.newer_or_equal(front_stamp) {
                    let tick = front_tick + delta;
                    self.frontier = Some((stamp, tick));
                    tick
                } else {
                    // Older than the frontier by 65536 - delta ticks;
                    // saturate rather than underflow if the very first
                    // records arrived out of order.
                    front_tick.saturating_sub(65_536 - delta)
                }
            }
        };
        // Insert in tick order so `records()` stays a monotonic
        // timeline even when the link delivers out of order. Streams
        // are nearly sorted, so scanning from the tail is cheap.
        let at = self
            .records
            .iter()
            .rposition(|r| r.tick <= tick)
            .map_or(0, |i| i + 1);
        self.records.insert(at, TimedRecord { tick, record });
    }

    /// Ingests a batch.
    pub fn ingest_all<I: IntoIterator<Item = Record>>(&mut self, records: I) {
        for r in records {
            self.ingest(r);
        }
    }

    /// All records with unwrapped ticks.
    pub fn records(&self) -> &[TimedRecord] {
        &self.records
    }

    /// Session length in seconds (first to last record).
    pub fn duration_s(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => (b.tick - a.tick) as f64 * DEFAULT_TICK_S,
            _ => 0.0,
        }
    }

    /// Reconstructs per-selection measures: each `Activated` or
    /// `EnteredSubmenu` event closes one selection, measured from the
    /// previous one (or session start).
    pub fn selections(&self) -> Vec<SelectionMeasure> {
        let mut out = Vec::new();
        let mut segment_start = self.records.first().map_or(0, |r| r.tick);
        let mut path: Vec<u8> = Vec::new();
        for tr in &self.records {
            match tr.record {
                Record::Event(e) => match e.kind {
                    EventKind::Highlight => path.push(e.aux),
                    EventKind::Activated | EventKind::EnteredSubmenu => {
                        let reversals = count_reversals(&path);
                        out.push(SelectionMeasure {
                            from_tick: segment_start,
                            at_tick: tr.tick,
                            duration_s: (tr.tick - segment_start) as f64 * DEFAULT_TICK_S,
                            selected: path.last().copied(),
                            path: std::mem::take(&mut path),
                            reversals,
                        });
                        segment_start = tr.tick;
                    }
                    _ => {}
                },
                Record::State(_) => {}
            }
        }
        out
    }

    /// Counts brown-outs seen in the stream.
    pub fn brownouts(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.record, Record::Event(e) if e.kind == EventKind::BrownOut))
            .count()
    }

    /// Exports the raw record stream as CSV
    /// (`tick,seconds,kind,code,island,level,highlighted,event,aux`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tick,seconds,kind,code,island,level,highlighted,event,aux\n");
        for tr in &self.records {
            let secs = tr.tick as f64 * DEFAULT_TICK_S;
            match tr.record {
                Record::State(s) => {
                    out.push_str(&format!(
                        "{},{:.3},state,{},{},{},{},,\n",
                        tr.tick,
                        secs,
                        s.code,
                        s.island.map_or(String::new(), |i| i.to_string()),
                        s.level,
                        s.highlighted
                    ));
                }
                Record::Event(e) => {
                    out.push_str(&format!(
                        "{},{:.3},event,,,,,{:?},{}\n",
                        tr.tick, secs, e.kind, e.aux
                    ));
                }
            }
        }
        out
    }
}

/// Direction reversals in a highlight path.
fn count_reversals(path: &[u8]) -> u32 {
    let mut reversals = 0;
    let mut last_dir = 0i32;
    for w in path.windows(2) {
        let dir = (i32::from(w[1]) - i32::from(w[0])).signum();
        if dir != 0 && last_dir != 0 && dir != last_dir {
            reversals += 1;
        }
        if dir != 0 {
            last_dir = dir;
        }
    }
    reversals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventRecord, StateRecord};

    fn state(stamp: u16, code: u16) -> Record {
        Record::State(StateRecord {
            stamp: Stamp16::new(stamp),
            code,
            island: Some(0),
            level: 0,
            highlighted: 0,
        })
    }

    fn event(stamp: u16, kind: EventKind, aux: u8) -> Record {
        Record::Event(EventRecord {
            stamp: Stamp16::new(stamp),
            kind,
            aux,
        })
    }

    #[test]
    fn stamps_unwrap_across_the_16_bit_boundary() {
        let mut log = SessionLog::new();
        log.ingest(state(65_530, 100));
        log.ingest(state(65_535, 100));
        log.ingest(state(4, 100)); // wrapped
        log.ingest(state(10, 100));
        let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![65_530, 65_535, 65_540, 65_546]);
        assert!((log.duration_s() - 16.0 * 0.01).abs() < 1e-9);
    }

    #[test]
    fn reordered_stamps_do_not_fake_a_wrap() {
        // Regression: a jitter-reordered arrival (110 then 105) made the
        // old `stamp < last ⇒ wrap` heuristic add a phantom 65536 ticks,
        // corrupting this and every later timestamp. Serial-number
        // arithmetic reads the small backwards jump as reordering and
        // slots the record back into place.
        let mut log = SessionLog::new();
        log.ingest(state(100, 1));
        log.ingest(state(110, 2));
        log.ingest(state(105, 3)); // arrived late
        log.ingest(state(120, 4));
        let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![100, 105, 110, 120]);
        assert!((log.duration_s() - 20.0 * 0.01).abs() < 1e-9);
    }

    #[test]
    fn duplicated_stamps_share_a_tick() {
        let mut log = SessionLog::new();
        log.ingest(state(50, 1));
        log.ingest(state(50, 1)); // retransmitted copy
        log.ingest(state(60, 2));
        let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![50, 50, 60]);
    }

    #[test]
    fn reordering_across_the_wrap_boundary_resolves_backwards() {
        let mut log = SessionLog::new();
        log.ingest(state(65_534, 1));
        log.ingest(state(3, 2)); // wrapped: 5 ticks forward
        log.ingest(state(65_535, 3)); // late pre-wrap record
        let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![65_534, 65_535, 65_539]);
    }

    #[test]
    fn early_reordering_saturates_at_session_start() {
        let mut log = SessionLog::new();
        log.ingest(state(2, 1));
        // Claims to be ~6 ticks before the first record; the unwrapped
        // timeline starts at 0, so it clamps there instead of wrapping.
        log.ingest(state(65_532, 2));
        let ticks: Vec<u64> = log.records().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![0, 2]);
    }

    #[test]
    fn selections_are_segmented_by_events() {
        let mut log = SessionLog::new();
        log.ingest(state(0, 100));
        log.ingest(event(50, EventKind::Highlight, 2));
        log.ingest(event(80, EventKind::Highlight, 4));
        log.ingest(event(120, EventKind::Activated, 1));
        log.ingest(event(200, EventKind::Highlight, 3));
        log.ingest(event(260, EventKind::EnteredSubmenu, 0));
        let sels = log.selections();
        assert_eq!(sels.len(), 2);
        assert_eq!(sels[0].path, vec![2, 4]);
        assert_eq!(sels[0].selected, Some(4));
        assert!((sels[0].duration_s - 1.2).abs() < 1e-9);
        assert_eq!(sels[1].path, vec![3]);
        assert_eq!(sels[1].from_tick, 120);
    }

    #[test]
    fn reversals_are_counted_from_the_path() {
        assert_eq!(count_reversals(&[1, 2, 3, 4]), 0);
        assert_eq!(count_reversals(&[1, 4, 2]), 1);
        assert_eq!(count_reversals(&[1, 4, 2, 5, 0]), 3);
        assert_eq!(count_reversals(&[3, 3, 3]), 0, "repeats are not reversals");
        assert_eq!(count_reversals(&[]), 0);
    }

    #[test]
    fn brownouts_are_visible() {
        let mut log = SessionLog::new();
        log.ingest(event(10, EventKind::BrownOut, 0));
        assert_eq!(log.brownouts(), 1);
    }

    #[test]
    fn csv_has_a_row_per_record() {
        let mut log = SessionLog::new();
        log.ingest(state(0, 123));
        log.ingest(event(5, EventKind::Highlight, 2));
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 rows");
        assert!(lines[1].contains("state"));
        assert!(lines[1].contains("123"));
        assert!(lines[2].contains("Highlight"));
    }
}

//! The timestamped interaction event stream.
//!
//! The firmware emits an event whenever something user-visible happens:
//! the highlight moves, an entry is selected, a page flips. The
//! evaluation harness consumes this stream to measure selection times and
//! error rates, and the same encoding rides the radio link to the host
//! as telemetry — mirroring how the authors' prototype reported debug
//! state to the PC.

use distscroll_hw::clock::SimInstant;

/// One interaction event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The highlight moved to `index` at the current level.
    Highlight {
        /// New highlighted index.
        index: usize,
        /// Label of the newly highlighted entry.
        label: String,
    },
    /// A leaf entry was activated.
    Activated {
        /// Labels from the root to the activated leaf.
        path: Vec<String>,
    },
    /// The cursor entered a submenu.
    EnteredSubmenu {
        /// Label of the submenu.
        label: String,
    },
    /// The cursor moved back up one level.
    WentBack,
    /// A long-menu page flip towards index 0.
    PageBack,
    /// A long-menu page flip away from index 0.
    PageForward,
    /// The supply browned out; the device died.
    BrownOut,
}

impl Event {
    /// Compact single-byte tag used in telemetry frames.
    pub fn wire_tag(&self) -> u8 {
        match self {
            Event::Highlight { .. } => b'H',
            Event::Activated { .. } => b'A',
            Event::EnteredSubmenu { .. } => b'S',
            Event::WentBack => b'B',
            Event::PageBack => b'<',
            Event::PageForward => b'>',
            Event::BrownOut => b'!',
        }
    }

    /// The event as a 5-byte telemetry record
    /// (`['E', stamp_hi, stamp_lo, tag, aux]`), as it rides the radio
    /// link. `stamp` is the low 16 bits of the firmware tick counter;
    /// `aux` is the event-specific operand the firmware chooses
    /// (highlight index, path depth, level).
    pub fn wire_payload(&self, stamp: u16, aux: u8) -> [u8; 5] {
        [
            b'E',
            (stamp >> 8) as u8,
            (stamp & 0xff) as u8,
            self.wire_tag(),
            aux,
        ]
    }
}

/// An event with the simulated time it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the event happened.
    pub at: SimInstant,
    /// The event.
    pub event: Event,
}

/// Visitor for interaction events delivered by a poll.
///
/// [`EventLog::poll`] (and `Device::poll_events` above it) hands each
/// pending event to the sink by reference and keeps the log's buffer
/// for reuse, so a steady-state poll loop performs no heap allocation.
/// Any `FnMut(&TimedEvent)` closure is a sink.
pub trait EventSink {
    /// Called once per pending event, in emission order.
    fn event(&mut self, event: &TimedEvent);
}

impl<F: FnMut(&TimedEvent)> EventSink for F {
    fn event(&mut self, event: &TimedEvent) {
        self(event)
    }
}

/// The firmware's event log: the firmware appends, the harness drains
/// it with [`EventLog::poll`]. It is unbounded and grows until polled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<TimedEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends an event at `at`.
    pub fn push(&mut self, at: SimInstant, event: Event) {
        self.events.push(TimedEvent { at, event });
    }

    /// All events so far, in order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Visits every pending event in emission order, then clears the
    /// log while keeping its buffer — the zero-allocation drain.
    pub fn poll<S: EventSink + ?Sized>(&mut self, sink: &mut S) {
        for e in &self.events {
            sink.event(e);
        }
        self.events.clear();
    }

    /// The most recent event, if any.
    pub fn last(&self) -> Option<&TimedEvent> {
        self.events.last()
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimInstant {
        SimInstant::from_micros(us)
    }

    #[test]
    fn log_preserves_order_and_drains() {
        let mut log = EventLog::new();
        log.push(
            t(1),
            Event::Highlight {
                index: 0,
                label: "A".into(),
            },
        );
        log.push(t(2), Event::WentBack);
        assert_eq!(log.len(), 2);
        assert_eq!(log.last().unwrap().event, Event::WentBack);
        let mut drained = Vec::new();
        log.poll(&mut |e: &TimedEvent| drained.push(e.clone()));
        assert_eq!(drained.len(), 2);
        assert!(drained[0].at < drained[1].at);
        assert!(log.is_empty());
    }

    #[test]
    fn poll_visits_in_order_and_keeps_the_buffer() {
        let mut log = EventLog::new();
        for i in 0..4 {
            log.push(t(i), Event::WentBack);
        }
        let cap = {
            let mut seen = Vec::new();
            log.poll(&mut |e: &TimedEvent| seen.push(e.at));
            assert_eq!(seen, vec![t(0), t(1), t(2), t(3)]);
            log.events.capacity()
        };
        assert!(log.is_empty());
        assert!(cap >= 4, "poll must keep the buffer for reuse");
        log.push(t(9), Event::PageBack);
        assert_eq!(log.events.capacity(), cap, "no reallocation after poll");
    }

    #[test]
    fn wire_payload_encodes_stamp_tag_and_aux() {
        let e = Event::Highlight {
            index: 4,
            label: "x".into(),
        };
        assert_eq!(e.wire_payload(0x1234, 4), [b'E', 0x12, 0x34, b'H', 4]);
        assert_eq!(Event::WentBack.wire_payload(7, 1), [b'E', 0, 7, b'B', 1]);
    }

    #[test]
    fn wire_tags_are_distinct() {
        let events = [
            Event::Highlight {
                index: 0,
                label: String::new(),
            },
            Event::Activated { path: vec![] },
            Event::EnteredSubmenu {
                label: String::new(),
            },
            Event::WentBack,
            Event::PageBack,
            Event::PageForward,
            Event::BrownOut,
        ];
        let tags: std::collections::BTreeSet<u8> = events.iter().map(Event::wire_tag).collect();
        assert_eq!(tags.len(), events.len());
    }
}

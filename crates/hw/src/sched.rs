//! Deterministic discrete-event scheduler: the jump-to-deadline core.
//!
//! Every simulated component — the firmware interaction tick, ADC sample
//! completion, debounce/dwell expiry, telemetry emission, ARQ retransmit
//! deadlines, radio delivery, display latency, user submovement
//! boundaries — registers its *next wakeup deadline* here, and the
//! simulation jumps straight to the earliest one instead of grinding
//! through fixed ticks that do nothing.
//!
//! # Determinism contract
//!
//! The queue is a binary heap keyed by `(SimInstant, registration
//! sequence)`. Two deadlines due at the same instant fire in the order
//! they were registered — **never** in pointer, hash-map or allocation
//! order (the same discipline `clippy.toml`'s `HashMap` ban enforces
//! elsewhere). The sequence number is a plain monotone counter, so a
//! replay of the same schedule calls produces the same firing order on
//! every run, every platform, every `--jobs` value.
//!
//! Cancellation is tombstone-based: [`Scheduler::cancel`] invalidates the
//! slot in O(1) and the dead heap entry is discarded lazily when it
//! reaches the top (amortised O(log n) — the same bound as the push that
//! created it). Slots are generation-counted and recycled, so the
//! steady-state schedule → fire → reschedule cycle performs no heap
//! allocation once the queue has reached its working capacity.
//!
//! # Example
//!
//! ```
//! use distscroll_hw::clock::SimInstant;
//! use distscroll_hw::sched::Scheduler;
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! let t1 = SimInstant::from_micros(1_000);
//! sched.schedule_at(t1, "first");
//! let cancelled = sched.schedule_at(t1, "second");
//! sched.schedule_at(SimInstant::from_micros(2_000), "later");
//! sched.cancel(cancelled);
//!
//! assert_eq!(sched.next_deadline(), Some(t1));
//! let (due, task, _id) = sched.pop_next().unwrap();
//! assert_eq!((due, task), (t1, "first"));
//! let (due, task, _id) = sched.pop_next().unwrap();
//! assert_eq!(due, SimInstant::from_micros(2_000));
//! assert_eq!(task, "later");
//! ```

use crate::clock::SimInstant;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a pending deadline, returned by [`Scheduler::schedule_at`].
///
/// Generation-counted: once the deadline fires or is cancelled the handle
/// goes stale, and a stale handle can never cancel a later registration
/// that happens to reuse the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// One pending entry in the heap. Ordered by `(due, seq)` *reversed* so
/// that `BinaryHeap` (a max-heap) pops the earliest deadline first; the
/// payload never participates in the ordering.
struct Entry<T> {
    due: SimInstant,
    seq: u64,
    slot: u32,
    gen: u32,
    task: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the max-heap's "greatest" entry is the earliest due
        // instant, ties broken by earliest registration sequence.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-slot bookkeeping: which generation is current and whether it is
/// still pending. A heap entry whose `(slot, gen)` no longer matches a
/// pending slot is a tombstone and is skipped on pop.
#[derive(Debug, Clone, Copy)]
struct Slot {
    gen: u32,
    pending: bool,
}

/// Deterministic discrete-event queue over [`SimInstant`] deadlines.
///
/// Generic over the task payload `T` so each layer can define its own
/// wakeup vocabulary (the device loop uses an enum of component wakeups;
/// tests use whatever is convenient).
pub struct Scheduler<T> {
    heap: BinaryHeap<Entry<T>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    next_seq: u64,
    pending: usize,
}

impl<T> Default for Scheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Scheduler<T> {
    /// Creates an empty scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            pending: 0,
        }
    }

    /// Number of pending (scheduled and not yet fired or cancelled)
    /// deadlines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True when no deadline is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Registers `task` to fire at `due` and returns a cancellable
    /// handle. Deadlines registered earlier fire earlier among equal
    /// `due` instants; `due` may be in the past (it becomes the earliest
    /// deadline, after any earlier-registered entries at the same
    /// instant).
    pub fn schedule_at(&mut self, due: SimInstant, task: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].pending = true;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
                self.slots.push(Slot {
                    gen: 0,
                    pending: true,
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.pending += 1;
        self.heap.push(Entry {
            due,
            seq,
            slot,
            gen,
            task,
        });
        EventId { slot, gen }
    }

    /// Cancels a pending deadline. Returns `true` if `id` was still
    /// pending (and is now removed), `false` if it already fired, was
    /// already cancelled, or never existed. O(1); the dead heap entry is
    /// reclaimed lazily.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.pending && slot.gen == id.gen => {
                Self::retire(slot, &mut self.free, id.slot);
                self.pending -= 1;
                true
            }
            _ => false,
        }
    }

    /// Marks a slot vacant and recycles it under the next generation.
    fn retire(slot: &mut Slot, free: &mut Vec<u32>, index: u32) {
        slot.pending = false;
        slot.gen = slot.gen.wrapping_add(1);
        free.push(index);
    }

    /// Drops tombstoned entries off the top of the heap.
    fn skim_tombstones(&mut self) {
        while let Some(top) = self.heap.peek() {
            let live = self
                .slots
                .get(top.slot as usize)
                .is_some_and(|s| s.pending && s.gen == top.gen);
            if live {
                return;
            }
            self.heap.pop();
        }
    }

    /// The earliest pending deadline, if any. Does not fire anything.
    pub fn next_deadline(&mut self) -> Option<SimInstant> {
        self.skim_tombstones();
        self.heap.peek().map(|e| e.due)
    }

    /// Removes and returns the earliest pending deadline as
    /// `(due, task, id)`. Equal-instant entries come out in registration
    /// order. The returned `id` is already retired (stale).
    pub fn pop_next(&mut self) -> Option<(SimInstant, T, EventId)> {
        self.skim_tombstones();
        let entry = self.heap.pop()?;
        let slot = &mut self.slots[entry.slot as usize];
        Self::retire(slot, &mut self.free, entry.slot);
        self.pending -= 1;
        Some((
            entry.due,
            entry.task,
            EventId {
                slot: entry.slot,
                gen: entry.gen,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    fn at(us: u64) -> SimInstant {
        SimInstant::from_micros(us)
    }

    #[test]
    fn same_instant_events_fire_in_registration_order() {
        let mut sched = Scheduler::new();
        // Register out of "natural" label order so only the sequence
        // number can explain the firing order.
        sched.schedule_at(at(500), "c");
        sched.schedule_at(at(500), "a");
        sched.schedule_at(at(100), "b");
        sched.schedule_at(at(500), "d");

        let order: Vec<&str> = std::iter::from_fn(|| sched.pop_next().map(|(_, t, _)| t)).collect();
        assert_eq!(order, ["b", "c", "a", "d"]);
    }

    #[test]
    fn re_registering_for_the_current_instant_makes_progress() {
        // A callback that re-registers itself *at the same instant* must
        // run behind deadlines already queued for that instant (its new
        // sequence number is larger), so a bounded chain of re-registrations
        // drains rather than livelocking ahead of its peers.
        let mut sched = Scheduler::new();
        let now = at(1_000);
        sched.schedule_at(now, 0u32);
        sched.schedule_at(now, 100u32);

        let mut fired = Vec::new();
        let mut guard = 0;
        while let Some((due, task, _)) = sched.pop_next() {
            guard += 1;
            assert!(guard < 32, "scheduler livelocked");
            fired.push(task);
            // The first callback re-registers itself twice for "now".
            if task < 2 {
                sched.schedule_at(due, task + 1);
            }
        }
        // Interleaving: 0 fires, re-registers as 1 *behind* 100.
        assert_eq!(fired, [0, 100, 1, 2]);
    }

    #[test]
    fn cancel_removes_exactly_the_named_deadline() {
        let mut sched = Scheduler::new();
        let keep_early = sched.schedule_at(at(10), "early");
        let drop_mid = sched.schedule_at(at(20), "mid");
        let keep_late = sched.schedule_at(at(30), "late");

        assert!(sched.cancel(drop_mid));
        assert!(!sched.cancel(drop_mid), "double cancel must be a no-op");
        assert_eq!(sched.len(), 2);

        let order: Vec<&str> = std::iter::from_fn(|| sched.pop_next().map(|(_, t, _)| t)).collect();
        assert_eq!(order, ["early", "late"]);
        // Handles for fired deadlines are stale.
        assert!(!sched.cancel(keep_early));
        assert!(!sched.cancel(keep_late));
    }

    #[test]
    fn cancelled_top_entry_never_surfaces_via_next_deadline() {
        let mut sched = Scheduler::new();
        let front = sched.schedule_at(at(5), "front");
        sched.schedule_at(at(50), "back");
        assert!(sched.cancel(front));
        assert_eq!(sched.next_deadline(), Some(at(50)));
        assert_eq!(sched.pop_next().map(|(_, t, _)| t), Some("back"));
    }

    #[test]
    fn stale_handle_cannot_cancel_a_recycled_slot() {
        let mut sched = Scheduler::new();
        let first = sched.schedule_at(at(1), "first");
        assert!(sched.cancel(first));
        // The slot is recycled under a bumped generation...
        let second = sched.schedule_at(at(2), "second");
        // ...so the stale handle must not touch the new registration.
        assert!(!sched.cancel(first));
        assert_eq!(sched.len(), 1);
        assert!(sched.cancel(second));
        assert!(sched.is_empty());
    }

    #[test]
    fn cancellation_order_is_deterministic_across_replays() {
        // Replay an identical schedule/cancel script twice; the firing
        // order (the observable output) must match event for event.
        let script = |sched: &mut Scheduler<u32>| {
            let mut ids = Vec::new();
            for i in 0..64u32 {
                // Deadlines collide on purpose: 8 distinct instants.
                ids.push(sched.schedule_at(at(u64::from(i % 8) * 100), i));
            }
            for i in (0..64).step_by(3) {
                sched.cancel(ids[i]);
            }
            std::iter::from_fn(|| sched.pop_next().map(|(_, t, _)| t)).collect::<Vec<u32>>()
        };
        let a = script(&mut Scheduler::new());
        let b = script(&mut Scheduler::new());
        assert_eq!(a, b);
        assert_eq!(a.len(), 64 - 22);
    }

    #[test]
    fn steady_state_reschedule_reuses_slots() {
        let mut sched = Scheduler::new();
        let mut due = at(0);
        sched.schedule_at(due, ());
        for _ in 0..10_000 {
            let (fired_at, (), _) = sched.pop_next().expect("one deadline always pending");
            due = fired_at + SimDuration::from_millis(10);
            sched.schedule_at(due, ());
        }
        // One live slot the whole time: the fire → reschedule cycle must
        // recycle rather than grow the slot table.
        assert_eq!(sched.slots.len(), 1);
        assert_eq!(sched.len(), 1);
    }

    #[test]
    fn past_deadlines_fire_before_future_ones() {
        let mut sched = Scheduler::new();
        sched.schedule_at(at(1_000), "future");
        sched.schedule_at(at(0), "overdue");
        assert_eq!(sched.pop_next().map(|(_, t, _)| t), Some("overdue"));
    }
}

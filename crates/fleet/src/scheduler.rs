//! Virtual time and the sweep's deterministic event scheduler.
//!
//! Fleet runs must be reproducible bit-for-bit from a seed, so nothing
//! in this crate reads wall-clock time. Instead every simulated step is
//! an event on a virtual microsecond timeline; durations come from the
//! `ecq_devices` cost models, and ties are broken by a global lane key
//! and then by insertion order, so the processing sequence is a pure
//! function of the schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in microseconds since the start of the run.
pub type VirtualTime = u64;

/// Converts a cost-model duration in milliseconds to virtual time.
pub fn micros_from_ms(ms: f64) -> VirtualTime {
    (ms * 1_000.0).round() as VirtualTime
}

struct LaneEntry<E> {
    at: VirtualTime,
    lane: u64,
    seq: u64,
    event: E,
}

// Ordering ignores the payload: events sort by time, then lane, then
// insertion order (seq is unique, so the order is total).
impl<E> PartialEq for LaneEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.lane, self.seq) == (other.at, other.lane, other.seq)
    }
}
impl<E> Eq for LaneEntry<E> {}
impl<E> PartialOrd for LaneEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for LaneEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.lane, self.seq).cmp(&(other.at, other.lane, other.seq))
    }
}

/// A deterministic min-heap over `(at, lane, seq)`: time first, then
/// the global lane, then insertion order as the final tiebreak.
pub(crate) struct LaneScheduler<E> {
    queue: BinaryHeap<Reverse<LaneEntry<E>>>,
    now: VirtualTime,
    seq: u64,
}

impl<E> LaneScheduler<E> {
    /// An empty scheduler at virtual time zero.
    pub(crate) fn new() -> Self {
        LaneScheduler {
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// Schedules `event` at `at` on `lane` (clamped to the present:
    /// scheduling into the past fires at `now`).
    pub(crate) fn schedule(&mut self, at: VirtualTime, lane: u64, event: E) {
        let at = at.max(self.now);
        self.queue.push(Reverse(LaneEntry {
            at,
            lane,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing virtual time to it.
    pub(crate) fn next(&mut self) -> Option<(VirtualTime, E)> {
        let Reverse(entry) = self.queue.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = LaneScheduler::new();
        s.schedule(30, 0, "c");
        s.schedule(10, 0, "a");
        s.schedule(20, 0, "b");
        assert_eq!(s.next(), Some((10, "a")));
        assert_eq!(s.next(), Some((20, "b")));
        assert_eq!(s.now, 20);
        assert_eq!(s.next(), Some((30, "c")));
        assert_eq!(s.next(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut s = LaneScheduler::new();
        for i in 0..100 {
            s.schedule(5, 7, i);
        }
        for i in 0..100 {
            assert_eq!(s.next(), Some((5, i)));
        }
        // Same-time events on different lanes pop in lane order,
        // whatever order they were scheduled in.
        s.schedule(9, 2, 200);
        s.schedule(9, 1, 100);
        assert_eq!(s.next(), Some((9, 100)));
        assert_eq!(s.next(), Some((9, 200)));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut s = LaneScheduler::new();
        s.schedule(50, 0, "late");
        assert_eq!(s.next(), Some((50, "late")));
        s.schedule(10, 0, "early");
        assert_eq!(s.next(), Some((50, "early")));
        assert_eq!(s.now, 50);
    }

    #[test]
    fn relative_scheduling_and_conversion() {
        let mut s = LaneScheduler::new();
        s.schedule(100, 0, ());
        s.next();
        s.schedule(s.now + micros_from_ms(1.5), 0, ());
        assert_eq!(s.next(), Some((1_600, ())));
    }
}

//! A capacity-capped recorder of timestamped events.
//!
//! The recorder is engine-agnostic: the event payload type `E` is supplied
//! by the model (the `ddbm-core` crate records its trace events and its
//! witness events in it). It grows on demand up to its cap, and past the
//! cap it keeps one end of the stream and counts the events it lost:
//!
//! * [`Keep::Newest`] serves observability: a person debugging a long run
//!   wants its most recent window, so past the cap the log overwrites the
//!   oldest event, ring-style;
//! * [`Keep::Oldest`] serves a correctness oracle, which replays the stream
//!   from the beginning: silently dropping a prefix would turn "violation"
//!   into "pass". Past the cap the log stops recording, so a checker can
//!   tell a complete stream (verdicts are definitive) from a truncated one
//!   (verdicts hold for the recorded prefix, which is still a valid, if
//!   shorter, execution).

use crate::time::SimTime;

/// Which end of the stream an [`EventLog`] keeps once it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Stop recording at the cap: the log holds the stream's prefix.
    Oldest,
    /// Overwrite the oldest event at the cap: the log holds the stream's
    /// most recent window.
    Newest,
}

/// A grow-on-demand event log that holds at most `capacity` events.
#[derive(Debug)]
pub struct EventLog<E> {
    events: Vec<(SimTime, E)>,
    capacity: usize,
    keep: Keep,
    /// Index of the oldest retained event once a [`Keep::Newest`] log has
    /// wrapped.
    head: usize,
    /// Events not retained because the log was full.
    lost: u64,
}

impl<E> EventLog<E> {
    /// A log holding at most `capacity` events (min 1), keeping `keep`.
    pub fn new(capacity: usize, keep: Keep) -> EventLog<E> {
        EventLog {
            events: Vec::new(),
            capacity: capacity.max(1),
            keep,
            head: 0,
            lost: 0,
        }
    }

    /// Record one event at simulation time `at`. Amortized O(1); once the
    /// log is full it allocates nothing.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        if self.events.len() < self.capacity {
            self.events.push((at, event));
            return;
        }
        self.lost += 1;
        if self.keep == Keep::Newest {
            self.events[self.head] = (at, event);
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Consume the log, returning the retained events in recording order
    /// plus the count of events lost because it was full (0 means the
    /// stream is complete).
    pub fn into_parts(mut self) -> (Vec<(SimTime, E)>, u64) {
        self.events.rotate_left(self.head);
        (self.events, self.lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(capacity: usize, keep: Keep, n: u64) -> (Vec<u64>, u64) {
        let mut log = EventLog::new(capacity, keep);
        for i in 0..n {
            log.push(SimTime(i * 10), i);
        }
        let (events, lost) = log.into_parts();
        assert!(
            events.iter().all(|&(t, e)| t.0 == e * 10),
            "times travel with their events"
        );
        (events.into_iter().map(|(_, e)| e).collect(), lost)
    }

    #[test]
    fn newest_wraps_keeping_the_latest_window() {
        assert_eq!(log_of(4, Keep::Newest, 6), (vec![2, 3, 4, 5], 2));
        assert_eq!(log_of(4, Keep::Newest, 9), (vec![5, 6, 7, 8], 5));
    }

    #[test]
    fn oldest_keeps_the_prefix() {
        assert_eq!(log_of(3, Keep::Oldest, 5), (vec![0, 1, 2], 2));
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        for keep in [Keep::Oldest, Keep::Newest] {
            assert_eq!(log_of(8, keep, 5), (vec![0, 1, 2, 3, 4], 0));
        }
    }

    #[test]
    fn zero_capacity_is_clamped() {
        assert_eq!(log_of(0, Keep::Newest, 2), (vec![1], 1));
        assert_eq!(log_of(0, Keep::Oldest, 2), (vec![0], 1));
    }
}

//! The event calendar: a priority queue of future events, plus prediction
//! slots that hold one overwritable pending instant each.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking via a monotone sequence number), which makes
//! simulation runs fully deterministic for a given seed.
//!
//! # One-shot events
//!
//! Every [`schedule`](EventCalendar::schedule) and
//! [`schedule_after`](EventCalendar::schedule_after), zero delays included,
//! pushes onto a `std::collections::BinaryHeap` of inline entries. An entry
//! is ordered by its packed key alone (`time << 64 | seq`, one `u128`
//! compare), reversed so the max-heap pops the earliest key first.
//!
//! The heap carries little of the simulator's traffic. Counted over one
//! round of each perfbench workload at seed 1 (warm-up commits included),
//! a commit takes 1.09 heap pops against 202.2 slot pops in `uncontended`
//! (NO_DC at 1/4/8 nodes), 2.03 against 297.7 in `contended` (2PL, WW,
//! WD, BTO and OPT at 8 nodes, 8- and 1-way) and 1.10 against 108.3 in
//! `verify` (the oracle gate grid); per cell, slot pops range over
//! 163–452 per commit in the first two and 84–133 in the third. An earlier
//! unsafe 4-ary hole heap and a FIFO "fast lane" for zero-delay events were
//! tuned on 10k-event microbenches and were retired for that reason
//! (EXPERIMENTS.md §Performance baseline).
//!
//! # Prediction slots
//!
//! The simulator's dominant calendar traffic is *completion predictions*:
//! one pending "next CPU/disk completion" instant per node resource,
//! re-predicted on almost every state change (264–388 slot writes per
//! commit in the counts above). Through the heap alone, every superseded
//! prediction would have to be withdrawn from the heap before its
//! replacement is pushed. A [`register_slot`](EventCalendar::register_slot)
//! slot holds at most one pending instant in a flat key array instead:
//! [`set_slot`](EventCalendar::set_slot) overwrites one `u128` key in
//! place, and `pop` finds the earliest slot with a linear scan over the
//! keys — a handful of cache lines for the simulator's 2 slots per node.
//! A slot carries no payload: `pop` hands back its
//! [`SlotId`] as [`Fired::Slot`], and the owner maps the slot's
//! [`index`](SlotId::index) to the resource it registered it for.
//!
//! **Determinism:** `set_slot` assigns `seq = next_seq++` exactly as a heap
//! push does, and `clear_slot` consumes no seq. A slot therefore behaves
//! exactly like a heap from which the slot's previous event is removed
//! whenever the slot is set or cleared: each `set_slot` is a push with the
//! key that push would have received, and since `pop` delivers the global
//! key minimum regardless of the source container, the pop sequence is
//! identical. The equivalence is pinned by
//! `slots_match_sorted_reference` below and by the proptest suite in
//! `tests/prop.rs`.
//!
//! All backing storage retains its capacity across pops, so a warmed-up
//! calendar schedules without allocating.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Packed priority: earlier time first, FIFO within a time.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.0 as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// One heap entry: packed key plus the payload, stored inline. Ordered by
/// the key alone, reversed, so `BinaryHeap` (a max-heap) pops the least key.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Handle to a *prediction slot* registered with
/// [`register_slot`](EventCalendar::register_slot): a stable cell holding at
/// most one pending instant, overwritten in place by
/// [`set_slot`](EventCalendar::set_slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

impl SlotId {
    /// Registration order: the `k`-th registered slot has index `k`, so an
    /// owner that registers its slots in a fixed pattern can map a fired
    /// slot back to its resource without a lookup table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What [`pop`](EventCalendar::pop) delivers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fired<E> {
    /// The prediction held in this slot came due; the slot is vacant now.
    Slot(SlotId),
    /// A one-shot event.
    Event(E),
}

/// Sentinel key for a vacant slot (and for "no heap entry" in the min
/// scans). No real key can reach it: it would require both
/// `SimTime(u64::MAX)` and a sequence number of `u64::MAX`.
const VACANT: u128 = u128::MAX;

/// A deterministic discrete-event calendar.
///
/// ```
/// use denet::{EventCalendar, Fired, SimTime};
/// let mut cal = EventCalendar::new();
/// cal.schedule(SimTime(20), "late");
/// cal.schedule(SimTime(10), "early");
/// let slot = cal.register_slot();
/// cal.set_slot(slot, SimTime(5)); // superseded below
/// cal.set_slot(slot, SimTime(15));
/// assert_eq!(cal.pop(), Some((SimTime(10), Fired::Event("early"))));
/// assert_eq!(cal.pop(), Some((SimTime(15), Fired::Slot(slot))));
/// assert_eq!(cal.pop(), Some((SimTime(20), Fired::Event("late"))));
/// assert_eq!(cal.pop(), None);
/// ```
pub struct EventCalendar<E> {
    /// One-shot events, least packed key on top.
    heap: BinaryHeap<Entry<E>>,
    /// Prediction-slot keys, indexed by `SlotId`; `VACANT` marks an empty
    /// slot. A slot carries no payload: the owner knows which resource a
    /// slot predicts from its index.
    slot_keys: Vec<u128>,
    /// Number of occupied slots; the min scan is skipped when zero.
    slots_live: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventCalendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventCalendar<E> {
    /// Create a new instance.
    pub fn new() -> Self {
        EventCalendar {
            heap: BinaryHeap::new(),
            slot_keys: Vec::new(),
            slots_live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Make room for `additional` more events off the prediction slots, so
    /// the calendar does not regrow until that many more are pending.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The current simulation clock: the timestamp of the last event popped.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at `time`.
    ///
    /// Panics if `time` is in the past — scheduling into the past is always a
    /// model bug and silently reordering would corrupt causality.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "attempt to schedule an event at {time} before the current clock {now}",
            now = self.now
        );
        self.push(time, event);
    }

    /// Schedule `event` to fire `delay` after the current clock, after every
    /// event already pending for that instant.
    ///
    /// Hot-path variant of [`schedule`](Self::schedule): `now + delay` can
    /// never be in the past, so the causality check is skipped.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.push(self.now + delay, event);
    }

    /// Register a prediction slot: a stable cell holding at most one pending
    /// instant, overwritten in place by [`set_slot`](Self::set_slot). Slots
    /// are meant for long-lived, frequently superseded predictions (one per
    /// simulated node resource); register them once at startup. Slot
    /// indices count up from 0 in registration order.
    pub fn register_slot(&mut self) -> SlotId {
        self.slot_keys.push(VACANT);
        SlotId((self.slot_keys.len() - 1) as u32)
    }

    /// Set `slot` to fire at `time`, replacing any previous prediction.
    /// Consumes one sequence number, exactly like a heap push, so the slot
    /// is delivered in the order a push would give it (see module docs).
    #[inline]
    pub fn set_slot(&mut self, slot: SlotId, time: SimTime) {
        debug_assert!(
            time >= self.now,
            "attempt to set slot prediction at {time} before the current clock {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = &mut self.slot_keys[slot.0 as usize];
        self.slots_live += usize::from(*key == VACANT);
        *key = pack(time, seq);
    }

    /// Withdraw `slot`'s pending prediction, if any. Consumes no sequence
    /// number.
    #[inline]
    pub fn clear_slot(&mut self, slot: SlotId) {
        let key = &mut self.slot_keys[slot.0 as usize];
        if *key != VACANT {
            *key = VACANT;
            self.slots_live -= 1;
        }
    }

    /// The instant `slot` will fire, or `None` if the slot is vacant (never
    /// set, cleared, or already delivered by `pop`).
    #[inline]
    pub fn slot_time(&self, slot: SlotId) -> Option<SimTime> {
        let key = self.slot_keys[slot.0 as usize];
        (key != VACANT).then(|| unpack_time(key))
    }

    #[inline]
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: pack(time, seq),
            event,
        });
    }

    /// The heap's least key, or `VACANT` when it is empty.
    #[inline]
    fn heap_key(&self) -> u128 {
        self.heap.peek().map_or(VACANT, |e| e.key)
    }

    /// The occupied slot with the least key below `bound`, if any.
    #[inline]
    fn min_slot(&self, bound: u128) -> Option<(u128, usize)> {
        if self.slots_live == 0 {
            return None;
        }
        let mut best = None;
        let mut min_k = bound;
        for (i, &k) in self.slot_keys.iter().enumerate() {
            if k < min_k {
                min_k = k;
                best = Some((k, i));
            }
        }
        best
    }

    /// Remove and return the earliest pending entry — the minimum packed
    /// key across the heap and the prediction slots — advancing the clock
    /// to its time. Packed keys are globally unique, so the merged order
    /// equals the order a single heap holding every event would produce.
    pub fn pop(&mut self) -> Option<(SimTime, Fired<E>)> {
        let (key, fired) = match self.min_slot(self.heap_key()) {
            Some((key, i)) => {
                self.slot_keys[i] = VACANT;
                self.slots_live -= 1;
                (key, Fired::Slot(SlotId(i as u32)))
            }
            None => {
                let e = self.heap.pop()?;
                (e.key, Fired::Event(e.event))
            }
        };
        let time = unpack_time(key);
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, fired))
    }

    /// The timestamp of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap_key = self.heap_key();
        let key = self.min_slot(heap_key).map_or(heap_key, |(k, _)| k);
        (key != VACANT).then(|| unpack_time(key))
    }

    #[inline]
    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.slots_live
    }

    #[inline]
    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<E> EventCalendar<E> {
        /// Pop a one-shot event; the tests that use it register no slots.
        fn pop_event(&mut self) -> Option<(SimTime, E)> {
            self.pop().map(|(t, fired)| match fired {
                Fired::Event(e) => (t, e),
                Fired::Slot(s) => panic!("slot {s:?} fired in a heap-only test"),
            })
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(30), 3);
        cal.schedule(SimTime(10), 1);
        cal.schedule(SimTime(20), 2);
        assert_eq!(cal.pop_event(), Some((SimTime(10), 1)));
        assert_eq!(cal.pop_event(), Some((SimTime(20), 2)));
        assert_eq!(cal.pop_event(), Some((SimTime(30), 3)));
        assert!(cal.is_empty());
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = EventCalendar::new();
        for i in 0..100 {
            cal.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop_event(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(42), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop_event();
        assert_eq!(cal.now(), SimTime(42));
    }

    #[test]
    #[should_panic(expected = "before the current clock")]
    fn scheduling_into_the_past_panics() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(10), ());
        cal.pop_event();
        cal.schedule(SimTime(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(7), ());
        assert_eq!(cal.peek_time(), Some(SimTime(7)));
        assert_eq!(cal.now(), SimTime::ZERO);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(10), "a");
        let (t, _) = cal.pop_event().unwrap();
        cal.schedule(t + crate::SimDuration(5), "b");
        cal.schedule(t + crate::SimDuration(1), "c");
        assert_eq!(cal.pop_event().unwrap().1, "c");
        assert_eq!(cal.pop_event().unwrap().1, "b");
    }

    #[test]
    fn schedule_after_matches_schedule() {
        let mut a = EventCalendar::new();
        let mut b = EventCalendar::new();
        a.schedule(SimTime(10), 0);
        b.schedule(SimTime(10), 0);
        a.pop();
        b.pop();
        a.schedule(a.now() + SimDuration(3), 1);
        b.schedule_after(SimDuration(3), 1);
        a.schedule(a.now() + SimDuration::ZERO, 2);
        b.schedule_after(SimDuration::ZERO, 2);
        for _ in 0..2 {
            assert_eq!(a.pop(), b.pop());
        }
    }

    #[test]
    fn storage_capacity_is_stable_under_churn() {
        let mut cal = EventCalendar::new();
        for i in 0..8u64 {
            cal.schedule(SimTime(i), i);
        }
        // Steady-state churn: pop one, schedule one, thousands of times.
        for _ in 0..10_000 {
            let (t, e) = cal.pop_event().unwrap();
            cal.schedule(t + SimDuration(3), e);
        }
        assert_eq!(cal.len(), 8);
        assert!(
            cal.heap.capacity() <= 16,
            "heap grew to capacity {} for 8 live events",
            cal.heap.capacity()
        );
    }

    /// The heap must pop in ascending packed key: time order, FIFO within
    /// an instant. Simulation determinism (bit-identical `RunReport`s) rides
    /// on this property.
    #[test]
    fn pop_order_matches_reference_sort_under_churn() {
        let mut rng = crate::SimRng::from_seed(0xCA1E_0DA2);
        let mut cal = EventCalendar::new();
        let mut pending: Vec<(SimTime, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..2_000 {
            if rng.bernoulli(0.6) || cal.is_empty() {
                let t = cal.now() + SimDuration(rng.uniform_u64(0, 50));
                cal.schedule(t, seq);
                pending.push((t, seq));
                seq += 1;
            } else {
                let got = cal.pop_event().unwrap();
                popped.push(got);
            }
            if round % 97 == 0 {
                // Occasionally drain a few to exercise deep sift-downs.
                for _ in 0..cal.len().min(5) {
                    popped.push(cal.pop_event().unwrap());
                }
            }
        }
        while let Some(got) = cal.pop_event() {
            popped.push(got);
        }
        // Check the invariant that actually matters: every popped event
        // carries a time ≥ the previous popped time, and events with equal
        // times pop in ascending seq (FIFO).
        assert_eq!(popped.len(), pending.len());
        for w in popped.windows(2) {
            assert!(w[1].0 >= w[0].0, "time went backwards: {w:?}");
            if w[1].0 == w[0].0 {
                assert!(w[1].1 > w[0].1, "FIFO violated within {:?}", w[0].0);
            }
        }
    }

    #[test]
    fn zero_delay_is_fifo_after_pending_same_instant_events() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(10), 0);
        cal.pop_event();
        // Zero-delay events interleave with events scheduled for the current
        // instant strictly in scheduling order.
        cal.schedule(SimTime(10), 1);
        cal.schedule_after(SimDuration::ZERO, 2);
        cal.schedule(SimTime(10), 3);
        cal.schedule_after(SimDuration::ZERO, 4);
        for want in 1..=4 {
            assert_eq!(cal.pop_event(), Some((SimTime(10), want)));
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn slot_set_clear_and_overwrite() {
        let mut cal = EventCalendar::<()>::new();
        let s = cal.register_slot();
        assert_eq!(s.index(), 0);
        assert_eq!(cal.slot_time(s), None);
        cal.set_slot(s, SimTime(10));
        assert_eq!(cal.slot_time(s), Some(SimTime(10)));
        assert_eq!(cal.len(), 1);
        // Overwriting supersedes in place: the stale prediction never fires.
        cal.set_slot(s, SimTime(5));
        assert_eq!(cal.slot_time(s), Some(SimTime(5)));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((SimTime(5), Fired::Slot(s))));
        assert_eq!(cal.slot_time(s), None, "delivery vacates the slot");
        cal.set_slot(s, SimTime(9));
        cal.clear_slot(s);
        assert_eq!(cal.pop(), None);
        assert!(cal.is_empty());
        cal.clear_slot(s); // clearing a vacant slot is a no-op
    }

    #[test]
    fn slots_interleave_with_heap_events() {
        let mut cal = EventCalendar::new();
        let s = cal.register_slot();
        cal.schedule(SimTime(10), 1); // seq 0
        cal.set_slot(s, SimTime(10)); // seq 1
        cal.schedule(SimTime(10), 3); // seq 2
        assert_eq!(cal.peek_time(), Some(SimTime(10)));
        assert_eq!(cal.pop(), Some((SimTime(10), Fired::Event(1))));
        cal.schedule_after(SimDuration::ZERO, 4); // seq 3
        assert_eq!(cal.pop(), Some((SimTime(10), Fired::Slot(s))));
        assert_eq!(cal.pop(), Some((SimTime(10), Fired::Event(3))));
        assert_eq!(cal.pop(), Some((SimTime(10), Fired::Event(4))));
        assert_eq!(cal.pop(), None);
    }

    /// Slots against a plain sorted model: each `set_slot` removes the
    /// slot's previous entry and adds one with a fresh sequence number, each
    /// `clear_slot` removes it and consumes none, and every pop delivers the
    /// least `(time, seq)`.
    #[test]
    fn slots_match_sorted_reference() {
        let mut rng = crate::SimRng::from_seed(0x5107);
        let mut subject = EventCalendar::new();
        let slots: Vec<SlotId> = (0..4).map(|_| subject.register_slot()).collect();
        // (time, seq, payload); payloads below 4 are slot indices.
        let mut reference: Vec<(SimTime, u64, u64)> = Vec::new();
        let mut seq = 0u64;
        for i in 0..10_000u64 {
            match rng.uniform_u64(0, 3) {
                0 => {
                    // Re-predict resource k's completion (supersede if set).
                    let k = rng.index(4);
                    let at = subject.now() + SimDuration(rng.uniform_u64(0, 40));
                    reference.retain(|e| e.2 != k as u64);
                    reference.push((at, seq, k as u64));
                    seq += 1;
                    subject.set_slot(slots[k], at);
                }
                1 => {
                    // Withdraw resource k's prediction.
                    let k = rng.index(4);
                    reference.retain(|e| e.2 != k as u64);
                    subject.clear_slot(slots[k]);
                }
                2 => {
                    // Ordinary one-shot event traffic.
                    let d = SimDuration(rng.uniform_u64(0, 40));
                    reference.push((subject.now() + d, seq, 100 + i));
                    seq += 1;
                    subject.schedule_after(d, 100 + i);
                }
                _ => {
                    reference.sort_unstable();
                    let expected = (!reference.is_empty()).then(|| {
                        let (t, _, e) = reference.remove(0);
                        let fired = if e < 4 {
                            Fired::Slot(slots[e as usize])
                        } else {
                            Fired::Event(e)
                        };
                        (t, fired)
                    });
                    assert_eq!(subject.pop(), expected);
                    assert_eq!(subject.len(), reference.len());
                }
            }
        }
    }

    /// Payloads with heap allocations must be dropped exactly once through
    /// heap pops and the calendar's own drop, with slots in between.
    #[test]
    fn owning_payloads_are_not_leaked_or_double_dropped() {
        use std::rc::Rc;
        let counter = Rc::new(());
        let mut cal = EventCalendar::new();
        for i in 0..100u64 {
            cal.schedule(SimTime(i % 13), Rc::clone(&counter));
        }
        cal.schedule_after(SimDuration::ZERO, Rc::clone(&counter));
        cal.schedule_after(SimDuration::ZERO, Rc::clone(&counter));
        let s = cal.register_slot();
        cal.set_slot(s, SimTime(5));
        cal.set_slot(s, SimTime(6)); // supersedes
        for _ in 0..60 {
            assert!(cal.pop().is_some());
        }
        let undelivered = cal.register_slot();
        cal.set_slot(undelivered, SimTime(90));
        assert_eq!(cal.len(), 100 + 2 + 1 + 1 - 60);
        // Undelivered heap payloads drop with the calendar.
        drop(cal);
        assert_eq!(Rc::strong_count(&counter), 1, "payloads leaked");
    }
}

//! The event calendar: a priority queue of future events, plus prediction
//! slots that hold one overwritable pending event each.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking via a monotone sequence number), which makes
//! simulation runs fully deterministic for a given seed.
//!
//! # Winning configuration (measured)
//!
//! Internally this is a **4-ary min-heap of inline `(packed key, event)`
//! entries**. The key is a single `u128` (`time << 64 | seq`), so every
//! comparison is one integer compare; sifting uses hole-style moves (the
//! displaced entry is held out of the array and written exactly once at its
//! final position), so each level of the heap costs one entry move, never a
//! three-move swap. Two details matter enough to show up in the benches:
//! `pop` reads the root out and sifts the former last leaf down *from the
//! hole* (no write-then-reread of slot 0), and the min-of-children scan is
//! unrolled for full interior nodes — together worth ~1.5x on
//! `calendar/schedule_pop_10k` over the naive formulation.
//!
//! Two earlier configurations are retired, and the numbers that retired them
//! live in the `calendar` benches of `crates/bench/benches/components.rs`
//! (committed in `BENCH_core.json`):
//!
//! * **`std::collections::BinaryHeap` over `(Reverse(time), Reverse(seq),
//!   event)`** — kept alive as the `schedule_pop_10k_binaryheap_baseline`
//!   bench. The inline 4-ary heap beats it ~1.25x on bulk load/drain
//!   (537µs vs 672µs per 10k schedule+pop pairs on the reference machine).
//! * **An indirect heap** (heap of `(key, slot)` pairs pointing into a slab
//!   of payloads). The indirection was meant to spare sifts from moving wide
//!   events, but for every event type in this workspace (the simulator's
//!   `Event` is 32 bytes; bench payloads are 8) the two dependent slab
//!   accesses per schedule/pop cost more than moving the payload inline:
//!   the retired indirect variant measured 0.44x the inline heap on
//!   `schedule_pop_10k` and 0.69x on `interleaved_churn_50k` (same machine,
//!   PR-over-PR), and lost to the `BinaryHeap` baseline outright. Inline
//!   entries win for payloads up to at least ~32 bytes; revisit indirection
//!   only if an event type grows well past that.
//!
//! `ARITY = 4` is likewise bench-justified (same machine, same session):
//! on `schedule_pop_10k` 2-ary measured 743µs, 4-ary 537µs, 8-ary 605µs;
//! on `interleaved_churn_50k` the three are within ~7% with 4-ary ahead.
//! Halving the sift depth pays; quadrupling the per-level comparisons does
//! not. Wegener's sift-down-to-bottom variant (as in `std`) was also tried
//! and lost ~7% at this arity — with the depth already halved, the saved
//! "done yet?" compares do not cover the extra leaf-to-position walk.
//!
//! # Same-instant fast lane
//!
//! Zero-delay events ([`schedule_now`](EventCalendar::schedule_now), and
//! [`schedule_after`](EventCalendar::schedule_after) with a zero delay) skip
//! the heap entirely: they are appended to a FIFO microqueue keyed with the
//! same packed `(time, seq)` key a heap push would have assigned. Because
//! both `now` and `seq` are monotone, the microqueue's keys are strictly
//! increasing, so its front is always its minimum and
//! [`pop`](EventCalendar::pop) only ever compares the front key against the
//! other sources. Delivery order is *provably identical* to routing the same
//! events through the heap: every event still receives the globally unique
//! packed key it would have received from `push`, and `pop` always delivers
//! the minimum key across all sources — only the container holding the
//! entry changes, never its position in the total order. (The fast lane is
//! O(1) per event instead of O(log n) sift + O(log n) pop.)
//!
//! # Prediction slots
//!
//! The simulator's dominant calendar traffic is *completion predictions*:
//! one pending "next CPU/disk completion" event per node resource,
//! re-predicted on almost every state change. Through the heap alone, every
//! superseded prediction would have to be withdrawn from the heap before
//! its replacement is pushed — historically ~25–30% of all scheduled events
//! were superseded this way. A
//! [`register_slot`](EventCalendar::register_slot) slot holds at most one
//! pending event in a flat array instead:
//! [`set_slot`](EventCalendar::set_slot) overwrites in place (an O(1)
//! store) and `pop` finds the earliest slot with a linear scan over a dense
//! key array — a handful of cache lines for the simulator's ~2 slots/node,
//! cheaper than the sift traffic it replaces.
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
use std::collections::VecDeque;
use std::mem::ManuallyDrop;
use std::ptr;

/// Packed priority: earlier time first, FIFO within a time.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.0 as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

const ARITY: usize = 4;

/// One heap entry: packed key plus the payload, stored inline.
struct Entry<E> {
    key: u128,
    event: E,
}

/// Handle to a *prediction slot* registered with
/// [`register_slot`](EventCalendar::register_slot): a stable cell holding at
/// most one pending event, overwritten in place by
/// [`set_slot`](EventCalendar::set_slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId(u32);

/// Sentinel key for a vacant slot. No real key can reach it: it would
/// require both `SimTime(u64::MAX)` and a sequence number of `u64::MAX`.
const VACANT: u128 = u128::MAX;

/// Which container holds the minimum-key candidate during a `pop`.
#[derive(Clone, Copy)]
enum Source {
    Heap,
    Fast,
    Slot(usize),
}

/// A deterministic discrete-event calendar.
///
/// ```
/// use denet::{EventCalendar, SimTime};
/// let mut cal = EventCalendar::new();
/// cal.schedule(SimTime(20), "late");
/// cal.schedule(SimTime(10), "early");
/// let slot = cal.register_slot();
/// cal.set_slot(slot, SimTime(5), "superseded");
/// cal.set_slot(slot, SimTime(15), "predicted");
/// assert_eq!(cal.pop(), Some((SimTime(10), "early")));
/// assert_eq!(cal.pop(), Some((SimTime(15), "predicted")));
/// assert_eq!(cal.pop(), Some((SimTime(20), "late")));
/// assert_eq!(cal.pop(), None);
/// ```
pub struct EventCalendar<E> {
    /// 4-ary min-heap of inline entries, rooted at index 0.
    heap: Vec<Entry<E>>,
    /// Same-instant fast lane: zero-delay events, keyed exactly as a heap
    /// push would key them. Keys are strictly increasing front to back
    /// (monotone `now`, monotone `seq`), so the front is the lane minimum.
    fast: VecDeque<(u128, E)>,
    /// Prediction-slot keys, indexed by `SlotId`; `VACANT` marks an empty
    /// slot. Kept dense and separate from the payloads so the per-pop min
    /// scan touches only keys.
    slot_keys: Vec<u128>,
    /// Prediction-slot payloads, parallel to `slot_keys`.
    slot_events: Vec<Option<E>>,
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
            heap: Vec::new(),
            fast: VecDeque::new(),
            slot_keys: Vec::new(),
            slot_events: Vec::new(),
            slots_live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
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

    /// Schedule `event` to fire `delay` after the current clock.
    ///
    /// Hot-path variant of [`schedule`](Self::schedule): `now + delay` can
    /// never be in the past, so the causality check is skipped. A zero delay
    /// takes the same-instant fast lane (see
    /// [`schedule_now`](Self::schedule_now)); delivery order is identical to
    /// a heap push either way.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        if delay == SimDuration::ZERO {
            self.schedule_now(event);
        } else {
            self.push(self.now + delay, event);
        }
    }

    /// Schedule `event` to fire at the current instant, after every event
    /// already pending for this instant (FIFO, like any other schedule).
    ///
    /// This is the same-instant fast lane: the event is appended to a
    /// microqueue in O(1) with the exact packed `(now, seq)` key a heap push
    /// would have assigned, so delivery order is identical to
    /// `schedule(self.now(), event)` without the heap round-trip.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.fast.push_back((pack(self.now, seq), event));
    }

    /// Register a prediction slot: a stable cell holding at most one pending
    /// event, overwritten in place by [`set_slot`](Self::set_slot). Slots
    /// are meant for long-lived, frequently superseded predictions (one per
    /// simulated node resource); register them once at startup.
    pub fn register_slot(&mut self) -> SlotId {
        self.slot_keys.push(VACANT);
        self.slot_events.push(None);
        SlotId((self.slot_keys.len() - 1) as u32)
    }

    /// Set `slot`'s pending event, replacing (and dropping) any previous
    /// one. Consumes one sequence number, exactly like a heap push, so the
    /// event is delivered in the order a push would give it (see module
    /// docs).
    #[inline]
    pub fn set_slot(&mut self, slot: SlotId, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "attempt to set slot prediction at {time} before the current clock {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = slot.0 as usize;
        if self.slot_keys[i] == VACANT {
            self.slots_live += 1;
        }
        self.slot_keys[i] = pack(time, seq);
        self.slot_events[i] = Some(event);
    }

    /// Withdraw `slot`'s pending event, if any. Consumes no sequence number.
    #[inline]
    pub fn clear_slot(&mut self, slot: SlotId) {
        let i = slot.0 as usize;
        if self.slot_keys[i] != VACANT {
            self.slot_keys[i] = VACANT;
            self.slot_events[i] = None;
            self.slots_live -= 1;
        }
    }

    /// The instant `slot`'s pending event will fire, or `None` if the slot
    /// is vacant (never set, cleared, or already delivered by `pop`).
    #[inline]
    pub fn slot_time(&self, slot: SlotId) -> Option<SimTime> {
        let key = self.slot_keys[slot.0 as usize];
        (key != VACANT).then(|| unpack_time(key))
    }

    #[inline]
    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = pack(time, seq);
        self.heap.push(Entry { key, event });
        // SAFETY: the entry was just pushed, so `len - 1` is in bounds.
        unsafe { self.sift_up(self.heap.len() - 1) };
    }

    /// Remove and return the earliest event — the minimum packed key across
    /// the heap, the same-instant fast lane, and the prediction slots —
    /// advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Candidate per source; packed keys are globally unique, so the
        // minimum is unambiguous and the merged order equals the order a
        // single heap holding every event would produce.
        let mut best = self.heap.first().map(|e| (e.key, Source::Heap));
        if let Some(&(k, _)) = self.fast.front() {
            if best.is_none_or(|(bk, _)| k < bk) {
                best = Some((k, Source::Fast));
            }
        }
        if self.slots_live > 0 {
            let mut min_k = best.map_or(VACANT, |(bk, _)| bk);
            let mut min_i = usize::MAX;
            for (i, &k) in self.slot_keys.iter().enumerate() {
                if k < min_k {
                    min_k = k;
                    min_i = i;
                }
            }
            if min_i != usize::MAX {
                best = Some((min_k, Source::Slot(min_i)));
            }
        }
        let (key, source) = best?;
        let event = match source {
            Source::Heap => self.pop_top().expect("root exists").event,
            Source::Fast => self.fast.pop_front().expect("front exists").1,
            Source::Slot(i) => {
                self.slot_keys[i] = VACANT;
                self.slots_live -= 1;
                self.slot_events[i].take().expect("occupied slot")
            }
        };
        let time = unpack_time(key);
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, event))
    }

    /// Remove the root entry, restoring the heap property.
    fn pop_top(&mut self) -> Option<Entry<E>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        // SAFETY: the heap is non-empty and 0 is its root. The root is read
        // out and `last` sifts down from the resulting hole directly,
        // avoiding a write-then-reread of slot 0.
        unsafe {
            let top = ptr::read(self.heap.as_ptr());
            self.sift_down_from_hole(last);
            Some(top)
        }
    }

    /// The timestamp of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best = self.heap.first().map(|e| e.key);
        if let Some(&(k, _)) = self.fast.front() {
            if best.is_none_or(|bk| k < bk) {
                best = Some(k);
            }
        }
        if self.slots_live > 0 {
            for &k in &self.slot_keys {
                if best.map_or(k != VACANT, |bk| k < bk) {
                    best = Some(k);
                }
            }
        }
        best.map(unpack_time)
    }

    #[inline]
    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.fast.len() + self.slots_live
    }

    #[inline]
    /// True when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled (a cheap progress gauge).
    #[inline]
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Restore the heap property for the entry at `i` by walking it toward
    /// the root: parents larger than it move down into the hole, and it is
    /// written exactly once at its final position.
    ///
    /// # Safety
    /// `i` must be in bounds.
    unsafe fn sift_up(&mut self, i: usize) {
        let mut hole = Hole::new(&mut self.heap, i);
        while hole.pos > 0 {
            let parent = (hole.pos - 1) / ARITY;
            if hole.key() >= hole.get(parent).key {
                break;
            }
            hole.move_to(parent);
        }
    }

    /// Sift `elt` down from a hole at the root (slot 0, whose previous
    /// content the caller has already read out) to its final position,
    /// stepping past smaller children. The min-of-children scan is unrolled
    /// for full interior nodes — the dynamic trip count of the general loop
    /// otherwise defeats the optimizer on the hottest path.
    ///
    /// # Safety
    /// The heap must be non-empty, with slot 0's content moved out.
    unsafe fn sift_down_from_hole(&mut self, elt: Entry<E>) {
        let len = self.heap.len();
        let mut hole = Hole::with_elt(&mut self.heap, 0, elt);
        loop {
            let first_child = hole.pos * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut min = first_child;
            let mut min_key = hole.get(first_child).key;
            if first_child + ARITY <= len {
                for c in first_child + 1..first_child + ARITY {
                    let k = hole.get(c).key;
                    if k < min_key {
                        min = c;
                        min_key = k;
                    }
                }
            } else {
                for c in first_child + 1..len {
                    let k = hole.get(c).key;
                    if k < min_key {
                        min = c;
                        min_key = k;
                    }
                }
            }
            if min_key >= hole.key() {
                break;
            }
            hole.move_to(min);
        }
    }
}

/// A hole in a heap slice: the element at `pos` has been moved out and is
/// held in `elt`; `move_to` shifts another element into the hole, and the
/// held element is written back at the final position on drop. This is the
/// standard panic-safe one-move-per-level sift (as in `std`'s `BinaryHeap`);
/// key comparisons cannot panic, so the drop-based write-back is simply the
/// single exit path.
struct Hole<'a, E> {
    data: &'a mut [Entry<E>],
    elt: ManuallyDrop<Entry<E>>,
    pos: usize,
}

impl<'a, E> Hole<'a, E> {
    /// # Safety
    /// `pos` must be in bounds.
    unsafe fn new(data: &'a mut [Entry<E>], pos: usize) -> Self {
        debug_assert!(pos < data.len());
        let elt = ptr::read(data.get_unchecked(pos));
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    /// A hole at `pos` filled with an externally supplied element (the slot's
    /// previous content must already have been moved out by the caller).
    ///
    /// # Safety
    /// `pos` must be in bounds and its slot logically vacated.
    unsafe fn with_elt(data: &'a mut [Entry<E>], pos: usize, elt: Entry<E>) -> Self {
        debug_assert!(pos < data.len());
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    #[inline]
    fn key(&self) -> u128 {
        self.elt.key
    }

    /// # Safety
    /// `index` must be in bounds and not equal to `pos`.
    #[inline]
    unsafe fn get(&self, index: usize) -> &Entry<E> {
        debug_assert!(index != self.pos && index < self.data.len());
        self.data.get_unchecked(index)
    }

    /// Move the element at `index` into the hole; `index` becomes the hole.
    ///
    /// # Safety
    /// `index` must be in bounds and not equal to `pos`.
    #[inline]
    unsafe fn move_to(&mut self, index: usize) {
        debug_assert!(index != self.pos && index < self.data.len());
        let ptr = self.data.as_mut_ptr();
        ptr::copy_nonoverlapping(ptr.add(index), ptr.add(self.pos), 1);
        self.pos = index;
    }
}

impl<E> Drop for Hole<'_, E> {
    #[inline]
    fn drop(&mut self) {
        // Write the held element into the final hole position.
        unsafe {
            let pos = self.pos;
            ptr::copy_nonoverlapping(&*self.elt, self.data.get_unchecked_mut(pos), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(30), 3);
        cal.schedule(SimTime(10), 1);
        cal.schedule(SimTime(20), 2);
        assert_eq!(cal.pop(), Some((SimTime(10), 1)));
        assert_eq!(cal.pop(), Some((SimTime(20), 2)));
        assert_eq!(cal.pop(), Some((SimTime(30), 3)));
        assert!(cal.is_empty());
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = EventCalendar::new();
        for i in 0..100 {
            cal.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(42), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime(42));
    }

    #[test]
    #[should_panic(expected = "before the current clock")]
    fn scheduling_into_the_past_panics() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(10), ());
        cal.pop();
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
        let (t, _) = cal.pop().unwrap();
        cal.schedule(t + crate::SimDuration(5), "b");
        cal.schedule(t + crate::SimDuration(1), "c");
        assert_eq!(cal.pop().unwrap().1, "c");
        assert_eq!(cal.pop().unwrap().1, "b");
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
            let (t, e) = cal.pop().unwrap();
            cal.schedule(t + SimDuration(3), e);
        }
        assert_eq!(cal.len(), 8);
        assert!(
            cal.heap.capacity() <= 16,
            "heap grew to capacity {} for 8 live events",
            cal.heap.capacity()
        );
    }

    /// The inline heap must pop in exactly the order the old
    /// `BinaryHeap<(time, seq)>` implementation did: ascending packed key.
    /// Simulation determinism (bit-identical `RunReport`s across the swap)
    /// rides on this property.
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
                let got = cal.pop().unwrap();
                popped.push(got);
            }
            if round % 97 == 0 {
                // Occasionally drain a few to exercise deep sift-downs.
                for _ in 0..cal.len().min(5) {
                    popped.push(cal.pop().unwrap());
                }
            }
        }
        while let Some(got) = cal.pop() {
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
    fn schedule_now_is_fifo_after_pending_same_instant_events() {
        let mut cal = EventCalendar::new();
        cal.schedule(SimTime(10), 0);
        cal.pop();
        // Pending heap events at the current instant were scheduled first,
        // so they carry smaller seqs and must fire before the fast-lane
        // entries even though the lane is consulted on every pop.
        cal.schedule(SimTime(10), 1);
        cal.schedule_now(2);
        cal.schedule(SimTime(10), 3);
        cal.schedule_now(4);
        for want in 1..=4 {
            assert_eq!(cal.pop(), Some((SimTime(10), want)));
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn fast_lane_matches_heap_routing_exactly() {
        // Reference: everything through the heap. Subject: zero delays via
        // the fast lane. Identical op sequence must pop identically.
        let mut rng = crate::SimRng::from_seed(0xFA57);
        let mut heap_only = EventCalendar::new();
        let mut fast = EventCalendar::new();
        for i in 0..5_000u64 {
            if rng.bernoulli(0.5) {
                let d = SimDuration(rng.uniform_u64(0, 3));
                heap_only.schedule(heap_only.now() + d, i);
                fast.schedule_after(d, i);
            } else {
                assert_eq!(heap_only.pop(), fast.pop());
                assert_eq!(heap_only.len(), fast.len());
            }
        }
        loop {
            let (a, b) = (heap_only.pop(), fast.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn slot_set_clear_and_overwrite() {
        let mut cal = EventCalendar::new();
        let s = cal.register_slot();
        assert_eq!(cal.slot_time(s), None);
        cal.set_slot(s, SimTime(10), "stale");
        assert_eq!(cal.slot_time(s), Some(SimTime(10)));
        assert_eq!(cal.len(), 1);
        // Overwriting supersedes in place: the stale prediction never fires.
        cal.set_slot(s, SimTime(5), "fresh");
        assert_eq!(cal.slot_time(s), Some(SimTime(5)));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((SimTime(5), "fresh")));
        assert_eq!(cal.slot_time(s), None, "delivery vacates the slot");
        cal.set_slot(s, SimTime(9), "cleared");
        cal.clear_slot(s);
        assert_eq!(cal.pop(), None);
        assert!(cal.is_empty());
        cal.clear_slot(s); // clearing a vacant slot is a no-op
    }

    #[test]
    fn slot_events_interleave_with_heap_and_fast_lane() {
        let mut cal = EventCalendar::new();
        let s = cal.register_slot();
        cal.schedule(SimTime(10), 1); // seq 0
        cal.set_slot(s, SimTime(10), 2); // seq 1
        cal.schedule(SimTime(10), 3); // seq 2
        assert_eq!(cal.peek_time(), Some(SimTime(10)));
        assert_eq!(cal.pop(), Some((SimTime(10), 1)));
        cal.schedule_now(4); // seq 3
        assert_eq!(cal.pop(), Some((SimTime(10), 2)));
        assert_eq!(cal.pop(), Some((SimTime(10), 3)));
        assert_eq!(cal.pop(), Some((SimTime(10), 4)));
        assert_eq!(cal.pop(), None);
    }

    /// Slots against a plain sorted model: each `set_slot` removes the
    /// slot's previous event and adds one with a fresh sequence number, each
    /// `clear_slot` removes it and consumes none, and every pop delivers the
    /// least `(time, seq)`.
    #[test]
    fn slots_match_sorted_reference() {
        let mut rng = crate::SimRng::from_seed(0x5107);
        let mut subject = EventCalendar::new();
        let slots: Vec<SlotId> = (0..4).map(|_| subject.register_slot()).collect();
        // (time, seq, payload); payloads below 4 are slot predictions.
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
                    subject.set_slot(slots[k], at, k as u64);
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
                        (t, e)
                    });
                    assert_eq!(subject.pop(), expected);
                    assert_eq!(subject.len(), reference.len());
                }
            }
        }
    }

    /// Payloads with heap allocations must be dropped exactly once through
    /// the unsafe hole sifts, slot overwrites, and the calendar's own drop.
    #[test]
    fn owning_payloads_are_not_leaked_or_double_dropped() {
        use std::rc::Rc;
        let counter = Rc::new(());
        let mut cal = EventCalendar::new();
        for i in 0..100u64 {
            cal.schedule(SimTime(i % 13), Rc::clone(&counter));
        }
        cal.schedule_now(Rc::clone(&counter));
        cal.schedule_now(Rc::clone(&counter));
        let s = cal.register_slot();
        cal.set_slot(s, SimTime(50), Rc::clone(&counter));
        cal.set_slot(s, SimTime(60), Rc::clone(&counter)); // supersedes
        for _ in 0..60 {
            assert!(cal.pop().is_some());
        }
        let undelivered = cal.register_slot();
        cal.set_slot(undelivered, SimTime(90), Rc::clone(&counter));
        assert_eq!(cal.len(), 100 + 2 + 1 + 1 - 60);
        // Undelivered heap, slot and fast-lane payloads drop with the
        // calendar.
        drop(cal);
        assert_eq!(Rc::strong_count(&counter), 1, "payloads leaked");
    }
}

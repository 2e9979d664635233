//! The node CPU model (paper §3.4).
//!
//! The CPU serves two classes of work:
//!
//! * **message work** — protocol processing for sending/receiving messages.
//!   Served FIFO, one job at a time, at *preemptive priority* over all other
//!   work ("with message processing being higher priority").
//! * **ordinary work** — page processing, process startup, update initiation,
//!   CC request processing. Served **processor sharing**: when `n` jobs are
//!   present each progresses at `rate / n`.
//!
//! # Virtual-time (fluid) accounting
//!
//! The processor-sharing class is tracked in *virtual time*: `v` is the
//! cumulative work a hypothetical always-present job would have received
//! (in instructions), advancing at `rate / n` per real second while `n`
//! shared jobs are live and frozen while a message preempts them. A job
//! arriving with `w` instructions is stamped with a finish tag
//! `f = v + w` that never changes afterwards, and it completes exactly when
//! `v` reaches `f`. The pending jobs sit in a `std::collections::BinaryHeap`
//! of 24-byte `(f, arrival seq, slab index)` entries ordered by
//! `(f, arrival seq)`, earliest first; the job tags themselves wait in a
//! slab whose freed slots are reused, so a sift moves three words whatever
//! the tag type. Thus:
//!
//! * [`Cpu::advance`] to an instant with no completions is an O(1) clock
//!   update (one add to `v`) — no per-job work, no rescan;
//! * [`Cpu::next_completion`] is O(1): the next finisher is the min finish
//!   tag, at `last + (f_min − v)·n / rate`;
//! * completing one job is one heap pop, O(log n);
//! * cancelling an aborted cohort's jobs is one `retain` over the heap, and
//!   the survivors' share adjusts because `n` is the heap's length.
//!
//! The previous implementation rescanned the whole shared-job vector on
//! every state change (O(n) per interaction, with repeated re-prediction of
//! completion instants drifting by a nanosecond per rescan thanks to ceil
//! rounding). The virtual-time form makes every prediction *exact*: calling
//! `advance` at the instant `next_completion` returned recomputes the same
//! `(f_min − v)·n` product and takes the exact-completion path, so
//! prediction and completion cannot drift apart.
//!
//! `v` is rebased to zero whenever the shared class empties, which bounds
//! floating-point magnitude growth to one busy period.
//!
//! The model is driven by the owner: every interaction first calls
//! [`Cpu::advance`] to apply progress up to the current instant and then
//! takes the completed tags, in completion order, from the CPU's own queue
//! with [`Cpu::pop_done`]; after any state change the owner asks
//! [`Cpu::next_completion`] and keeps that instant in one calendar
//! *prediction slot* per CPU — a moved prediction overwrites the slot in
//! place, so stale completions never fire.

use denet::{BusyTracker, SimDuration, SimTime, NANOS_PER_SEC};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Work remaining below this many instructions counts as finished (guards
/// against floating-point residue; far below one instruction).
const EPS_INSTR: f64 = 1e-6;

#[derive(Debug)]
struct Job<T> {
    tag: T,
    remaining: f64, // instructions
}

/// A processor-shared job's heap entry: its finish tag, arrival sequence
/// and the slab slot holding its tag.
#[derive(Debug, Clone, Copy)]
struct PsEntry {
    /// Virtual finish tag `v(arrival) + instructions`; positive and finite.
    finish: f64,
    /// Arrival sequence: FIFO tie-break for equal tags.
    seq: u64,
    /// Index of the job's tag in `Cpu::tags`.
    slot: u32,
}

impl PartialEq for PsEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for PsEntry {}

impl PartialOrd for PsEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PsEntry {
    /// `(finish, seq)` as one integer: the tag's bits above the sequence.
    /// Finish tags are positive and finite, and for such floats the bit
    /// pattern orders exactly as the value does, so one integer compare
    /// replaces `f64::total_cmp` and its tie-break.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.finish.to_bits()) << 64) | u128::from(self.seq)
    }
}

impl Ord for PsEntry {
    /// Reversed `(finish, seq)`, so the max-heap's top is the earliest
    /// finish tag, FIFO within a tag.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A single-CPU node processor.
#[derive(Debug)]
pub struct Cpu<T> {
    /// Instruction rate, instructions per second.
    rate: f64,
    /// Nanoseconds per instruction (`1e9 / rate`), precomputed so the
    /// service-time conversion on every prediction and advance is a single
    /// multiply instead of a divide.
    ns_per_instr: f64,
    messages: VecDeque<Job<T>>,
    /// Cumulative virtual work per unit share, in instructions.
    v: f64,
    /// Processor-shared jobs, earliest finish tag on top; its length is
    /// `n` in the fluid model.
    heap: BinaryHeap<PsEntry>,
    /// Tags of the processor-shared jobs, indexed by `PsEntry::slot`;
    /// `None` marks a free slot.
    tags: Vec<Option<T>>,
    /// Free slots of `tags`, reused before the slab grows.
    free: Vec<u32>,
    /// Tags of completed jobs, in completion order, not yet taken by
    /// [`pop_done`](Self::pop_done).
    done: VecDeque<T>,
    next_seq: u64,
    last: SimTime,
    busy: BusyTracker,
}

impl<T> Cpu<T> {
    /// A CPU executing `rate` instructions per second.
    pub fn new(rate: f64) -> Cpu<T> {
        assert!(rate > 0.0 && rate.is_finite());
        Cpu {
            rate,
            ns_per_instr: NANOS_PER_SEC as f64 / rate,
            messages: VecDeque::new(),
            v: 0.0,
            heap: BinaryHeap::new(),
            tags: Vec::new(),
            free: Vec::new(),
            done: VecDeque::new(),
            next_seq: 0,
            last: SimTime::ZERO,
            busy: BusyTracker::new(SimTime::ZERO),
        }
    }

    #[inline]
    /// `is_idle`.
    pub fn is_idle(&self) -> bool {
        self.messages.is_empty() && self.heap.is_empty()
    }

    /// True when the accounting clock already sits at `now`: an `advance`
    /// to `now` would be a no-op, so callers can skip the completion drain
    /// entirely. Same-instant interactions dominate event cascades.
    #[inline]
    pub fn is_current(&self, now: SimTime) -> bool {
        self.last == now
    }

    /// Fraction of time busy since the last utilization reset.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }

    /// Restart the utilization window (end of warmup).
    pub fn reset_utilization(&mut self, now: SimTime) {
        self.busy.reset(now);
    }

    /// Apply progress from the last interaction up to `now`, queueing the
    /// tags of all jobs that completed, in completion order, for
    /// [`pop_done`](Self::pop_done).
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last, "CPU advanced backwards");
        if now == self.last {
            // Zero elapsed time: no fluid progress, no message service, and
            // any sub-EPS residue was already swept by the call that moved
            // `last` here. The owner touches the CPU before every submit, so
            // this no-op path is the most common call by far.
            return;
        }
        let mut t = self.last; // current position within (last, now]
        loop {
            if let Some(head) = self.messages.front() {
                // Message service: head of queue, full rate, preemptive.
                // Virtual time is frozen while a message holds the CPU.
                let need = duration_for(head.remaining, self.ns_per_instr);
                if t + need <= now {
                    t += need;
                    let job = self.messages.pop_front().expect("head exists");
                    self.done.push_back(job.tag);
                } else {
                    // Partial progress. Scheduled completion instants are
                    // rounded *up* to whole nanoseconds, so an intermediate
                    // advance can overshoot the true finish point by a
                    // sub-nanosecond sliver — sweep out anything finished or
                    // the job would linger forever with ~zero work left.
                    let served = now.since(t).as_secs_f64() * self.rate;
                    let head = self.messages.front_mut().expect("head exists");
                    head.remaining -= served;
                    if head.remaining <= EPS_INSTR {
                        let job = self.messages.pop_front().expect("head exists");
                        self.done.push_back(job.tag);
                    }
                    // The message (or its successor) holds the CPU past `now`;
                    // the shared class is preempted and sees zero progress.
                    t = now;
                    break;
                }
            } else if let Some(top) = self.heap.peek() {
                let n = self.heap.len() as f64;
                let finish = top.finish;
                let need = duration_for((finish - self.v).max(0.0) * n, self.ns_per_instr);
                if t + need <= now {
                    // Exact completion: the same product that predicted this
                    // instant lands virtual time exactly on the finish tag.
                    t += need;
                    self.v = finish;
                    let tag = self.complete_top();
                    self.done.push_back(tag);
                } else {
                    // No completion in (t, now]: one O(1) fluid update.
                    self.v += now.since(t).as_secs_f64() * self.rate / n;
                    t = now;
                    // Ceil-rounded instants can overshoot a finish tag by a
                    // sub-nanosecond sliver; sweep tags the fluid already
                    // passed (the EPS companion to the message-class sweep).
                    while self
                        .heap
                        .peek()
                        .is_some_and(|top| top.finish <= self.v + EPS_INSTR)
                    {
                        let tag = self.complete_top();
                        self.done.push_back(tag);
                    }
                    break;
                }
            } else {
                break; // idle for the rest of the interval
            }
            if t >= now && self.is_idle() {
                break;
            }
        }
        self.last = now;
        if self.is_idle() {
            // The CPU went idle at `t` (the last completion), not at `now`;
            // charging the gap as busy would inflate utilization.
            self.busy.set_busy(t, false);
        } else {
            self.busy.set_busy(now, true);
        }
    }

    /// The next completed tag, in completion order, or `None` once every
    /// completion [`advance`](Self::advance) found has been taken.
    #[inline]
    pub fn pop_done(&mut self) -> Option<T> {
        self.done.pop_front()
    }

    /// Pop the top of the finish-tag heap, free its slab slot and return
    /// its tag. Rebases virtual time when the shared class empties.
    fn complete_top(&mut self) -> T {
        let top = self.heap.pop().expect("non-empty heap");
        if self.heap.is_empty() {
            // Empty shared class: reset the fluid clock so `v` (and the
            // f64 error of tags derived from it) stays bounded by one busy
            // period rather than growing for the whole run.
            self.v = 0.0;
        }
        self.free.push(top.slot);
        self.tags[top.slot as usize].take().expect("live slab slot")
    }

    /// Submit an ordinary (processor-shared) job of `instructions`.
    /// Zero-instruction jobs complete immediately and are returned.
    #[must_use = "a zero-cost job completes immediately and must be handled"]
    pub fn submit_shared(&mut self, now: SimTime, tag: T, instructions: f64) -> Option<T> {
        debug_assert!(instructions >= 0.0);
        if instructions <= EPS_INSTR {
            return Some(tag);
        }
        self.sync_clock(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.tags[slot as usize] = Some(tag);
                slot
            }
            None => {
                self.tags.push(Some(tag));
                (self.tags.len() - 1) as u32
            }
        };
        let finish = self.v + instructions;
        debug_assert!(
            finish.is_finite() && finish.is_sign_positive(),
            "finish tag {finish} is not a positive finite float"
        );
        self.heap.push(PsEntry { finish, seq, slot });
        self.busy.set_busy(now, true);
        None
    }

    /// Submit a message-class job of `instructions` (FIFO, priority).
    /// Zero-instruction jobs complete immediately and are returned.
    #[must_use = "a zero-cost job completes immediately and must be handled"]
    pub fn submit_message(&mut self, now: SimTime, tag: T, instructions: f64) -> Option<T> {
        debug_assert!(instructions >= 0.0);
        if instructions <= EPS_INSTR {
            return Some(tag);
        }
        self.sync_clock(now);
        self.messages.push_back(Job {
            tag,
            remaining: instructions,
        });
        self.busy.set_busy(now, true);
        None
    }

    /// Submissions must not outrun the accounting clock: an idle CPU can
    /// jump forward (nothing is in flight), a busy one must have been
    /// advanced to `now` by the caller first.
    fn sync_clock(&mut self, now: SimTime) {
        if self.is_idle() {
            debug_assert!(now >= self.last);
            self.last = now;
        } else {
            debug_assert!(
                now == self.last,
                "submit to a busy CPU without advancing it first"
            );
        }
    }

    /// Remove all processor-shared jobs matching `pred` (e.g. the work of an
    /// aborted cohort) and return how many were removed. Message jobs are
    /// never cancelled: protocol processing always runs to completion.
    ///
    /// The survivors keep their finish tags; their fluid share adjusts
    /// because the heap shrinks. Completed tags still queued for
    /// [`pop_done`](Self::pop_done) are not touched.
    pub fn cancel_shared_where(&mut self, pred: impl Fn(&T) -> bool) -> usize {
        let before = self.heap.len();
        let (tags, free) = (&mut self.tags, &mut self.free);
        self.heap.retain(|e| {
            let cancel = pred(tags[e.slot as usize].as_ref().expect("live slab slot"));
            if cancel {
                tags[e.slot as usize] = None;
                free.push(e.slot);
            }
            !cancel
        });
        let removed = before - self.heap.len();
        if removed > 0 {
            if self.heap.is_empty() {
                self.v = 0.0;
            }
            self.busy.set_busy(self.last, !self.is_idle());
        }
        removed
    }

    /// Crash support: destroy every queued and in-flight job, message class
    /// included, and return how many were dropped. Unlike
    /// [`cancel_shared_where`](Self::cancel_shared_where), this models the
    /// processor itself dying mid-instruction — protocol processing does NOT
    /// run to completion. The accounting clock jumps to `now` and the CPU is
    /// idle afterwards. Completed tags still queued for
    /// [`pop_done`](Self::pop_done) finished before the crash and stay.
    pub fn clear(&mut self, now: SimTime) -> usize {
        debug_assert!(now >= self.last, "CPU cleared in the past");
        let dropped = self.messages.len() + self.heap.len();
        self.messages.clear();
        self.heap.clear();
        self.tags.clear();
        self.free.clear();
        self.v = 0.0;
        self.last = now;
        self.busy.set_busy(now, false);
        dropped
    }

    /// The instant the next job will complete if no further state changes
    /// occur, or `None` when idle. Call immediately after `advance`.
    ///
    /// Exact: advancing to the returned instant recomputes the identical
    /// service requirement and completes the predicted job there.
    pub fn next_completion(&self) -> Option<SimTime> {
        if let Some(head) = self.messages.front() {
            return Some(self.last + duration_for(head.remaining, self.ns_per_instr));
        }
        let top = self.heap.peek()?;
        let n = self.heap.len() as f64;
        Some(self.last + duration_for((top.finish - self.v).max(0.0) * n, self.ns_per_instr))
    }
}

/// Time to execute `instructions` at `ns_per_instr` nanoseconds each,
/// rounded *up* to the next nanosecond so the job is certain to have
/// finished at the returned instant. The caller passes the precomputed
/// reciprocal rate; prediction and advance use the same formula, which is
/// what keeps completions exact.
#[inline]
fn duration_for(instructions: f64, ns_per_instr: f64) -> SimDuration {
    let ns = instructions.max(0.0) * ns_per_instr;
    // Integer ceil: `f64::ceil` is a libm call on baseline x86-64, and this
    // sits on the prediction path of every CPU interaction. `floor`
    // truncates, and one is added exactly when truncation dropped a
    // fraction. Baseline x86-64 converts between `f64` and `i64` in one
    // instruction each but needs several for `u64`, so spans below 2^63 ns
    // (292 years) go through `i64`; longer ones, and NaN, take the `u64`
    // casts, which saturate.
    if ns < TWO_POW_63 {
        let floor = ns as i64;
        SimDuration((floor + i64::from((floor as f64) < ns)) as u64)
    } else {
        let floor = ns as u64;
        SimDuration(floor.saturating_add(u64::from((floor as f64) < ns)))
    }
}

/// 2^63 as an `f64`: the first value `as i64` would saturate.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

#[cfg(test)]
mod tests {
    use super::*;

    /// Advance to `now` and take every completion, in order.
    fn step(cpu: &mut Cpu<u32>, now: SimTime) -> Vec<u32> {
        cpu.advance(now);
        std::iter::from_fn(|| cpu.pop_done()).collect()
    }

    fn drain(cpu: &mut Cpu<u32>, upto: SimTime) -> Vec<u32> {
        // Step through completions exactly as the simulator's event loop does.
        let mut done = Vec::new();
        loop {
            match cpu.next_completion() {
                Some(t) if t <= upto => done.extend(step(cpu, t)),
                _ => break,
            }
        }
        done.extend(step(cpu, upto));
        done
    }

    #[test]
    fn single_job_runs_at_full_rate() {
        let mut cpu = Cpu::new(1e6); // 1 MIPS
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 8_000.0).is_none());
        // 8K instructions at 1 MIPS = 8 ms.
        assert_eq!(
            cpu.next_completion(),
            Some(SimTime::ZERO + SimDuration::from_millis(8))
        );
        let done = step(&mut cpu, SimTime::ZERO + SimDuration::from_millis(8));
        assert_eq!(done, vec![1]);
        assert!(cpu.is_idle());
    }

    #[test]
    fn zero_cost_jobs_complete_inline() {
        let mut cpu = Cpu::new(1e6);
        assert_eq!(cpu.submit_shared(SimTime::ZERO, 7, 0.0), Some(7));
        assert_eq!(cpu.submit_message(SimTime::ZERO, 8, 0.0), Some(8));
        assert!(cpu.is_idle());
    }

    #[test]
    fn processor_sharing_halves_progress() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 1_000.0).is_none());
        // Two equal jobs sharing 1 MIPS: both finish at 2 ms.
        let done = drain(&mut cpu, SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(done, vec![1, 2]);
    }

    #[test]
    fn unequal_ps_jobs_finish_in_remaining_order() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 3_000.0).is_none());
        // Job 1 needs 1K shared two ways: done at 2 ms. Then job 2 has 2K
        // left alone: done at 4 ms.
        let t1 = cpu.next_completion().unwrap();
        assert_eq!(t1, SimTime(2_000_000));
        assert_eq!(step(&mut cpu, t1), vec![1]);
        let t2 = cpu.next_completion().unwrap();
        assert_eq!(t2, SimTime(4_000_000));
        assert_eq!(step(&mut cpu, t2), vec![2]);
    }

    #[test]
    fn messages_preempt_shared_work() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 2_000.0).is_none());
        // At 1 ms, half done; a 1K message arrives and takes the CPU.
        assert_eq!(step(&mut cpu, SimTime(1_000_000)), Vec::<u32>::new());
        assert!(cpu
            .submit_message(SimTime(1_000_000), 100, 1_000.0)
            .is_none());
        // Message completes at 2 ms; shared job then needs its last 1K → 3 ms.
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(2_000_000));
        assert_eq!(step(&mut cpu, t), vec![100]);
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(3_000_000));
        assert_eq!(step(&mut cpu, t), vec![1]);
    }

    #[test]
    fn messages_serve_fifo() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_message(SimTime::ZERO, 1, 500.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 2, 500.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 3, 500.0).is_none());
        let done = drain(&mut cpu, SimTime(1_500_000));
        assert_eq!(done, vec![1, 2, 3]);
    }

    #[test]
    fn equal_finish_tags_complete_fifo() {
        let mut cpu = Cpu::new(1e6);
        // Four identical jobs submitted in order at the same instant: they
        // all carry the same finish tag and must complete in arrival order.
        for i in 1..=4u32 {
            assert!(cpu.submit_shared(SimTime::ZERO, i, 1_000.0).is_none());
        }
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(4_000_000));
        assert_eq!(step(&mut cpu, t), vec![1, 2, 3, 4]);
    }

    #[test]
    fn utilization_counts_busy_time_only() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        let t = cpu.next_completion().unwrap();
        step(&mut cpu, t); // busy for 1 ms
        step(&mut cpu, SimTime(4_000_000)); // idle for 3 ms
        let u = cpu.utilization(SimTime(4_000_000));
        assert!((u - 0.25).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_reset_mid_run() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 10_000.0).is_none());
        step(&mut cpu, SimTime(5_000_000));
        cpu.reset_utilization(SimTime(5_000_000));
        let t = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime(10_000_000));
        step(&mut cpu, t);
        assert!((cpu.utilization(SimTime(10_000_000)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_removes_only_matching_jobs() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 3, 1_000.0).is_none());
        assert_eq!(cpu.cancel_shared_where(|t| *t == 2), 1);
        // Remaining two share the CPU from t=0: both done at 2 ms.
        let done = drain(&mut cpu, SimTime(2_000_000));
        assert_eq!(done, vec![1, 3]);
    }

    #[test]
    fn cancel_of_the_imminent_finisher_reroutes_the_prediction() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 5_000.0).is_none());
        // Job 1 would finish first (at 2 ms); cancel it. Job 2 then owns the
        // whole CPU from t=0: done at 5 ms.
        assert_eq!(cpu.cancel_shared_where(|t| *t == 1), 1);
        assert_eq!(cpu.next_completion(), Some(SimTime(5_000_000)));
        assert_eq!(step(&mut cpu, SimTime(5_000_000)), vec![2]);
        assert!(cpu.is_idle());
    }

    #[test]
    fn heap_stays_small_after_completion_and_cancel() {
        let mut cpu = Cpu::new(1e6);
        for round in 0..100u32 {
            assert!(cpu.submit_shared(cpu.last, round, 1_000.0).is_none());
            if round % 2 == 0 {
                let t = cpu.next_completion().unwrap();
                assert_eq!(step(&mut cpu, t), vec![round]);
            } else {
                assert_eq!(cpu.cancel_shared_where(|_| true), 1);
            }
        }
        assert!(cpu.is_idle());
        assert!(
            cpu.heap.capacity() <= 4,
            "heap grew to capacity {} for 1 concurrent job",
            cpu.heap.capacity()
        );
    }

    mod key_order {
        use super::PsEntry;
        use proptest::prelude::*;

        proptest! {
            /// The integer key orders entries exactly as `f64::total_cmp`
            /// on the finish tag followed by the arrival sequence, for the
            /// non-negative finite tags a processor-shared job carries,
            /// from subnormal to huge, with ties forced half the time.
            #[test]
            fn integer_key_orders_as_total_cmp_then_seq(
                a in (0.0f64..1e15, 0u64..4),
                b in (0.0f64..1e15, 0u64..4),
                scale in prop_oneof![Just(1.0f64), Just(1e-310), Just(1e290)],
                tie in any::<bool>(),
            ) {
                let entry = |finish: f64, seq| PsEntry { finish: finish * scale, seq, slot: 0 };
                let x = entry(a.0, a.1);
                let y = entry(if tie { a.0 } else { b.0 }, b.1);
                let by_float = y.finish.total_cmp(&x.finish).then(y.seq.cmp(&x.seq));
                prop_assert_eq!(x.cmp(&y), by_float);
            }
        }
    }

    #[test]
    fn slab_reuses_cancelled_and_completed_slots() {
        // A sift moves the entry, not the tag: three words whatever `T` is.
        assert_eq!(std::mem::size_of::<PsEntry>(), 24);
        let mut cpu = Cpu::new(1e6);
        let mut rng_state = 0x2545_F491_u64;
        let mut next = || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        // Churn with up to eight jobs live: submit, cancel a random tag,
        // complete the predicted finisher, cancel everything now and then.
        let mut live = 0usize;
        let mut peak = 0usize;
        for round in 0..5_000u32 {
            match next() % 4 {
                0 | 1 if live < 8 => {
                    let instr = 100.0 * (1 + next() % 50) as f64;
                    assert!(cpu.submit_shared(cpu.last, round, instr).is_none());
                    live += 1;
                }
                2 if live > 0 => {
                    let victim = (next() % u64::from(round + 1)) as u32;
                    live -= cpu.cancel_shared_where(|t| *t == victim);
                }
                _ => match cpu.next_completion() {
                    Some(t) => live -= step(&mut cpu, t).len(),
                    None if round % 500 == 0 => live -= cpu.cancel_shared_where(|_| true),
                    None => {}
                },
            }
            peak = peak.max(live);
            assert_eq!(cpu.heap.len(), live);
            // Every slab slot is either live in the heap or on the free list.
            assert_eq!(cpu.tags.len(), cpu.heap.len() + cpu.free.len());
            assert_eq!(
                cpu.tags.iter().filter(|t| t.is_some()).count(),
                cpu.heap.len()
            );
        }
        assert_eq!(peak, 8, "the churn reached its concurrency cap");
        assert!(
            cpu.tags.len() <= peak,
            "slab grew to {} slots for {peak} concurrent jobs",
            cpu.tags.len()
        );
        assert!(cpu.tags.capacity() <= 16 && cpu.free.capacity() <= 16);
    }

    #[test]
    fn completions_queue_until_popped() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_message(SimTime::ZERO, 10, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 2, 1_000.0).is_none());
        assert!(cpu.submit_shared(SimTime::ZERO, 3, 9_000.0).is_none());
        cpu.advance(SimTime(4_000_000));
        assert_eq!(cpu.pop_done(), Some(10));
        // A cancel between pops leaves the finished jobs queued.
        assert_eq!(cpu.cancel_shared_where(|_| true), 1);
        assert!(cpu.is_idle());
        assert_eq!(cpu.pop_done(), Some(1));
        assert_eq!(cpu.pop_done(), Some(2));
        assert_eq!(cpu.pop_done(), None);
    }

    /// The ceiling `duration_for` took before it went through `i64`: `u64`
    /// casts throughout, saturating at 2^64 ns.
    fn duration_for_u64(instructions: f64, ns_per_instr: f64) -> SimDuration {
        let ns = instructions.max(0.0) * ns_per_instr;
        let floor = ns as u64;
        SimDuration(floor.saturating_add(u64::from((floor as f64) < ns)))
    }

    #[test]
    fn duration_for_matches_the_u64_ceiling() {
        let two53 = 9_007_199_254_740_992.0;
        let mut cases = vec![
            (0.0, 1.0),
            (-5.0, 100.0),
            (1.0, 1.0),
            (8_000.0, 1_000.0),
            (1_234.0, 100.0),
            (0.5, 1.0),
            (1.0 + f64::EPSILON, 1.0),
            (1e-9, 1.0),
            (2.0 / 3.0, 300.0),
            (1_000.0, 1e9 / 3e6),
            (two53, 1.0),
            (two53 - 1.0, 1.0),
            (two53 - 0.5, 1.0),
            (two53 + 2.0, 1.0),
            (TWO_POW_63, 1.0),
            (TWO_POW_63 - 1024.0, 1.0),
            (TWO_POW_63 + 2048.0, 1.0),
            (TWO_POW_63, 1.5),
            (TWO_POW_63 * 2.0, 1.0),
            (TWO_POW_63 * 4.0, 1.0),
            (1e300, 1e10),
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, 1.0),
        ];
        // Fractions and integers across the range the simulator produces.
        let mut x = 0.1;
        while x < 1e18 {
            for per in [1.0, 100.0, 1e9 / 3e6, 1e9 / 7e6] {
                cases.push((x, per));
                cases.push((x.floor(), per));
            }
            x *= 1.37;
        }
        for (instr, per) in cases {
            assert_eq!(
                duration_for(instr, per),
                duration_for_u64(instr, per),
                "duration_for({instr:e}, {per:e})"
            );
        }
        assert_eq!(duration_for(1.5, 1.0), SimDuration(2));
        assert_eq!(duration_for(two53, 1.0), SimDuration(1 << 53));
        assert_eq!(duration_for(TWO_POW_63, 1.0), SimDuration(1 << 63));
        assert_eq!(duration_for(f64::NAN, 1.0), SimDuration(0));
        assert_eq!(duration_for(f64::INFINITY, 1.0), SimDuration(u64::MAX));
    }

    #[test]
    fn clear_drops_messages_and_shared_work() {
        let mut cpu = Cpu::new(1e6);
        assert!(cpu.submit_shared(SimTime::ZERO, 1, 5_000.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 2, 1_000.0).is_none());
        assert!(cpu.submit_message(SimTime::ZERO, 3, 1_000.0).is_none());
        step(&mut cpu, SimTime(500_000));
        assert_eq!(cpu.clear(SimTime(500_000)), 3);
        assert!(cpu.is_idle());
        assert_eq!(cpu.next_completion(), None);
        // The CPU is usable again after the crash.
        assert!(cpu.submit_shared(SimTime(600_000), 4, 1_000.0).is_none());
        assert_eq!(cpu.next_completion(), Some(SimTime(1_600_000)));
        assert_eq!(step(&mut cpu, SimTime(1_600_000)), vec![4]);
    }

    #[test]
    fn work_is_conserved_under_interleaving() {
        // Total busy time must equal total instructions / rate regardless of
        // how the work is interleaved.
        let mut cpu = Cpu::new(2e6);
        let mut total_instr = 0.0;
        let mut t = SimTime::ZERO;
        let mut done = 0usize;
        for i in 0..20u32 {
            let instr = 500.0 * (i % 5 + 1) as f64;
            total_instr += instr;
            if i % 3 == 0 {
                done += usize::from(cpu.submit_message(t, i, instr).is_some());
            } else {
                done += usize::from(cpu.submit_shared(t, i, instr).is_some());
            }
            t += SimDuration::from_micros(137);
            done += step(&mut cpu, t).len();
        }
        while let Some(next) = cpu.next_completion() {
            done += step(&mut cpu, next).len();
        }
        assert_eq!(done, 20);
        let now = cpu.last;
        let busy = cpu.busy.busy_time(now).as_secs_f64();
        let expect = total_instr / 2e6;
        assert!(
            (busy - expect).abs() < 1e-6,
            "busy {busy} vs expected {expect}"
        );
    }
}

//! The node disk model (paper §3.4).
//!
//! Each node has `NumDisks` disks, each with its own FIFO queue. The resource
//! manager routes a new request to a uniformly random disk (the caller
//! supplies the index, keeping RNG ownership outside this crate). Disk writes
//! have non-preemptive priority over reads so that the post-commit
//! asynchronous write-back keeps up with demand. Service times are sampled by
//! the caller (uniform in `[MinDiskTime, MaxDiskTime]`) and attached to the
//! request at submission.
//!
//! Completion instants are exact: the in-service request stores its absolute
//! `done_at`, so [`DiskArray::next_completion`] never drifts between calls.
//! The owner keeps that instant in one calendar *prediction slot* per array
//! and overwrites it whenever a new submission changes the prediction (a
//! queued request can only *extend* the schedule; an earlier completion can
//! only appear when an idle disk accepts work). Completed tags wait in the
//! array's own queue until the owner takes them with
//! [`DiskArray::pop_done`].

use denet::{BusyTracker, SimDuration, SimTime};
use std::collections::VecDeque;

#[derive(Debug)]
struct Pending<T> {
    tag: T,
    service: SimDuration,
}

#[derive(Debug)]
struct InService<T> {
    tag: T,
    done_at: SimTime,
}

/// One disk: an in-service request plus separate read and write FIFO queues.
#[derive(Debug)]
pub struct Disk<T> {
    reads: VecDeque<Pending<T>>,
    writes: VecDeque<Pending<T>>,
    current: Option<InService<T>>,
    /// Fault injection: no request may complete (or start service) before
    /// this instant. `SimTime::ZERO` — the fault-free value — is vacuous.
    stalled_until: SimTime,
    busy: BusyTracker,
    /// Room the write queue adds whenever it fills (see
    /// [`DiskArray::set_write_burst`]); `0` leaves growth to `VecDeque`.
    write_burst: usize,
}

impl<T> Disk<T> {
    /// Create a new instance.
    pub fn new() -> Disk<T> {
        Disk {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            current: None,
            stalled_until: SimTime::ZERO,
            busy: BusyTracker::new(SimTime::ZERO),
            write_burst: 0,
        }
    }

    /// Submit a request taking `service` time once it reaches the head.
    pub fn submit(&mut self, now: SimTime, tag: T, is_write: bool, service: SimDuration) {
        let p = Pending { tag, service };
        if is_write {
            if self.writes.len() == self.writes.capacity() {
                self.writes.reserve(self.write_burst.max(1));
            }
            self.writes.push_back(p);
        } else {
            self.reads.push_back(p);
        }
        self.try_start(now);
    }

    fn try_start(&mut self, now: SimTime) {
        if self.current.is_some() {
            return;
        }
        // Writes first (priority), then reads; FIFO within each class.
        let next = self.writes.pop_front().or_else(|| self.reads.pop_front());
        if let Some(p) = next {
            // A stalled disk holds the request and serves it once the stall
            // lifts (service restarts from scratch then).
            let start = self.stalled_until.max(now);
            self.current = Some(InService {
                tag: p.tag,
                done_at: start + p.service,
            });
            self.busy.set_busy(now, true);
        } else {
            self.busy.set_busy(now, false);
        }
    }

    /// True while a request is in service. Queued-but-unstarted requests
    /// enter service immediately on submit, so an idle disk has empty
    /// queues too; this is the signal the trace resource timeline records.
    #[inline]
    pub fn is_busy(&self) -> bool {
        self.busy.is_busy()
    }

    /// Fault injection: withhold all completions until `until`. The
    /// in-service request (if any) is pushed past the stall; queued requests
    /// start no earlier than `until`.
    pub fn stall(&mut self, until: SimTime) {
        if until > self.stalled_until {
            self.stalled_until = until;
        }
        if let Some(cur) = &mut self.current {
            if cur.done_at < until {
                cur.done_at = until;
            }
        }
    }

    /// Crash support: drop the in-service request and both queues (the node
    /// died; nothing outlives it) and clear any stall. Returns how many
    /// requests were destroyed.
    pub fn clear(&mut self, now: SimTime) -> usize {
        let dropped = self.queue_len() + usize::from(self.current.is_some());
        self.reads.clear();
        self.writes.clear();
        self.current = None;
        self.stalled_until = SimTime::ZERO;
        self.busy.set_busy(now, false);
        dropped
    }

    /// Complete any request due by `now` and start the next, appending the
    /// tags of completed requests to `done` in completion order.
    pub fn advance(&mut self, now: SimTime, done: &mut VecDeque<T>) {
        while let Some(cur) = &self.current {
            if cur.done_at > now {
                break;
            }
            let finished = self.current.take().expect("checked");
            done.push_back(finished.tag);
            self.try_start(finished.done_at);
        }
    }

    /// When the in-service request completes, if any.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.current.as_ref().map(|c| c.done_at)
    }

    /// Queued requests (not counting the one in service).
    fn queue_len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Remove queued (not yet started) requests matching `pred` and return
    /// how many were removed; the in-service request always completes.
    /// Filters each queue in place, so the survivors keep their order.
    pub fn cancel_queued_where(&mut self, pred: impl Fn(&T) -> bool) -> usize {
        let before = self.queue_len();
        self.reads.retain(|p| !pred(&p.tag));
        self.writes.retain(|p| !pred(&p.tag));
        before - self.queue_len()
    }

    /// `utilization`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.busy.utilization(now)
    }

    /// `reset_utilization`.
    pub fn reset_utilization(&mut self, now: SimTime) {
        self.busy.reset(now);
    }
}

impl<T> Default for Disk<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The array of disks attached to one node.
#[derive(Debug)]
pub struct DiskArray<T> {
    disks: Vec<Disk<T>>,
    /// Tags of completed requests, in completion order, not yet taken by
    /// [`pop_done`](Self::pop_done).
    done: VecDeque<T>,
}

impl<T> DiskArray<T> {
    /// Create a new instance.
    pub fn new(num_disks: usize) -> DiskArray<T> {
        assert!(num_disks > 0);
        DiskArray {
            disks: (0..num_disks).map(|_| Disk::new()).collect(),
            done: VecDeque::new(),
        }
    }

    /// Let every disk's write queue, each time it fills, grow by room for
    /// at least `burst` more requests, so its first allocation already
    /// holds a burst of that size.
    pub fn set_write_burst(&mut self, burst: usize) {
        for d in &mut self.disks {
            d.write_burst = burst;
        }
    }

    #[inline]
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    #[inline]
    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Submit to disk `idx` (caller chooses uniformly at random, per §3.4).
    pub fn submit(
        &mut self,
        now: SimTime,
        idx: usize,
        tag: T,
        is_write: bool,
        service: SimDuration,
    ) {
        self.disks[idx].submit(now, tag, is_write, service);
    }

    /// Advance every disk, queueing all completions for
    /// [`pop_done`](Self::pop_done) in (disk-index, FIFO) order, which is
    /// deterministic.
    pub fn advance(&mut self, now: SimTime) {
        for d in &mut self.disks {
            d.advance(now, &mut self.done);
        }
    }

    /// The next completed tag, in completion order, or `None` once every
    /// completion [`advance`](Self::advance) found has been taken.
    #[inline]
    pub fn pop_done(&mut self) -> Option<T> {
        self.done.pop_front()
    }

    /// The earliest in-service completion across all disks.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.disks.iter().filter_map(Disk::next_completion).min()
    }

    /// True when advancing the array to `now` would complete nothing:
    /// every in-service request (if any) finishes strictly after `now`.
    /// Poll handlers use this as a fast lane to skip the per-disk advance
    /// sweep — queued requests only start when an in-service one finishes,
    /// so a completion-free advance is a no-op.
    #[inline]
    pub fn is_current(&self, now: SimTime) -> bool {
        self.disks
            .iter()
            .filter_map(Disk::next_completion)
            .all(|t| t > now)
    }

    /// True while any disk in the array has a request in service.
    #[inline]
    pub fn any_busy(&self) -> bool {
        self.disks.iter().any(Disk::is_busy)
    }

    /// Remove queued requests matching `pred` from every disk (see
    /// [`Disk::cancel_queued_where`]) and return how many were removed.
    pub fn cancel_queued_where(&mut self, pred: impl Fn(&T) -> bool) -> usize {
        self.disks
            .iter_mut()
            .map(|d| d.cancel_queued_where(&pred))
            .sum()
    }

    /// Fault injection: stall every disk until `until`.
    pub fn stall_all(&mut self, until: SimTime) {
        for d in &mut self.disks {
            d.stall(until);
        }
    }

    /// Crash support: destroy all queued and in-service requests on every
    /// disk. Returns how many were destroyed. Completed tags still queued
    /// for [`pop_done`](Self::pop_done) finished before the crash and stay.
    pub fn clear_all(&mut self, now: SimTime) -> usize {
        self.disks.iter_mut().map(|d| d.clear(now)).sum()
    }

    /// Mean utilization across the node's disks.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        self.disks.iter().map(|d| d.utilization(now)).sum::<f64>() / self.disks.len() as f64
    }

    /// `reset_utilization`.
    pub fn reset_utilization(&mut self, now: SimTime) {
        for d in &mut self.disks {
            d.reset_utilization(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Advance one disk to `now` and return its completions, in order.
    fn step(d: &mut Disk<u32>, now: SimTime) -> Vec<u32> {
        let mut done = VecDeque::new();
        d.advance(now, &mut done);
        done.into()
    }

    /// Advance an array to `now` and take every completion, in order.
    fn step_all(a: &mut DiskArray<u32>, now: SimTime) -> Vec<u32> {
        a.advance(now);
        std::iter::from_fn(|| a.pop_done()).collect()
    }

    #[test]
    fn fifo_service_within_class() {
        let mut d: Disk<u32> = Disk::new();
        d.submit(SimTime::ZERO, 1, false, SimDuration::from_millis(10));
        d.submit(SimTime::ZERO, 2, false, SimDuration::from_millis(10));
        assert_eq!(d.next_completion(), Some(SimTime(10 * MS)));
        assert_eq!(step(&mut d, SimTime(10 * MS)), vec![1]);
        assert_eq!(step(&mut d, SimTime(20 * MS)), vec![2]);
        assert_eq!(d.next_completion(), None);
    }

    #[test]
    fn writes_jump_ahead_of_queued_reads() {
        let mut d: Disk<u32> = Disk::new();
        d.submit(SimTime::ZERO, 1, false, SimDuration::from_millis(10)); // starts
        d.submit(SimTime::ZERO, 2, false, SimDuration::from_millis(10)); // queued read
        d.submit(SimTime::ZERO, 3, true, SimDuration::from_millis(10)); // queued write
                                                                        // In-service read is not preempted; then the write, then the read.
        assert_eq!(step(&mut d, SimTime(30 * MS)), vec![1, 3, 2]);
    }

    #[test]
    fn multiple_completions_in_one_advance() {
        let mut d: Disk<u32> = Disk::new();
        for i in 0..5 {
            d.submit(SimTime::ZERO, i, false, SimDuration::from_millis(10));
        }
        assert_eq!(step(&mut d, SimTime(50 * MS)), vec![0, 1, 2, 3, 4]);
        assert!((d.utilization(SimTime(50 * MS)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_with_idle_gap() {
        let mut d: Disk<u32> = Disk::new();
        d.submit(SimTime::ZERO, 1, false, SimDuration::from_millis(20));
        step(&mut d, SimTime(20 * MS));
        d.submit(SimTime(60 * MS), 2, false, SimDuration::from_millis(20));
        step(&mut d, SimTime(80 * MS));
        let u = d.utilization(SimTime(80 * MS));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn cancel_spares_in_service_request() {
        let mut d: Disk<u32> = Disk::new();
        d.submit(SimTime::ZERO, 1, false, SimDuration::from_millis(10));
        d.submit(SimTime::ZERO, 2, false, SimDuration::from_millis(10));
        d.submit(SimTime::ZERO, 3, true, SimDuration::from_millis(10));
        assert_eq!(d.cancel_queued_where(|t| *t != 1), 2);
        assert_eq!(step(&mut d, SimTime(10 * MS)), vec![1]);
        assert_eq!(d.next_completion(), None);
    }

    #[test]
    fn cancel_keeps_queue_order() {
        let mut d: Disk<u32> = Disk::new();
        d.submit(SimTime::ZERO, 0, false, SimDuration::from_millis(10));
        // Odd tags read, even tags write.
        for tag in 1..=8 {
            d.submit(
                SimTime::ZERO,
                tag,
                tag % 2 == 0,
                SimDuration::from_millis(10),
            );
        }
        // Removes 3 and 6; reads 1, 5, 7 and writes 2, 4, 8 stay queued.
        assert_eq!(d.cancel_queued_where(|t| *t % 3 == 0), 2);
        assert_eq!(d.queue_len(), 6);
        // Writes first, then reads: the survivors keep their FIFO places.
        assert_eq!(step(&mut d, SimTime(70 * MS)), vec![0, 2, 4, 8, 1, 5, 7]);
    }

    #[test]
    fn stall_defers_in_service_and_queued_work() {
        let mut d: Disk<u32> = Disk::new();
        d.submit(SimTime::ZERO, 1, false, SimDuration::from_millis(10));
        d.submit(SimTime::ZERO, 2, false, SimDuration::from_millis(10));
        d.stall(SimTime(50 * MS));
        // The in-service request is pushed to the end of the stall; the
        // queued one starts there and takes its full service time.
        assert_eq!(d.next_completion(), Some(SimTime(50 * MS)));
        assert_eq!(step(&mut d, SimTime(50 * MS)), vec![1]);
        assert_eq!(d.next_completion(), Some(SimTime(60 * MS)));
        assert_eq!(step(&mut d, SimTime(60 * MS)), vec![2]);
        // Stalls never move completions earlier, and expired ones are inert.
        d.submit(SimTime(70 * MS), 3, false, SimDuration::from_millis(10));
        assert_eq!(d.next_completion(), Some(SimTime(80 * MS)));
    }

    #[test]
    fn clear_destroys_everything_including_in_service() {
        let mut d: Disk<u32> = Disk::new();
        d.submit(SimTime::ZERO, 1, false, SimDuration::from_millis(10));
        d.submit(SimTime::ZERO, 2, true, SimDuration::from_millis(10));
        d.stall(SimTime(100 * MS));
        assert_eq!(d.clear(SimTime(5 * MS)), 2);
        assert_eq!(d.next_completion(), None);
        // Usable again post-crash, stall gone.
        d.submit(SimTime(10 * MS), 3, false, SimDuration::from_millis(10));
        assert_eq!(d.next_completion(), Some(SimTime(20 * MS)));
    }

    #[test]
    fn array_routes_and_reports_min_completion() {
        let mut a: DiskArray<u32> = DiskArray::new(2);
        a.submit(SimTime::ZERO, 0, 1, false, SimDuration::from_millis(30));
        a.submit(SimTime::ZERO, 1, 2, false, SimDuration::from_millis(10));
        assert_eq!(a.next_completion(), Some(SimTime(10 * MS)));
        assert_eq!(step_all(&mut a, SimTime(10 * MS)), vec![2]);
        assert_eq!(a.next_completion(), Some(SimTime(30 * MS)));
        assert_eq!(step_all(&mut a, SimTime(30 * MS)), vec![1]);
    }

    #[test]
    fn array_mean_utilization() {
        let mut a: DiskArray<u32> = DiskArray::new(2);
        a.submit(SimTime::ZERO, 0, 1, false, SimDuration::from_millis(10));
        step_all(&mut a, SimTime(10 * MS));
        // Disk 0 busy 100%, disk 1 idle → mean 50%.
        let u = a.mean_utilization(SimTime(10 * MS));
        assert!((u - 0.5).abs() < 1e-9, "mean utilization {u}");
    }

    #[test]
    fn array_reset_utilization() {
        let mut a: DiskArray<u32> = DiskArray::new(2);
        a.submit(SimTime::ZERO, 0, 1, false, SimDuration::from_millis(10));
        step_all(&mut a, SimTime(10 * MS));
        a.reset_utilization(SimTime(10 * MS));
        assert_eq!(a.mean_utilization(SimTime(20 * MS)), 0.0);
    }

    #[test]
    fn write_queue_first_grows_to_the_burst() {
        let mut a: DiskArray<u32> = DiskArray::new(1);
        a.set_write_burst(10);
        // The first write goes into service; the next nine queue.
        for i in 0..10 {
            a.submit(SimTime::ZERO, 0, i, true, SimDuration::from_millis(10));
        }
        assert_eq!(a.disks[0].queue_len(), 9);
        assert!(a.disks[0].writes.capacity() >= 10);
        assert_eq!(a.disks[0].reads.capacity(), 0, "reads grow on their own");
    }
}

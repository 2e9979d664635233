//! Property-based tests for the CPU and disk models.

use ddbm_resource::{Cpu, DiskArray};
use denet::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A randomized submission schedule: (gap to next action in µs, job kind).
#[derive(Debug, Clone)]
enum Action {
    Shared(f64),
    Message(f64),
    Idle,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1f64..20_000.0).prop_map(Action::Shared),
        (1f64..5_000.0).prop_map(Action::Message),
        Just(Action::Idle),
    ]
}

/// A cancellation sweep after a step: `Some((m, r))` cancels the shared
/// jobs whose id is `r` modulo `m`.
fn sweep_strategy() -> impl Strategy<Value = Option<(u64, u64)>> {
    prop_oneof![
        2 => Just(None),
        1 => (2u64..5, 0u64..5).prop_map(Some),
    ]
}

/// Advance `cpu` to `now` and take every completion, in order.
fn step_cpu<T>(cpu: &mut Cpu<T>, now: SimTime) -> Vec<T> {
    cpu.advance(now);
    std::iter::from_fn(|| cpu.pop_done()).collect()
}

/// Advance `disks` to `now` and take every completion, in order.
fn step_disks<T>(disks: &mut DiskArray<T>, now: SimTime) -> Vec<T> {
    disks.advance(now);
    std::iter::from_fn(|| disks.pop_done()).collect()
}

/// Retire completed job ids from `pending`, asserting each was pending (not
/// completed before, not cancelled); returns how many completed.
fn settle(done: Vec<u64>, pending: &mut BTreeMap<u64, bool>) -> usize {
    for id in &done {
        assert!(
            pending.remove(id).is_some(),
            "job {id} completed twice or after its cancellation"
        );
    }
    done.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every submitted CPU job completes exactly once, and total busy time
    /// equals total submitted work divided by the rate (work conservation),
    /// under arbitrary interleavings of submissions and idle gaps.
    #[test]
    fn cpu_conserves_work(
        actions in prop::collection::vec((1u64..5_000, action_strategy()), 1..120),
        rate in prop_oneof![Just(1e6f64), Just(1e7f64)],
    ) {
        let mut cpu: Cpu<usize> = Cpu::new(rate);
        let mut now = SimTime::ZERO;
        let mut submitted = 0usize;
        let mut completed = 0usize;
        let mut total_work = 0.0f64;
        for (i, (gap_us, action)) in actions.iter().enumerate() {
            now += SimDuration::from_micros(*gap_us);
            completed += step_cpu(&mut cpu, now).len();
            match action {
                Action::Shared(instr) => {
                    total_work += instr;
                    submitted += 1;
                    completed += usize::from(cpu.submit_shared(now, i, *instr).is_some());
                }
                Action::Message(instr) => {
                    total_work += instr;
                    submitted += 1;
                    completed += usize::from(cpu.submit_message(now, i, *instr).is_some());
                }
                Action::Idle => {}
            }
        }
        // Drain.
        let mut guard = 0;
        while let Some(t) = cpu.next_completion() {
            completed += step_cpu(&mut cpu, t).len();
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
            now = now.max(t);
        }
        prop_assert_eq!(completed, submitted, "every job completes exactly once");
        prop_assert!(cpu.is_idle());
        // Busy time == work / rate (each partial ns rounding can lose at most
        // one nanosecond per completion).
        let busy = cpu.utilization(now) * now.as_secs_f64().max(f64::MIN_POSITIVE);
        let expect = total_work / rate;
        prop_assert!(
            (busy - expect).abs() < 1e-5 + 1e-6 * expect,
            "busy {busy} vs expected {expect}"
        );
    }

    /// Cancellation is exact: under random submissions of both classes,
    /// advances and `cancel_shared_where` sweeps, every job either completes
    /// exactly once or is cancelled, each sweep removes exactly the pending
    /// shared jobs it matches, message jobs are never cancelled, and the CPU
    /// ends idle.
    #[test]
    fn cpu_cancel_is_exact(
        steps in prop::collection::vec(
            (0u64..3_000, action_strategy(), sweep_strategy()),
            1..150,
        ),
    ) {
        let mut cpu: Cpu<u64> = Cpu::new(1e6);
        let mut now = SimTime::ZERO;
        // Pending jobs by id, `true` for the message class.
        let mut pending: BTreeMap<u64, bool> = BTreeMap::new();
        let mut completed = 0usize;
        let mut cancelled = 0usize;
        let mut submitted = 0usize;
        for (i, (gap_us, action, sweep)) in steps.into_iter().enumerate() {
            let id = i as u64;
            now += SimDuration::from_micros(gap_us);
            completed += settle(step_cpu(&mut cpu, now), &mut pending);
            match action {
                Action::Shared(instr) | Action::Message(instr) => {
                    let message = matches!(action, Action::Message(_));
                    submitted += 1;
                    pending.insert(id, message);
                    let inline = if message {
                        cpu.submit_message(now, id, instr)
                    } else {
                        cpu.submit_shared(now, id, instr)
                    };
                    prop_assert!(inline.is_none(), "every job here costs at least one instruction");
                }
                Action::Idle => {}
            }
            if let Some((m, r)) = sweep {
                let matches = |tag: &u64| tag % m == r;
                let expected: Vec<u64> = pending
                    .iter()
                    .filter(|&(tag, &message)| !message && matches(tag))
                    .map(|(&tag, _)| tag)
                    .collect();
                prop_assert_eq!(cpu.cancel_shared_where(matches), expected.len());
                for tag in &expected {
                    pending.remove(tag);
                }
                cancelled += expected.len();
            }
        }
        let mut guard = 0;
        while let Some(t) = cpu.next_completion() {
            completed += settle(step_cpu(&mut cpu, t), &mut pending);
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
        }
        prop_assert!(pending.is_empty(), "jobs never completed: {pending:?}");
        prop_assert_eq!(completed + cancelled, submitted);
        prop_assert!(cpu.is_idle());
    }

    /// Disk arrays complete every request exactly once; on a single disk,
    /// total busy time equals the sum of service times.
    #[test]
    fn disks_complete_everything(
        reqs in prop::collection::vec((1u64..50_000, any::<bool>(), 1u64..40), 1..100),
        num_disks in 1usize..4,
    ) {
        let mut disks: DiskArray<usize> = DiskArray::new(num_disks);
        let mut now = SimTime::ZERO;
        let mut completed = 0usize;
        let mut total_service = SimDuration::ZERO;
        for (i, (gap_us, is_write, service_ms)) in reqs.iter().enumerate() {
            now += SimDuration::from_micros(*gap_us);
            completed += step_disks(&mut disks, now).len();
            let service = SimDuration::from_millis(*service_ms);
            total_service += service;
            disks.submit(now, i % num_disks, i, *is_write, service);
        }
        let mut guard = 0;
        while let Some(t) = disks.next_completion() {
            completed += step_disks(&mut disks, t).len();
            now = now.max(t);
            guard += 1;
            prop_assert!(guard < 10_000);
        }
        prop_assert_eq!(completed, reqs.len());
        if num_disks == 1 {
            let busy = disks.mean_utilization(now) * now.as_secs_f64();
            prop_assert!(
                (busy - total_service.as_secs_f64()).abs() < 1e-9 * (1.0 + busy.abs()) + 1e-9,
                "single-disk busy time must equal summed service"
            );
        }
    }

    /// Write priority: once the in-service request finishes, all queued
    /// writes drain before any queued read.
    #[test]
    fn writes_always_overtake_queued_reads(
        kinds in prop::collection::vec(any::<bool>(), 2..40),
    ) {
        let mut disks: DiskArray<usize> = DiskArray::new(1);
        // Submit everything at t=0; the first request enters service.
        for (i, w) in kinds.iter().enumerate() {
            disks.submit(SimTime::ZERO, 0, i, *w, SimDuration::from_millis(10));
        }
        let done = step_disks(&mut disks, SimTime(10_000_000_000));
        prop_assert_eq!(done.len(), kinds.len());
        // After the head (position 0), all writes precede all reads.
        let tail = &done[1..];
        let first_read = tail.iter().position(|i| !kinds[*i]);
        if let Some(fr) = first_read {
            prop_assert!(
                tail[fr..].iter().all(|i| !kinds[*i]),
                "a write was served after a read: {done:?}"
            );
        }
    }
}

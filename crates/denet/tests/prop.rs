//! Property-based tests for the simulation engine.

use denet::{EventCalendar, LogHistogram, SimDuration, SimRng, SimTime, Tally, TimeWeighted};
use proptest::prelude::*;

/// One step of a calendar/reference interleaving. Delays are relative to the
/// calendar's current clock so generated schedules are always legal (never
/// in the past); the tiny delay range forces heavy time collisions, which
/// exercises the FIFO tie-break.
#[derive(Debug, Clone)]
enum CalOp {
    /// Plain `schedule` at `now + delay` µs.
    Schedule(u64),
    /// `schedule_after(delay)`; a zero delay takes the same-instant lane.
    After(u64),
    /// `schedule_now`.
    Now,
    /// Re-predict slot `k` at `now + delay` µs with `set_slot`.
    SetSlot(usize, u64),
    /// Withdraw slot `k` with `clear_slot`.
    ClearSlot(usize),
    /// Pop once from both structures and compare.
    Pop,
}

fn cal_op_strategy() -> impl Strategy<Value = CalOp> {
    prop_oneof![
        3 => (0u64..50).prop_map(CalOp::Schedule),
        3 => (0u64..30).prop_map(CalOp::After),
        2 => Just(CalOp::Now),
        3 => ((0usize..4), (0u64..30)).prop_map(|(k, d)| CalOp::SetSlot(k, d)),
        1 => (0usize..4).prop_map(CalOp::ClearSlot),
        4 => Just(CalOp::Pop),
    ]
}

/// Reference entry: arrival order doubles as the payload identity.
struct RefEntry {
    time: SimTime,
    arrival: u64,
}

/// The naive model: scan the whole vector for the earliest time, FIFO
/// (arrival order) on ties.
fn ref_pop(entries: &mut Vec<RefEntry>) -> Option<(SimTime, u64)> {
    let best = entries
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| (e.time, e.arrival))
        .map(|(i, _)| i)?;
    let e = entries.remove(best);
    Some((e.time, e.arrival))
}

proptest! {
    /// The calendar delivers events in nondecreasing time order and FIFO
    /// within a timestamp, regardless of insertion order.
    #[test]
    fn calendar_is_a_stable_priority_queue(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut cal = EventCalendar::new();
        for (i, t) in times.iter().enumerate() {
            cal.schedule(SimTime(*t), (*t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, (t, seq))) = cal.pop() {
            prop_assert_eq!(at.0, t);
            if let Some((lt, lseq)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(seq > lseq, "FIFO violated within a timestamp");
                }
            }
            last = Some((at, seq));
        }
        prop_assert!(cal.is_empty());
    }

    /// Welford tally matches the naive two-pass mean and variance.
    #[test]
    fn tally_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..300)) {
        let mut t = Tally::new();
        for &x in &xs {
            t.record(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((t.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((t.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(t.count(), xs.len() as u64);
    }

    /// Merging two tallies equals tallying the concatenation.
    #[test]
    fn tally_merge_is_concatenation(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        ys in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut a = Tally::new();
        xs.iter().for_each(|&x| a.record(x));
        let mut b = Tally::new();
        ys.iter().for_each(|&y| b.record(y));
        a.merge(&b);
        let mut whole = Tally::new();
        xs.iter().chain(&ys).for_each(|&x| whole.record(x));
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-6 * (1.0 + whole.variance()));
    }

    /// Time-weighted average equals the hand-computed piecewise integral.
    #[test]
    fn time_weighted_matches_integral(
        steps in prop::collection::vec((1u64..1_000_000, 0f64..100.0), 1..50),
    ) {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        let mut now = 0u64;
        let mut integral = 0.0;
        let mut value = 0.0;
        for (dt, v) in &steps {
            integral += value * (*dt as f64 / 1e9);
            now += dt;
            tw.set(SimTime(now), *v);
            value = *v;
        }
        // Extend one more step so the last value contributes.
        integral += value * 1.0;
        now += 1_000_000_000;
        let avg = tw.average(SimTime(now));
        let expect = integral / (now as f64 / 1e9);
        prop_assert!((avg - expect).abs() < 1e-9 + 1e-9 * expect.abs(),
            "avg {avg} expect {expect}");
    }

    /// Distinct sampling returns exactly k distinct in-range values.
    #[test]
    fn sample_distinct_properties(seed in any::<u64>(), n in 1usize..500, k_frac in 0f64..=1.0) {
        let k = ((n as f64) * k_frac) as usize;
        let mut rng = SimRng::from_seed(seed);
        let mut s = rng.sample_distinct(n, k);
        prop_assert_eq!(s.len(), k);
        prop_assert!(s.iter().all(|&x| x < n));
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), k);
    }

    /// Exponential samples are nonnegative and finite for any mean.
    #[test]
    fn exponential_is_well_behaved(seed in any::<u64>(), mean in 0f64..1e4) {
        let mut rng = SimRng::from_seed(seed);
        for _ in 0..100 {
            let x = rng.exponential(mean);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }
}

proptest! {
    /// Model test: under arbitrary interleavings of `schedule`,
    /// `schedule_after`, `schedule_now`, `set_slot`, `clear_slot` and `pop`,
    /// the calendar must behave exactly like the naive scan-the-vector
    /// reference — time order, FIFO within an instant, superseded and
    /// withdrawn slot predictions suppressed, and `len()` and `peek_time()`
    /// exact. Every event takes the next arrival number, as the calendar
    /// takes the next sequence number: a slot's new prediction replaces its
    /// old reference entry with a fresh arrival, and a cleared slot removes
    /// its entry and takes none.
    #[test]
    fn calendar_matches_sorted_vec_reference(
        ops in prop::collection::vec(cal_op_strategy(), 1..300),
    ) {
        let mut cal: EventCalendar<u64> = EventCalendar::new();
        let slots: Vec<_> = (0..4).map(|_| cal.register_slot()).collect();
        let mut reference: Vec<RefEntry> = Vec::new();
        // The arrival number of each slot's pending prediction.
        let mut slot_arrival: [Option<u64>; 4] = [None; 4];
        let mut arrivals: u64 = 0;

        for op in ops {
            let now = cal.now();
            match op {
                CalOp::Schedule(delay_us) => {
                    let at = now + SimDuration::from_micros(delay_us);
                    cal.schedule(at, arrivals);
                    reference.push(RefEntry { time: at, arrival: arrivals });
                    arrivals += 1;
                }
                CalOp::After(delay_us) => {
                    let d = SimDuration::from_micros(delay_us);
                    cal.schedule_after(d, arrivals);
                    reference.push(RefEntry { time: now + d, arrival: arrivals });
                    arrivals += 1;
                }
                CalOp::Now => {
                    cal.schedule_now(arrivals);
                    reference.push(RefEntry { time: now, arrival: arrivals });
                    arrivals += 1;
                }
                CalOp::SetSlot(k, delay_us) => {
                    let at = now + SimDuration::from_micros(delay_us);
                    if let Some(old) = slot_arrival[k] {
                        reference.retain(|e| e.arrival != old);
                    }
                    cal.set_slot(slots[k], at, arrivals);
                    reference.push(RefEntry { time: at, arrival: arrivals });
                    slot_arrival[k] = Some(arrivals);
                    arrivals += 1;
                }
                CalOp::ClearSlot(k) => {
                    if let Some(old) = slot_arrival[k].take() {
                        reference.retain(|e| e.arrival != old);
                    }
                    cal.clear_slot(slots[k]);
                }
                CalOp::Pop => {
                    let expected = ref_pop(&mut reference);
                    let got = cal.pop();
                    prop_assert_eq!(got, expected, "pop disagrees with the reference");
                    if let Some((_, id)) = got {
                        // A delivered prediction vacates its slot.
                        for a in &mut slot_arrival {
                            if *a == Some(id) {
                                *a = None;
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(cal.len(), reference.len(), "live-event counts diverged");
            prop_assert_eq!(cal.is_empty(), reference.is_empty());
            prop_assert_eq!(
                cal.peek_time(),
                reference.iter().map(|e| e.time).min(),
                "peek disagrees with the reference"
            );
        }

        // Drain both to the end: full order equality, including ties.
        loop {
            let expected = ref_pop(&mut reference);
            let got = cal.pop();
            prop_assert_eq!(got, expected);
            if got.is_none() {
                break;
            }
        }
    }
}

/// Value sets spanning the histogram's exact region (below `2^sub_bits`)
/// and several orders of magnitude of the logarithmic region.
fn hist_values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            3 => 0u64..64,
            3 => 0u64..10_000,
            2 => 0u64..1_000_000_000,
            1 => 0u64..(u64::MAX / 2),
        ],
        1..300,
    )
}

/// Ceiling-rank order statistic over exact values — the definition the
/// histogram's `quantile` approximates.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

proptest! {
    /// For any value set and any bucket resolution, the histogram quantile
    /// must land in the same bucket as the exact sorted-vector order
    /// statistic, and within the documented relative error bound of
    /// `2^-(sub_bits+1)`.
    #[test]
    fn histogram_quantiles_match_sorted_reference(
        values in hist_values(),
        sub_bits in 0u32..8,
        q_extra in 0.01f64..1.0,
    ) {
        let mut h = LogHistogram::new(sub_bits);
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), Some(sorted[0]));
        prop_assert_eq!(h.max(), sorted.last().copied());
        for q in [q_extra, 0.25, 0.5, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&sorted, q);
            let got = h.quantile(q).expect("histogram is non-empty");
            prop_assert_eq!(
                h.bucket_index(got),
                h.bucket_index(exact),
                "q={}: representative {} not in the exact statistic's bucket ({})",
                q, got, exact
            );
            let tol = exact as f64 / 2f64.powi(sub_bits as i32 + 1) + 1.0;
            prop_assert!(
                (got as f64 - exact as f64).abs() <= tol,
                "q={}: {} vs exact {} exceeds relative bound {}",
                q, got, exact, tol
            );
        }
    }

    /// Merging two histograms must be indistinguishable from recording both
    /// value sets into one.
    #[test]
    fn histogram_merge_equals_combined_recording(
        a in hist_values(),
        b in hist_values(),
        sub_bits in 0u32..8,
    ) {
        let mut ha = LogHistogram::new(sub_bits);
        let mut hb = LogHistogram::new(sub_bits);
        let mut combined = LogHistogram::new(sub_bits);
        for &v in &a {
            ha.record(v);
            combined.record(v);
        }
        for &v in &b {
            hb.record(v);
            combined.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), combined.count());
        prop_assert_eq!(ha.min(), combined.min());
        prop_assert_eq!(ha.max(), combined.max());
        prop_assert_eq!(ha.p50(), combined.p50());
        prop_assert_eq!(ha.p95(), combined.p95());
        prop_assert_eq!(ha.p99(), combined.p99());
    }
}

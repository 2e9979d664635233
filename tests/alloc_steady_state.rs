//! Steady-state allocation pinning.
//!
//! The per-transaction hot path — template generation, replica routing,
//! message envelopes, lock/timestamp bookkeeping, commit processing — is
//! supposed to run entirely out of recycled pools once the simulator has
//! warmed up. This test pins that property with a counting global allocator:
//! two otherwise-identical deterministic runs that differ only in
//! `measure_commits` must perform exactly the same number of heap
//! allocations, i.e. the extra measured commits allocate nothing.
//!
//! Determinism makes the comparison exact: the longer run replays the
//! shorter run bit-for-bit and then keeps going, so the allocation-count
//! delta is attributable purely to the steady-state window (the end-of-run
//! report construction is identical in both runs because every collector is
//! fixed-size).
//!
//! The workload is chosen to be contention-free (one terminal per relation,
//! so two transactions never touch the same relation concurrently) with a
//! small page space that saturates the lock-table / timestamp-table maps
//! during warmup. Contended paths allocate for genuinely variable-size
//! results (grant lists, deadlock victims) and are exercised elsewhere.
//!
//! The same test also pins set-up cost: building an 8-node simulator makes
//! a bounded number of allocations whatever the algorithm, because per-page
//! CC state grows on first touch instead of being built up front.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_config, Simulator};
use denet::SimDuration;

/// Counts allocation *events* (alloc + realloc); frees are not interesting
/// here. Relaxed is fine: the simulator is single-threaded and the test
/// reads the counter on the same thread that ran it.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Commits measured by the *baseline* run; the comparison run measures
/// `BASE_COMMITS + EXTRA_COMMITS`.
const BASE_COMMITS: u64 = 100;
const EXTRA_COMMITS: u64 = 100;

/// A deterministic, contention-free configuration whose per-page state
/// saturates during warmup. With `msg_faults`, 5% of messages are dropped
/// and 5% delayed: only those box their message, so this is the input that
/// exercises the recycled `Event::MsgArrive` envelopes.
fn config(algorithm: Algorithm, msg_faults: bool, measure_commits: u64) -> Config {
    let mut c = Config::paper(algorithm, 8, 8, 0.0);
    // One terminal per relation: a terminal has one outstanding transaction
    // and every transaction touches exactly one relation, so no two
    // concurrent transactions ever conflict — commits exercise the pooled
    // fast paths only.
    c.workload.num_terminals = 8;
    // Shrink the page space (8 files/node x 32 pages = 256 pages/node) so
    // the warmup touches essentially every page and the per-page maps reach
    // their high-water capacity before measurement starts.
    c.database.pages_per_file = 32;
    c.control.seed = 0xA110C;
    // Long enough for every page's state entry and every pooled buffer to
    // reach its high-water mark (the page space saturates within a few
    // hundred commits; the rest is margin).
    c.control.warmup_commits = 1500;
    c.control.measure_commits = measure_commits;
    if msg_faults {
        c.faults.msg_drop_prob = 0.05;
        c.faults.msg_delay_prob = 0.05;
        c.faults.msg_delay_max = SimDuration::from_millis(20);
        c.faults.msg_retry = SimDuration::from_millis(50);
        c.faults.cohort_timeout = SimDuration::from_secs_f64(3.0);
    }
    c
}

/// Allocation events for one full run (construction + warmup + measurement
/// + report).
fn alloc_events(algorithm: Algorithm, msg_faults: bool, measure_commits: u64) -> u64 {
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let report = run_config(config(algorithm, msg_faults, measure_commits)).expect("valid config");
    assert_eq!(report.commits, measure_commits, "run completed its target");
    assert_eq!(report.aborts, 0, "workload must be contention-free");
    if msg_faults {
        let f = report.fault_stats;
        assert!(
            f.msgs_dropped > 0 && f.msgs_delayed > 0,
            "message faults fired"
        );
    }
    ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

/// Allocations attributable to `EXTRA_COMMITS` steady-state commits: the
/// count of the longer run minus the count of its deterministic prefix.
fn steady_state_allocs(algorithm: Algorithm, msg_faults: bool) -> i64 {
    // A throwaway run first: the process's first simulation also pays
    // one-time lazy initialization (thread-locals, stdio, …) that would
    // inflate the baseline and skew the comparison.
    let _ = alloc_events(algorithm, msg_faults, BASE_COMMITS);
    let base = alloc_events(algorithm, msg_faults, BASE_COMMITS);
    let longer = alloc_events(algorithm, msg_faults, BASE_COMMITS + EXTRA_COMMITS);
    longer as i64 - base as i64
}

/// Most allocation events `Simulator::new` may make for an 8-node,
/// 8-way partitioned configuration. Per-page CC state grows on first touch,
/// so set-up cost does not scale with the database size.
const SETUP_ALLOCS_MAX: u64 = 1_000;

/// Allocation events made by building (not running) a simulator.
fn setup_allocs(algorithm: Algorithm) -> u64 {
    let config = Config::partitioning(algorithm, 8, false, 0.0);
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let sim = Simulator::new(config).expect("valid config");
    let allocs = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    drop(sim);
    allocs
}

#[test]
fn steady_state_commits_do_not_allocate() {
    // Every algorithm family in one #[test]: the counter is global, so the
    // measurements must not run on concurrent test threads.
    for msg_faults in [false, true] {
        for algorithm in [
            Algorithm::TwoPhaseLocking,
            Algorithm::TwoPhaseLockingTimeout,
            Algorithm::WoundWait,
            Algorithm::WaitDie,
            Algorithm::BasicTimestampOrdering,
            Algorithm::Optimistic,
            Algorithm::NoDataContention,
        ] {
            let allocs = steady_state_allocs(algorithm, msg_faults);
            assert_eq!(
                allocs, 0,
                "{algorithm:?} (message faults: {msg_faults}): {allocs} \
                 allocation(s) across {EXTRA_COMMITS} steady-state commits; the \
                 per-transaction hot path must run entirely from recycled pools"
            );
        }
    }
    // Set-up cost, pinned here for the same reason.
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::WoundWait,
        Algorithm::BasicTimestampOrdering,
        Algorithm::Optimistic,
    ] {
        let allocs = setup_allocs(algorithm);
        assert!(
            allocs <= SETUP_ALLOCS_MAX,
            "{algorithm:?}: Simulator::new made {allocs} allocation(s), more \
             than {SETUP_ALLOCS_MAX}; per-page state must not be built up front"
        );
    }
}

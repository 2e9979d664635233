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
//!
//! The allocator also tracks live bytes, for two heap pins on contended
//! runs: each contended 8-way cell's peak stays under a stated bound, and
//! a long run's peak stays within 10% of a short one's, so no state grows
//! with the commit count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use ddbm_config::{Algorithm, Config, ReplicationParams};
use ddbm_core::{run_config, Simulator};
use denet::SimDuration;

/// Counts allocation *events* (alloc + realloc) made on the thread that
/// runs the simulation, and tracks live bytes and their high-water mark.
/// Events on other threads are left out: the test harness's own thread
/// allocates when a test ends or runs long, at wall-clock instants. Relaxed
/// is fine: the simulator is single-threaded, and every test here holds
/// [`SERIAL`], so one run allocates at a time.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True on the thread whose allocation events are counted.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Held by every test for its whole run: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn grow(bytes: usize) {
    if COUNTED.with(Cell::get) {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before the old one goes: a moving realloc
        // holds both for a moment.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Commits measured by the *baseline* run; the comparison run measures
/// `BASE_COMMITS` plus a window of extra commits.
const BASE_COMMITS: u64 = 100;
/// The steady-state window of most passes.
const EXTRA_COMMITS: u64 = 100;
/// The window of the replicated pass with message faults: buffers that
/// grow only at a rare new high-water mark (a plan's access list, a disk
/// queue's depth) show up over a long window, not a short one.
const LONG_EXTRA_COMMITS: u64 = 1_000;

/// A deterministic, contention-free configuration whose per-page state
/// saturates during warmup. With `msg_faults`, 5% of messages are dropped
/// and 5% delayed: only those box their message, so this is the input that
/// exercises the recycled `Event::MsgArrive` envelopes. With `rowa3`, every
/// file has three copies (read-one/write-all): plans are replica-routed and
/// a node's per-transaction bound covers three files of one relation.
fn config(algorithm: Algorithm, msg_faults: bool, rowa3: bool, measure_commits: u64) -> Config {
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
    if rowa3 {
        c.replication = ReplicationParams::rowa(3);
    }
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
fn alloc_events(algorithm: Algorithm, msg_faults: bool, rowa3: bool, measure_commits: u64) -> u64 {
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let report =
        run_config(config(algorithm, msg_faults, rowa3, measure_commits)).expect("valid config");
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

/// Allocations attributable to `extra` steady-state commits: the count of
/// the longer run minus the count of its deterministic prefix.
fn steady_state_allocs(algorithm: Algorithm, msg_faults: bool, rowa3: bool, extra: u64) -> i64 {
    // A throwaway run first: the process's first simulation also pays
    // one-time lazy initialization (thread-locals, stdio, …) that would
    // inflate the baseline and skew the comparison.
    let _ = alloc_events(algorithm, msg_faults, rowa3, BASE_COMMITS);
    let base = alloc_events(algorithm, msg_faults, rowa3, BASE_COMMITS);
    let longer = alloc_events(algorithm, msg_faults, rowa3, BASE_COMMITS + extra);
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    COUNTED.with(|c| c.set(true));
    // Single-copy with and without message faults, and 3-way ROWA with and
    // without them.
    for (msg_faults, rowa3, extra) in [
        (false, false, EXTRA_COMMITS),
        (true, false, EXTRA_COMMITS),
        (false, true, EXTRA_COMMITS),
        (true, true, LONG_EXTRA_COMMITS),
    ] {
        for algorithm in [
            Algorithm::TwoPhaseLocking,
            Algorithm::TwoPhaseLockingTimeout,
            Algorithm::WoundWait,
            Algorithm::WaitDie,
            Algorithm::BasicTimestampOrdering,
            Algorithm::Optimistic,
            Algorithm::NoDataContention,
        ] {
            let allocs = steady_state_allocs(algorithm, msg_faults, rowa3, extra);
            assert_eq!(
                allocs, 0,
                "{algorithm:?} (message faults: {msg_faults}, rowa3: {rowa3}): {allocs} \
                 allocation(s) across {extra} steady-state commits; the \
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

/// Peak live heap of one run above the live heap before it, in bytes.
fn run_peak(config: Config) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_config(config).expect("valid config");
    assert!(report.commits > 0);
    PEAK.load(Ordering::Relaxed) - before
}

/// The benchmark's contended cell: 8 nodes, 8-way declustering, think time
/// 0, 100 warm-up commits.
fn contended(algorithm: Algorithm, measure_commits: u64) -> Config {
    let mut c = Config::partitioning(algorithm, 8, false, 0.0);
    c.control.warmup_commits = 100;
    c.control.measure_commits = measure_commits;
    c
}

/// Most bytes a contended 8-way cell may hold at its peak (600 commits).
/// With the CC managers' per-transaction lists sized by the per-node bound
/// (12 accesses) and no buffers on idle pages, these cells peak at 1.8–2.6
/// MiB; with 96-access lists and buffers on every page ever touched they
/// peaked at 5.6–10 MiB.
const CONTENDED_PEAK_MAX: usize = 3 << 20;

#[test]
fn contended_cells_peak_under_bound() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::WoundWait,
        Algorithm::BasicTimestampOrdering,
        Algorithm::Optimistic,
    ] {
        let peak = run_peak(contended(algorithm, 500));
        assert!(
            peak <= CONTENDED_PEAK_MAX,
            "{algorithm:?}: contended 8-way cell peaked at {peak} bytes, over \
             {CONTENDED_PEAK_MAX}"
        );
    }
}

#[test]
fn contended_peak_does_not_grow_with_commits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::BasicTimestampOrdering,
        Algorithm::Optimistic,
    ] {
        // 600 and 2,000 commits in all, warm-up included.
        let short = run_peak(contended(algorithm, 500));
        let long = run_peak(contended(algorithm, 1_900));
        assert!(
            long * 10 <= short * 11,
            "{algorithm:?}: a 2,000-commit run peaked at {long} bytes, more \
             than 1.1x the {short} of a 600-commit run"
        );
    }
}

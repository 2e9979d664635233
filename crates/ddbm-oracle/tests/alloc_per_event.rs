//! Allocation pins for the per-event checkers.
//!
//! Every checker sees every witnessed CC decision of a run, so what it
//! allocates per event must not grow with the run's length, and in steady
//! state it should allocate nothing at all: its lists live in arenas that
//! grow to the most pages and transactions in use at once, then only
//! recycle links.
//!
//! * **Bytes.** Synthetic clean streams of 1k and 8k transactions go
//!   through `LockChecker` and `BtoChecker`; the longer stream may cost at
//!   most 1.5× the shorter one per event, and neither over 1 KiB per event.
//!   The streams cycle through a fixed page space, so every per-page map
//!   saturates early; what remains is the checkers' per-transaction state.
//! * **Allocation calls.** `check_stream` — every checker of the oracle —
//!   replays recorded gate streams of 2PL, WW, WD, BTO and OPT under single
//!   copy, ROWA-3 and quorum-3 at 1k and 8k commits. It may make at most
//!   [`ALLOCS_PER_EVENT`] allocation calls per event, and no more per event
//!   on the longer stream than on the shorter one: the calls left are the
//!   arenas and tables growing to their peak and the stream-length state
//!   (the view and conflict checkers' logs) doubling.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ddbm_cc::Ts;
use ddbm_config::{Algorithm, Config, FileId, NodeId, PageId, ReplicationParams, TxnId};
use ddbm_core::{run_oracle, TestHooks, WitnessStream};
use ddbm_oracle::{
    check_options_for, check_stream, BtoChecker, LockChecker, LockVariant, Violation, WitnessEvent,
    WitnessReply,
};
use denet::{SimDuration, SimTime};

/// Counts bytes requested by alloc and realloc, and the calls themselves;
/// frees are not interesting here. Relaxed is fine: the tests take
/// [`SERIAL`], and the checkers run on the thread that reads the counters.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Held by every test for its whole run: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

const NODES: u64 = 4;
const PAGES: u64 = 1024;
const ACCESSES: u64 = 4;

/// A clean serial stream of `txns` transactions: each reads two pages and
/// writes two more at one node, all granted, then releases. Timestamps
/// grow with the transaction id, so the stream is also in timestamp order.
fn stream(txns: u64) -> Vec<WitnessEvent> {
    let mut evs = Vec::new();
    for i in 0..txns {
        let txn = TxnId(i + 1);
        let ts = Ts::new(i + 1, txn);
        let node = NodeId((i % NODES) as usize + 1);
        for k in 0..ACCESSES {
            evs.push(WitnessEvent::Access {
                txn,
                run: 0,
                node,
                page: PageId {
                    file: FileId(0),
                    page: (ACCESSES * i + k) % PAGES,
                },
                write: k >= ACCESSES / 2,
                reply: WitnessReply::Granted,
                initial_ts: ts,
                run_ts: ts,
            });
        }
        evs.push(WitnessEvent::Release {
            txn,
            run: 0,
            node,
            commit: true,
        });
    }
    evs
}

/// Bytes allocated per event while `observe` consumes a `txns`-transaction
/// stream (the stream itself is built beforehand).
fn bytes_per_event(txns: u64, mut observe: impl FnMut(&WitnessEvent, &mut Vec<Violation>)) -> f64 {
    let evs = stream(txns);
    let mut out = Vec::new();
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    for ev in &evs {
        observe(ev, &mut out);
    }
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed) - before;
    assert!(out.is_empty(), "synthetic stream must be clean: {out:?}");
    bytes as f64 / evs.len() as f64
}

fn assert_flat(name: &str, small: f64, large: f64) {
    eprintln!("{name}: {small:.0} B/event at 1k transactions, {large:.0} B/event at 8k");
    assert!(
        large <= 1.5 * small.max(1.0) && large < 1024.0,
        "{name}: {small:.0} B/event at 1k transactions, {large:.0} B/event at 8k; \
         per-event allocation must not grow with the run"
    );
}

#[test]
fn per_event_allocation_does_not_grow_with_the_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let lock = |txns| {
        let mut c = LockChecker::new(LockVariant::TwoPl, false);
        bytes_per_event(txns, |ev, out| c.observe(SimTime(0), ev, out))
    };
    assert_flat("LockChecker", lock(1_000), lock(8_000));

    let bto = |txns| {
        let mut c = BtoChecker::new();
        bytes_per_event(txns, |ev, out| c.observe(SimTime(0), ev, out))
    };
    assert_flat("BtoChecker", bto(1_000), bto(8_000));
}

/// Most allocation calls `check_stream` may make per witness event. The
/// checkers' steady state makes none; what growth leaves is about 300
/// calls per stream, 0.003–0.009 per event at 1k commits. Checkers that
/// allocate a list per busy page or per transaction make 0.1–0.9.
const ALLOCS_PER_EVENT: f64 = 0.01;

/// The algorithms whose checkers differ: the locking family (2PL, WW, WD),
/// timestamp ordering, and the structural check OPT shares with NO_DC.
const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::TwoPhaseLocking,
    Algorithm::WoundWait,
    Algorithm::WaitDie,
    Algorithm::BasicTimestampOrdering,
    Algorithm::Optimistic,
];

/// The `repro verify` gate cell of `algorithm` under `replication`, run to
/// `commits` commits: 4 nodes, 16 terminals, a hot 30-page-per-file
/// database, zero think time.
fn gate_cell(algorithm: Algorithm, replication: ReplicationParams, commits: u64) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 30;
    c.control.warmup_commits = 0;
    c.control.measure_commits = commits;
    c.control.seed = 1;
    c.control.max_sim_time = SimDuration::from_secs_f64(100_000.0);
    c.replication = replication;
    c
}

/// Allocation calls per event while `check_stream` replays the recorded
/// `commits`-commit stream of `config`, which must check clean.
fn check_stream_allocs_per_event(config: &Config) -> f64 {
    let recorded = run_oracle(config.clone(), None, TestHooks::default()).expect("valid config");
    assert!(!recorded.truncated && recorded.witness_overflow == 0);
    let stream: WitnessStream = recorded.witness;
    let opts = check_options_for(config);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let report = check_stream(&opts, &stream);
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(report.clean(), "{}", report.render());
    calls as f64 / stream.len() as f64
}

#[test]
fn check_stream_allocates_almost_nothing_per_event() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let replications = [
        ("single", ReplicationParams::default()),
        ("rowa3", ReplicationParams::rowa(3)),
        ("quorum3", ReplicationParams::quorum(3, 2, 2)),
    ];
    let mut failures = Vec::new();
    for algorithm in ALGORITHMS {
        for (label, replication) in replications {
            let [small, large] = [1_000, 8_000].map(|commits| {
                check_stream_allocs_per_event(&gate_cell(algorithm, replication, commits))
            });
            eprintln!(
                "{algorithm} {label}: {small:.4} allocation calls/event at 1k commits, \
                 {large:.4} at 8k"
            );
            if small > ALLOCS_PER_EVENT || large > ALLOCS_PER_EVENT || large > small {
                failures.push(format!(
                    "{algorithm} {label}: {small:.4} at 1k, {large:.4} at 8k"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "check_stream must make at most {ALLOCS_PER_EVENT} allocation calls per event, \
         no more at 8k commits than at 1k: {failures:?}"
    );
}

//! Heap pin for the online oracle.
//!
//! `run_and_check` checks a run without storing its witness stream, so its
//! peak heap must stay below the bytes `run_oracle` allocates to record the
//! same run's stream: every buffer the growing `WitnessStream` passes
//! through, up to its final `capacity() × size_of::<(SimTime,
//! WitnessEvent)>()`. A counting allocator measures both on a 1000-commit
//! 2PL single-copy cell of the `repro verify` gate. Recording the stream
//! and checking it afterwards holds the stream, the simulator or checker
//! state, and a growth step at once, and cannot pass.
//!
//! The same allocator pins the state the two stream-length-dependent
//! checkers hold, fed the recorded 1000-commit 2PL ROWA-3 gate stream: the
//! serializability checker keeps a compact record per committed run and
//! nothing per aborted one, and its end-of-stream graph check peaks at no
//! more than it holds; the phase tracker drops each run's record when the
//! run ends, so its size follows the runs in flight, not the stream length.
//! The BTO checker, fed the 1000-commit BTO ROWA-3 stream, stays under a
//! stated number of bytes per page copy.
//!
//! The serializability checker retires committed runs below its low-water
//! mark, so what it holds follows the runs in flight and the database, not
//! the stream: fed a 16,000-commit ROWA-3 gate stream (2PL, and BTO for a
//! timestamp order) it holds at most a stated multiple of what it holds
//! after 1,000 commits.
//!
//! Last, `run_and_check` stores nothing per commit beyond what its checkers
//! keep: on the 2PL ROWA-3 gate cell its peak grows by at most a stated
//! number of bytes per commit from 1,000 to 4,000 commits, and its
//! recording carries no templates. On the 1,000-commit BTO ROWA-3 cell,
//! the one that sets the verify benchmark's peak, it peaks under a stated
//! number of bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use std::sync::Mutex;

use ddbm_config::{Algorithm, Config, ReplicationParams};
use ddbm_core::{run_oracle, TestHooks, WitnessEvent, WitnessStream};
use ddbm_oracle::{run_and_check, BtoChecker, PhaseTracker, VersionOrder, VsrCollector};
use denet::{SimDuration, SimTime};

/// Tracks live bytes, their high-water mark, and every byte ever
/// requested. Relaxed is fine: the tests in this binary take [`SERIAL`], so
/// only one of them allocates at a time.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    TOTAL.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
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
static GLOBAL: PeakAlloc = PeakAlloc;

/// Held by every test for its whole run: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// The gate's 2PL single-copy cell, run to 1000 commits.
fn cell() -> Config {
    let mut c = Config::paper(Algorithm::TwoPhaseLocking, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 30;
    c.control.warmup_commits = 0;
    c.control.measure_commits = 1_000;
    c.control.seed = 7;
    c.control.max_sim_time = SimDuration::from_secs_f64(500.0);
    c
}

/// Peak live bytes above the starting level while `f` runs.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// Bytes allocated while recording `stream` the way the simulator does:
/// one push per event into a stream that starts empty.
fn recording_bytes(stream: &WitnessStream) -> usize {
    let before = TOTAL.load(Ordering::Relaxed);
    let mut copy = WitnessStream::new();
    for &(at, ref ev) in stream {
        copy.push((at, ev.clone()));
    }
    let bytes = TOTAL.load(Ordering::Relaxed) - before;
    assert_eq!(
        copy.capacity(),
        stream.capacity(),
        "the copy grew differently"
    );
    bytes
}

#[test]
fn run_and_check_peaks_below_the_recorded_stream() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let recorded = run_oracle(cell(), None, TestHooks::default()).expect("valid config");
    let final_bytes = recorded.witness.capacity() * std::mem::size_of::<(SimTime, WitnessEvent)>();
    let stream_bytes = recording_bytes(&recorded.witness);
    let events = recorded.witness.len();
    drop(recorded);

    let ((_, report), peak) =
        peak_bytes(|| run_and_check(cell(), None, TestHooks::default()).expect("valid config"));
    eprintln!(
        "{events} events: recording the stream allocates {stream_bytes} B \
         ({final_bytes} B final buffer); run_and_check peaks at {peak} B"
    );
    assert!(report.clean(), "{}", report.render());
    assert_eq!(
        report.events, events,
        "the online oracle saw a different run"
    );
    assert!(
        peak < stream_bytes,
        "run_and_check peaked at {peak} B, not below the {stream_bytes} B that \
         recording the {events}-event stream allocates"
    );
}

/// The gate's ROWA-3 cell of `algorithm`, run to `commits` commits.
fn rowa3_cell(algorithm: Algorithm, commits: u64) -> Config {
    let mut c = cell();
    c.algorithm = algorithm;
    c.replication = ReplicationParams::rowa(3);
    c.control.measure_commits = commits;
    c
}

/// The gate's 2PL ROWA-3 cell, run to `commits` commits, recorded.
fn rowa3_stream(commits: u64) -> WitnessStream {
    algorithm_rowa3_stream(Algorithm::TwoPhaseLocking, commits)
}

/// The gate's ROWA-3 cell of `algorithm`, run to `commits` commits,
/// recorded.
fn algorithm_rowa3_stream(algorithm: Algorithm, commits: u64) -> WitnessStream {
    let recorded = run_oracle(rowa3_cell(algorithm, commits), None, TestHooks::default())
        .expect("valid config");
    assert_eq!(recorded.witness_overflow, 0);
    recorded.witness
}

/// Live bytes `make` leaves behind, with the value it built still alive.
fn live_bytes<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    let out = make();
    (out, LIVE.load(Ordering::Relaxed) - base)
}

/// Most bytes the serializability checker may hold per committed run
/// after the 1000-commit ROWA-3 stream: the measured 288 B plus about 10%.
/// Half of it is the visible version of each page replica, 16 bytes a
/// copy in a flat table, which the database size bounds; with those
/// versions in a hash map keyed by copy it held 498 B, and keeping every
/// run's reads in per-run hash entries about 2.1 KB. Its `finalize` may
/// peak at no more than it holds.
const VSR_BYTES_PER_COMMIT: usize = 320;

/// Most the phase tracker may grow from 1000 to 4000 commits (it does not
/// grow at all: its records are the runs in flight).
const TRACKER_GROWTH: f64 = 1.5;

#[test]
fn checker_state_stays_compact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let short = rowa3_stream(1_000);
    let commits = short
        .iter()
        .filter(|(_, ev)| matches!(ev, WitnessEvent::Committed { .. }))
        .count();

    let (vsr, vsr_bytes) = live_bytes(|| {
        let mut c = VsrCollector::new(VersionOrder::StreamOrder);
        for (_, ev) in &short {
            c.observe(ev);
        }
        c
    });
    let (outcome, finalize_peak) = peak_bytes(|| vsr.finalize(0));
    assert!(outcome.acceptable(), "{outcome:?}");

    let tracker_bytes = |stream: &WitnessStream| {
        let (tracker, bytes) = live_bytes(|| {
            let mut t = PhaseTracker::new();
            let mut out = Vec::new();
            for (at, ev) in stream {
                t.observe(*at, ev, false, &mut out);
            }
            assert!(out.is_empty(), "{out:?}");
            t
        });
        drop(tracker);
        bytes
    };
    let tracker_short = tracker_bytes(&short);
    drop(short);
    let tracker_long = tracker_bytes(&rowa3_stream(4_000));

    eprintln!(
        "{commits} commits: serializability checker holds {vsr_bytes} B ({} B per commit), \
         finalize peaks {finalize_peak} B above that; phase tracker holds \
         {tracker_short} B, {tracker_long} B at 4000 commits",
        vsr_bytes / commits
    );
    assert!(
        vsr_bytes <= VSR_BYTES_PER_COMMIT * commits,
        "serializability checker holds {vsr_bytes} B for {commits} commits, over \
         {VSR_BYTES_PER_COMMIT} B per commit"
    );
    assert!(
        finalize_peak <= vsr_bytes,
        "finalize peaks {finalize_peak} B above the {vsr_bytes} B the checker holds"
    );
    assert!(
        tracker_long as f64 <= TRACKER_GROWTH * tracker_short as f64,
        "phase tracker grew from {tracker_short} B at 1000 commits to \
         {tracker_long} B at 4000"
    );
}

/// Most the serializability checker may hold after a 16,000-commit ROWA-3
/// gate stream, as a multiple of what it holds after 1,000 commits. Its
/// state is the runs in flight, the spans of backward edges that reach
/// them, and the visible version of each page copy; a checker that keeps
/// every committed run to the end holds about 11 times as much.
const VSR_LONG_GROWTH: f64 = 1.5;

#[test]
fn serializability_checker_does_not_grow_with_the_stream() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for algorithm in [
        Algorithm::TwoPhaseLocking,
        Algorithm::BasicTimestampOrdering,
    ] {
        let held = |commits| {
            let stream = algorithm_rowa3_stream(algorithm, commits);
            let (collector, bytes) = live_bytes(|| {
                let mut c = VsrCollector::new(VersionOrder::for_algorithm(algorithm));
                for (_, ev) in &stream {
                    c.observe(ev);
                }
                c
            });
            assert!(collector.finalize(0).acceptable(), "{algorithm}");
            bytes
        };
        let short = held(1_000);
        let long = held(16_000);
        eprintln!(
            "{algorithm} ROWA-3: serializability checker holds {short} B after 1000 commits, \
             {long} B after 16000"
        );
        assert!(
            long as f64 <= VSR_LONG_GROWTH * short as f64,
            "{algorithm}: the serializability checker grew from {short} B at 1000 commits \
             to {long} B at 16000, over {VSR_LONG_GROWTH}x"
        );
    }
}

/// Distinct `(node, page)` copies a stream reads, writes or installs.
fn page_copies(stream: &WitnessStream) -> usize {
    let mut copies: Vec<_> = stream
        .iter()
        .filter_map(|(_, ev)| match *ev {
            WitnessEvent::Access { node, page, .. }
            | WitnessEvent::Grant { node, page, .. }
            | WitnessEvent::Install { node, page, .. } => Some((node, page)),
            _ => None,
        })
        .collect();
    copies.sort_unstable();
    copies.dedup();
    copies.len()
}

/// Most bytes `BtoChecker` may hold per page copy after the 1000-commit
/// BTO ROWA-3 stream. With `rts`/`wts` inline and the lists boxed only
/// while a page is busy it holds about 60 B; with both lists inline, and
/// their buffers kept on every page ever written, about 170 B.
const BTO_BYTES_PER_COPY: usize = 90;

#[test]
fn per_page_checkers_stay_compact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let bto = algorithm_rowa3_stream(Algorithm::BasicTimestampOrdering, 1_000);
    let bto_copies = page_copies(&bto);
    let (checker, bto_bytes) = live_bytes(|| {
        let mut c = BtoChecker::new();
        let mut out = Vec::new();
        for (at, ev) in &bto {
            c.observe(*at, ev, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        c
    });
    drop((checker, bto));

    eprintln!(
        "BtoChecker holds {bto_bytes} B for {bto_copies} page copies ({} B each)",
        bto_bytes / bto_copies
    );
    assert!(
        bto_bytes <= BTO_BYTES_PER_COPY * bto_copies,
        "BtoChecker holds {bto_bytes} B for {bto_copies} page copies, over \
         {BTO_BYTES_PER_COPY} B each"
    );
}

/// Most `run_and_check` may peak at on the 1,000-commit BTO ROWA-3 cell,
/// the heaviest cell of the verify benchmark: the measured 1,391,692 B plus
/// 10%. With the visible version of each page copy in a hash map of
/// 32-byte versions it peaked at 1,504,655 B.
const BTO_ROWA3_RUN_AND_CHECK_PEAK: usize = 1_391_692 * 11 / 10;

#[test]
fn run_and_check_peak_on_the_heaviest_cell() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ((_, report), peak) = peak_bytes(|| {
        run_and_check(
            rowa3_cell(Algorithm::BasicTimestampOrdering, 1_000),
            None,
            TestHooks::default(),
        )
        .expect("valid config")
    });
    assert!(report.clean(), "{}", report.render());
    eprintln!("run_and_check peaks at {peak} B on the 1000-commit BTO ROWA-3 cell");
    assert!(
        peak <= BTO_ROWA3_RUN_AND_CHECK_PEAK,
        "run_and_check peaked at {peak} B on the 1000-commit BTO ROWA-3 cell, over \
         {BTO_ROWA3_RUN_AND_CHECK_PEAK} B"
    );
}

/// Most `run_and_check`'s peak may grow per commit from 1,000 to 4,000
/// commits on the 2PL ROWA-3 cell. With the serializability checker
/// retiring committed runs it does not grow (the 4,000-commit peak read
/// about 1 KB below the 1,000-commit one); 64 B leaves room for where the
/// checker's settles fall against the peak. Keeping every committed run to
/// the end grew it 436 B per commit; recording every submitted template as
/// well, and earlier per-page checker layouts, made it 1.45 KB.
const RUN_AND_CHECK_BYTES_PER_COMMIT: usize = 64;

#[test]
fn run_and_check_keeps_no_workload() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = |commits| {
        peak_bytes(|| {
            run_and_check(
                rowa3_cell(Algorithm::TwoPhaseLocking, commits),
                None,
                TestHooks::default(),
            )
            .expect("valid config")
        })
    };
    let ((short, report), short_peak) = run(1_000);
    assert!(report.clean(), "{}", report.render());
    assert!(
        short.templates.is_empty(),
        "run_and_check recorded templates"
    );
    drop((short, report));
    let ((long, report), long_peak) = run(4_000);
    assert!(report.clean(), "{}", report.render());
    assert!(
        long.templates.is_empty(),
        "run_and_check recorded templates"
    );
    let per_commit = long_peak.saturating_sub(short_peak) / 3_000;
    eprintln!(
        "run_and_check peaks at {short_peak} B at 1000 commits, {long_peak} B at 4000: \
         {per_commit} B per commit"
    );
    assert!(
        per_commit <= RUN_AND_CHECK_BYTES_PER_COMMIT,
        "run_and_check grew {per_commit} B per commit from 1000 to 4000 commits, over \
         {RUN_AND_CHECK_BYTES_PER_COMMIT}"
    );
}

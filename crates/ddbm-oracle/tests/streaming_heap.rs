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
//! view checker keeps a compact record per committed run and nothing per
//! aborted one, and the phase tracker drops each run's record when the run
//! ends, so its size follows the runs in flight, not the stream length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use std::sync::Mutex;

use ddbm_config::{Algorithm, Config, ReplicationParams};
use ddbm_core::{run_oracle, TestHooks, WitnessEvent, WitnessStream};
use ddbm_oracle::{run_and_check, PhaseTracker, VersionOrder, VsrCollector};
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

/// The gate's 2PL ROWA-3 cell, run to `commits` commits, recorded.
fn rowa3_stream(commits: u64) -> WitnessStream {
    let mut c = cell();
    c.replication = ReplicationParams::rowa(3);
    c.control.measure_commits = commits;
    let recorded = run_oracle(c, None, TestHooks::default()).expect("valid config");
    assert_eq!(recorded.witness_overflow, 0);
    recorded.witness
}

/// Live bytes `make` leaves behind, with the value it built still alive.
fn live_bytes<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    let out = make();
    (out, LIVE.load(Ordering::Relaxed) - base)
}

/// Most bytes a view checker may hold per committed run after the
/// 1000-commit ROWA-3 stream. It holds about 670 B, half of it the visible
/// version of each page replica, which the database size bounds; a
/// collector that keeps every run's reads in per-run hash entries holds
/// about 2.1 KB.
const VSR_BYTES_PER_COMMIT: usize = 850;

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
    let (outcome, finalize_peak) = peak_bytes(|| vsr.finalize(20_000));
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
        "{commits} commits: view checker holds {vsr_bytes} B ({} B per commit), \
         finalize peaks {finalize_peak} B above that; phase tracker holds \
         {tracker_short} B, {tracker_long} B at 4000 commits",
        vsr_bytes / commits
    );
    assert!(
        vsr_bytes <= VSR_BYTES_PER_COMMIT * commits,
        "view checker holds {vsr_bytes} B for {commits} commits, over \
         {VSR_BYTES_PER_COMMIT} B per commit"
    );
    assert!(
        tracker_long as f64 <= TRACKER_GROWTH * tracker_short as f64,
        "phase tracker grew from {tracker_short} B at 1000 commits to \
         {tracker_long} B at 4000"
    );
}

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

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ddbm_config::{Algorithm, Config};
use ddbm_core::{run_oracle, TestHooks, WitnessEvent, WitnessStream};
use ddbm_oracle::run_and_check;
use denet::{SimDuration, SimTime};

/// Tracks live bytes, their high-water mark, and every byte ever
/// requested. Relaxed is fine: the one test in this binary allocates from a
/// single thread.
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

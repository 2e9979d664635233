//! Allocation-scaling pin for the per-event checkers.
//!
//! `LockChecker` and `BtoChecker` see every witnessed CC decision of a run,
//! so the bytes they allocate per event must not grow with the run's length.
//! This test feeds synthetic clean streams of 1k and 8k transactions
//! through each checker under a byte-counting global allocator and compares
//! the bytes allocated per event: the longer stream may cost at most 1.5×
//! the shorter one per event, and neither may exceed 1 KiB per event.
//!
//! The streams cycle through a fixed page space, so every per-page map
//! saturates early; what remains is the checkers' per-transaction state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ddbm_cc::Ts;
use ddbm_config::{FileId, NodeId, PageId, TxnId};
use ddbm_oracle::{BtoChecker, LockChecker, LockVariant, Violation, WitnessEvent, WitnessReply};
use denet::SimTime;

/// Counts bytes requested by alloc and realloc; frees are not interesting
/// here. Relaxed is fine: the checkers run on the thread that reads the
/// counter.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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
    // Both checkers in one #[test]: the counter is global, so the
    // measurements must not run on concurrent test threads.
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

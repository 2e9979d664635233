//! A fixed yardstick for the host's momentary speed.
//!
//! The benchmark host is shared, and its speed wanders by tens of percent
//! over minutes. Before each round, every worker runs `kernel`: fixed
//! work in the simulator's mix (a binary-heap calendar, random reads and
//! writes in a 2 MB table, short-lived allocations) that no change to the
//! simulator can touch. Time metrics are scaled by [`REFERENCE_S`] over the
//! kernel's time before that round, so they read as seconds on a host
//! where the kernel takes [`REFERENCE_S`]: a host that slows down slows the
//! kernel and the simulations together, and the scaled times stay put.

use ddbm_experiments::map_parallel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Kernel time that defines the benchmark's time scale: about the
/// kernel's time on two workers of the host the benchmark was defined on
/// (a shared 2-vCPU Xeon VM), when that host ran quietly.
pub const REFERENCE_S: f64 = 0.023;

/// Iterations of one kernel run.
const ITERATIONS: u64 = 600_000;

/// Words in each worker's table (a power of two): 2 MB.
const TABLE_WORDS: usize = 1 << 18;

/// The fixed work over `table` (its length a power of two); returns a
/// checksum so nothing is optimised away.
fn kernel(table: &mut [u64], iterations: u64) -> u64 {
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut calendar: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(4096);
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for i in 0..iterations {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        calendar.push(Reverse(rng >> 24));
        if calendar.len() > 2048 {
            acc = acc.wrapping_add(calendar.pop().map_or(0, |Reverse(t)| t));
        }
        let slot = rng as usize & mask;
        table[slot] = table[slot].wrapping_add(acc ^ i);
        acc ^= table[acc as usize & mask];
        if i % 64 == 0 {
            let scratch: Vec<u64> = Vec::with_capacity(16 + (rng as usize & 63));
            acc = acc.wrapping_add(black_box(scratch).capacity() as u64);
        }
    }
    acc.wrapping_add(table.iter().step_by(4096).sum::<u64>())
}

/// The host's current kernel time: the kernel runs on `workers` threads at
/// once, three times over the same warm tables, and the fastest of the
/// three wall times is returned.
pub(crate) fn measure(workers: usize) -> f64 {
    let tables: Vec<Mutex<Vec<u64>>> = (0..workers)
        .map(|_| Mutex::new(vec![1u64; TABLE_WORDS]))
        .collect();
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let sums = map_parallel(workers, &tables, |t| {
                let mut table = t.lock().expect("each table has one user");
                kernel(&mut table, black_box(ITERATIONS))
            });
            black_box(sums);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

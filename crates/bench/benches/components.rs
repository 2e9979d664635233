//! Microbenchmarks of the simulator's core components, plus ablations of
//! the design choices called out in DESIGN.md (event-calendar throughput,
//! lock-table conflict handling, processor-sharing CPU math, per-algorithm
//! simulation cost, the oracle's checkers over a recorded stream).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddbm_cc::{make_manager, LockMode, LockTable, Ts, TxnMeta};
use ddbm_config::{Algorithm, Config, FileId, PageId, ReplicationParams, TxnId};
use ddbm_core::{run_config, run_oracle, run_traced, TestHooks};
use ddbm_experiments::oracle::oracle_config;
use ddbm_oracle::{check_options_for, check_stream};
use ddbm_resource::Cpu;
use denet::{EventCalendar, Fired, SimDuration, SimRng, SimTime};
use std::hint::black_box;

fn calendar(c: &mut Criterion) {
    c.bench_function("calendar/schedule_pop_10k", |b| {
        b.iter(|| {
            let mut cal = EventCalendar::new();
            let mut rng = SimRng::from_seed(1);
            for i in 0..10_000u64 {
                cal.schedule(SimTime(rng.uniform_u64(i, i + 1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, Fired::Event(e))) = cal.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    // The simulator's real pattern is interleaved schedule/pop churn on a
    // modest queue, not bulk load + drain; measure that shape too.
    c.bench_function("calendar/interleaved_churn_50k", |b| {
        b.iter(|| {
            let mut cal = EventCalendar::new();
            let mut rng = SimRng::from_seed(2);
            for i in 0..500u64 {
                cal.schedule(SimTime(i), i);
            }
            let mut sum = 0u64;
            for _ in 0..50_000 {
                let Some((t, Fired::Event(e))) = cal.pop() else {
                    unreachable!("kept full, no slots registered")
                };
                sum = sum.wrapping_add(e);
                cal.schedule(t + SimDuration(rng.uniform_u64(1, 1_000)), e);
            }
            black_box(sum)
        })
    });
    // The exact-scheduling pattern: most completion predictions are
    // superseded before they fire. Two of every three steps re-predict one
    // of 256 prediction slots in place, mimicking the simulator
    // re-predicting a node's next CPU completion on every state change.
    // Slots carry no payload: a fired slot is its own key.
    c.bench_function("calendar/slot_churn", |b| {
        b.iter(|| {
            let mut cal = EventCalendar::<()>::new();
            let mut rng = SimRng::from_seed(3);
            // One pending prediction per slot, like one per simulated node
            // resource.
            let slots: Vec<_> = (0..256)
                .map(|_| {
                    let slot = cal.register_slot();
                    cal.set_slot(slot, SimTime(rng.uniform_u64(1, 1_000)));
                    slot
                })
                .collect();
            let mut sum = 0usize;
            for i in 0..50_000u64 {
                if i % 3 == 0 {
                    // A prediction comes true: fire it, predict the next.
                    let Some((t, Fired::Slot(slot))) = cal.pop() else {
                        unreachable!("kept non-empty, slots only")
                    };
                    sum = sum.wrapping_add(slot.index());
                    let at = t + SimDuration(rng.uniform_u64(1, 1_000));
                    cal.set_slot(slot, at);
                } else {
                    // A prediction is superseded: overwrite it in place.
                    let k = rng.index(slots.len());
                    let at = cal.now() + SimDuration(rng.uniform_u64(1, 1_000));
                    cal.set_slot(slots[k], at);
                }
            }
            black_box(sum)
        })
    });
}

fn lock_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("lock_table");
    group.bench_function("grant_release_no_conflict", |b| {
        b.iter(|| {
            let mut lt = LockTable::new();
            for t in 0..200u64 {
                for p in 0..8u64 {
                    lt.request(
                        TxnId(t),
                        PageId {
                            file: FileId((t % 8) as usize),
                            page: p + 100 * t,
                        },
                        LockMode::Read,
                    );
                }
            }
            for t in 0..200u64 {
                black_box(lt.release_all(TxnId(t)));
            }
        })
    });
    group.bench_function("conflict_queue_churn", |b| {
        b.iter(|| {
            let mut lt = LockTable::new();
            let page = PageId {
                file: FileId(0),
                page: 0,
            };
            for t in 0..100u64 {
                lt.request(TxnId(t), page, LockMode::Write);
            }
            for t in 0..100u64 {
                black_box(lt.release_all(TxnId(t)));
            }
        })
    });
    group.bench_function("waits_for_edges_100_waiters", |b| {
        let mut lt = LockTable::new();
        let page = PageId {
            file: FileId(0),
            page: 0,
        };
        for t in 0..100u64 {
            lt.request(TxnId(t), page, LockMode::Write);
        }
        let mut edges = Vec::new();
        b.iter(|| {
            edges.clear();
            lt.waits_for_edges_into(&mut edges);
            black_box(edges.len())
        })
    });
    group.finish();
}

/// Advance `cpu` to `now` and count the completions it takes.
fn step(cpu: &mut Cpu<u64>, now: SimTime) -> usize {
    cpu.advance(now);
    std::iter::from_fn(|| cpu.pop_done()).count()
}

fn cpu_model(c: &mut Criterion) {
    c.bench_function("cpu/processor_sharing_churn", |b| {
        b.iter(|| {
            let mut cpu: Cpu<u64> = Cpu::new(1e6);
            let mut now = SimTime::ZERO;
            let mut done = 0usize;
            for i in 0..500u64 {
                done += usize::from(
                    cpu.submit_shared(now, i, 1_000.0 + (i % 7) as f64)
                        .is_some(),
                );
                if i % 3 == 0 {
                    done += usize::from(cpu.submit_message(now, 10_000 + i, 500.0).is_some());
                }
                now += SimDuration::from_micros(200);
                done += step(&mut cpu, now);
            }
            while let Some(t) = cpu.next_completion() {
                done += step(&mut cpu, t);
            }
            black_box(done)
        })
    });
    // The virtual-time fast path: a deep shared class (~64 concurrent jobs)
    // with every advance landing exactly on a predicted completion, plus a
    // periodic cancellation sweep. The old implementation rescanned all
    // shared jobs per interaction, making this quadratic in the job count;
    // fluid accounting makes each step O(log n).
    c.bench_function("cpu/virtual_time_churn", |b| {
        b.iter(|| {
            let mut cpu: Cpu<u64> = Cpu::new(1e7);
            let mut now = SimTime::ZERO;
            let mut done = 0usize;
            for i in 0..64u64 {
                done += usize::from(cpu.submit_shared(now, i, 500.0 + (i % 13) as f64).is_some());
            }
            for i in 64..5_000u64 {
                // Ties in the finish tags complete in batches, so the CPU
                // can briefly drain; refill from wherever the clock stands.
                if let Some(t) = cpu.next_completion() {
                    done += step(&mut cpu, t);
                    now = t;
                }
                done += usize::from(cpu.submit_shared(now, i, 500.0 + (i % 13) as f64).is_some());
                if i % 50 == 0 {
                    done += cpu.cancel_shared_where(|tag| tag % 17 == 3);
                }
            }
            while let Some(t) = cpu.next_completion() {
                done += step(&mut cpu, t);
            }
            black_box(done)
        })
    });
}

fn cc_managers(c: &mut Criterion) {
    let mut group = c.benchmark_group("cc_request_path");
    for algo in Algorithm::EXTENDED {
        group.bench_with_input(BenchmarkId::from_parameter(algo), &algo, |b, algo| {
            b.iter(|| {
                let mut m = make_manager(*algo);
                for t in 0..64u64 {
                    let meta = TxnMeta {
                        id: TxnId(t),
                        initial_ts: Ts::new(t, TxnId(t)),
                        run_ts: Ts::new(t, TxnId(t)),
                    };
                    for p in 0..16u64 {
                        let page = PageId {
                            file: FileId((p % 4) as usize),
                            page: (t * 3 + p) % 64,
                        };
                        black_box(m.request_access(&meta, page, p % 4 == 0));
                    }
                    m.certify(&meta, Ts::new(1_000 + t, TxnId(t)));
                    black_box(m.commit(TxnId(t)));
                }
            })
        });
    }
    group.finish();
}

/// Ablation: whole-simulation cost per algorithm on the paper workload —
/// the "how expensive is each CC manager end to end" comparison.
fn whole_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_240_commits");
    group.sample_size(10);
    for algo in Algorithm::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(algo), &algo, |b, algo| {
            let mut config = Config::paper(*algo, 8, 8, 4.0);
            config.control.warmup_commits = 40;
            config.control.measure_commits = 200;
            b.iter(|| {
                let r = run_config(black_box(config.clone())).expect("valid");
                black_box(r.commits)
            })
        });
    }
    // The replication no-op tax: the same 2PL run routed through the
    // single-copy replication path (ROWA, factor 1). Simulated behavior is
    // bit-identical to `2PL`; the gap to it is the per-transaction
    // materialization cost, and the guard in BENCH_core.json keeps it from
    // creeping.
    group.bench_function(BenchmarkId::from_parameter("2PL-rep1"), |b| {
        let mut config = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 4.0);
        config.replication = ReplicationParams::rowa(1);
        config.control.warmup_commits = 40;
        config.control.measure_commits = 200;
        b.iter(|| {
            let r = run_config(black_box(config.clone())).expect("valid");
            black_box(r.commits)
        })
    });
    group.finish();
}

/// Message-path cost end to end: a fully declustered run with zero think
/// time, so nearly every simulated event is a cross-node message hop.
/// Fault-free messages never enter the calendar: each hop rides the CPU
/// message class, and this bench is the live number behind that path.
/// (Only dropped, delayed or down-node messages are parked in the
/// calendar, inline in their `Event::MsgArrive`. The row keeps its old
/// `envelope_pool` name so it still matches `BENCH_core.json`.)
fn messages(c: &mut Criterion) {
    let mut group = c.benchmark_group("messages");
    group.sample_size(10);
    group.bench_function("envelope_pool", |b| {
        let mut config = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 0.0);
        config.control.warmup_commits = 40;
        config.control.measure_commits = 200;
        b.iter(|| {
            let r = run_config(black_box(config.clone())).expect("valid");
            black_box(r.commits)
        })
    });
    group.finish();
}

/// Observability overhead: the same 2PL whole-simulation run with phase
/// statistics on (`2PL-phases`), and through `run_traced`, which also
/// records the event trace and returns it sealed (`2PL-full`). Compare
/// against `simulation_240_commits/2PL` — the gap is the tracing cost, and
/// the untraced group must stay on its committed baseline (the disabled
/// path is branch-only).
fn whole_sim_traced(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_240_commits_traced");
    group.sample_size(10);
    let mut config = Config::paper(Algorithm::TwoPhaseLocking, 8, 8, 4.0);
    config.control.warmup_commits = 40;
    config.control.measure_commits = 200;
    config.trace.phase_stats = true;
    group.bench_function("2PL-phases", |b| {
        b.iter(|| {
            let r = run_config(black_box(config.clone())).expect("valid");
            black_box(r.commits)
        })
    });
    group.bench_function("2PL-full", |b| {
        b.iter(|| {
            let (r, trace) = run_traced(black_box(config.clone())).expect("valid");
            black_box((r.commits, trace.events.len()))
        })
    });
    group.finish();
}

/// The streaming oracle alone: every checker of a `repro verify` cell over
/// its recorded witness stream, on two 1,000-commit ROWA-3 cells (about 50k
/// events each). Under 2PL (`check_stream`) the locking checker, the
/// replica checker and the serialization graph in stream order run; under
/// BTO (`check_stream_bto`) the timestamp checker and the serialization
/// graph in run-timestamp order. The simulations that record the streams
/// run once, outside the timed loop.
fn oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle");
    group.sample_size(10);
    for (name, algorithm) in [
        ("check_stream", Algorithm::TwoPhaseLocking),
        ("check_stream_bto", Algorithm::BasicTimestampOrdering),
    ] {
        group.bench_function(name, |b| {
            let mut config = oracle_config(algorithm, 7);
            config.replication = ReplicationParams::rowa(3);
            config.control.measure_commits = 1_000;
            let opts = check_options_for(&config);
            let stream = run_oracle(config, None, TestHooks::default())
                .expect("valid")
                .witness;
            b.iter(|| {
                let report = check_stream(&opts, black_box(&stream));
                assert!(report.clean(), "{}", report.render());
                black_box(report.events)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    calendar,
    lock_table,
    cpu_model,
    cc_managers,
    whole_sim,
    messages,
    whole_sim_traced,
    oracle
);
criterion_main!(benches);

//! The two passes over a workload.
//!
//! Both start by running every simulation of a round once through
//! `Runner::run_all`; those reports are the reference outcomes (commits,
//! aborts, simulated throughput) every later run of the same simulation
//! must reproduce exactly. Then each pass repeats the round on `workers`
//! threads until its time is up:
//!
//! * [`end_to_end`] runs tracing off and times what a user waits for;
//! * [`per_layer`] runs every simulation through each layer's public entry
//!   points inside spans, and turns their times and counts into per-layer
//!   metrics.
//!
//! Every round starts with the calibration kernel ([`calibrate`]), and
//! every time a pass reports is scaled to the reference host speed it
//! measures.
//!
//! A simulation counts as one failed operation if it panics, truncates,
//! differs from its reference outcome, or fails a layer check (replay or
//! template mismatch, lost trace or witness events, oracle violation).

use crate::layers::{
    count_protocol, replay_cc, replay_templates, time_checkers, CcReplay, CheckTimes,
    ProtocolCounts, TemplateReplay,
};
use crate::spans::Spans;
use crate::workloads::Cell;
use crate::{calibrate, heap};
use ddbm_config::Config;
use ddbm_core::{run_oracle, run_traced, RunReport, Simulator, TestHooks};
use ddbm_experiments::{map_parallel, Runner};
use ddbm_oracle::run_and_check;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Simulations a pass runs at least, so that the 90th percentile of
/// per-simulation time has ten samples beyond it.
pub const MIN_SIMS: usize = 100;

/// What a simulation must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    commits: u64,
    aborts: u64,
    throughput_bits: u64,
    truncated: bool,
}

impl Outcome {
    fn of(r: &RunReport) -> Outcome {
        Outcome {
            commits: r.commits,
            aborts: r.aborts,
            throughput_bits: r.throughput.to_bits(),
            truncated: r.truncated,
        }
    }
}

/// The result of a pass.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Simulations run (one operation each).
    pub attempted: u64,
    /// Simulations that failed an output check.
    pub failed: u64,
    /// Wall time of each round, in order, scaled to the reference host
    /// speed (see [`calibrate`]).
    pub round_walls: Vec<f64>,
    /// The calibration kernel's time before each round, in order.
    pub kernel_s: Vec<f64>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// One line per failed simulation.
    pub failures: Vec<String>,
}

impl Measured {
    /// Run the calibration kernel and return the factor that scales this
    /// round's times to the reference host speed.
    fn calibrate(&mut self, workers: usize) -> f64 {
        let kernel_s = calibrate::measure(workers);
        self.kernel_s.push(kernel_s);
        calibrate::REFERENCE_S / kernel_s
    }

    fn check(&mut self, label: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{label}: {p}"));
            }
        }
    }
}

/// Run every cell once through `Runner::run_all` (memoized, parallel).
/// Returns the reference outcomes, or `None` if a simulation panicked, and
/// the number of simulations the runner executed.
fn reference(cells: &[Cell], workers: usize) -> (Option<Vec<Outcome>>, usize) {
    let runner = Runner::new(workers);
    let configs: Vec<Config> = cells.iter().map(|c| c.config.clone()).collect();
    let reports = catch_unwind(AssertUnwindSafe(|| runner.run_all(&configs))).ok();
    (
        reports.map(|rs| rs.iter().map(Outcome::of).collect()),
        runner.executed(),
    )
}

/// Why a run with `got` fails against `want`, if it does.
fn outcome_problem(want: Option<&Outcome>, got: Outcome, what: &str) -> Option<String> {
    match want {
        None => Some("no reference outcome (reference run panicked)".into()),
        Some(w) if w.truncated => Some("reference run truncated".into()),
        Some(w) if *w != got => Some(format!("{what} outcome {got:?} != reference {w:?}")),
        Some(_) => None,
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The value at quantile `q` of `xs` (nearest rank on the sorted values).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One untraced simulation.
struct UntracedRun {
    new_s: f64,
    run_s: f64,
    commits: u64,
    outcome: Outcome,
    /// Oracle violations plus lost witness events (verify only).
    unclean: u64,
}

fn untraced_cell(cell: &Cell, oracle: bool) -> UntracedRun {
    let config = cell.config.clone();
    let warmup = config.control.warmup_commits;
    if oracle {
        // run_and_check builds its own simulator; time the same
        // construction on its own so set-up shows as set-up.
        let mut witnessed = config.clone();
        witnessed.trace.witness = true;
        let (sim, new_s) = timed(|| Simulator::new(witnessed).expect("benchmark configs validate"));
        drop(sim);
        let ((rec, report), run_s) = timed(|| {
            run_and_check(config, None, TestHooks::default()).expect("benchmark configs validate")
        });
        UntracedRun {
            new_s,
            run_s,
            commits: warmup + rec.report.commits,
            outcome: Outcome::of(&rec.report),
            unclean: report.total_violations as u64 + rec.witness_overflow,
        }
    } else {
        let (sim, new_s) = timed(|| Simulator::new(config).expect("benchmark configs validate"));
        let (report, run_s) = timed(|| sim.run());
        UntracedRun {
            new_s,
            run_s,
            commits: warmup + report.commits,
            outcome: Outcome::of(&report),
            unclean: 0,
        }
    }
}

/// The end-to-end pass: rounds of `build()` with tracing off, repeated
/// until `seconds` have passed and at least [`MIN_SIMS`] simulations ran.
pub fn end_to_end(
    build: impl Fn() -> Vec<Cell>,
    oracle: bool,
    seconds: f64,
    workers: usize,
) -> Measured {
    let cells = build();
    let (refs, _) = reference(&cells, workers);
    let min_rounds = MIN_SIMS.div_ceil(cells.len().max(1));
    let mut m = Measured::default();
    let (mut setups, mut rates, mut run_ms, mut heaps) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while m.round_walls.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let scale = m.calibrate(workers);
        heap::reset_peak();
        let (cells, build_s) = timed(&build);
        let (runs, wall) = timed(|| {
            map_parallel(workers, &cells, |cell| {
                catch_unwind(AssertUnwindSafe(|| untraced_cell(cell, oracle))).ok()
            })
        });
        let mut setup = build_s;
        let mut commits = 0;
        for (i, (cell, run)) in cells.iter().zip(&runs).enumerate() {
            let problem = match run {
                None => Some("panicked".to_string()),
                Some(r) => {
                    setup += r.new_s;
                    commits += r.commits;
                    run_ms.push(r.run_s * scale * 1e3);
                    outcome_problem(refs.as_ref().map(|v| &v[i]), r.outcome, "run")
                        .or((r.unclean > 0)
                            .then(|| format!("{} violations or lost witness events", r.unclean)))
                }
            };
            m.check(&cell.label, problem);
        }
        heaps.push(heap::peak_mb());
        setups.push(setup * scale);
        rates.push(commits as f64 / (wall * scale));
        m.round_walls.push(wall * scale);
    }
    let metrics = [
        ("setup_s", quantile(&setups, 0.5)),
        ("wall_s", quantile(&m.round_walls, 0.5)),
        ("commits_per_s", quantile(&rates, 0.5)),
        ("run_ms_p50", quantile(&run_ms, 0.5)),
        ("run_ms_p90", quantile(&run_ms, 0.9)),
        ("peak_heap_mb", quantile(&heaps, 0.5)),
    ];
    m.metrics.extend(metrics);
    m
}

/// One simulation through every layer entry point.
#[derive(Default)]
struct LayerRun {
    /// Wall of the whole `sim` span.
    sim_s: f64,
    new_s: f64,
    run_s: f64,
    traced_s: f64,
    oracle_s: f64,
    /// Commits, warmup included.
    commits: u64,
    measured_commits: u64,
    measured_aborts: u64,
    protocol: ProtocolCounts,
    witness_events: u64,
    cc: CcReplay,
    templates: TemplateReplay,
    checks: CheckTimes,
    problem: Option<String>,
}

impl LayerRun {
    /// Scale every wall time to the reference host speed.
    fn scale_times(&mut self, scale: f64) {
        for t in [
            &mut self.sim_s,
            &mut self.new_s,
            &mut self.run_s,
            &mut self.traced_s,
            &mut self.oracle_s,
            &mut self.cc.seconds,
            &mut self.templates.seconds,
            &mut self.checks.phase_s,
            &mut self.checks.lock_s,
            &mut self.checks.bto_s,
            &mut self.checks.vsr_s,
            &mut self.checks.replica_s,
        ] {
            *t *= scale;
        }
    }
}

fn traced_cell(
    cell: &Cell,
    want: Option<&Outcome>,
    oracle: bool,
    spans: &Spans,
    parent: u32,
    sim: u32,
) -> LayerRun {
    let config = &cell.config;
    let mut r = LayerRun::default();
    let under = Some(parent);
    let id = Some(sim);
    let (simulator, new_s) = spans.record("ddbm-core.new", under, id, |_| {
        Simulator::new(config.clone()).expect("benchmark configs validate")
    });
    let (report, run_s) = spans.record("ddbm-core.run", under, id, |_| simulator.run());
    let ((traced, log), traced_s) = spans.record("ddbm-core.run_traced", under, id, |_| {
        run_traced(config.clone()).expect("benchmark configs validate")
    });
    let (rec, oracle_s) = spans.record("ddbm-core.run_oracle", under, id, |_| {
        run_oracle(config.clone(), None, TestHooks::default()).expect("benchmark configs validate")
    });
    r.new_s = new_s;
    r.run_s = run_s;
    r.traced_s = traced_s;
    r.oracle_s = oracle_s;
    r.commits = config.control.warmup_commits + report.commits;
    r.measured_commits = report.commits;
    r.measured_aborts = report.aborts;
    r.protocol = count_protocol(&log);
    r.witness_events = rec.witness.len() as u64;
    r.templates = spans
        .record("ddbm-core.template", under, id, |_| {
            replay_templates(config, &rec.templates)
        })
        .0;
    r.cc = spans
        .record("ddbm-cc.replay", under, id, |_| {
            replay_cc(config, &rec.witness)
        })
        .0;
    if oracle {
        r.checks = time_checkers(config, &rec.witness, spans, parent, sim);
    }
    let problems = [
        outcome_problem(want, Outcome::of(&report), "run"),
        outcome_problem(want, Outcome::of(&traced), "run_traced"),
        outcome_problem(want, Outcome::of(&rec.report), "run_oracle"),
        (log.dropped > 0).then(|| format!("{} trace events lost", log.dropped)),
        (rec.witness_overflow > 0).then(|| format!("{} witness events lost", rec.witness_overflow)),
        (r.cc.mismatches > 0).then(|| format!("{} CC replay mismatches", r.cc.mismatches)),
        (r.templates.mismatches > 0)
            .then(|| format!("{} template mismatches", r.templates.mismatches)),
        (r.checks.violations > 0).then(|| format!("{} oracle violations", r.checks.violations)),
    ];
    r.problem = problems.into_iter().flatten().next();
    r
}

/// The per-layer pass: rounds of `build()` in which every simulation goes
/// through `Simulator::new`/`run`, `run_traced`, `run_oracle`, template
/// regeneration, CC replay and (when `oracle`) each checker, all inside
/// spans recorded in `spans`. Repeats until `seconds` have passed (at least
/// one round).
pub fn per_layer(
    build: impl Fn() -> Vec<Cell>,
    oracle: bool,
    seconds: f64,
    workers: usize,
    spans: &Spans,
) -> Measured {
    let cells = build();
    let ((refs, executed), _) = spans.record("ddbm-experiments.run_all", None, None, |_| {
        reference(&cells, workers)
    });
    let mut m = Measured::default();
    let mut runs: Vec<LayerRun> = Vec::new();
    let start = Instant::now();
    while m.round_walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let scale = m.calibrate(workers);
        let cells = build();
        let indexed: Vec<(u32, &Cell)> = (0u32..).zip(&cells).collect();
        let (round, wall) = spans.record("pass", None, None, |pass| {
            map_parallel(workers, &indexed, |&(i, cell)| {
                let want = refs.as_ref().map(|v| &v[i as usize]);
                let (run, sim_s) = spans.record("sim", Some(pass), Some(i), |sim| {
                    catch_unwind(AssertUnwindSafe(|| {
                        traced_cell(cell, want, oracle, spans, sim, i)
                    }))
                    .ok()
                });
                run.map(|r| LayerRun { sim_s, ..r })
            })
        });
        m.round_walls.push(wall * scale);
        for (cell, run) in cells.iter().zip(round) {
            match run {
                None => m.check(&cell.label, Some("panicked".into())),
                Some(mut r) => {
                    m.check(&cell.label, r.problem.take());
                    r.scale_times(scale);
                    runs.push(r);
                }
            }
        }
    }
    let pass_s = m.round_walls.iter().sum();
    m.metrics = layer_metrics(&runs, executed, pass_s, workers, oracle);
    m
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(
    runs: &[LayerRun],
    executed: usize,
    pass_s: f64,
    workers: usize,
    oracle: bool,
) -> BTreeMap<&'static str, f64> {
    let sum = |f: &dyn Fn(&LayerRun) -> f64| runs.iter().map(f).sum::<f64>();
    let sims = runs.len() as f64;
    let run_s = sum(&|r| r.run_s);
    let commits = sum(&|r| r.commits as f64);
    let requests = sum(&|r| r.cc.requests as f64);
    let replay_s = sum(&|r| r.cc.seconds);
    let template_s = sum(&|r| r.templates.seconds);
    let template_calls = sum(&|r| r.templates.calls as f64);
    let oracle_s = sum(&|r| r.oracle_s);
    let check_s = sum(&|r| r.checks.total_s());
    let checked_events = if oracle {
        sum(&|r| r.witness_events as f64)
    } else {
        0.0
    };
    let per_commit = |f: &dyn Fn(&LayerRun) -> f64| ratio(sum(f), commits);
    let measured = sum(&|r| r.measured_commits as f64);
    let ended = measured + sum(&|r| r.measured_aborts as f64);
    let oracle_share = if oracle {
        ratio(check_s, oracle_s + check_s)
    } else {
        0.0
    };
    BTreeMap::from([
        (
            "ddbm-experiments.parallel_efficiency",
            ratio(sum(&|r| r.sim_s), workers as f64 * pass_s),
        ),
        ("ddbm-experiments.executed", executed as f64),
        ("ddbm-core.new_ms", ratio(sum(&|r| r.new_s), sims) * 1e3),
        (
            "ddbm-core.template_ns",
            ratio(template_s, template_calls) * 1e9,
        ),
        (
            "ddbm-core.accesses_per_txn",
            ratio(sum(&|r| r.templates.accesses as f64), template_calls),
        ),
        ("ddbm-cc.replay_s", replay_s),
        ("ddbm-cc.share", ratio(replay_s, run_s)),
        (
            "ddbm-cc.ns_per_request",
            ratio(replay_s, sum(&|r| r.cc.calls() as f64)) * 1e9,
        ),
        ("ddbm-cc.requests_per_commit", ratio(requests, commits)),
        (
            "ddbm-cc.blocked_per_request",
            ratio(sum(&|r| r.cc.blocked as f64), requests),
        ),
        (
            "ddbm-cc.rejected_per_request",
            ratio(sum(&|r| r.cc.rejected as f64), requests),
        ),
        (
            "ddbm-cc.releases_per_commit",
            per_commit(&|r| r.cc.releases as f64),
        ),
        (
            "ddbm-cc.replay_mismatches",
            sum(&|r| r.cc.mismatches as f64),
        ),
        ("engine.self_s", run_s - replay_s - template_s),
        (
            "ddbm-resource.cpu_transitions_per_commit",
            per_commit(&|r| r.protocol.cpu_transitions as f64),
        ),
        (
            "ddbm-resource.disk_transitions_per_commit",
            per_commit(&|r| r.protocol.disk_transitions as f64),
        ),
        (
            "ddbm-core.protocol.msgs_per_commit",
            per_commit(&|r| r.protocol.msgs as f64),
        ),
        (
            "ddbm-core.protocol.lock_waits_per_commit",
            per_commit(&|r| r.protocol.lock_waits as f64),
        ),
        (
            "ddbm-core.protocol.phase_changes_per_commit",
            per_commit(&|r| r.protocol.phase_changes as f64),
        ),
        ("ddbm-core.protocol.commit_ratio", ratio(measured, ended)),
        (
            "ddbm-core.observe.trace_overhead",
            ratio(sum(&|r| r.traced_s), run_s),
        ),
        ("ddbm-core.observe.witness_overhead", ratio(oracle_s, run_s)),
        (
            "ddbm-core.observe.witness_events_per_commit",
            per_commit(&|r| r.witness_events as f64),
        ),
        ("ddbm-oracle.check_s", check_s),
        ("ddbm-oracle.share", oracle_share),
        (
            "ddbm-oracle.ns_per_event",
            ratio(check_s, checked_events) * 1e9,
        ),
        ("ddbm-oracle.phase_s", sum(&|r| r.checks.phase_s)),
        ("ddbm-oracle.lock_s", sum(&|r| r.checks.lock_s)),
        ("ddbm-oracle.bto_s", sum(&|r| r.checks.bto_s)),
        ("ddbm-oracle.vsr_s", sum(&|r| r.checks.vsr_s)),
        ("ddbm-oracle.replica_s", sum(&|r| r.checks.replica_s)),
        (
            "ddbm-oracle.violations",
            sum(&|r| r.checks.violations as f64),
        ),
    ])
}

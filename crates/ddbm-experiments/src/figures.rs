//! The figure table: one entry per paper figure (and per text-only or
//! extension experiment), each returning its [`FigureResult`]s.
//!
//! The mapping to the paper (see DESIGN.md §5):
//!
//! * Figures 2–7 — machine-size scaling (§4.2): 1-node vs 8-node sweeps.
//! * Figures 8–13 — partitioning at fixed size (§4.3): 1-way vs 8-way.
//! * Figures 14–17 — overhead sensitivity (§4.4): speedup vs degree.
//! * E17–E19 — results the paper reports in prose only.
//! * E20–E28 — the extension experiments in [`crate::extensions`].
//!
//! Every builder runs its whole sweep as one [`grid`] batch and turns the
//! reports into figures with [`plot`].

use crate::extensions as ext;
use crate::profile::Profile;
use crate::runner::Runner;
use crate::table::{FigureResult, Series};
use ddbm_config::{Algorithm, Config};
use ddbm_core::RunReport;

/// The x-axis label of the think-time sweeps.
pub(crate) const THINK: &str = "mean think time (s)";

/// Builds one table entry's figures.
pub type Builder = fn(&Runner, &Profile) -> Vec<FigureResult>;

/// Every figure set `repro` accepts, in output order: the paper's artifacts
/// plus this reproduction's extension experiments (e20–e28).
pub const FIGURES: [(&str, Builder); 28] = [
    ("fig02", |r, p| {
        machine_sizes(r, p, "fig02", "Throughput", "throughput (txn/s)", |x| {
            x.throughput
        })
    }),
    ("fig03", |r, p| {
        machine_sizes(r, p, "fig03", "Response time", "response time (s)", |x| {
            x.mean_response_time
        })
    }),
    ("fig04", |r, p| vec![scaling_speedups(r, p, 8).remove(0)]),
    ("fig05", |r, p| vec![scaling_speedups(r, p, 8).remove(1)]),
    ("fig06", |r, p| {
        machine_sizes(r, p, "fig06", "Disk utilization", "Disk utilization", |x| {
            x.disk_utilization
        })
    }),
    ("fig07", |r, p| {
        machine_sizes(r, p, "fig07", "CPU utilization", "CPU utilization", |x| {
            x.proc_cpu_utilization
        })
    }),
    ("fig08", |r, p| partitioning_speedup(r, p, "fig08", true)),
    ("fig09", |r, p| partitioning_speedup(r, p, "fig09", false)),
    ("fig10", |r, p| versus_nodc(r, p, "fig10", 8, DEGRADATION)),
    ("fig11", |r, p| versus_nodc(r, p, "fig11", 1, DEGRADATION)),
    ("fig12", |r, p| versus_nodc(r, p, "fig12", 8, ABORTS)),
    ("fig13", |r, p| versus_nodc(r, p, "fig13", 1, ABORTS)),
    ("fig14", |r, p| overhead_speedup(r, p, "fig14", 0, 0, 0.0)),
    ("fig15", |r, p| overhead_speedup(r, p, "fig15", 0, 0, 8.0)),
    ("fig16", |r, p| {
        overhead_speedup(r, p, "fig16", 0, 4_000, 0.0)
    }),
    ("fig17", |r, p| {
        overhead_speedup(r, p, "fig17", 0, 4_000, 8.0)
    }),
    ("e17", |r, p| scaling_speedups(r, p, 4)),
    ("e18", e18_blocking_time),
    // E19 (§4.4 prose): 20K-instruction process startup with free
    // messages — "very close to those of Figures 16 and 17".
    ("e19", |r, p| {
        [
            overhead_speedup(r, p, "e19-think0", 20_000, 0, 0.0),
            overhead_speedup(r, p, "e19-think8", 20_000, 0, 8.0),
        ]
        .concat()
    }),
    ("e20", ext::e20_exec_pattern),
    ("e21", ext::e21_timeout_sensitivity),
    ("e22", ext::e22_buffering),
    ("e23", ext::e23_wait_die),
    ("e24", ext::e24_barging),
    ("e25", |r, p| {
        let recovery = denet::SimDuration::from_millis(ext::E25_RECOVERY_MS);
        let (tput, aborts) = ext::e25_fault_study(r, p, &ext::E25_CRASH_RATES, recovery);
        vec![tput, aborts]
    }),
    ("e26", ext::e26_phase_breakdown),
    ("e27", ext::e27_replication_overhead),
    ("e28", ext::e28_availability),
];

/// Run a whole figure as one batch: `reports[s][x]` is the run of
/// `mk(series[s], xs[x])` with `profile` applied. Runs shared with other
/// figures come from the runner's cache.
pub fn grid<S: Copy, X: Copy>(
    runner: &Runner,
    profile: &Profile,
    series: &[S],
    xs: &[X],
    mk: impl Fn(S, X) -> Config,
) -> Vec<Vec<RunReport>> {
    let mut configs = Vec::with_capacity(series.len() * xs.len());
    for &s in series {
        for &x in xs {
            let mut c = mk(s, x);
            profile.apply(&mut c);
            configs.push(c);
        }
    }
    let flat = runner.run_all(&configs);
    flat.chunks(xs.len()).map(<[RunReport]>::to_vec).collect()
}

/// A figure whose series `names[s]` plots `metric` over `rows[s]`, one
/// point per x. `axes` is (x label, y label).
pub fn plot<T>(
    id: &str,
    title: &str,
    axes: (&str, &str),
    xs: &[f64],
    names: impl IntoIterator<Item = impl Into<String>>,
    rows: &[Vec<T>],
    metric: impl Fn(&T) -> f64,
) -> FigureResult {
    let series = names
        .into_iter()
        .zip(rows)
        .map(|(name, row)| Series {
            name: name.into(),
            ys: row.iter().map(&metric).collect(),
        })
        .collect();
    FigureResult {
        id: id.into(),
        title: title.into(),
        x_label: axes.0.into(),
        y_label: axes.1.into(),
        xs: xs.to_vec(),
        series,
    }
}

/// Point-by-point (run, base run) pairs of a grid whose rows alternate a
/// base setting and the setting compared with it.
fn over_base(reports: &[Vec<RunReport>]) -> Vec<Vec<(&RunReport, &RunReport)>> {
    reports
        .chunks(2)
        .map(|pair| pair[1].iter().zip(&pair[0]).collect())
        .collect()
}

/// Each algorithm on the 1-node (or 1-way) setting, then on `n`: the rows
/// [`over_base`] pairs.
fn one_and(n: usize) -> Vec<(Algorithm, usize)> {
    Algorithm::ALL
        .iter()
        .flat_map(|&a| [(a, 1), (a, n)])
        .collect()
}

// ----------------------------------------------------------------------
// §4.2 — machine size and parallelism (Figures 2–7, E17)
// ----------------------------------------------------------------------

/// Figures 2, 3, 6 and 7: `metric` vs think time on the 1-node and the
/// 8-node machine, small DB.
fn machine_sizes(
    runner: &Runner,
    profile: &Profile,
    id: &str,
    what: &str,
    y_label: &str,
    metric: fn(&RunReport) -> f64,
) -> Vec<FigureResult> {
    let series = one_and(8);
    let reports = grid(
        runner,
        profile,
        &series,
        &profile.think_times,
        |(a, n), t| Config::scaling(a, n, t),
    );
    let names = series.iter().map(|(a, n)| format!("{a} {n}-node"));
    let title = format!("{what}, 1-node vs 8-node (small DB)");
    let xs = &profile.think_times;
    vec![plot(
        id,
        &title,
        (THINK, y_label),
        xs,
        names,
        &reports,
        metric,
    )]
}

/// The throughput- and response-speedup figure pair for an `n`-node machine
/// vs the 1-node machine. `n = 8` gives Figures 4 and 5; `n = 4` gives the
/// prose results of §4.2 (E17).
fn scaling_speedups(runner: &Runner, profile: &Profile, n: usize) -> Vec<FigureResult> {
    let reports = grid(
        runner,
        profile,
        &one_and(n),
        &profile.think_times,
        |(a, n), t| Config::scaling(a, n, t),
    );
    let pairs = over_base(&reports);
    let (tid, rid) = if n == 8 {
        ("fig04".to_string(), "fig05".to_string())
    } else {
        (format!("e17-tput-{n}node"), format!("e17-resp-{n}node"))
    };
    let xs = &profile.think_times;
    vec![
        plot(
            &tid,
            &format!("Throughput speedup, {n}-node over 1-node"),
            (THINK, "throughput speedup"),
            xs,
            Algorithm::ALL.map(Algorithm::label),
            &pairs,
            |(big, one)| big.throughput_speedup_over(one),
        ),
        plot(
            &rid,
            &format!("Response time speedup, {n}-node over 1-node"),
            (THINK, "response time speedup"),
            xs,
            Algorithm::ALL.map(Algorithm::label),
            &pairs,
            |(big, one)| big.response_speedup_over(one),
        ),
    ]
}

// ----------------------------------------------------------------------
// §4.3 — partitioning at fixed machine size (Figures 8–13, E18)
// ----------------------------------------------------------------------

/// Figures 8 (large DB) and 9 (small DB): response-time speedup of 8-way
/// over 1-way partitioning on the 8-node machine.
fn partitioning_speedup(
    runner: &Runner,
    profile: &Profile,
    id: &str,
    large_db: bool,
) -> Vec<FigureResult> {
    let reports = grid(
        runner,
        profile,
        &one_and(8),
        &profile.think_times,
        |(a, d), t| Config::partitioning(a, d, large_db, t),
    );
    let db = if large_db { "large DB" } else { "small DB" };
    vec![plot(
        id,
        &format!("Response-time speedup of 8-way over 1-way partitioning ({db})"),
        (THINK, "response time speedup"),
        &profile.think_times,
        Algorithm::ALL.map(Algorithm::label),
        &over_base(&reports),
        |(eight, one)| eight.response_speedup_over(one),
    )]
}

/// A figure of Figures 10–13: (title head, y label, `metric(run, NO_DC run)`).
type VersusNodc = (
    &'static str,
    &'static str,
    fn(&RunReport, &RunReport) -> f64,
);

/// Figures 10 and 11: percent response-time degradation relative to NO_DC.
const DEGRADATION: VersusNodc = (
    "% response-time degradation vs NO_DC",
    "% degradation",
    |run, nodc| run.degradation_vs(nodc),
);

/// Figures 12 and 13: aborts per commit (NO_DC never aborts).
const ABORTS: VersusNodc = ("Abort ratio", "aborts per commit", |run, _| run.abort_ratio);

/// Figures 10–13: `what`'s metric vs think time for each real algorithm at
/// `degree`-way partitioning, small DB.
fn versus_nodc(
    runner: &Runner,
    profile: &Profile,
    id: &str,
    degree: usize,
    (head, y_label, metric): VersusNodc,
) -> Vec<FigureResult> {
    let mut algos: Vec<Algorithm> = Algorithm::ALL
        .into_iter()
        .filter(|a| *a != Algorithm::NoDataContention)
        .collect();
    algos.push(Algorithm::NoDataContention);
    let reports = grid(runner, profile, &algos, &profile.think_times, |a, t| {
        Config::partitioning(a, degree, false, t)
    });
    let (nodc, real) = reports.split_last().expect("NO_DC row");
    let pairs: Vec<Vec<(&RunReport, &RunReport)>> = real
        .iter()
        .map(|row| row.iter().zip(nodc).collect())
        .collect();
    vec![plot(
        id,
        &format!("{head}, {degree}-way partitioning (small DB)"),
        (THINK, y_label),
        &profile.think_times,
        algos[..real.len()].iter().map(|a| a.label()),
        &pairs,
        |(run, base)| metric(run, base),
    )]
}

/// E18 (§4.3 prose): mean 2PL blocking time, 1-way vs 8-way partitioning.
/// The paper reports the 1-way value ≈1.6× the 8-way value at think = 12 s.
fn e18_blocking_time(runner: &Runner, profile: &Profile) -> Vec<FigureResult> {
    let degrees = [1usize, 8];
    let reports = grid(runner, profile, &degrees, &profile.think_times, |d, t| {
        Config::partitioning(Algorithm::TwoPhaseLocking, d, false, t)
    });
    vec![plot(
        "e18",
        "Mean 2PL blocking time per episode, 1-way vs 8-way (small DB)",
        (THINK, "blocking time (s)"),
        &profile.think_times,
        degrees.iter().map(|d| format!("2PL {d}-way")),
        &reports,
        |r| r.mean_blocking_time,
    )]
}

// ----------------------------------------------------------------------
// §4.4 — system overheads (Figures 14–17, E19)
// ----------------------------------------------------------------------

/// Response-time speedup as a function of the partitioning degree at a fixed
/// think time and fixed overhead costs, relative to 1-way partitioning.
fn overhead_speedup(
    runner: &Runner,
    profile: &Profile,
    id: &str,
    inst_per_startup: u64,
    inst_per_msg: u64,
    think: f64,
) -> Vec<FigureResult> {
    let degrees = [1usize, 2, 4, 8];
    let reports = grid(runner, profile, &Algorithm::ALL, &degrees, |a, d| {
        Config::overheads(a, d, inst_per_startup, inst_per_msg, think)
    });
    let pairs: Vec<Vec<(&RunReport, &RunReport)>> = reports
        .iter()
        .map(|row| row.iter().zip(std::iter::repeat(&row[0])).collect())
        .collect();
    vec![plot(
        id,
        &format!(
            "Response-time speedup vs partitioning degree \
             (startup={inst_per_startup}, msg={inst_per_msg}, think={think}s)"
        ),
        ("partitioning degree", "response time speedup vs 1-way"),
        &degrees.map(|d| d as f64),
        Algorithm::ALL.map(Algorithm::label),
        &pairs,
        |(run, one_way)| run.response_speedup_over(one_way),
    )]
}

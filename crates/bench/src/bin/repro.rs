//! `repro` — regenerate the paper's figures.
//!
//! ```text
//! repro [--full|--quick|--smoke] [--threads N] [--out DIR] [--verbose] [FIGURE ...]
//!
//!   --full      full think-time grid, long runs (the EXPERIMENTS.md numbers)
//!   --quick     thin grid, short runs (default; minutes)
//!   --smoke     two think times, very short runs (CI)
//!   --threads   worker threads (default: all cores)
//!   --out DIR   also write <DIR>/<figure>.txt and <DIR>/<figure>.json
//!   --crash-rate R   e25 only: add R to the swept per-node crash rates
//!                    (repeatable; replaces the default grid)
//!   --recovery-ms N  e25 only: crash-recovery delay in milliseconds
//!   --trace PATH     e26 only: run the representative collapse point (OPT at
//!                    the top crash rate) with full event tracing and write
//!                    Chrome-trace JSON to PATH plus a JSONL event stream to
//!                    PATH.jsonl
//!   FIGURE      any of fig02..fig17, e17..e28 (default: all; `--help`
//!               lists them)
//!
//! repro verify [--seeds N,N,...] [--replay FILE ...]
//!
//!   Runs the ddbm-oracle verification grid (6 algorithms × 3 replica
//!   controls × 4 seeds = 72 cells of contended runs through the protocol
//!   invariant checkers) and exits nonzero on any violation. With --replay, instead replays recorded
//!   .repro.json files and checks that each still reproduces its frozen
//!   violations deterministically.
//! ```

use ddbm_experiments::figures::{Builder, FIGURES};
use ddbm_experiments::{chart, extensions, oracle, FigureResult, Profile, Runner};
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    profile: Profile,
    profile_name: &'static str,
    threads: usize,
    out: Option<PathBuf>,
    verbose: bool,
    charts: bool,
    ids: Vec<(&'static str, Builder)>,
    crash_rates: Vec<f64>,
    recovery_ms: Option<u64>,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut profile = Profile::quick();
    let mut profile_name = "quick";
    let mut threads = 0usize;
    let mut out = None;
    let mut verbose = false;
    let mut charts = false;
    let mut ids = Vec::new();
    let mut crash_rates = Vec::new();
    let mut recovery_ms = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--full" => {
                profile = Profile::full();
                profile_name = "full";
            }
            "--quick" => {
                profile = Profile::quick();
                profile_name = "quick";
            }
            "--smoke" => {
                profile = Profile::smoke();
                profile_name = "smoke";
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|_| format!("bad thread count {v}"))?;
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--verbose" | "-v" => verbose = true,
            "--charts" => charts = true,
            "--crash-rate" => {
                let v = argv.next().ok_or("--crash-rate needs a value")?;
                let rate: f64 = v.parse().map_err(|_| format!("bad crash rate {v}"))?;
                if !(0.0..=10.0).contains(&rate) {
                    return Err(format!("crash rate {rate} out of range [0, 10]"));
                }
                crash_rates.push(rate);
            }
            "--recovery-ms" => {
                let v = argv.next().ok_or("--recovery-ms needs a value")?;
                recovery_ms = Some(v.parse().map_err(|_| format!("bad recovery delay {v}"))?);
            }
            "--trace" => {
                let v = argv.next().ok_or("--trace needs a file path")?;
                trace = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--full|--quick|--smoke] [--threads N] \
                     [--out DIR] [--charts] [--verbose] \
                     [--crash-rate R ...] [--recovery-ms N] [--trace PATH] \
                     [FIGURE ...]\n       repro verify [--seeds N,N,...] [--replay FILE ...]\n\
                     figures: {}",
                    FIGURES.map(|(id, _)| id).join(" ")
                );
                std::process::exit(0);
            }
            other => match FIGURES.iter().find(|(id, _)| *id == other) {
                Some(&entry) => ids.push(entry),
                None => return Err(format!("unknown argument {other:?} (try --help)")),
            },
        }
    }
    if ids.is_empty() {
        ids = FIGURES.to_vec();
    }
    let named = |name: &str| ids.iter().any(|(id, _)| *id == name);
    if (!crash_rates.is_empty() || recovery_ms.is_some()) && !named("e25") {
        return Err(
            "--crash-rate/--recovery-ms only apply to e25; add it to the figure list".into(),
        );
    }
    if trace.is_some() && !named("e26") {
        return Err("--trace only applies to e26; add it to the figure list".into());
    }
    Ok(Args {
        profile,
        profile_name,
        threads,
        out,
        verbose,
        charts,
        ids,
        crash_rates,
        recovery_ms,
        trace,
    })
}

fn write_outputs(dir: &PathBuf, fig: &FigureResult) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{}.txt", fig.id)), fig.to_table())?;
    // serde_json turns NaN into null, which cannot round-trip; replace with
    // a sentinel that is obviously not data.
    let mut clean = fig.clone();
    for s in &mut clean.series {
        for y in &mut s.ys {
            if !y.is_finite() {
                *y = -1.0;
            }
        }
    }
    std::fs::write(
        dir.join(format!("{}.json", fig.id)),
        serde_json::to_string_pretty(&clean).expect("figure serializes"),
    )?;
    Ok(())
}

/// Run the representative E26 collapse point with full event tracing and
/// write the Chrome-trace JSON (`path`) plus the JSONL event stream
/// (`path` + ".jsonl").
fn write_trace(path: &PathBuf, profile: &Profile) -> std::io::Result<()> {
    let config = extensions::e26_trace_config(profile);
    let (report, trace) = ddbm_core::run_traced(config)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
    let mut chrome = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace.write_chrome_trace(&mut chrome)?;
    let jsonl_path = {
        let mut os = path.clone().into_os_string();
        os.push(".jsonl");
        PathBuf::from(os)
    };
    let mut jsonl = std::io::BufWriter::new(std::fs::File::create(&jsonl_path)?);
    trace.write_jsonl(&mut jsonl)?;
    eprintln!(
        "trace: {} events ({} dropped) from {} commits → {} + {}",
        trace.events.len(),
        trace.dropped,
        report.commits,
        path.display(),
        jsonl_path.display(),
    );
    Ok(())
}

/// `repro verify`: run the oracle grid, or replay frozen repro files.
/// Returns the process exit code.
fn verify_main(argv: Vec<String>) -> i32 {
    let mut seeds: Vec<u64> = oracle::ORACLE_SEEDS.to_vec();
    let mut replays: Vec<PathBuf> = Vec::new();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = match it.next() {
                    Some(v) => v,
                    None => {
                        eprintln!("error: --seeds needs a comma-separated list");
                        return 2;
                    }
                };
                match v
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<Vec<u64>, _>>()
                {
                    Ok(s) if !s.is_empty() => seeds = s,
                    _ => {
                        eprintln!("error: bad seed list {v:?}");
                        return 2;
                    }
                }
            }
            "--replay" => match it.next() {
                Some(v) => replays.push(PathBuf::from(v)),
                None => {
                    eprintln!("error: --replay needs a file path");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!("usage: repro verify [--seeds N,N,...] [--replay FILE ...]");
                return 0;
            }
            other => {
                eprintln!("error: unknown argument {other:?} (try repro verify --help)");
                return 2;
            }
        }
    }

    if !replays.is_empty() {
        let mut failed = false;
        for path in &replays {
            let repro = match ddbm_oracle::ReproFile::load(path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: could not load {}: {e}", path.display());
                    failed = true;
                    continue;
                }
            };
            match repro.verify() {
                Ok(true) => println!(
                    "REPRODUCED  {} ({} on seed {}, {} frozen violation(s))",
                    path.display(),
                    repro.config.algorithm,
                    repro.config.control.seed,
                    repro.violations.len(),
                ),
                Ok(false) => {
                    println!("DIVERGED    {}", path.display());
                    failed = true;
                }
                Err(e) => {
                    eprintln!("error: {} does not replay: {e}", path.display());
                    failed = true;
                }
            }
        }
        return i32::from(failed);
    }

    let t0 = Instant::now();
    eprintln!(
        "oracle grid: {} algorithms × {} seeds × {} replica controls of contended runs…",
        oracle::ORACLE_GRID.len(),
        seeds.len(),
        oracle::grid_replications().len(),
    );
    let cells = oracle::verify_grid(&seeds);
    let mut failed = false;
    for cell in &cells {
        println!(
            "{:7} {:6} {:7} seed {:6}  {:>7} events  {} violation(s)",
            if cell.pass() { "PASS" } else { "FAIL" },
            cell.algorithm.to_string(),
            cell.replication,
            cell.seed,
            cell.events,
            cell.violations,
        );
        if !cell.pass() {
            failed = true;
            for line in cell.detail.lines() {
                eprintln!("  {line}");
            }
        }
    }
    eprintln!(
        "oracle grid: {}/{} cells clean in {:.1?}",
        cells.iter().filter(|c| c.pass()).count(),
        cells.len(),
        t0.elapsed(),
    );
    i32::from(failed)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("verify") {
        std::process::exit(verify_main(std::env::args().skip(2).collect()));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut runner = Runner::new(args.threads);
    runner.verbose = args.verbose;
    eprintln!(
        "reproducing {} figure set(s) with the {} profile ({} think times)…",
        args.ids.len(),
        args.profile_name,
        args.profile.think_times.len(),
    );
    let t0 = Instant::now();
    for &(id, build) in &args.ids {
        let figs = if id == "e25" {
            // e25 takes its fault grid from the command line when given.
            let rates = if args.crash_rates.is_empty() {
                extensions::E25_CRASH_RATES.to_vec()
            } else {
                let mut r = args.crash_rates.clone();
                r.sort_by(|a, b| a.total_cmp(b));
                r.dedup();
                r
            };
            let recovery = denet::SimDuration::from_millis(
                args.recovery_ms.unwrap_or(extensions::E25_RECOVERY_MS),
            );
            let (a, b) = extensions::e25_fault_study(&runner, &args.profile, &rates, recovery);
            vec![a, b]
        } else {
            build(&runner, &args.profile)
        };
        if id == "e26" {
            if let Some(path) = &args.trace {
                if let Err(e) = write_trace(path, &args.profile) {
                    eprintln!("error: could not write trace {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        for fig in &figs {
            println!("{}", fig.to_table());
            if args.charts {
                println!("{}", chart::render(fig, chart::ChartSize::default()));
            }
            if let Some(dir) = &args.out {
                if let Err(e) = write_outputs(dir, fig) {
                    eprintln!("warning: could not write {}: {e}", fig.id);
                }
            }
        }
    }
    eprintln!(
        "done: {} simulations in {:.1?} ({} worker threads)",
        runner.executed(),
        t0.elapsed(),
        runner.threads(),
    );
}

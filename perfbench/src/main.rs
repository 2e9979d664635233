//! Command-line entry point; see the crate docs.

use perfbench::metrics::{
    manifest_json, rationale_json, result_line, Metric, END_TO_END, PER_LAYER,
};
use perfbench::passes::{end_to_end, per_layer, quantile, Measured};
use perfbench::spans::{chrome_trace, self_times, Spans};
use perfbench::workloads::Workload;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: perfbench::heap::PeakHeap = perfbench::heap::PeakHeap;

const USAGE: &str = "usage: perfbench --workload <uncontended|contended|verify> --seed <n> \
                     --seconds <s> --trace <0|1>\n       perfbench --write-manifest";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn host() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn write_manifest(workers: usize) -> std::io::Result<()> {
    std::fs::write("BENCHMARK.json", manifest_json())?;
    std::fs::write("perfbench/rationale.json", rationale_json(workers, &host()))
}

fn print_metrics(defs: &[Metric], m: &Measured) {
    for d in defs {
        println!("  {:<46} {:>16.6} {}", d.name, m.metrics[d.name], d.unit);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args == ["--write-manifest"] {
        return match write_manifest(workers) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: writing the manifest failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let build = || w.cells(args.seed);
    println!(
        "perfbench: workload {} seed {} trace {} on {workers} worker threads ({})",
        w.name(),
        args.seed,
        u8::from(args.trace),
        host()
    );
    let (m, defs): (Measured, &[Metric]) = if args.trace {
        let spans = Spans::new();
        let m = per_layer(build, w.checks_oracle(), args.seconds, workers, &spans);
        let spans = spans.finish();
        let path = format!("perfbench/out/{}.trace.json", w.name());
        match std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, chrome_trace(&spans)))
        {
            Ok(()) => println!("spans: {} written to {path}", spans.len()),
            Err(e) => eprintln!("perfbench: writing {path} failed: {e}"),
        }
        println!(
            "  {:<30} {:>8} {:>12} {:>12}",
            "span", "calls", "total_s", "self_s"
        );
        for (name, t) in self_times(&spans) {
            println!(
                "  {name:<30} {:>8} {:>12.6} {:>12.6}",
                t.calls, t.total_s, t.self_s
            );
        }
        (m, &PER_LAYER)
    } else {
        (
            end_to_end(build, w.checks_oracle(), args.seconds, workers),
            &END_TO_END,
        )
    };
    let walls = &m.round_walls;
    println!(
        "{} simulations in {} rounds, {} failed; scaled round wall min {:.3} s, median {:.3} s, \
         max {:.3} s; calibration kernel median {:.4} s (reference {} s)",
        m.attempted,
        walls.len(),
        m.failed,
        quantile(walls, 0.0),
        quantile(walls, 0.5),
        quantile(walls, 1.0),
        quantile(&m.kernel_s, 0.5),
        perfbench::calibrate::REFERENCE_S,
    );
    for f in &m.failures {
        println!("  FAILED {f}");
    }
    print_metrics(defs, &m);
    println!(
        "{}",
        result_line(m.failed == 0, m.attempted, m.failed, defs, &m.metrics)
    );
    ExitCode::SUCCESS
}

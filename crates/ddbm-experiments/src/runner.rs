//! Parallel, memoizing experiment runner.
//!
//! Figures share underlying simulation runs (e.g. Figures 2–7 all derive
//! from the same 1-node/8-node sweeps), so the runner caches every completed
//! run keyed by its configuration's JSON text. Floats serialize as their
//! shortest round-trip decimal, so configs that differ in any finite value,
//! even by one ulp, get different keys.
//!
//! [`Runner::run_all`] drops the batch's duplicates and cache hits up front,
//! runs the distinct new configurations across OS threads with
//! [`map_parallel`], and returns every report in input order.
//! [`Runner::run`] is a batch of one.

use ddbm_config::Config;
use ddbm_core::{run_config, RunReport};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Executed-simulation count plus where verbose progress lines go: the
/// process stderr, or (tests only) an in-memory capture of the counts.
#[derive(Default)]
struct Progress {
    executed: usize,
    captured: Option<Vec<usize>>,
}

/// See module docs.
pub struct Runner {
    cache: Mutex<HashMap<String, RunReport>>,
    threads: usize,
    /// Counter increment and line emission happen under this lock, so the
    /// printed counts are strictly increasing even under thread races.
    progress: Mutex<Progress>,
    /// Print a short progress line per completed simulation.
    pub verbose: bool,
}

impl Runner {
    /// A runner using up to `threads` worker threads (0 = all cores).
    pub fn new(threads: usize) -> Runner {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            threads
        };
        Runner {
            cache: Mutex::new(HashMap::new()),
            threads,
            progress: Mutex::new(Progress::default()),
            verbose: false,
        }
    }

    /// The number of worker threads a batch fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn key(config: &Config) -> String {
        serde_json::to_string(config).expect("config serializes")
    }

    /// Run one configuration (memoized).
    pub fn run(&self, config: &Config) -> RunReport {
        self.run_all(std::slice::from_ref(config)).remove(0)
    }

    /// Run many configurations in parallel (memoized); results come back in
    /// input order. Each distinct configuration not yet in the cache runs
    /// exactly once. An invalid configuration panics out of the batch and
    /// caches none of it.
    pub fn run_all(&self, configs: &[Config]) -> Vec<RunReport> {
        let keys: Vec<String> = configs.iter().map(Self::key).collect();
        let fresh: Vec<usize> = {
            let cache = self.cache.lock().unwrap();
            let mut seen = HashSet::new();
            (0..configs.len())
                .filter(|&i| !cache.contains_key(&keys[i]) && seen.insert(&keys[i]))
                .collect()
        };
        let reports = map_parallel(self.threads, &fresh, |&i| {
            let report = run_config(configs[i].clone()).expect("config validated by caller");
            self.note_progress(&configs[i], &report);
            report
        });
        let mut cache = self.cache.lock().unwrap();
        for (i, report) in fresh.into_iter().zip(reports) {
            cache.insert(keys[i].clone(), report);
        }
        keys.iter().map(|k| cache[k].clone()).collect()
    }

    /// Bump the executed counter and emit the verbose progress line as one
    /// atomic step, so concurrent completions can never print duplicate or
    /// out-of-order counts.
    fn note_progress(&self, config: &Config, report: &RunReport) {
        let mut progress = self.progress.lock().unwrap();
        progress.executed += 1;
        let n = progress.executed;
        if self.verbose {
            match &mut progress.captured {
                None => eprintln!(
                    "  [{n}] {} n={} deg={} think={:>5.1}s  tps={:>7.2} rt={:>7.3}s",
                    config.algorithm,
                    config.system.num_proc_nodes,
                    config.database.declustering_degree,
                    config.workload.think_time_secs,
                    report.throughput,
                    report.mean_response_time,
                ),
                Some(counts) => counts.push(n),
            }
        }
    }

    /// Number of simulations actually executed (not cache hits).
    pub fn executed(&self) -> usize {
        self.progress.lock().unwrap().executed
    }
}

/// Apply `f` to every item on up to `threads` OS threads, returning the
/// results in input order. Workers claim items through a shared atomic
/// index, so an expensive item never blocks the queue behind it. Each item
/// is processed exactly once; a panic in `f` propagates when the scope
/// joins.
pub fn map_parallel<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= items.len() {
                    break;
                }
                let result = f(&items[k]);
                *slots[k].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_config::Algorithm;

    fn quick_config(think: f64) -> Config {
        let mut c = Config::paper(Algorithm::NoDataContention, 8, 8, think);
        c.workload.num_terminals = 16;
        c.workload.mean_pages_per_file = 2;
        c.workload.min_pages_per_file = 1;
        c.workload.max_pages_per_file = 3;
        c.database.pages_per_file = 100;
        c.control.warmup_commits = 10;
        c.control.measure_commits = 40;
        c
    }

    #[test]
    fn memoizes_identical_configs() {
        let r = Runner::new(2);
        let a = r.run(&quick_config(1.0));
        let b = r.run(&quick_config(1.0));
        assert_eq!(a.mean_response_time, b.mean_response_time);
        assert_eq!(r.executed(), 1);
    }

    #[test]
    fn keys_distinguish_configs() {
        let base = quick_config(1.0);
        let mut other = base.clone();
        other.control.seed ^= 1;
        assert_eq!(Runner::key(&base), Runner::key(&base.clone()));
        assert_ne!(Runner::key(&base), Runner::key(&other));
        let mut think = base.clone();
        think.workload.think_time_secs += 0.5;
        assert_ne!(Runner::key(&base), Runner::key(&think));
        // Think times one ulp apart are different configurations.
        let mut next = base.clone();
        next.workload.think_time_secs = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(Runner::key(&base), Runner::key(&next));
    }

    #[test]
    fn batch_runs_each_distinct_config_once_in_input_order() {
        let r = Runner::new(4);
        let thinks = [0.0, 2.0, 0.0, 1.0, 2.0, 0.0];
        let configs: Vec<Config> = thinks.iter().map(|t| quick_config(*t)).collect();
        let reports = r.run_all(&configs);
        assert_eq!(r.executed(), 3, "one run per distinct config");
        // Input order: each report matches a fresh single-config runner.
        for (t, report) in thinks.iter().zip(&reports) {
            let alone = Runner::new(1).run(&quick_config(*t));
            assert_eq!(report.mean_response_time, alone.mean_response_time);
            assert_eq!(report.commits, alone.commits);
        }
        // A second batch is served from the cache.
        let again = r.run_all(&configs[..2]);
        assert_eq!(r.executed(), 3, "second batch must hit the cache");
        assert_eq!(again[1].mean_response_time, reports[1].mean_response_time);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = Runner::new(1);
        let parallel = Runner::new(8);
        let configs: Vec<Config> = [0.0, 1.0, 2.0].iter().map(|t| quick_config(*t)).collect();
        let a = serial.run_all(&configs);
        let b = parallel.run_all(&configs);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mean_response_time, y.mean_response_time);
            assert_eq!(x.commits, y.commits);
        }
    }

    /// An invalid configuration inside a batch panics out of `run_all`
    /// (callers such as perfbench catch exactly that), and the runner stays
    /// usable afterwards.
    #[test]
    fn invalid_config_in_batch_panics_and_runner_recovers() {
        let r = Runner::new(2);
        let mut bad = quick_config(1.0);
        // Zero disks fails validation inside the worker.
        bad.system.num_disks = 0;
        let batch = [quick_config(0.0), bad, quick_config(1.0)];
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.run_all(&batch)));
        assert!(outcome.is_err(), "the invalid config must panic the batch");
        // The failed batch cached nothing; a valid config runs and caches.
        let before = r.executed();
        let report = r.run(&quick_config(1.0));
        assert!(report.commits > 0);
        assert_eq!(r.executed(), before + 1);
        r.run(&quick_config(1.0));
        assert_eq!(r.executed(), before + 1, "second run must hit the cache");
    }

    /// Regression test for duplicate/out-of-order verbose progress counts:
    /// the counter increment and the line emission happen under one lock,
    /// so captured counts are exactly 1, 2, 3, ... regardless of thread
    /// interleaving.
    #[test]
    fn progress_counts_are_strictly_monotonic() {
        let mut r = Runner::new(8);
        r.verbose = true;
        r.progress.lock().unwrap().captured = Some(Vec::new());
        let configs: Vec<Config> = (0..12).map(|i| quick_config(0.25 * i as f64)).collect();
        r.run_all(&configs);
        let counts = r.progress.lock().unwrap().captured.clone().unwrap();
        assert_eq!(counts.len(), 12);
        for (i, n) in counts.iter().enumerate() {
            assert_eq!(*n, i + 1, "emitted counts must be gapless and in order");
        }
    }
}

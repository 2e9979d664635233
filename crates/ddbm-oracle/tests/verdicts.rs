//! Verdict golden: the oracle's absolute answers on the `repro verify` gate.
//!
//! `streaming.rs` compares two paths through the same checkers, so a
//! rewrite of a checker's state could change both paths alike and still
//! pass there. This table pins what the checkers actually say: for each of
//! the 18 gate cells at seed 7 and 150 commits, plus the two injected
//! defects (early lock release on 2PL, a skipped replica write on ROWA-3),
//! the event count, the total violation count, the count of each violation
//! kind, and the view-serializability outcome's
//! `Debug` string, detail text included.
//!
//! The simulator's witness stream is pinned elsewhere (the determinism
//! goldens); a drift here with those unchanged is a checker change. The
//! failure message prints the new digest.

use std::collections::BTreeMap;

use ddbm_config::{Algorithm, Config, ReplicationParams};
use ddbm_core::{run_witnessed, TestHooks};
use ddbm_oracle::{check_options_for, CheckOptions, Oracle, OracleReport};
use denet::SimDuration;

/// The gate's replica controls.
#[derive(Debug, Clone, Copy)]
enum Copies {
    Single,
    Rowa3,
    Quorum3,
}

/// The injected defect, if any.
#[derive(Debug, Clone, Copy)]
enum Hook {
    None,
    EarlyLockRelease,
    SkipReplicaWrite,
}

/// A gate cell (4 nodes, 16 terminals, 30 pages per file, think time 0)
/// at seed 7 and 150 commits.
fn gate_cell(algorithm: Algorithm, copies: Copies) -> Config {
    let mut c = Config::paper(algorithm, 4, 4, 0.0);
    c.workload.num_terminals = 16;
    c.workload.mean_pages_per_file = 2;
    c.workload.min_pages_per_file = 1;
    c.workload.max_pages_per_file = 3;
    c.database.pages_per_file = 30;
    c.control.warmup_commits = 0;
    c.control.measure_commits = 150;
    c.control.seed = 7;
    c.control.max_sim_time = SimDuration::from_secs_f64(500.0);
    c.replication = match copies {
        Copies::Single => ReplicationParams::default(),
        Copies::Rowa3 => ReplicationParams::rowa(3),
        Copies::Quorum3 => ReplicationParams::quorum(3, 2, 2),
    };
    c
}

fn hooks(hook: Hook) -> TestHooks {
    TestHooks {
        early_lock_release: matches!(hook, Hook::EarlyLockRelease),
        skip_replica_write: matches!(hook, Hook::SkipReplicaWrite),
    }
}

/// Run `config` through an online oracle that reports every violation,
/// not just the first `max_violations`, so every kind is counted.
fn check(config: Config, hooks: TestHooks) -> OracleReport {
    let opts = CheckOptions {
        max_violations: usize::MAX,
        ..check_options_for(&config)
    };
    let (_, oracle) =
        run_witnessed(config, None, hooks, false, Oracle::new(&opts)).expect("valid config");
    oracle.finish()
}

/// One line holding everything a row pins.
fn digest(r: &OracleReport) -> String {
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    for v in &r.violations {
        *kinds.entry(format!("{:?}", v.kind)).or_default() += 1;
    }
    let kinds: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}:{n}")).collect();
    format!(
        "events={} total={} kinds=[{}] vsr={:?}",
        r.events,
        r.total_violations,
        kinds.join(" "),
        r.vsr
    )
}

struct VerdictRow {
    algorithm: Algorithm,
    copies: Copies,
    hook: Hook,
    digest: &'static str,
}

use Algorithm::{
    BasicTimestampOrdering as Bto, NoDataContention as NoDc, Optimistic as Opt,
    TwoPhaseLocking as Tpl, WaitDie as Wd, WoundWait as Ww,
};
use Copies::{Quorum3, Rowa3, Single};

const fn row(algorithm: Algorithm, copies: Copies, digest: &'static str) -> VerdictRow {
    VerdictRow {
        algorithm,
        copies,
        hook: Hook::None,
        digest,
    }
}

const VERDICTS: &[VerdictRow] = &[
    row(Tpl, Single, "events=5026 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Bto, Single, "events=5021 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Ww, Single, "events=5152 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Wd, Single, "events=5401 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Opt, Single, "events=5359 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(NoDc, Single, "events=4991 total=0 kinds=[] vsr=NotSerializable { detail: \"fixed reads-from constraints already cyclic (151 runs, 457 fixed edges)\" }"),
    row(Tpl, Rowa3, "events=7584 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Bto, Rowa3, "events=7491 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Ww, Rowa3, "events=7647 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Wd, Rowa3, "events=7722 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Opt, Rowa3, "events=7861 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(NoDc, Rowa3, "events=7315 total=0 kinds=[] vsr=NotSerializable { detail: \"fixed reads-from constraints already cyclic (151 runs, 446 fixed edges)\" }"),
    row(Tpl, Quorum3, "events=8333 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Bto, Quorum3, "events=8132 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Ww, Quorum3, "events=8664 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Wd, Quorum3, "events=8734 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(Opt, Quorum3, "events=8497 total=0 kinds=[] vsr=Serializable { txns: 151, certificate: \"candidate-order\" }"),
    row(NoDc, Quorum3, "events=8037 total=0 kinds=[] vsr=NotSerializable { detail: \"fixed reads-from constraints already cyclic (151 runs, 449 fixed edges)\" }"),
    VerdictRow {
        algorithm: Tpl,
        copies: Single,
        hook: Hook::EarlyLockRelease,
        digest: "events=5638 total=632 kinds=[NotConflictSerializable:1 NotViewSerializable:1 ReleaseOutsidePhase:630] vsr=NotSerializable { detail: \"fixed reads-from constraints already cyclic (151 runs, 436 fixed edges)\" }",
    },
    VerdictRow {
        algorithm: Tpl,
        copies: Rowa3,
        hook: Hook::SkipReplicaWrite,
        digest: "events=6199 total=577 kinds=[NotViewSerializable:1 UnderReplicatedWrite:576] vsr=NotSerializable { detail: \"fixed reads-from constraints already cyclic (151 runs, 500 fixed edges)\" }",
    },
];

#[test]
fn gate_verdicts_match_the_golden_table() {
    let mut drifted = Vec::new();
    for row in VERDICTS {
        let label = format!("{} {:?} {:?}", row.algorithm, row.copies, row.hook);
        let got = digest(&check(
            gate_cell(row.algorithm, row.copies),
            hooks(row.hook),
        ));
        eprintln!("{label}: {got}");
        if got != row.digest {
            drifted.push(format!("{label}\n  want {}\n  got  {got}", row.digest));
        }
    }
    assert!(
        drifted.is_empty(),
        "verdicts drifted:\n{}",
        drifted.join("\n")
    );
}

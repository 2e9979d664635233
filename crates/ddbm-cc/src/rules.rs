//! Per-algorithm protocol rule metadata.
//!
//! Each concurrency control algorithm is allowed a specific repertoire of
//! externally visible decisions: 2PL may block and pick deadlock victims
//! but never wounds by priority, wound-wait wounds but never rejects its
//! requester, wait-die rejects but never wounds, BTO rejects out-of-order
//! accesses and blocks reads behind pending writes, OPT and NO_DC grant
//! everything at access time. [`CcRules`] states that repertoire as data,
//! so the `ddbm-oracle` invariant checkers (and any future tooling) can
//! reason about what a witnessed event stream *may* contain without
//! hard-coding a per-algorithm `match` in every check.

use ddbm_config::Algorithm;

/// What an algorithm's manager is allowed to do, as observable from the
/// outside. "Never" here is a protocol invariant: a witnessed event outside
/// this repertoire is a bug in the manager (or the simulator's wiring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcRules {
    /// The algorithm these rules describe.
    pub algorithm: Algorithm,
    /// May answer an access request with `Blocked`.
    pub blocks: bool,
    /// May answer an access request with `Rejected` (the requester aborts
    /// itself: 2PL requester-victim, wait-die death, BTO out-of-order).
    pub rejects_requester: bool,
    /// May reject a *queued* waiter later, at release/wake re-evaluation
    /// time (wait-die grant-reorder deaths, BTO reads overtaken by a
    /// newer install).
    pub rejects_waiters: bool,
    /// May demand the abort of transactions other than the requester
    /// (wound-wait wounds, 2PL local deadlock victims).
    pub wounds: bool,
    /// Rejections and demanded aborts come from waits-for cycle detection
    /// (2PL), so the transactions they abort are deadlock victims rather
    /// than wounds or timestamp-order deaths.
    pub detects_deadlocks: bool,
    /// Commit-time certification can vote no. Only OPT validates at
    /// commit; every other manager certifies unconditionally.
    pub certification_can_fail: bool,
    /// Grants follow a FIFO lock-table queue (so a strict-FIFO grant-order
    /// check applies when barging is off).
    pub lock_queue: bool,
    /// Strict two-phase discipline: every lock is held until the
    /// transaction's commit or abort release — no early release.
    pub strict_two_phase: bool,
}

/// The rule repertoire for `algorithm`.
pub fn rules_of(algorithm: Algorithm) -> CcRules {
    use Algorithm::*;
    match algorithm {
        TwoPhaseLocking => CcRules {
            algorithm,
            blocks: true,
            rejects_requester: true, // local detection picks the requester
            rejects_waiters: false,
            wounds: true, // local detection picks another cycle member
            detects_deadlocks: true,
            certification_can_fail: false,
            lock_queue: true,
            strict_two_phase: true,
        },
        TwoPhaseLockingTimeout => CcRules {
            algorithm,
            blocks: true,
            rejects_requester: false, // timeouts abort via the coordinator
            rejects_waiters: false,
            wounds: false,
            detects_deadlocks: false,
            certification_can_fail: false,
            lock_queue: true,
            strict_two_phase: true,
        },
        WoundWait => CcRules {
            algorithm,
            blocks: true,
            rejects_requester: false, // the requester always waits or wins
            rejects_waiters: false,
            wounds: true,
            detects_deadlocks: false,
            certification_can_fail: false,
            lock_queue: true,
            strict_two_phase: true,
        },
        WaitDie => CcRules {
            algorithm,
            blocks: true,
            rejects_requester: true, // younger requesters die
            rejects_waiters: true,   // grant reorders re-apply the rule
            wounds: false,
            detects_deadlocks: false,
            certification_can_fail: false,
            lock_queue: true,
            strict_two_phase: true,
        },
        BasicTimestampOrdering => CcRules {
            algorithm,
            blocks: true, // reads wait on smaller-timestamped pending writes
            rejects_requester: true,
            rejects_waiters: true, // a newer install overtakes a blocked read
            wounds: false,
            detects_deadlocks: false,
            certification_can_fail: false,
            lock_queue: false,
            strict_two_phase: false,
        },
        Optimistic => CcRules {
            algorithm,
            blocks: false, // "a request is always granted" (paper §3.3)
            rejects_requester: false,
            rejects_waiters: false,
            wounds: false,
            detects_deadlocks: false,
            certification_can_fail: true,
            lock_queue: false,
            strict_two_phase: false,
        },
        NoDataContention => CcRules {
            algorithm,
            blocks: false,
            rejects_requester: false,
            rejects_waiters: false,
            wounds: false,
            detects_deadlocks: false,
            certification_can_fail: false,
            lock_queue: false,
            strict_two_phase: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_cover_every_algorithm() {
        for algo in Algorithm::EXTENDED {
            let r = rules_of(algo);
            assert_eq!(r.algorithm, algo);
        }
    }

    #[test]
    fn only_opt_certifies_conditionally() {
        for algo in Algorithm::EXTENDED {
            assert_eq!(
                rules_of(algo).certification_can_fail,
                algo == Algorithm::Optimistic
            );
        }
    }

    #[test]
    fn lock_family_is_strictly_two_phase() {
        for algo in [
            Algorithm::TwoPhaseLocking,
            Algorithm::TwoPhaseLockingTimeout,
            Algorithm::WoundWait,
            Algorithm::WaitDie,
        ] {
            let r = rules_of(algo);
            assert!(r.lock_queue && r.strict_two_phase && r.blocks);
        }
    }

    #[test]
    fn only_2pl_aborts_deadlock_victims() {
        for algo in Algorithm::EXTENDED {
            let r = rules_of(algo);
            assert_eq!(r.detects_deadlocks, algo == Algorithm::TwoPhaseLocking);
            assert!(!r.detects_deadlocks || (r.rejects_requester && r.wounds));
        }
    }

    #[test]
    fn baselines_grant_everything() {
        for algo in [Algorithm::Optimistic, Algorithm::NoDataContention] {
            let r = rules_of(algo);
            assert!(!r.blocks && !r.rejects_requester && !r.wounds);
        }
    }
}

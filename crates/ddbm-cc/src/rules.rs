//! Per-algorithm protocol rule metadata.
//!
//! Each concurrency control algorithm is allowed a specific repertoire of
//! externally visible decisions: 2PL may block and pick deadlock victims
//! but never wounds by priority, wound-wait wounds but never rejects its
//! requester, wait-die rejects but never wounds, BTO rejects out-of-order
//! accesses and blocks reads behind pending writes, OPT and NO_DC grant
//! everything at access time. [`CcRules`] states the parts of that
//! repertoire the simulator and the `ddbm-oracle` invariant checkers read
//! as data, so neither hard-codes a per-algorithm `match` for them.

use ddbm_config::Algorithm;

/// What an algorithm's manager is allowed to do, as observable from the
/// outside. "Never" here is a protocol invariant: a witnessed event outside
/// this repertoire is a bug in the manager (or the simulator's wiring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcRules {
    /// The algorithm these rules describe.
    pub algorithm: Algorithm,
    /// Rejections and demanded aborts come from waits-for cycle detection
    /// (2PL), so the transactions they abort are deadlock victims rather
    /// than wounds or timestamp-order deaths.
    pub detects_deadlocks: bool,
    /// Commit-time certification can vote no. Only OPT validates at
    /// commit; every other manager certifies unconditionally.
    pub certification_can_fail: bool,
}

/// The rule repertoire for `algorithm`.
pub fn rules_of(algorithm: Algorithm) -> CcRules {
    use Algorithm::*;
    match algorithm {
        TwoPhaseLocking => CcRules {
            algorithm,
            detects_deadlocks: true,
            certification_can_fail: false,
        },
        TwoPhaseLockingTimeout => CcRules {
            algorithm,
            detects_deadlocks: false,
            certification_can_fail: false,
        },
        WoundWait => CcRules {
            algorithm,
            detects_deadlocks: false,
            certification_can_fail: false,
        },
        WaitDie => CcRules {
            algorithm,
            detects_deadlocks: false,
            certification_can_fail: false,
        },
        BasicTimestampOrdering => CcRules {
            algorithm,
            detects_deadlocks: false,
            certification_can_fail: false,
        },
        Optimistic => CcRules {
            algorithm,
            detects_deadlocks: false,
            certification_can_fail: true,
        },
        NoDataContention => CcRules {
            algorithm,
            detects_deadlocks: false,
            certification_can_fail: false,
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
    fn only_2pl_aborts_deadlock_victims() {
        for algo in Algorithm::EXTENDED {
            assert_eq!(
                rules_of(algo).detects_deadlocks,
                algo == Algorithm::TwoPhaseLocking
            );
        }
    }
}

#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `ddbm-cc` — the four distributed concurrency control algorithms of the
//! paper, the 2PL-T and wait-die extensions and the NO_DC baseline, each
//! behind the node-local [`CcManager`] trait.
//!
//! | Manager | Conflict detection | Resolution |
//! |---------|--------------------|------------|
//! | [`locking::Locking`] | locks, as conflicts occur | blocking; deadlock handled by one of four rules — 2PL: victims aborted (local check + global Snoop); 2PL-T: lock-wait timeout; WW: *prevented* by wounding younger transactions waited behind; WD: *prevented* by a waiter dying behind an older one |
//! | [`bto::BasicTimestampOrdering`] | timestamps, at access time | abort out-of-order requesters; Thomas write rule; reads wait on pending earlier writes |
//! | [`opt::OptimisticCertification`] | at commit, in the 2PC prepare | abort transactions that fail certification |
//! | [`nodc::NoDataContention`] | none | none (infinite-database baseline) |
//!
//! The managers are pure decision procedures — all CPU, I/O, and message
//! costs are charged by the transaction manager in `ddbm-core` — so the
//! algorithm semantics can be tested exhaustively without a simulator.

pub mod bto;
pub mod common;
pub mod locking;
pub mod locktable;
pub mod manager;
pub mod nodc;
pub mod opt;
pub mod waitsfor;

pub use common::{AccessReply, AccessResponse, LockMode, ReleaseResponse, Ts, TxnMeta};
pub use locktable::{LockOutcome, LockTable};
pub use manager::{make_manager, make_manager_with, CcManager, LockStats};
pub use waitsfor::{find_cycle, resolve_deadlocks};

//! Shared identifier types used throughout the simulator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node in the machine. Node 0 is always the single host node; nodes
/// `1..=num_proc_nodes` are processing nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The host node, where terminals attach and coordinators run.
    pub const HOST: NodeId = NodeId(0);

    #[inline]
    /// `is_host`.
    pub fn is_host(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "host")
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

/// A file (one horizontal partition of a relation), identified by its index
/// in row-major (relation, partition) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub usize);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// A page within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// File.
    pub file: FileId,
    /// Page.
    pub page: u64,
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.page)
    }
}

/// A transaction, identified by a monotone sequence number assigned at first
/// submission. Restarted runs of the same transaction keep the same `TxnId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A terminal attached to the host node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TerminalId(pub usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_node_identity() {
        assert!(NodeId::HOST.is_host());
        assert!(!NodeId(3).is_host());
        assert_eq!(format!("{}", NodeId::HOST), "host");
        assert_eq!(format!("{}", NodeId(2)), "S2");
    }

    #[test]
    fn display_forms() {
        let p = PageId {
            file: FileId(5),
            page: 17,
        };
        assert_eq!(format!("{p}"), "F5:17");
        assert_eq!(format!("{}", TxnId(9)), "T9");
    }
}

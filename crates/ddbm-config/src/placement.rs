//! File-to-node placement (the paper's `FileLocations` parameter), extended
//! with replica sets.
//!
//! Placement follows the paper's partitioning schemes (§4.2, §4.3, §4.4): the
//! `partitions_per_relation` files of relation *i* are split into
//! `declustering_degree` groups of consecutive partitions, and group *k* is
//! stored at processing node `((i + k·stride) mod N) + 1` where
//! `stride = N / degree`. Relations are offset from one another so that every
//! node stores the same number of files regardless of the degree, keeping
//! aggregate load balanced — exactly the property the paper's explicit
//! placements have.
//!
//! With replication, each file additionally has `factor - 1` copies placed
//! on the nodes that follow its primary in ring order (`primary + k mod N`).
//! Because the shift is a bijection on nodes, each node stores exactly
//! `factor ×` its single-copy file count, so aggregate load stays balanced
//! at every factor, and `factor = 1` is bit-identical to the single-copy
//! layout.

use crate::ids::{FileId, NodeId};
use crate::params::DatabaseParams;
use serde::{Deserialize, Serialize};

/// Why a placement could not be built from the given parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The declustering degree was zero.
    ZeroDegree,
    /// The declustering degree exceeds the number of processing nodes.
    DegreeExceedsMachine {
        /// Requested degree.
        degree: usize,
        /// Processing nodes available.
        nodes: usize,
    },
    /// The degree does not divide the partitions per relation.
    DegreeVsPartitions {
        /// Requested degree.
        degree: usize,
        /// Partitions per relation.
        partitions: usize,
    },
    /// The degree does not divide the machine size (the strided layout
    /// needs `N / degree` to be integral).
    DegreeVsMachine {
        /// Requested degree.
        degree: usize,
        /// Processing nodes available.
        nodes: usize,
    },
    /// The replication factor was zero.
    ZeroFactor,
    /// More replicas requested than there are distinct nodes to hold them.
    FactorExceedsMachine {
        /// Requested replication factor.
        factor: usize,
        /// Processing nodes available.
        nodes: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PlacementError::ZeroDegree => {
                write!(f, "declustering degree must be at least 1")
            }
            PlacementError::DegreeExceedsMachine { degree, nodes } => {
                write!(
                    f,
                    "declustering degree {degree} exceeds machine size {nodes}"
                )
            }
            PlacementError::DegreeVsPartitions { degree, partitions } => {
                write!(
                    f,
                    "degree {degree} must divide partitions_per_relation {partitions}"
                )
            }
            PlacementError::DegreeVsMachine { degree, nodes } => {
                write!(
                    f,
                    "degree {degree} must divide the number of processing nodes {nodes}"
                )
            }
            PlacementError::ZeroFactor => {
                write!(f, "replication factor must be at least 1")
            }
            PlacementError::FactorExceedsMachine { factor, nodes } => {
                write!(
                    f,
                    "replication factor {factor} exceeds machine size {nodes} \
                     (replicas must live on distinct nodes)"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A concrete mapping of every file to the processing node(s) storing it:
/// the primary, plus `factor - 1` replica copies when replication is on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// `node_of[f]` is the processing node storing the primary of file `f`.
    node_of: Vec<NodeId>,
    /// Copies of every file, including the primary (1 = single copy).
    factor: usize,
    num_relations: usize,
    partitions_per_relation: usize,
}

impl Placement {
    /// Build the paper's single-copy placement for `db` on `num_proc_nodes`
    /// nodes.
    pub fn paper_layout(
        db: &DatabaseParams,
        num_proc_nodes: usize,
    ) -> Result<Placement, PlacementError> {
        Placement::replicated_layout(db, num_proc_nodes, 1)
    }

    /// Build the paper's placement with `factor` copies of every file. The
    /// primary follows the strided single-copy layout; copy `k` of a file
    /// lives `k` nodes after its primary in ring order.
    pub fn replicated_layout(
        db: &DatabaseParams,
        num_proc_nodes: usize,
        factor: usize,
    ) -> Result<Placement, PlacementError> {
        let degree = db.declustering_degree;
        if degree == 0 {
            return Err(PlacementError::ZeroDegree);
        }
        if degree > num_proc_nodes {
            return Err(PlacementError::DegreeExceedsMachine {
                degree,
                nodes: num_proc_nodes,
            });
        }
        if !db.partitions_per_relation.is_multiple_of(degree) {
            return Err(PlacementError::DegreeVsPartitions {
                degree,
                partitions: db.partitions_per_relation,
            });
        }
        if !num_proc_nodes.is_multiple_of(degree) {
            return Err(PlacementError::DegreeVsMachine {
                degree,
                nodes: num_proc_nodes,
            });
        }
        if factor == 0 {
            return Err(PlacementError::ZeroFactor);
        }
        if factor > num_proc_nodes {
            return Err(PlacementError::FactorExceedsMachine {
                factor,
                nodes: num_proc_nodes,
            });
        }
        let group_size = db.partitions_per_relation / degree;
        let stride = num_proc_nodes / degree;
        let mut node_of = Vec::with_capacity(db.num_files());
        for rel in 0..db.num_relations {
            for part in 0..db.partitions_per_relation {
                let group = part / group_size;
                let node = (rel + group * stride) % num_proc_nodes;
                // Processing nodes are numbered from 1; node 0 is the host.
                node_of.push(NodeId(node + 1));
            }
        }
        Ok(Placement {
            node_of,
            factor,
            num_relations: db.num_relations,
            partitions_per_relation: db.partitions_per_relation,
        })
    }

    /// The processing node storing the primary copy of `file`.
    #[inline]
    pub fn node_of(&self, file: FileId) -> NodeId {
        self.node_of[file.0]
    }

    /// Copies of every file, including the primary.
    #[inline]
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// The ordered replica set of `file`: the primary first, then each copy
    /// on the next node in ring order. All `factor` nodes are distinct.
    pub fn replicas(&self, file: FileId, num_proc_nodes: usize) -> Vec<NodeId> {
        self.replica_nodes(file, num_proc_nodes).collect()
    }

    /// [`replicas`](Placement::replicas) without collecting them.
    pub fn replica_nodes(
        &self,
        file: FileId,
        num_proc_nodes: usize,
    ) -> impl Iterator<Item = NodeId> {
        let primary = self.node_of[file.0].0 - 1;
        (0..self.factor).map(move |k| NodeId((primary + k) % num_proc_nodes + 1))
    }

    #[inline]
    /// `num_files`.
    pub fn num_files(&self) -> usize {
        self.node_of.len()
    }

    /// The file id of partition `part` of relation `rel`.
    #[inline]
    pub fn file_of(&self, rel: usize, part: usize) -> FileId {
        debug_assert!(rel < self.num_relations && part < self.partitions_per_relation);
        FileId(rel * self.partitions_per_relation + part)
    }

    /// The relation a file belongs to.
    #[inline]
    pub fn relation_of(&self, file: FileId) -> usize {
        file.0 / self.partitions_per_relation
    }

    /// All files of relation `rel`, grouped by the node that stores their
    /// primary. Each entry is `(node, files-at-that-node)`; nodes appear in
    /// ascending id order. An unreplicated transaction on `rel` runs one
    /// cohort per entry.
    pub fn cohort_groups(&self, rel: usize) -> Vec<(NodeId, Vec<FileId>)> {
        let mut groups: Vec<(NodeId, Vec<FileId>)> = Vec::new();
        for part in 0..self.partitions_per_relation {
            let f = self.file_of(rel, part);
            let node = self.node_of(f);
            match groups.iter_mut().find(|(n, _)| *n == node) {
                Some((_, files)) => files.push(f),
                None => groups.push((node, vec![f])),
            }
        }
        groups.sort_by_key(|(n, _)| *n);
        groups
    }

    /// How many file copies (primaries and replicas) each processing node
    /// stores (index 0 = node `S1`). At `factor = 1` this is the paper's
    /// files-per-node count.
    pub fn files_per_node(&self, num_proc_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_proc_nodes];
        self.count_copies(&self.node_of, &mut counts);
        counts
    }

    /// The most file copies (primaries and replicas) of any one relation
    /// that each processing node stores (index 0 = node `S1`). A
    /// transaction touches one relation, so times `max_pages_per_file` this
    /// bounds the accesses one transaction makes at the node.
    pub fn relation_copies_per_node(&self, num_proc_nodes: usize) -> Vec<usize> {
        let mut most = vec![0usize; num_proc_nodes];
        let mut counts = vec![0usize; num_proc_nodes];
        for rel in self.node_of.chunks(self.partitions_per_relation.max(1)) {
            counts.fill(0);
            self.count_copies(rel, &mut counts);
            for (m, &c) in most.iter_mut().zip(&counts) {
                *m = (*m).max(c);
            }
        }
        most
    }

    /// Add one to `counts[node - 1]` for every copy of the files whose
    /// primaries are `primaries`.
    fn count_copies(&self, primaries: &[NodeId], counts: &mut [usize]) {
        let n = counts.len();
        for p in primaries {
            for k in 0..self.factor {
                counts[(p.0 - 1 + k) % n] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DatabaseParams;

    #[test]
    fn one_node_machine_puts_everything_on_s1() {
        let db = DatabaseParams::small(1);
        let p = Placement::paper_layout(&db, 1).unwrap();
        for f in 0..db.num_files() {
            assert_eq!(p.node_of(FileId(f)), NodeId(1));
        }
        assert_eq!(p.cohort_groups(3).len(), 1);
    }

    #[test]
    fn eight_way_spreads_each_relation_over_all_nodes() {
        let db = DatabaseParams::small(8);
        let p = Placement::paper_layout(&db, 8).unwrap();
        for rel in 0..8 {
            let groups = p.cohort_groups(rel);
            assert_eq!(groups.len(), 8, "relation {rel} must span 8 nodes");
            for (_, files) in &groups {
                assert_eq!(files.len(), 1);
            }
        }
        assert_eq!(p.files_per_node(8), vec![8; 8]);
    }

    #[test]
    fn one_way_on_eight_nodes_keeps_relations_whole() {
        let db = DatabaseParams::small(1);
        let p = Placement::paper_layout(&db, 8).unwrap();
        for rel in 0..8 {
            let groups = p.cohort_groups(rel);
            assert_eq!(groups.len(), 1, "relation {rel} must live on one node");
            assert_eq!(groups[0].1.len(), 8);
        }
        // Relation i lives on node S_{i+1}; load stays balanced.
        assert_eq!(p.files_per_node(8), vec![8; 8]);
        assert_eq!(p.cohort_groups(0)[0].0, NodeId(1));
        assert_eq!(p.cohort_groups(7)[0].0, NodeId(8));
    }

    #[test]
    fn two_and_four_way_balance_load() {
        for degree in [2usize, 4] {
            let db = DatabaseParams::small(degree);
            let p = Placement::paper_layout(&db, 8).unwrap();
            assert_eq!(p.files_per_node(8), vec![8; 8], "degree {degree}");
            for rel in 0..8 {
                let groups = p.cohort_groups(rel);
                assert_eq!(groups.len(), degree);
                for (_, files) in &groups {
                    assert_eq!(files.len(), 8 / degree);
                }
            }
        }
    }

    #[test]
    fn four_node_machine_four_way() {
        let db = DatabaseParams::small(4);
        let p = Placement::paper_layout(&db, 4).unwrap();
        assert_eq!(p.files_per_node(4), vec![16; 4]);
        for rel in 0..8 {
            assert_eq!(p.cohort_groups(rel).len(), 4);
        }
    }

    #[test]
    fn groups_hold_consecutive_partitions() {
        let db = DatabaseParams::small(2);
        let p = Placement::paper_layout(&db, 8).unwrap();
        let groups = p.cohort_groups(0);
        // First group = partitions 0..4, second = partitions 4..8.
        assert_eq!(
            groups[0].1,
            vec![FileId(0), FileId(1), FileId(2), FileId(3)]
        );
        assert_eq!(
            groups[1].1,
            vec![FileId(4), FileId(5), FileId(6), FileId(7)]
        );
    }

    #[test]
    fn relation_of_inverts_file_of() {
        let db = DatabaseParams::small(8);
        let p = Placement::paper_layout(&db, 8).unwrap();
        for rel in 0..8 {
            for part in 0..8 {
                assert_eq!(p.relation_of(p.file_of(rel, part)), rel);
            }
        }
    }

    #[test]
    fn bad_parameters_are_reported_not_panicked() {
        let db = DatabaseParams::small(8);
        assert_eq!(
            Placement::paper_layout(&db, 4),
            Err(PlacementError::DegreeExceedsMachine {
                degree: 8,
                nodes: 4
            })
        );
        let mut db0 = DatabaseParams::small(1);
        db0.declustering_degree = 0;
        assert_eq!(
            Placement::paper_layout(&db0, 8),
            Err(PlacementError::ZeroDegree)
        );
        let db3 = DatabaseParams::small(3);
        assert!(matches!(
            Placement::paper_layout(&db3, 8),
            Err(PlacementError::DegreeVsPartitions { .. })
        ));
        let db2 = DatabaseParams::small(2);
        assert!(matches!(
            Placement::paper_layout(&db2, 7),
            Err(PlacementError::DegreeVsMachine { .. })
        ));
        assert_eq!(
            Placement::replicated_layout(&DatabaseParams::small(1), 2, 3),
            Err(PlacementError::FactorExceedsMachine {
                factor: 3,
                nodes: 2
            })
        );
        assert_eq!(
            Placement::replicated_layout(&DatabaseParams::small(1), 2, 0),
            Err(PlacementError::ZeroFactor)
        );
        // Errors render a human-readable account.
        let msg = Placement::paper_layout(&db, 4).unwrap_err().to_string();
        assert!(msg.contains("exceeds machine size"), "{msg}");
    }

    #[test]
    fn replicas_are_distinct_and_primary_first() {
        let db = DatabaseParams::small(8);
        let p = Placement::replicated_layout(&db, 8, 3).unwrap();
        for f in 0..db.num_files() {
            let file = FileId(f);
            let rs = p.replicas(file, 8);
            assert_eq!(rs.len(), 3);
            assert_eq!(rs[0], p.node_of(file), "primary leads the replica set");
            let mut distinct = rs.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), 3, "replicas of file {f} must be distinct");
        }
    }

    #[test]
    fn replication_preserves_balance() {
        for factor in [1usize, 2, 3, 8] {
            let db = DatabaseParams::small(8);
            let p = Placement::replicated_layout(&db, 8, factor).unwrap();
            assert_eq!(p.files_per_node(8), vec![8 * factor; 8], "factor {factor}");
        }
    }

    #[test]
    fn relation_copies_follow_degree_and_factor() {
        // 8 partitions per relation spread over `degree` nodes; each copy
        // step adds the predecessor's files of the same relation.
        for (degree, factor, want) in [(8, 1, 1), (4, 1, 2), (1, 1, 8), (8, 3, 3), (1, 3, 8)] {
            let db = DatabaseParams::small(degree);
            let p = Placement::replicated_layout(&db, 8, factor).unwrap();
            assert_eq!(
                p.relation_copies_per_node(8),
                vec![want; 8],
                "degree {degree} factor {factor}"
            );
        }
        // One node holds every copy of everything.
        let db = DatabaseParams::small(1);
        let p = Placement::paper_layout(&db, 1).unwrap();
        assert_eq!(
            p.relation_copies_per_node(1),
            vec![db.partitions_per_relation]
        );
    }

    #[test]
    fn factor_one_matches_single_copy_layout() {
        let db = DatabaseParams::small(4);
        let single = Placement::paper_layout(&db, 8).unwrap();
        let replicated = Placement::replicated_layout(&db, 8, 1).unwrap();
        assert_eq!(single, replicated);
        for f in 0..db.num_files() {
            assert_eq!(
                replicated.replicas(FileId(f), 8),
                vec![single.node_of(FileId(f))]
            );
        }
    }
}

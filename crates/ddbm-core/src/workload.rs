//! Workload generation (the paper's *source* component, §3.2).
//!
//! A transaction accesses every partition of one relation — the relation its
//! terminal's group is bound to. The number of pages accessed per partition
//! is uniform in `[min_pages_per_file, max_pages_per_file]`, the pages are
//! chosen uniformly without replacement within the partition, and each page
//! is independently a *write* access with probability `write_prob` (write
//! accesses do no synchronous disk read — the page image is produced by the
//! transaction and written back asynchronously after commit, §3.3).
//!
//! Restarted runs replay the identical access set, so the template is
//! generated once per transaction and kept until it commits.

use ddbm_config::{Config, FileId, NodeId, PageId, Placement, ReplicaControl};
use denet::SimRng;
use serde::{Deserialize, Serialize};

/// One page access by a cohort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// Page.
    pub page: PageId,
    /// Write.
    pub write: bool,
}

/// The work one cohort performs at its node, in access order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CohortSpec {
    /// Node.
    pub node: NodeId,
    /// Accesses.
    pub accesses: Vec<Access>,
}

/// The full access plan of a transaction: one cohort per node storing any
/// partition of the accessed relation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnTemplate {
    /// Relation.
    pub relation: usize,
    /// Cohorts.
    pub cohorts: Vec<CohortSpec>,
}

impl TxnTemplate {
    /// Total pages accessed.
    pub fn total_accesses(&self) -> usize {
        self.cohorts.iter().map(|c| c.accesses.len()).sum()
    }

    /// Total write accesses.
    pub fn total_writes(&self) -> usize {
        self.cohorts
            .iter()
            .flat_map(|c| &c.accesses)
            .filter(|a| a.write)
            .count()
    }
}

/// Generate the access plan for a transaction of `terminal`.
///
/// `rng` should be the dedicated workload stream so that access patterns are
/// independent of the rest of the simulation (and identical across the five
/// algorithms when run with the same master seed).
pub fn generate_template(
    config: &Config,
    placement: &Placement,
    rng: &mut SimRng,
    terminal: usize,
) -> TxnTemplate {
    let relation = config.relation_of_terminal(terminal);
    let groups = placement.cohort_groups(relation);
    let mut out = TxnTemplate {
        relation,
        cohorts: Vec::new(),
    };
    generate_template_into(config, &groups, relation, rng, &mut Vec::new(), &mut out);
    out
}

/// [`generate_template`] into a caller-owned (pooled) template, against
/// precomputed cohort groups. `Placement::cohort_groups` is placement-static
/// but allocates per call, so the simulator computes it once per relation;
/// `pages_scratch` is the page-sampling buffer reused across files. Draws
/// the identical RNG sequence and produces the identical plan as
/// [`generate_template`], but a steady-state caller allocates nothing.
pub fn generate_template_into(
    config: &Config,
    groups: &[(NodeId, Vec<FileId>)],
    relation: usize,
    rng: &mut SimRng,
    pages_scratch: &mut Vec<usize>,
    out: &mut TxnTemplate,
) {
    out.relation = relation;
    out.cohorts.truncate(groups.len());
    while out.cohorts.len() < groups.len() {
        out.cohorts.push(CohortSpec {
            node: NodeId(0),
            accesses: Vec::new(),
        });
    }
    let per_file = config.workload.max_pages_per_file as usize;
    for (slot, (node, files)) in out.cohorts.iter_mut().zip(groups) {
        slot.node = *node;
        slot.accesses.clear();
        // The cohort's bound, so a recycled list never regrows.
        slot.accesses.reserve(files.len() * per_file);
        for file in files {
            push_file_accesses(config, rng, *file, pages_scratch, &mut slot.accesses);
        }
    }
    // Guard against degenerate configs that leave a cohort with zero
    // accesses (cannot happen with min_pages >= 1, but keep the invariant
    // explicit for the simulator's all-cohorts-report protocol).
    out.cohorts.retain(|c| !c.accesses.is_empty());
    debug_assert_eq!(out.cohorts.len(), config.database.declustering_degree);
}

/// Route a logical (single-copy) template onto a replicated machine.
///
/// The logical template produced by [`generate_template`] names each file's
/// *primary* node; under replication every access must instead touch a set
/// of live replicas chosen by the configured replica control:
///
/// * reads go to `read_quorum()` live replicas, rotating the starting
///   replica via the caller's `read_rr` cursor so read load spreads over
///   the replica set deterministically (no RNG draws — a disabled or
///   `factor = 1` configuration never calls this function and stays
///   bit-identical to the single-copy simulator);
/// * ROWA writes go to *every* live replica (write-all-available); quorum
///   writes go to the first `write_quorum()` live replicas in replica-set
///   order (primary-preferred).
///
/// Per file, the read and write target sets are chosen once and shared by
/// all of the transaction's pages in that file. Returns the file that could
/// not assemble a live read or write set, which the caller reports as a
/// `ReplicaUnavailable` abort. `skip_replica_write` is the deliberate
/// stale-read defect hook: it silently drops the last replica from every
/// multi-replica write set, leaving that replica stale after commit.
pub fn materialize_replicated(
    config: &Config,
    placement: &Placement,
    logical: &TxnTemplate,
    node_up: &[bool],
    read_rr: &mut u64,
    skip_replica_write: bool,
) -> Result<TxnTemplate, FileId> {
    let mut out = TxnTemplate::default();
    materialize_replicated_into(
        config,
        placement,
        logical,
        node_up,
        read_rr,
        skip_replica_write,
        &mut RouteScratch::default(),
        &mut out,
    )?;
    Ok(out)
}

/// Each file's replica targets while one plan is routed, and the cohort
/// buffers routed plans give up, reused across
/// [`materialize_replicated_into`] calls.
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// `(file, start, live, writes)`, in first-touch order: the file's live
    /// replicas are `nodes[start..start + live]`, its write set their first
    /// `writes` and its read set the `read_quorum()` nodes after them.
    files: Vec<(FileId, usize, usize, usize)>,
    nodes: Vec<NodeId>,
    /// Access lists of cohorts a plan had and its next routing did not
    /// need, for the next plan that needs more.
    spare: Vec<Vec<Access>>,
    /// Access lists created here so far: `spare` has room for them all.
    created: usize,
    /// Capacity of each created access list.
    cohort_capacity: usize,
}

impl RouteScratch {
    /// Scratch whose new cohort access lists hold `cohort_capacity`
    /// accesses, the most one node's cohort takes.
    pub fn with_cohort_capacity(cohort_capacity: usize) -> RouteScratch {
        RouteScratch {
            cohort_capacity,
            ..RouteScratch::default()
        }
    }

    /// An empty access list: a spare one, or a new one with full capacity.
    fn access_list(&mut self) -> Vec<Access> {
        self.spare.pop().unwrap_or_else(|| {
            self.created += 1;
            // Room for every list to come back without regrowing.
            self.spare.reserve(self.created);
            Vec::with_capacity(self.cohort_capacity)
        })
    }
}

/// [`materialize_replicated`] into a caller-owned (pooled) template, with
/// caller-owned scratch: the identical plan and cursor, but a steady-state
/// caller allocates nothing. On `Err`, `out` holds a partial plan.
#[allow(clippy::too_many_arguments)]
pub fn materialize_replicated_into(
    config: &Config,
    placement: &Placement,
    logical: &TxnTemplate,
    node_up: &[bool],
    read_rr: &mut u64,
    skip_replica_write: bool,
    scratch: &mut RouteScratch,
    out: &mut TxnTemplate,
) -> Result<(), FileId> {
    let n = config.system.num_proc_nodes;
    let rp = &config.replication;
    let rowa = rp.control == ReplicaControl::ReadOneWriteAll;
    let (need_r, need_w) = (rp.read_quorum(), rp.write_quorum());
    scratch.files.clear();
    scratch.nodes.clear();
    out.relation = logical.relation;
    // At most one cohort per node.
    out.cohorts.reserve(n.saturating_sub(out.cohorts.len()));
    // Cohorts `..used` are this plan's; later slots keep their buffers.
    let mut used = 0;
    for spec in &logical.cohorts {
        for acc in &spec.accesses {
            let file = acc.page.file;
            let RouteScratch { files, nodes, .. } = scratch;
            let (start, live, writes) = match files.iter().find(|t| t.0 == file) {
                Some(&(_, start, live, writes)) => (start, live, writes),
                None => {
                    let start = nodes.len();
                    nodes.extend(placement.replica_nodes(file, n).filter(|r| node_up[r.0]));
                    let live = nodes.len() - start;
                    if live == 0 || live < need_r || live < need_w {
                        return Err(file);
                    }
                    let mut writes = if rowa { live } else { need_w };
                    if skip_replica_write && writes > 1 {
                        writes -= 1;
                    }
                    let rotate = (*read_rr as usize) % live;
                    *read_rr += 1;
                    for k in 0..need_r {
                        nodes.push(nodes[start + (rotate + k) % live]);
                    }
                    files.push((file, start, live, writes));
                    (start, live, writes)
                }
            };
            let targets = if acc.write {
                start..start + writes
            } else {
                start + live..start + live + need_r
            };
            for k in targets {
                let node = scratch.nodes[k];
                let cohort = match out.cohorts[..used].iter().position(|c| c.node == node) {
                    Some(i) => &mut out.cohorts[i],
                    None => {
                        if used == out.cohorts.len() {
                            out.cohorts.push(CohortSpec {
                                node,
                                accesses: scratch.access_list(),
                            });
                        }
                        let slot = &mut out.cohorts[used];
                        slot.node = node;
                        slot.accesses.clear();
                        used += 1;
                        slot
                    }
                };
                cohort.accesses.push(*acc);
            }
        }
    }
    scratch.spare.extend(out.cohorts.drain(used..).map(|mut c| {
        c.accesses.clear();
        c.accesses
    }));
    // Node ids are distinct, so the unstable sort is the stable order.
    out.cohorts.sort_unstable_by_key(|c| c.node);
    Ok(())
}

/// Replica-route interning for factor-1 machines.
///
/// At replication factor 1 every file has exactly one replica — its primary
/// — so [`materialize_replicated`] is the identity whenever every cohort
/// node is up: each file's read and write sets are both `[primary]`, and
/// the per-access expansion reproduces the logical cohorts verbatim (both
/// sides keep cohorts in ascending node order and accesses in generation
/// order; `factor_one_materialization_is_the_identity` pins this). Callers
/// therefore skip materialization entirely at factor 1 and share the
/// logical plan `Rc` as the physical plan, only advancing the read cursor
/// by the number of distinct files to mirror the slow path's cursor
/// consumption. Returns the first file routed to a down node — the same
/// file the slow path would report — so availability behavior is unchanged.
pub fn route_identity_factor_one(
    logical: &TxnTemplate,
    node_up: impl Fn(NodeId) -> bool,
    read_rr: &mut u64,
) -> Result<(), FileId> {
    for spec in &logical.cohorts {
        if !node_up(spec.node) {
            return Err(spec.accesses[0].page.file);
        }
    }
    *read_rr += distinct_files(logical) as u64;
    Ok(())
}

/// Number of distinct files a template touches. `generate_template` pushes
/// each file's accesses contiguously and no file spans cohorts, so counting
/// run transitions within each cohort suffices — no set, no allocation.
fn distinct_files(t: &TxnTemplate) -> usize {
    let mut n = 0;
    for c in &t.cohorts {
        let mut last = None;
        for a in &c.accesses {
            if last != Some(a.page.file) {
                n += 1;
                last = Some(a.page.file);
            }
        }
    }
    n
}

fn push_file_accesses(
    config: &Config,
    rng: &mut SimRng,
    file: FileId,
    pages: &mut Vec<usize>,
    out: &mut Vec<Access>,
) {
    let w = &config.workload;
    let n = rng.uniform_u64(w.min_pages_per_file, w.max_pages_per_file) as usize;
    rng.sample_distinct_into(config.database.pages_per_file as usize, n, pages);
    for p in pages.iter() {
        out.push(Access {
            page: PageId {
                file,
                page: *p as u64,
            },
            write: rng.bernoulli(w.write_prob),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_config::Algorithm;

    fn setup(degree: usize, nodes: usize) -> (Config, Placement, SimRng) {
        let c = Config::paper(Algorithm::TwoPhaseLocking, nodes, degree, 8.0);
        let p = c.placement().unwrap();
        (c, p, SimRng::from_seed(42))
    }

    #[test]
    fn eight_way_template_has_eight_single_file_cohorts() {
        let (c, p, mut rng) = setup(8, 8);
        let t = generate_template(&c, &p, &mut rng, 0);
        assert_eq!(t.relation, 0);
        assert_eq!(t.cohorts.len(), 8);
        for cohort in &t.cohorts {
            let n = cohort.accesses.len();
            assert!((4..=12).contains(&n), "cohort accessed {n} pages");
            // All accesses belong to one file stored at the cohort's node.
            let file = cohort.accesses[0].page.file;
            assert!(cohort.accesses.iter().all(|a| a.page.file == file));
            assert_eq!(p.node_of(file), cohort.node);
        }
    }

    #[test]
    fn one_way_template_is_a_single_cohort_over_eight_files() {
        let (c, p, mut rng) = setup(1, 8);
        let t = generate_template(&c, &p, &mut rng, 17); // group 1
        assert_eq!(t.relation, 1);
        assert_eq!(t.cohorts.len(), 1);
        let files: std::collections::HashSet<_> =
            t.cohorts[0].accesses.iter().map(|a| a.page.file).collect();
        assert_eq!(files.len(), 8);
        let total = t.total_accesses();
        assert!((32..=96).contains(&total));
    }

    #[test]
    fn pages_within_a_file_are_distinct() {
        let (c, p, mut rng) = setup(8, 8);
        for term in 0..64 {
            let t = generate_template(&c, &p, &mut rng, term);
            for cohort in &t.cohorts {
                let mut pages: Vec<u64> = cohort.accesses.iter().map(|a| a.page.page).collect();
                let n = pages.len();
                pages.sort_unstable();
                pages.dedup();
                assert_eq!(pages.len(), n, "duplicate page access");
                assert!(pages.iter().all(|p| *p < c.database.pages_per_file));
            }
        }
    }

    #[test]
    fn write_fraction_tracks_write_prob() {
        let (c, p, mut rng) = setup(8, 8);
        let mut total = 0usize;
        let mut writes = 0usize;
        for term in 0..128 {
            for _ in 0..10 {
                let t = generate_template(&c, &p, &mut rng, term);
                total += t.total_accesses();
                writes += t.total_writes();
            }
        }
        let frac = writes as f64 / total as f64;
        assert!(
            (frac - c.workload.write_prob).abs() < 0.02,
            "write fraction {frac}"
        );
    }

    #[test]
    fn terminal_group_determines_relation() {
        let (c, p, mut rng) = setup(8, 8);
        for term in 0..128 {
            let t = generate_template(&c, &p, &mut rng, term);
            assert_eq!(t.relation, term / 16);
        }
    }

    #[test]
    fn mean_accesses_near_sixty_four() {
        let (c, p, mut rng) = setup(8, 8);
        let n = 400;
        let total: usize = (0..n)
            .map(|i| generate_template(&c, &p, &mut rng, i % 128).total_accesses())
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 64.0).abs() < 2.0, "mean accesses {mean}");
    }

    #[test]
    fn generate_template_into_matches_and_reuses_buffers() {
        let (c, p, mut rng_a) = setup(8, 8);
        let mut rng_b = SimRng::from_seed(42);
        let groups = p.cohort_groups(0);
        let mut out = TxnTemplate {
            relation: 0,
            cohorts: Vec::new(),
        };
        let mut scratch = Vec::new();
        for term in [0usize, 3, 7, 11] {
            let reference = generate_template(&c, &p, &mut rng_a, term % 16);
            generate_template_into(&c, &groups, 0, &mut rng_b, &mut scratch, &mut out);
            assert_eq!(out, reference, "terminal {term}");
        }
    }

    #[test]
    fn materialize_into_matches_and_reuses_buffers() {
        let (mut c, _, mut rng) = setup(8, 8);
        c.replication = ddbm_config::ReplicationParams::rowa(3);
        let p = c.placement().unwrap();
        let mut up = vec![true; 9];
        up[4] = false;
        let (mut out, mut scratch) = (TxnTemplate::default(), RouteScratch::default());
        let (mut rr_fresh, mut rr_into) = (0u64, 0u64);
        for term in 0..64 {
            let logical = generate_template(&c, &p, &mut rng, term % 128);
            let fresh = materialize_replicated(&c, &p, &logical, &up, &mut rr_fresh, false);
            let into = materialize_replicated_into(
                &c,
                &p,
                &logical,
                &up,
                &mut rr_into,
                false,
                &mut scratch,
                &mut out,
            );
            assert_eq!(fresh, into.map(|()| out.clone()), "terminal {term}");
            assert_eq!(rr_fresh, rr_into);
        }
        // Routing the same plan again rewrites the cohorts in place.
        let logical = generate_template(&c, &p, &mut rng, 0);
        let route = |out: &mut TxnTemplate, scratch: &mut RouteScratch| {
            materialize_replicated_into(&c, &p, &logical, &up, &mut 0, false, scratch, out)
        };
        route(&mut out, &mut scratch).unwrap();
        let buffers: Vec<*const Access> = out.cohorts.iter().map(|c| c.accesses.as_ptr()).collect();
        route(&mut out, &mut scratch).unwrap();
        let again: Vec<*const Access> = out.cohorts.iter().map(|c| c.accesses.as_ptr()).collect();
        assert_eq!(buffers, again);
    }

    #[test]
    fn factor_one_materialization_is_the_identity() {
        let (mut c, _, mut rng) = setup(8, 8);
        c.replication = ddbm_config::ReplicationParams::rowa(1);
        let p = c.placement().unwrap();
        let up = vec![true; 9];
        for term in 0..32 {
            let logical = generate_template(&c, &p, &mut rng, term % 128);
            let (mut rr_slow, mut rr_fast) = (5u64, 5u64);
            let phys = materialize_replicated(&c, &p, &logical, &up, &mut rr_slow, false).unwrap();
            assert_eq!(phys, logical, "factor-1 routing must be the identity");
            route_identity_factor_one(&logical, |n| up[n.0], &mut rr_fast).unwrap();
            assert_eq!(
                rr_slow, rr_fast,
                "interned route must consume the read cursor like the slow path"
            );
        }
    }

    #[test]
    fn factor_one_down_node_errs_like_the_slow_path() {
        let (mut c, _, mut rng) = setup(8, 8);
        c.replication = ddbm_config::ReplicationParams::rowa(1);
        let p = c.placement().unwrap();
        let mut up = vec![true; 9];
        up[3] = false;
        let mut found = false;
        for term in 0..32 {
            let logical = generate_template(&c, &p, &mut rng, term % 128);
            let (mut rr_slow, mut rr_fast) = (0u64, 0u64);
            let slow = materialize_replicated(&c, &p, &logical, &up, &mut rr_slow, false);
            let fast = route_identity_factor_one(&logical, |n| up[n.0], &mut rr_fast);
            assert_eq!(slow.err(), fast.err(), "terminal {term}");
            found |= fast.is_err();
        }
        assert!(found, "no template touched the down node");
    }

    #[test]
    fn four_node_machine_four_cohorts() {
        let (c, p, mut rng) = setup(4, 4);
        let t = generate_template(&c, &p, &mut rng, 5);
        assert_eq!(t.cohorts.len(), 4);
        for cohort in &t.cohorts {
            let files: std::collections::HashSet<_> =
                cohort.accesses.iter().map(|a| a.page.file).collect();
            assert_eq!(files.len(), 2, "two partitions per node at degree 4");
        }
    }
}

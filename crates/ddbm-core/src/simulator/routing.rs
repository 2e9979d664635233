//! Replica routing (extension): a transaction's logical plan names files;
//! its physical plan names the live replicas its cohorts run at. Also the
//! plan freelist, since every routed plan is written into a recycled one.

use super::Simulator;
use crate::workload::{materialize_replicated, route_identity_factor_one, TxnTemplate};
use ddbm_config::FileId;
use std::rc::Rc;

impl Simulator {
    /// Route a logical plan onto the currently live replicas, or name a
    /// file with no live read/write replica set. At factor 1 routing is the
    /// identity (see [`route_identity_factor_one`]), so the logical plan
    /// *is* the physical plan: both share one `Rc` instead of an identical
    /// re-materialized copy. Either way the replica read cursor `read_rr`
    /// advances exactly as the routing function consumes it.
    pub(super) fn route(&mut self, logical: &Rc<TxnTemplate>) -> Result<Rc<TxnTemplate>, FileId> {
        if self.placement.factor() == 1 {
            route_identity_factor_one(logical, |n| self.nodes[n.0].up, &mut self.read_rr)?;
            return Ok(Rc::clone(logical));
        }
        let mut up = std::mem::take(&mut self.route_up);
        up.clear();
        up.extend(self.nodes.iter().map(|n| n.up));
        let routed = materialize_replicated(
            &self.config,
            &self.placement,
            logical,
            &up,
            &mut self.read_rr,
            self.hooks.skip_replica_write,
        );
        self.route_up = up;
        routed.map(|t| self.pooled_template(t))
    }

    /// Move `t` into a pooled `Rc`.
    pub(super) fn pooled_template(&mut self, t: TxnTemplate) -> Rc<TxnTemplate> {
        let mut tpl = self.tpl_pool.take();
        *Rc::get_mut(&mut tpl).expect("pooled template is uniquely owned") = t;
        tpl
    }

    /// Return a plan handle to the freelist if this was the last one.
    pub(super) fn put_template(&mut self, tpl: Rc<TxnTemplate>) {
        if Rc::strong_count(&tpl) == 1 {
            self.tpl_pool.put(tpl);
        }
    }
}

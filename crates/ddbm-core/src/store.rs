//! Slab-backed storage for live transactions.
//!
//! The simulator looks a transaction up on almost every event, and
//! transaction ids are issued densely from 1, so a flat `id → slot` table
//! plus a slab of reusable slots turns every lookup into two array indexes —
//! no hashing, no probing, and slot reuse keeps the big `TxnRuntime` values
//! packed in a short, cache-resident `Vec` whose length is bounded by the
//! number of *concurrently live* transactions (≤ the terminal count), not by
//! the number ever created. Only the id table grows with the run, at four
//! bytes per transaction ever submitted.

use crate::txn::TxnRuntime;
use ddbm_config::TxnId;

/// See module docs.
#[derive(Default)]
pub struct TxnStore {
    /// `id.0 → slot + 1`; 0 means absent. Indexed directly by the dense ids.
    index: Vec<u32>,
    /// The slab. `None` entries are free and listed in `free`.
    slots: Vec<Option<TxnRuntime>>,
    /// Free slot indexes, reused LIFO so hot slots stay hot.
    free: Vec<u32>,
    live: usize,
}

impl TxnStore {
    /// An empty store.
    pub fn new() -> TxnStore {
        TxnStore::default()
    }

    /// Insert `txn`, keyed by `txn.id`. Ids must not be reused while live.
    pub fn insert(&mut self, txn: TxnRuntime) {
        let id = txn.id.0 as usize;
        if id >= self.index.len() {
            // Grow the id table in large strides (64 KiB of ids at a time)
            // rather than per insert, so steady-state transaction turnover
            // allocates nothing — the zero-allocation pin in
            // `tests/alloc_steady_state.rs` rides on this.
            self.index.resize((id + 1).next_multiple_of(1 << 14), 0);
        }
        debug_assert_eq!(self.index[id], 0, "duplicate insert of {:?}", txn.id);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(txn);
                s
            }
            None => {
                self.slots.push(Some(txn));
                (self.slots.len() - 1) as u32
            }
        };
        self.index[id] = slot + 1;
        self.live += 1;
    }

    #[inline]
    fn slot_of(&self, id: TxnId) -> Option<usize> {
        match self.index.get(id.0 as usize) {
            Some(&s) if s != 0 => Some((s - 1) as usize),
            _ => None,
        }
    }

    /// The live transaction with this id, if any.
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&TxnRuntime> {
        let slot = self.slot_of(id)?;
        self.slots[slot].as_ref()
    }

    /// Mutable access to the live transaction with this id, if any.
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut TxnRuntime> {
        let slot = self.slot_of(id)?;
        self.slots[slot].as_mut()
    }

    /// True when `id` is live.
    #[inline]
    pub fn contains(&self, id: TxnId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Remove and return the transaction, freeing its slot for reuse.
    pub fn remove(&mut self, id: TxnId) -> Option<TxnRuntime> {
        let slot = self.slot_of(id)?;
        self.index[id.0 as usize] = 0;
        self.free.push(slot as u32);
        self.live -= 1;
        self.slots[slot].take()
    }

    /// Number of live transactions.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no transaction is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Mutable iteration over the live transactions (slab order). Slab
    /// order depends on slot reuse, which is itself deterministic, so
    /// sweeps over this iterator stay reproducible.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut TxnRuntime> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::TxnTemplate;
    use denet::SimTime;

    fn txn(id: u64) -> TxnRuntime {
        TxnRuntime::new(
            TxnId(id),
            0,
            std::rc::Rc::new(TxnTemplate {
                relation: 0,
                cohorts: Vec::new(),
            }),
            SimTime(id),
        )
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = TxnStore::new();
        assert!(s.is_empty());
        s.insert(txn(1));
        s.insert(txn(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(TxnId(1)).unwrap().id, TxnId(1));
        assert_eq!(s.get(TxnId(2)).unwrap().id, TxnId(2));
        assert!(s.get(TxnId(3)).is_none());
        assert!(s.contains(TxnId(1)));
        let out = s.remove(TxnId(1)).unwrap();
        assert_eq!(out.id, TxnId(1));
        assert!(!s.contains(TxnId(1)));
        assert!(s.remove(TxnId(1)).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn slots_are_reused_and_slab_stays_small() {
        let mut s = TxnStore::new();
        // Churn 1000 transactions with at most 3 live: the slab must not
        // grow beyond the high-water mark of concurrently live entries.
        for id in 1..=1000u64 {
            s.insert(txn(id));
            if id >= 3 {
                s.remove(TxnId(id - 2)).unwrap();
            }
        }
        assert_eq!(s.len(), 2);
        assert!(
            s.slots.len() <= 3,
            "slab grew to {} slots for 2 live entries",
            s.slots.len()
        );
        // And the survivors are still correct.
        assert_eq!(s.get(TxnId(999)).unwrap().origin, SimTime(999));
        assert_eq!(s.get(TxnId(1000)).unwrap().origin, SimTime(1000));
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut s = TxnStore::new();
        s.insert(txn(5));
        s.get_mut(TxnId(5)).unwrap().run = 7;
        assert_eq!(s.get(TxnId(5)).unwrap().run, 7);
        assert!(s.get_mut(TxnId(4)).is_none());
    }

    #[test]
    fn values_mut_yields_exactly_the_live_set() {
        let mut s = TxnStore::new();
        for id in 1..=6u64 {
            s.insert(txn(id));
        }
        s.remove(TxnId(2)).unwrap();
        s.remove(TxnId(5)).unwrap();
        let mut ids: Vec<u64> = s.values_mut().map(|t| t.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 3, 4, 6]);
    }
}

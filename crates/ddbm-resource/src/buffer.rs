//! A per-node LRU buffer pool (extension).
//!
//! The paper's resource manager deliberately does not model buffering
//! (footnote 6: "modeling buffering in detail would certainly lead to
//! different absolute results, \[but\] we do not expect that doing so would
//! significantly affect the general conclusions … we plan to verify this
//! conjecture in the future"). This type lets the simulator run that
//! verification: with a capacity of zero it is inert and the model is the
//! paper's; with a positive capacity, read accesses that hit the pool skip
//! their disk I/O.
//!
//! The implementation is a classic O(1) LRU: a hash map into an intrusive
//! doubly-linked list kept in a slab, no allocation after construction.

use denet::FxHashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Entry<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU set. See module docs.
#[derive(Debug)]
pub struct LruPool<K> {
    map: FxHashMap<K, usize>,
    slab: Vec<Entry<K>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone> LruPool<K> {
    /// A pool holding at most `capacity` keys. Zero capacity is valid and
    /// means "buffering disabled": every lookup misses, inserts are no-ops.
    pub fn new(capacity: usize) -> LruPool<K> {
        LruPool {
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    #[inline]
    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look `key` up, promoting it to most-recently-used on a hit.
    pub fn probe(&mut self, key: &K) -> bool {
        match self.map.get(key) {
            Some(&idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Peek without promoting or counting (tests/diagnostics).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert `key` as most-recently-used, evicting the LRU entry if full.
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let old = self.slab[lru].key.clone();
            self.map.remove(&old);
            self.free.push(lru);
            evicted = Some(old);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Entry {
                    key: key.clone(),
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(Entry {
                    key: key.clone(),
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Hit fraction since construction (or the last `reset_stats`).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// `reset_stats`.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_is_inert() {
        let mut p: LruPool<u64> = LruPool::new(0);
        assert!(!p.probe(&1));
        assert_eq!(p.insert(1), None);
        assert!(!p.probe(&1));
        assert_eq!(p.len(), 0);
        assert_eq!(p.hit_ratio(), 0.0);
    }

    #[test]
    fn hits_after_insert() {
        let mut p = LruPool::new(2);
        p.insert(1u64);
        assert!(p.probe(&1));
        assert!(!p.probe(&2));
        assert!((p.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruPool::new(3);
        p.insert(1u64);
        p.insert(2);
        p.insert(3);
        assert!(p.probe(&1)); // 1 becomes MRU; order now 1,3,2
        assert_eq!(p.insert(4), Some(2), "2 is LRU");
        assert!(p.contains(&1) && p.contains(&3) && p.contains(&4));
        assert!(!p.contains(&2));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn reinsert_promotes_without_eviction() {
        let mut p = LruPool::new(2);
        p.insert(1u64);
        p.insert(2);
        assert_eq!(p.insert(1), None); // promote, nothing evicted
        assert_eq!(p.insert(3), Some(2), "2 was LRU after 1's promotion");
    }

    #[test]
    fn single_slot_pool() {
        let mut p = LruPool::new(1);
        assert_eq!(p.insert(1u64), None);
        assert_eq!(p.insert(2), Some(1));
        assert!(p.probe(&2));
        assert!(!p.probe(&1));
    }

    #[test]
    fn sequential_scan_larger_than_pool_always_misses() {
        let mut p = LruPool::new(10);
        for round in 0..3 {
            for k in 0..20u64 {
                let hit = p.probe(&k);
                assert!(
                    !hit,
                    "round {round}, key {k}: LRU must thrash on a cyclic scan"
                );
                p.insert(k);
            }
        }
    }

    #[test]
    fn stats_reset() {
        let mut p = LruPool::new(2);
        p.insert(1u64);
        p.probe(&1);
        p.probe(&9);
        p.reset_stats();
        assert_eq!(p.hits() + p.misses(), 0);
    }

    #[test]
    fn slab_reuse_after_heavy_churn() {
        let mut p = LruPool::new(4);
        for k in 0..1_000u64 {
            p.insert(k);
        }
        assert_eq!(p.len(), 4);
        // Slab must not have grown past capacity (free-list reuse).
        assert!(p.slab.len() <= 4, "slab leaked: {}", p.slab.len());
        for k in 996..1_000u64 {
            assert!(p.contains(&k));
        }
    }
}

//! Dense ids for the pages, and the copies of pages, that a checker sees.

use ddbm_config::{NodeId, PageId, PageTable};

/// A dense logical page id.
pub(crate) type PageIx = u32;

/// A dense id slot: `UNSEEN` until the page is first seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(PageIx);

const UNSEEN: Slot = Slot(PageIx::MAX);

impl Default for Slot {
    fn default() -> Self {
        UNSEEN
    }
}

/// Dense page ids, `0, 1, 2, …` in order of first sight.
#[derive(Debug, Default)]
pub(crate) struct DensePages {
    ids: PageTable<Slot>,
    next: PageIx,
}

impl DensePages {
    /// The dense id of `page`, assigned on first sight.
    pub(crate) fn ix(&mut self, page: PageId) -> PageIx {
        let id = self.ids.entry(page);
        if *id == UNSEEN {
            assert!(self.next != UNSEEN.0, "fewer than 2^32 - 1 pages");
            *id = Slot(self.next);
            self.next += 1;
        }
        id.0
    }
}

/// The hash key of one copy (replica) of a page: the node in the high half,
/// the page in the low half. The page goes low because the Fx hash of a
/// word is one multiply, whose low bits (the bucket index) depend only on
/// the key's low bits, and pages are what vary.
pub(crate) fn copy_key(node: NodeId, page: PageIx) -> u64 {
    let node = u32::try_from(node.0).expect("node ids fit in 32 bits");
    (u64::from(node) << 32) | u64::from(page)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddbm_config::FileId;

    fn pid(file: usize, page: u64) -> PageId {
        PageId {
            file: FileId(file),
            page,
        }
    }

    #[test]
    fn ids_are_dense_in_first_sight_order_across_widenings() {
        let mut d = DensePages::default();
        let pages = [
            pid(0, 3),
            pid(2, 1),
            pid(0, 9),
            pid(1, 40),
            pid(2, 1),
            pid(0, 3),
        ];
        let ids: Vec<PageIx> = pages.iter().map(|&p| d.ix(p)).collect();
        assert_eq!(ids, [0, 1, 2, 3, 1, 0]);
        // Every id survives the re-layouts.
        assert_eq!(d.ix(pid(2, 1)), 1);
        assert_eq!(d.ix(pid(0, 9)), 2);
        assert_eq!(d.ix(pid(1, 40)), 3);
        assert_eq!(d.ix(pid(5, 0)), 4);
    }
}

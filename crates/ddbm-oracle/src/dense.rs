//! Dense ids for the pages, and the copies of pages, that a checker sees.

use ddbm_config::{NodeId, PageId, PageMap};

/// A dense logical page id.
pub(crate) type PageIx = u32;

/// Dense page ids, `0, 1, 2, …` in order of first sight.
#[derive(Debug, Default)]
pub(crate) struct DensePages {
    ids: PageMap<PageIx>,
    next: PageIx,
}

impl DensePages {
    /// The dense id of `page`, assigned on first sight.
    pub(crate) fn ix(&mut self, page: PageId) -> PageIx {
        let next = &mut self.next;
        *self.ids.get_or_insert_with(page, || {
            *next += 1;
            *next - 1
        })
    }
}

/// The hash key of one copy (replica) of a page: the node in the high half,
/// the page in the low half, which [`copy_page`] reads back. The page goes
/// low because the Fx hash of a word is one multiply, whose low bits (the
/// bucket index) depend only on the key's low bits, and pages are what
/// vary.
pub(crate) fn copy_key(node: NodeId, page: PageIx) -> u64 {
    let node = u32::try_from(node.0).expect("node ids fit in 32 bits");
    (u64::from(node) << 32) | u64::from(page)
}

/// The page of a [`copy_key`].
pub(crate) fn copy_page(key: u64) -> PageIx {
    key as PageIx
}

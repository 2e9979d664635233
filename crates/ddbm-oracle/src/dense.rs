//! Per-page tables, and dense ids for the pages, and the copies of pages,
//! that a checker sees.

use ddbm_config::{NodeId, PageId};

/// A dense logical page id.
pub(crate) type PageIx = u32;

/// No row yet for a file.
const NO_ROW: u32 = u32::MAX;

/// Per-page values in one flat table: a row of `width` slots per file, the
/// rows in order of their files' first sight, every slot starting as
/// `T::default()`.
///
/// Every file of a database has the same number of pages, so once the
/// first rows have seen their highest page, each new file's row fits the
/// width: a new file costs no allocation of its own, only a share of the
/// table's growth, which adds four rows or an eighth, whichever is more. A
/// node's table holds rows only for the files the node serves.
#[derive(Debug)]
pub(crate) struct PageTable<T> {
    /// Row of each file, or `NO_ROW`.
    rows: Vec<u32>,
    slots: Vec<T>,
    width: usize,
}

impl<T> Default for PageTable<T> {
    fn default() -> Self {
        PageTable {
            rows: Vec::new(),
            slots: Vec::new(),
            width: 0,
        }
    }
}

impl<T: Default> PageTable<T> {
    /// The slot of `page`, if its row exists.
    fn at(&self, page: PageId) -> Option<usize> {
        let row = *self.rows.get(page.file.0)?;
        let slot = usize::try_from(page.page).ok()?;
        (row != NO_ROW && slot < self.width).then(|| row as usize * self.width + slot)
    }

    /// The value of `page`, or `None` if no page of its file was touched
    /// (a touched file's untouched pages read `T::default()`).
    #[cfg(test)]
    pub(crate) fn get(&self, page: PageId) -> Option<&T> {
        self.at(page).map(|at| &self.slots[at])
    }

    /// The value of `page`, mutably, as [`get`](Self::get).
    pub(crate) fn get_mut(&mut self, page: PageId) -> Option<&mut T> {
        self.at(page).map(|at| &mut self.slots[at])
    }

    /// The value of `page`, making room for it first.
    pub(crate) fn entry(&mut self, page: PageId) -> &mut T {
        let slot = usize::try_from(page.page).expect("page numbers fit in usize");
        if slot >= self.width {
            self.widen(slot + 1);
        }
        let file = page.file.0;
        if file >= self.rows.len() {
            self.rows.resize(file + 1, NO_ROW);
        }
        if self.rows[file] == NO_ROW {
            let rows = self.slots.len() / self.width;
            self.rows[file] = u32::try_from(rows).expect("fewer than 2^32 files");
            if self.slots.capacity() - self.slots.len() < self.width {
                self.slots.reserve_exact((rows / 8).max(4) * self.width);
            }
            self.slots
                .resize_with(self.slots.len() + self.width, T::default);
        }
        let at = self.rows[file] as usize * self.width + slot;
        &mut self.slots[at]
    }

    /// Re-lay the table with rows of at least `min` slots, and an eighth
    /// more than before, so a run of ever higher pages regrows it only a
    /// logarithmic number of times.
    fn widen(&mut self, min: usize) {
        let width = min.max(self.width + self.width / 8);
        let old = std::mem::take(&mut self.slots);
        let rows = old.len().checked_div(self.width).unwrap_or(0);
        self.slots.reserve_exact(rows * width);
        let mut old = old.into_iter();
        for _ in 0..rows {
            self.slots.extend(old.by_ref().take(self.width));
            self.slots
                .extend(std::iter::repeat_with(T::default).take(width - self.width));
        }
        self.width = width;
    }
}

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

    #[test]
    fn equal_files_share_one_width() {
        let mut d = DensePages::default();
        for page in (0..30).rev() {
            d.ix(pid(0, page));
        }
        let width = d.ids.width;
        for file in (1..64).rev() {
            for page in 0..30 {
                d.ix(pid(file, page));
            }
        }
        assert_eq!((d.ids.width, d.next), (width, 64 * 30));
        assert_eq!(d.ids.slots.len(), 64 * width);
        assert!(d.ids.slots.capacity() <= 64 * width + 64 * width / 8);
    }

    #[test]
    fn page_table_rows_follow_the_files_touched() {
        let mut t: PageTable<u64> = PageTable::default();
        assert_eq!(t.get(pid(3, 0)), None);
        *t.entry(pid(3, 4)) = 34;
        *t.entry(pid(9, 1)) = 91;
        // Only files 3 and 9 have rows; a touched file's other pages read
        // the default, pages past the width nothing.
        assert_eq!(t.slots.len(), 2 * t.width);
        assert_eq!(t.get(pid(3, 1)), Some(&0));
        assert_eq!(t.get(pid(5, 1)), None);
        assert_eq!(t.get(pid(3, 99)), None);
        *t.entry(pid(9, 50)) += 5;
        *t.get_mut(pid(3, 4)).unwrap() += 1;
        assert_eq!(
            [pid(3, 4), pid(9, 1), pid(9, 50)].map(|p| t.get(p).copied()),
            [Some(35), Some(91), Some(5)]
        );
    }
}

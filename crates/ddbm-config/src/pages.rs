//! Dense per-page state: [`PageTable`].
//!
//! The concurrency control managers and the oracle's reference models of
//! them keep one slot per page they touch. Keeping that slot small — a few
//! scalars and the heads of its lists, the lists themselves in a shared
//! `denet::Lists` arena — is what makes their memory follow the pages in
//! use rather than every page ever touched, and the table around the slots
//! holds exactly the pages it maps: no spare rows, no spare width.

use crate::ids::{FileId, PageId};

/// No row yet for a file.
const NO_ROW: u32 = u32::MAX;

/// Widenings to exactly the page touched; later ones at least double the
/// width (see [`PageTable`]).
const EXACT_WIDENINGS: u32 = 16;

/// Per-page values in one flat table: a row of `width` slots per file, the
/// rows in order of their files' first touch, every slot starting as
/// `T::default()`.
///
/// The table holds exactly the slots it maps: one row per touched file,
/// each as wide as the highest page touched in any file, plus one, so its
/// capacity is always rows × width. Every file of a database has the same
/// number of pages, so once the first rows have seen their highest page,
/// each new file's row fits the width. A new row extends the buffer by one
/// row; a wider page re-lays the rows inside the buffer, from the last row
/// back. A node's table holds rows only for the files the node serves.
///
/// Pages drawn at random reach a file's highest within a few widenings:
/// each new highest page widens once, and `n` random draws set about
/// `ln n` new highs (six for a 300-page file). A run of ever higher pages
/// would widen at every page, a pass over the table each time, so after
/// sixteen widenings the table doubles its width at least: such a run then
/// re-lays a bounded multiple of the table, at the cost of up to twice its
/// width.
#[derive(Debug, Clone)]
pub struct PageTable<T> {
    /// Row of each file, or `NO_ROW`.
    rows: Vec<u32>,
    slots: Vec<T>,
    width: usize,
    /// Widenings so far.
    widenings: u32,
}

impl<T> Default for PageTable<T> {
    fn default() -> Self {
        PageTable {
            rows: Vec::new(),
            slots: Vec::new(),
            width: 0,
            widenings: 0,
        }
    }
}

impl<T: Default + Copy> PageTable<T> {
    /// The slot of `page`, if its row exists.
    fn at(&self, page: PageId) -> Option<usize> {
        let row = *self.rows.get(page.file.0)?;
        let slot = usize::try_from(page.page).ok()?;
        (row != NO_ROW && slot < self.width).then(|| row as usize * self.width + slot)
    }

    /// The value of `page`, or `None` if no page of its file was touched
    /// (a touched file's untouched pages read `T::default()`).
    pub fn get(&self, page: PageId) -> Option<&T> {
        self.at(page).map(|at| &self.slots[at])
    }

    /// The value of `page`, mutably, as [`get`](Self::get).
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut T> {
        self.at(page).map(|at| &mut self.slots[at])
    }

    /// The value of `page`, making room for it first.
    pub fn entry(&mut self, page: PageId) -> &mut T {
        let slot = usize::try_from(page.page).expect("page numbers fit in usize");
        if slot >= self.width {
            self.widen(slot + 1);
        }
        let file = page.file.0;
        if file >= self.rows.len() {
            self.rows.resize(file + 1, NO_ROW);
        }
        if self.rows[file] == NO_ROW {
            self.rows[file] = u32::try_from(self.rows()).expect("fewer than 2^32 files");
            self.slots.reserve_exact(self.width);
            self.slots
                .resize_with(self.slots.len() + self.width, T::default);
        }
        let at = self.rows[file] as usize * self.width + slot;
        &mut self.slots[at]
    }

    /// Every slot of every touched file, in [`PageId`] order, untouched
    /// pages of those files included (they read `T::default()`).
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &T)> + '_ {
        let width = self.width;
        self.rows
            .iter()
            .enumerate()
            .filter(|&(_, &row)| row != NO_ROW)
            .flat_map(move |(file, &row)| {
                let start = row as usize * width;
                self.slots[start..start + width]
                    .iter()
                    .enumerate()
                    .map(move |(page, value)| {
                        let page = PageId {
                            file: FileId(file),
                            page: page as u64,
                        };
                        (page, value)
                    })
            })
    }

    /// Rows laid out: the files touched.
    pub fn rows(&self) -> usize {
        self.slots.len().checked_div(self.width).unwrap_or(0)
    }

    /// Slots per row: the highest page touched, plus one (see the type's
    /// docs for a run of ever higher pages).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Slots the buffer has room for; [`rows`](Self::rows) ×
    /// [`width`](Self::width).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Widen every row to `min` slots, or to twice the width after
    /// [`EXACT_WIDENINGS`] widenings (see the type's docs), moving the rows
    /// apart inside the grown buffer.
    fn widen(&mut self, min: usize) {
        let (old, rows) = (self.width, self.rows());
        let width = if self.widenings < EXACT_WIDENINGS {
            min
        } else {
            min.max(2 * old)
        };
        self.widenings += 1;
        self.slots.reserve_exact(rows * width - self.slots.len());
        self.slots.resize(rows * width, T::default());
        // From the last row back, each row's new place lies past every
        // row not yet moved.
        for row in (1..rows).rev() {
            self.slots
                .copy_within(row * old..(row + 1) * old, row * width);
            self.slots[row * width - (width - old)..row * width].fill(T::default());
        }
        self.width = width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(file: usize, page: u64) -> PageId {
        PageId {
            file: FileId(file),
            page,
        }
    }

    #[test]
    fn rows_follow_the_files_touched() {
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
        // Iteration: file 3's row, then file 9's, each in page order,
        // although file 9's row was laid out second.
        let set: Vec<(PageId, u64)> = t
            .iter()
            .filter(|&(_, &v)| v != 0)
            .map(|(p, &v)| (p, v))
            .collect();
        assert_eq!(set, [(pid(3, 4), 35), (pid(9, 1), 91), (pid(9, 50), 5)]);
        assert_eq!(t.iter().count(), 2 * t.width);
    }

    #[test]
    fn equal_files_share_one_width() {
        let mut t: PageTable<u32> = PageTable::default();
        for page in (0..30).rev() {
            *t.entry(pid(0, page)) = 1;
        }
        let width = t.width;
        for file in (1..64).rev() {
            for page in 0..30 {
                *t.entry(pid(file, page)) = 1;
            }
        }
        assert_eq!(t.width, width);
        assert_eq!(t.capacity(), 64 * width);
    }

    #[test]
    fn random_pages_widen_exactly_an_ascending_run_by_doubling() {
        // Pages in shuffled order: each new highest page widens to itself.
        let mut t: PageTable<u32> = PageTable::default();
        for file in 0..8 {
            for page in [40, 7, 120, 3, 299, 150, 298] {
                *t.entry(pid(file, page)) += 1;
            }
        }
        assert_eq!((t.rows(), t.width()), (8, 300));
        assert_eq!(t.capacity(), 8 * 300);
        // Ever higher pages: exact at first, then doubling, so the slots
        // re-laid stay a small multiple of the table.
        let mut t: PageTable<u32> = PageTable::default();
        for page in 0..20_000 {
            *t.entry(pid(page as usize % 8, page)) = 1;
        }
        assert_eq!(t.rows(), 8);
        assert!(t.width() >= 20_000 && t.width() <= 2 * 20_000);
        assert_eq!(t.capacity(), t.rows() * t.width());
        assert!((0..20_000).all(|p| t.get(pid(p as usize % 8, p)) == Some(&1)));
    }
}

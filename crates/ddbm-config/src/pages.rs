//! Dense per-page state: [`PageTable`].
//!
//! The concurrency control managers and the oracle's reference models of
//! them keep one slot per page they touch. Keeping that slot small — a few
//! scalars and the heads of its lists, the lists themselves in a shared
//! `denet::Lists` arena — is what makes their memory follow the pages in
//! use rather than every page ever touched.

use crate::ids::{FileId, PageId};

/// No row yet for a file.
const NO_ROW: u32 = u32::MAX;

/// Per-page values in one flat table: a row of `width` slots per file, the
/// rows in order of their files' first touch, every slot starting as
/// `T::default()`.
///
/// Every file of a database has the same number of pages, so once the
/// first rows have seen their highest page, each new file's row fits the
/// width: a new file costs no allocation of its own, only a share of the
/// table's growth, which adds four rows or an eighth, whichever is more. A
/// node's table holds rows only for the files the node serves.
#[derive(Debug, Clone)]
pub struct PageTable<T> {
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

    /// Re-lay the table with rows of at least `min` slots, and an eighth
    /// more than before, so a run of ever higher pages regrows it only a
    /// logarithmic number of times.
    fn widen(&mut self, min: usize) {
        let (old, width) = (self.width, min.max(self.width + self.width / 8));
        let rows = self.slots.len().checked_div(old).unwrap_or(0);
        let mut slots = Vec::with_capacity(rows * width);
        for row in 0..rows {
            slots.extend_from_slice(&self.slots[row * old..(row + 1) * old]);
            slots.resize((row + 1) * width, T::default());
        }
        self.slots = slots;
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
        assert_eq!(t.slots.len(), 64 * width);
        assert!(t.slots.capacity() <= 64 * width + 64 * width / 8);
    }
}

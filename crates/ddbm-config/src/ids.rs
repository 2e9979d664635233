//! Shared identifier types used throughout the simulator.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A node in the machine. Node 0 is always the single host node; nodes
/// `1..=num_proc_nodes` are processing nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The host node, where terminals attach and coordinators run.
    pub const HOST: NodeId = NodeId(0);

    #[inline]
    /// `is_host`.
    pub fn is_host(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_host() {
            write!(f, "host")
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

/// A file (one horizontal partition of a relation), identified by its index
/// in row-major (relation, partition) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub usize);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F{}", self.0)
    }
}

/// A page within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId {
    /// File.
    pub file: FileId,
    /// Page.
    pub page: u64,
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.page)
    }
}

/// Per-page state, stored densely as `files[file][page]`.
///
/// Pages are numbered from 0 within each file, so a row per file indexed by
/// page number needs no hashing. A file's row grows when a page past its
/// end is first touched, to that page and by at least an eighth (so under
/// an eighth of a row is spare), and an entry stays in place until
/// [`remove`](PageMap::remove)d. Iteration runs in [`PageId`] order.
#[derive(Debug, Clone)]
pub struct PageMap<T> {
    files: Vec<Vec<Option<T>>>,
}

impl<T> Default for PageMap<T> {
    fn default() -> Self {
        PageMap { files: Vec::new() }
    }
}

impl<T> PageMap<T> {
    /// An empty map.
    pub fn new() -> PageMap<T> {
        PageMap::default()
    }

    /// The entry for `page`, or `None` if it was never touched.
    pub fn get(&self, page: PageId) -> Option<&T> {
        self.files.get(page.file.0)?.get(slot(page))?.as_ref()
    }

    /// The entry for `page`, mutably, or `None` if it was never touched.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut T> {
        self.files
            .get_mut(page.file.0)?
            .get_mut(slot(page))?
            .as_mut()
    }

    /// The entry for `page`, created by `make` on first touch.
    pub fn get_or_insert_with(&mut self, page: PageId, make: impl FnOnce() -> T) -> &mut T {
        let file = page.file.0;
        if file >= self.files.len() {
            self.files.resize_with(file + 1, Vec::new);
        }
        let row = &mut self.files[file];
        let i = slot(page);
        if i >= row.len() {
            // Doubling would leave up to half of a row as never-used
            // capacity; growing only exactly to the page would copy the
            // row on every new highest page, quadratic when pages are first
            // touched in ascending order. An eighth at least keeps that
            // amortized O(1).
            if i >= row.capacity() {
                let want = (i + 1).max(row.capacity() + row.capacity() / 8);
                row.reserve_exact(want - row.len());
            }
            row.resize_with(i + 1, || None);
        }
        row[i].get_or_insert_with(make)
    }

    /// Take `page`'s entry out, leaving the page untouched again (its row
    /// keeps its length). `None` if the page has no entry.
    pub fn remove(&mut self, page: PageId) -> Option<T> {
        self.files.get_mut(page.file.0)?.get_mut(slot(page))?.take()
    }

    /// The entry for `page`, created as `T::default()` on first touch.
    pub fn get_or_default(&mut self, page: PageId) -> &mut T
    where
        T: Default,
    {
        self.get_or_insert_with(page, T::default)
    }

    /// Every entry, in [`PageId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &T)> + '_ {
        self.files.iter().enumerate().flat_map(|(file, row)| {
            row.iter().enumerate().filter_map(move |(page, entry)| {
                let page = PageId {
                    file: FileId(file),
                    page: page as u64,
                };
                entry.as_ref().map(|value| (page, value))
            })
        })
    }
}

fn slot(page: PageId) -> usize {
    usize::try_from(page.page).expect("page numbers fit in usize")
}

/// A transaction, identified by a monotone sequence number assigned at first
/// submission. Restarted runs of the same transaction keep the same `TxnId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A terminal attached to the host node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TerminalId(pub usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_node_identity() {
        assert!(NodeId::HOST.is_host());
        assert!(!NodeId(3).is_host());
        assert_eq!(format!("{}", NodeId::HOST), "host");
        assert_eq!(format!("{}", NodeId(2)), "S2");
    }

    #[test]
    fn display_forms() {
        let p = PageId {
            file: FileId(5),
            page: 17,
        };
        assert_eq!(format!("{p}"), "F5:17");
        assert_eq!(format!("{}", TxnId(9)), "T9");
    }

    fn pid(file: usize, page: u64) -> PageId {
        PageId {
            file: FileId(file),
            page,
        }
    }

    #[test]
    fn page_map_untouched_page_reads_none() {
        let mut m: PageMap<u32> = PageMap::new();
        assert_eq!(m.get(pid(0, 0)), None);
        *m.get_or_default(pid(2, 5)) = 7;
        // Same row, other file, and past the end of the row: all untouched.
        assert_eq!(m.get(pid(2, 4)), None);
        assert_eq!(m.get(pid(1, 5)), None);
        assert_eq!(m.get(pid(2, 6)), None);
        assert_eq!(m.get_mut(pid(3, 0)), None);
        assert_eq!(m.get(pid(2, 5)), Some(&7));
    }

    #[test]
    fn page_map_growing_a_row_keeps_earlier_entries() {
        let mut m: PageMap<u64> = PageMap::new();
        for page in [3, 0, 40, 7, 1000] {
            *m.get_or_insert_with(pid(1, page), || page * 10) += 1;
        }
        for page in [3, 0, 40, 7, 1000] {
            assert_eq!(m.get(pid(1, page)), Some(&(page * 10 + 1)));
        }
        // A touched entry is not rebuilt.
        assert_eq!(*m.get_or_insert_with(pid(1, 3), || 0), 31);
    }

    #[test]
    fn page_map_iterates_in_page_id_order_across_files_with_gaps() {
        let mut m: PageMap<()> = PageMap::new();
        let pages = [pid(4, 2), pid(0, 9), pid(4, 0), pid(2, 3), pid(0, 1)];
        for &p in &pages {
            m.get_or_default(p);
        }
        let mut sorted = pages.to_vec();
        sorted.sort();
        let seen: Vec<PageId> = m.iter().map(|(p, _)| p).collect();
        assert_eq!(seen, sorted);
    }

    #[test]
    fn page_map_rows_grow_to_the_touched_page_by_at_least_an_eighth() {
        let mut m: PageMap<u8> = PageMap::new();
        for page in [5, 2, 9, 30] {
            m.get_or_default(pid(0, page));
        }
        assert_eq!(m.files[0].capacity(), 31);
        // Ascending first touches: few regrowths, under an eighth spare.
        let mut growths = 0;
        for page in 0..1000 {
            let capacity = m.files.get(1).map_or(0, Vec::capacity);
            m.get_or_default(pid(1, page));
            growths += usize::from(m.files[1].capacity() != capacity);
        }
        assert!(growths <= 60, "{growths} regrowths");
        assert!(m.files[1].capacity() <= 1000 + 1000 / 8);
    }

    #[test]
    fn page_map_remove_then_reinsert_keeps_page_id_order() {
        let mut m: PageMap<u64> = PageMap::new();
        let pages = [pid(1, 4), pid(0, 2), pid(1, 0), pid(0, 7)];
        for &p in &pages {
            *m.get_or_default(p) = p.page;
        }
        assert_eq!(m.remove(pid(0, 2)), Some(2));
        assert_eq!(m.remove(pid(0, 2)), None);
        assert_eq!(m.remove(pid(5, 0)), None);
        assert_eq!(m.get(pid(0, 2)), None);
        let seen: Vec<PageId> = m.iter().map(|(p, _)| p).collect();
        assert_eq!(seen, [pid(0, 7), pid(1, 0), pid(1, 4)]);
        // Reinserted, the page reads its new value and takes its old place.
        *m.get_or_default(pid(0, 2)) = 20;
        assert_eq!(m.remove(pid(1, 0)), Some(0));
        *m.get_or_default(pid(1, 0)) = 10;
        let seen: Vec<(PageId, u64)> = m.iter().map(|(p, &v)| (p, v)).collect();
        assert_eq!(
            seen,
            [
                (pid(0, 2), 20),
                (pid(0, 7), 7),
                (pid(1, 0), 10),
                (pid(1, 4), 4)
            ]
        );
    }
}

//! Dense per-page state: [`PageMap`], and the [`Spares`] stock that lends
//! busy pages their buffers.
//!
//! The concurrency control managers keep one entry per page they touch. Keeping that entry small — a few scalars
//! inline, lists boxed only while the page is busy — is what makes their
//! memory follow the pages in use rather than every page ever touched.

use crate::ids::{FileId, PageId};

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

/// A page's buffers that it needs only while busy: a lock's holders and
/// queue, BTO's pending and blocked lists, and OPT's certified lists.
pub trait PageBuffers {
    /// Fresh buffers with the capacity a first use needs.
    fn stocked() -> Self;
    /// True when every list is empty, so the page no longer needs them.
    fn is_idle(&self) -> bool;
}

/// The buffers of idle pages, kept for the next page to go busy, so the
/// buffers a manager holds follow its busy pages, not every page it ever
/// touched.
///
/// When the stock runs dry it is refilled with as many buffers as are out
/// (at least one transaction's worth), each with its first-use capacity:
/// the stock doubles like a `Vec`, so a rising number of busy pages costs
/// a logarithmic number of allocation rounds and the steady state none.
#[derive(Debug)]
pub struct Spares<T> {
    free: Vec<Box<T>>,
    /// Buffers handed out and not yet returned.
    out: usize,
    /// The smallest refill: the most pages one transaction makes busy here.
    batch: usize,
}

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares {
            free: Vec::new(),
            out: 0,
            batch: 0,
        }
    }
}

impl<T: PageBuffers> Spares<T> {
    /// Set the smallest refill: the most pages one transaction makes busy
    /// at once.
    pub fn set_batch(&mut self, batch: usize) {
        self.batch = batch;
    }

    /// Idle buffers in stock.
    pub fn stock(&self) -> usize {
        self.free.len()
    }

    /// Buffers for a page going busy.
    pub fn take(&mut self) -> Box<T> {
        if self.free.is_empty() {
            let refill = self.out.max(self.batch).max(1);
            // Room for every buffer to come back without regrowing.
            self.free.reserve_exact(self.out + refill);
            self.free
                .extend(std::iter::repeat_with(|| Box::new(T::stocked())).take(refill));
        }
        self.out += 1;
        self.free.pop().expect("stocked above")
    }

    /// The buffers in `slot`, taken from stock if it has none.
    pub fn fill<'a>(&mut self, slot: &'a mut Option<Box<T>>) -> &'a mut T {
        slot.get_or_insert_with(|| self.take())
    }

    /// Return idle `buffers` to stock.
    pub fn put(&mut self, buffers: Box<T>) {
        debug_assert!(buffers.is_idle(), "only an idle page's buffers return");
        debug_assert!(self.out > 0, "returned more buffers than taken");
        self.out -= 1;
        self.free.push(buffers);
    }

    /// Return `slot`'s buffers to stock once they are idle.
    pub fn settle(&mut self, slot: &mut Option<Box<T>>) {
        if slot.as_deref().is_some_and(T::is_idle) {
            self.put(slot.take().expect("checked above"));
        }
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

    impl PageBuffers for Vec<u32> {
        fn stocked() -> Self {
            Vec::with_capacity(4)
        }
        fn is_idle(&self) -> bool {
            self.is_empty()
        }
    }

    #[test]
    fn spares_double_when_dry_and_hand_back_the_last_returned() {
        let mut s: Spares<Vec<u32>> = Spares::default();
        s.set_batch(2);
        let mut out: Vec<Box<Vec<u32>>> = Vec::new();
        // Refills: the batch (2), then as many as are out (2, then 4).
        for (taken, stock) in [(1, 1), (2, 0), (3, 1), (4, 0), (5, 3)] {
            out.push(s.take());
            assert_eq!((out.len(), s.stock()), (taken, stock));
        }
        assert!(out.iter().all(|b| b.is_empty() && b.capacity() == 4));
        let last: *const Vec<u32> = &*out[4];
        let capacity = s.free.capacity();
        for b in out.drain(..) {
            s.put(b);
        }
        assert_eq!(s.stock(), 8);
        assert_eq!(s.free.capacity(), capacity, "returns never regrow");
        assert!(std::ptr::eq(&*s.take(), last));
        // `settle` returns a slot's buffers only once idle.
        let mut slot = Some(s.take());
        slot.as_mut().unwrap().push(1);
        s.settle(&mut slot);
        assert!(slot.is_some());
        slot.as_mut().unwrap().clear();
        s.settle(&mut slot);
        assert!(slot.is_none());
        assert_eq!(s.fill(&mut slot).capacity(), 4);
    }
}

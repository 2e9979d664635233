//! Many short lists in one buffer: the per-page and per-transaction lists
//! of the checkers.
//!
//! A checker keeps a list per busy page (lock holders, waiters) and per
//! live transaction (the pages it touched, the copies it installed). A
//! `Vec` each would cost an allocation whenever a page goes busy or a
//! transaction starts, and pooling the `Vec`s still costs one per buffer
//! the pool ever holds. Here every list of one kind shares one arena of
//! `(item, next)` links: a [`List`] is just its head and tail link, freed
//! links are chained for reuse, and the arena grows only while more items
//! are listed at once than ever before. Its size follows the items in use,
//! and in steady state no list operation allocates.
//!
//! Lists are short (a page's holders and waiters, a transaction's pages at
//! one node), so walking one is as cheap as scanning a small `Vec`.

/// The end of a list, or no free link.
const END: u32 = u32::MAX;

/// One list in a [`Lists`] arena: its first and last link. Copy it out to
/// read, pass it by `&mut` to change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct List {
    head: u32,
    tail: u32,
}

impl List {
    /// The empty list.
    pub(crate) const EMPTY: List = List {
        head: END,
        tail: END,
    };

    /// True when the list has no items.
    pub(crate) fn is_empty(self) -> bool {
        self.head == END
    }
}

impl Default for List {
    fn default() -> Self {
        List::EMPTY
    }
}

/// The arena: see module docs.
#[derive(Debug)]
pub(crate) struct Lists<T> {
    links: Vec<(T, u32)>,
    /// The first free link, or `END`; free links chain through `next`.
    free: u32,
}

impl<T> Default for Lists<T> {
    fn default() -> Self {
        Lists {
            links: Vec::new(),
            free: END,
        }
    }
}

impl<T: Copy> Lists<T> {
    /// A link holding `(item, next)`: a free one, or a new one.
    fn link(&mut self, item: T, next: u32) -> u32 {
        if self.free == END {
            self.links.push((item, next));
            return u32::try_from(self.links.len() - 1)
                .ok()
                .filter(|&at| at != END)
                .expect("fewer than 2^32 - 1 links");
        }
        let at = self.free;
        self.free = self.links[at as usize].1;
        self.links[at as usize] = (item, next);
        at
    }

    /// Append `item` to `list`.
    pub(crate) fn push(&mut self, list: &mut List, item: T) {
        let at = self.link(item, END);
        match list.tail {
            END => list.head = at,
            tail => self.links[tail as usize].1 = at,
        }
        list.tail = at;
    }

    /// Insert `item` before the first item of `list` that satisfies
    /// `before`, or at the end if none does.
    pub(crate) fn insert(&mut self, list: &mut List, item: T, mut before: impl FnMut(&T) -> bool) {
        let (mut prev, mut at) = (END, list.head);
        while at != END && !before(&self.links[at as usize].0) {
            prev = at;
            at = self.links[at as usize].1;
        }
        let new = self.link(item, at);
        match prev {
            END => list.head = new,
            p => self.links[p as usize].1 = new,
        }
        if at == END {
            list.tail = new;
        }
    }

    /// The items of `list`, first to last.
    pub(crate) fn iter(&self, list: List) -> impl Iterator<Item = T> + Clone + '_ {
        let mut at = list.head;
        std::iter::from_fn(move || {
            let &(item, next) = self.links.get(at as usize)?;
            at = next;
            Some(item)
        })
    }

    /// The first item of `list` that satisfies `pred`, to change in place.
    pub(crate) fn find_mut(
        &mut self,
        list: List,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Option<&mut T> {
        let mut at = list.head;
        while at != END {
            if pred(&self.links[at as usize].0) {
                return Some(&mut self.links[at as usize].0);
            }
            at = self.links[at as usize].1;
        }
        None
    }

    /// Apply `f` to every item of `list`.
    pub(crate) fn for_each_mut(&mut self, list: List, mut f: impl FnMut(&mut T)) {
        let mut at = list.head;
        while at != END {
            let (item, next) = &mut self.links[at as usize];
            f(item);
            at = *next;
        }
    }

    /// Remove every item of `list` that fails `keep`, freeing its link;
    /// the rest keep their order.
    pub(crate) fn retain(&mut self, list: &mut List, mut keep: impl FnMut(&T) -> bool) {
        let (mut prev, mut at) = (END, list.head);
        while at != END {
            let (item, next) = self.links[at as usize];
            if keep(&item) {
                prev = at;
            } else {
                match prev {
                    END => list.head = next,
                    p => self.links[p as usize].1 = next,
                }
                self.links[at as usize].1 = self.free;
                self.free = at;
            }
            at = next;
        }
        list.tail = prev;
    }

    /// Remove and return the item at position `pos` of `list` (which must
    /// have more than `pos` items).
    pub(crate) fn remove(&mut self, list: &mut List, pos: usize) -> T {
        let mut i = 0;
        let mut found = None;
        self.retain(list, |&item| {
            let hit = i == pos;
            if hit {
                found = Some(item);
            }
            i += 1;
            !hit
        });
        found.expect("position within the list")
    }

    /// Empty `list`, freeing its links.
    pub(crate) fn clear(&mut self, list: &mut List) {
        if list.is_empty() {
            return;
        }
        self.links[list.tail as usize].1 = self.free;
        self.free = list.head;
        *list = List::EMPTY;
    }

    /// Links in use or free: the most items ever listed at once.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(lists: &Lists<u32>, list: List) -> Vec<u32> {
        lists.iter(list).collect()
    }

    #[test]
    fn lists_keep_order_through_pushes_and_removals() {
        let mut lists = Lists::default();
        let (mut a, mut b) = (List::EMPTY, List::EMPTY);
        for x in 0..5 {
            lists.push(&mut a, x);
            lists.push(&mut b, 10 + x);
        }
        lists.retain(&mut a, |&x| x % 2 == 1);
        assert_eq!(items(&lists, a), [1, 3]);
        assert_eq!(lists.remove(&mut b, 0), 10);
        assert_eq!(lists.remove(&mut b, 3), 14);
        assert_eq!(lists.remove(&mut b, 1), 12);
        assert_eq!(items(&lists, b), [11, 13]);
        // Appends after a removal at the tail land at the new tail.
        lists.push(&mut a, 7);
        lists.push(&mut b, 15);
        assert_eq!(items(&lists, a), [1, 3, 7]);
        assert_eq!(items(&lists, b), [11, 13, 15]);
        // Sorted inserts: at the front, in the middle, at the end.
        let mut c = List::EMPTY;
        for x in [5, 1, 3, 9, 3] {
            lists.insert(&mut c, x, |&y| y >= x);
        }
        assert_eq!(items(&lists, c), [1, 3, 3, 5, 9]);
        lists.push(&mut c, 10);
        assert_eq!(items(&lists, c), [1, 3, 3, 5, 9, 10]);
        *lists.find_mut(a, |&x| x == 3).unwrap() = 30;
        lists.for_each_mut(b, |x| *x += 1);
        assert_eq!(items(&lists, a), [1, 30, 7]);
        assert_eq!(items(&lists, b), [12, 14, 16]);
        lists.retain(&mut a, |_| false);
        assert!(a.is_empty());
        assert_eq!(items(&lists, a), []);
    }

    #[test]
    fn freed_links_are_reused_before_the_arena_grows() {
        let mut lists = Lists::default();
        let mut live: Vec<List> = vec![List::EMPTY; 4];
        for round in 0..100u32 {
            let list = &mut live[round as usize % 4];
            lists.clear(list);
            for x in 0..=round % 6 {
                lists.push(list, x);
            }
            assert_eq!(items(&lists, *list), (0..=round % 6).collect::<Vec<_>>());
        }
        // At most four lists of at most six items were ever live at once.
        assert!(lists.capacity() <= 24, "{} links", lists.capacity());
        for list in &mut live {
            lists.clear(list);
        }
        for x in 0..24 {
            lists.push(&mut live[0], x);
        }
        assert!(lists.capacity() <= 24, "{} links", lists.capacity());
    }
}

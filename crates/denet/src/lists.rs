//! Many short lists in one buffer.
//!
//! A model that keeps a list per busy key (a page's lock holders and
//! waiters, a transaction's pages) would pay an allocation whenever a key
//! goes busy if each list were a `Vec`, and pooling the `Vec`s still costs
//! one allocation per buffer the pool ever holds. Here every list of one
//! kind shares one arena of `(item, next)` links: a [`List`] is just its
//! head and tail link, freed links are chained for reuse, and the arena
//! grows only while more items are listed at once than ever before. Its
//! size follows the items in use, and in steady state no list operation
//! allocates.
//!
//! The concurrency control managers keep every list here (a page's lock
//! requests, BTO's pending writes and blocked reads, OPT's certified
//! accesses, the pages each transaction touched), and so do the oracle's
//! checkers, whose reference models mirror those lists. The lists are
//! short, so walking one is as cheap as scanning a small `Vec`.

/// The end of a list, or no free link.
const END: u32 = u32::MAX;

/// One list in a [`Lists`] arena: its first and last link. Copy it out to
/// read, pass it by `&mut` to change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct List {
    head: u32,
    tail: u32,
}

impl List {
    /// The empty list.
    pub const EMPTY: List = List {
        head: END,
        tail: END,
    };

    /// True when the list has no items.
    pub fn is_empty(self) -> bool {
        self.head == END
    }
}

impl Default for List {
    fn default() -> Self {
        List::EMPTY
    }
}

/// The arena: see module docs.
#[derive(Debug, Clone)]
pub struct Lists<T> {
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
    pub fn push(&mut self, list: &mut List, item: T) {
        let at = self.link(item, END);
        match list.tail {
            END => list.head = at,
            tail => self.links[tail as usize].1 = at,
        }
        list.tail = at;
    }

    /// Insert `item` before the first item of `list` that satisfies
    /// `before`, or at the end if none does.
    pub fn insert(&mut self, list: &mut List, item: T, mut before: impl FnMut(&T) -> bool) {
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
    pub fn iter(&self, list: List) -> impl Iterator<Item = T> + Clone + '_ {
        let mut at = list.head;
        std::iter::from_fn(move || {
            let &(item, next) = self.links.get(at as usize)?;
            at = next;
            Some(item)
        })
    }

    /// The last item of `list`.
    pub fn last(&self, list: List) -> Option<T> {
        self.links.get(list.tail as usize).map(|&(item, _)| item)
    }

    /// The first item of `list` that satisfies `pred`, to change in place.
    pub fn find_mut(&mut self, list: List, mut pred: impl FnMut(&T) -> bool) -> Option<&mut T> {
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
    pub fn for_each_mut(&mut self, list: List, mut f: impl FnMut(&mut T)) {
        let mut at = list.head;
        while at != END {
            let (item, next) = &mut self.links[at as usize];
            f(item);
            at = *next;
        }
    }

    /// Remove every item of `list` that fails `keep`, freeing its link;
    /// the rest keep their order.
    pub fn retain(&mut self, list: &mut List, mut keep: impl FnMut(&T) -> bool) {
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

    /// Remove and return the first item of `list` that satisfies `pred`,
    /// freeing its link.
    pub fn remove(&mut self, list: &mut List, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let (mut prev, mut at) = (END, list.head);
        while at != END {
            let (item, next) = self.links[at as usize];
            if pred(&item) {
                match prev {
                    END => list.head = next,
                    p => self.links[p as usize].1 = next,
                }
                if list.tail == at {
                    list.tail = prev;
                }
                self.links[at as usize].1 = self.free;
                self.free = at;
                return Some(item);
            }
            prev = at;
            at = next;
        }
        None
    }

    /// Empty `list`, freeing its links.
    pub fn clear(&mut self, list: &mut List) {
        if list.is_empty() {
            return;
        }
        self.links[list.tail as usize].1 = self.free;
        self.free = list.head;
        *list = List::EMPTY;
    }

    /// Grow the arena, if need be, to hold `links` links, listed or free,
    /// without reallocating: to `links`, or by an eighth if that is more,
    /// so a slowly rising floor regrows it only a logarithmic number of
    /// times.
    pub fn reserve_links(&mut self, links: usize) {
        let capacity = self.links.capacity();
        if links > capacity {
            let links = links.max(capacity + capacity / 8);
            self.links.reserve_exact(links - self.links.len());
        }
    }

    /// Links in use or free: the most items ever listed at once.
    pub fn capacity(&self) -> usize {
        self.links.len()
    }

    /// Items listed now, over every list (walks the free links).
    pub fn listed(&self) -> usize {
        let mut free = 0;
        let mut at = self.free;
        while at != END {
            free += 1;
            at = self.links[at as usize].1;
        }
        self.links.len() - free
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
        assert_eq!(lists.remove(&mut b, |&x| x == 10), Some(10));
        assert_eq!(lists.remove(&mut b, |&x| x > 13), Some(14));
        assert_eq!(lists.remove(&mut b, |&x| x % 2 == 0), Some(12));
        assert_eq!(lists.remove(&mut b, |&x| x > 20), None);
        assert_eq!(items(&lists, b), [11, 13]);
        // Appends after a removal at the tail land at the new tail.
        lists.push(&mut a, 7);
        lists.push(&mut b, 15);
        assert_eq!(items(&lists, a), [1, 3, 7]);
        assert_eq!(items(&lists, b), [11, 13, 15]);
        assert_eq!((lists.last(a), lists.last(List::EMPTY)), (Some(7), None));
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
        assert_eq!(lists.listed(), 9);
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
        assert_eq!(lists.listed(), 0);
        for x in 0..24 {
            lists.push(&mut live[0], x);
        }
        assert!(lists.capacity() <= 24, "{} links", lists.capacity());
    }

    #[test]
    fn reserved_links_fill_without_regrowing() {
        let mut lists = Lists::default();
        let mut a = List::EMPTY;
        lists.reserve_links(12);
        let room = lists.links.capacity();
        assert!(room >= 12);
        for x in 0..12u32 {
            lists.push(&mut a, x);
        }
        lists.reserve_links(12);
        assert_eq!(lists.links.capacity(), room);
        // Past the room, it grows by at least an eighth.
        lists.reserve_links(13);
        assert!(lists.links.capacity() >= room + room / 8);
    }
}

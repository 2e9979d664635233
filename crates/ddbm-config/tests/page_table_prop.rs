//! Property test of [`PageTable`] against a `BTreeMap<PageId, u32>` model:
//! files first touched in any order, and pages past the current row width,
//! so rows are laid out out of file order and the table is widened in
//! place. After every step the table holds exactly its rows × width.

use ddbm_config::{FileId, PageId, PageTable};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One step: add to a page through `entry` (making room) or through
/// `get_mut` (only where room exists), or read one page.
#[derive(Debug, Clone)]
enum PageOp {
    Entry(PageId, u32),
    GetMut(PageId, u32),
    Get(PageId),
}

fn page_strategy() -> impl Strategy<Value = PageId> {
    // Mostly low pages, sometimes far past the width so far.
    let page = prop_oneof![4 => 0u64..16, 1 => 0u64..400];
    ((0usize..6), page).prop_map(|(file, page)| PageId {
        file: FileId(file),
        page,
    })
}

fn page_op_strategy() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        3 => (page_strategy(), 1u32..10).prop_map(|(p, x)| PageOp::Entry(p, x)),
        2 => (page_strategy(), 1u32..10).prop_map(|(p, x)| PageOp::GetMut(p, x)),
        2 => page_strategy().prop_map(PageOp::Get),
    ]
}

proptest! {
    /// Every page reads what the model holds (untouched pages of a touched
    /// file read the default, others nothing), so every value survives each
    /// in-place widening; iteration yields every slot of every touched
    /// file in `PageId` order; and the buffer holds exactly rows × width.
    #[test]
    fn page_table_matches_a_btree_map(ops in prop::collection::vec(page_op_strategy(), 1..150)) {
        let mut table: PageTable<u32> = PageTable::default();
        let mut model: BTreeMap<PageId, u32> = BTreeMap::new();
        let mut entered = BTreeSet::new();
        let mut highest = None;
        for op in ops {
            match op {
                PageOp::Entry(p, x) => {
                    *table.entry(p) += x;
                    entered.insert(p.file);
                    highest = highest.max(Some(p.page));
                    *model.entry(p).or_default() += x;
                }
                PageOp::GetMut(p, x) => {
                    if let Some(v) = table.get_mut(p) {
                        *v += x;
                        *model.entry(p).or_default() += x;
                    }
                }
                PageOp::Get(p) => match table.get(p) {
                    Some(&v) => prop_assert_eq!(v, model.get(&p).copied().unwrap_or(0)),
                    None => prop_assert!(!model.contains_key(&p)),
                },
            }
            for (&p, &v) in &model {
                prop_assert_eq!(table.get(p), Some(&v));
            }
            // One row per file entered, at least as wide as the highest
            // page entered, and no slot more than rows × width.
            prop_assert_eq!(table.rows(), entered.len());
            prop_assert!(highest.is_none_or(|h| table.width() > h as usize));
            prop_assert_eq!(table.capacity(), table.rows() * table.width());
            let slots: Vec<(PageId, u32)> = table.iter().map(|(p, &v)| (p, v)).collect();
            prop_assert!(slots.windows(2).all(|w| w[0].0 < w[1].0), "not in PageId order");
            let set: Vec<(PageId, u32)> = slots.into_iter().filter(|&(_, v)| v != 0).collect();
            let want: Vec<(PageId, u32)> = model.iter().map(|(&p, &v)| (p, v)).collect();
            prop_assert_eq!(set, want);
        }
    }
}

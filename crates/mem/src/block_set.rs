//! One set of `u32` keys for the caches' miss histories.

use std::fmt;

/// Keys per page, one bit each.
const PAGE_KEYS: usize = 4096;

/// Pages per directory leaf. A key splits into a leaf index (the top 10
/// bits), a page within the leaf (the next 10) and a bit within the page
/// (the low 12), so 1024 leaves cover every `u32`.
const LEAF_PAGES: usize = 1024;

type Page = [u64; PAGE_KEYS / 64];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// A set of `u32` keys held as a paged bitmap: the block addresses a cache
/// has ever referenced, which tell a cold miss from a conflict miss.
///
/// Shaped like [`MainMemory`](crate::MainMemory)'s page directory: leaves
/// and 4096-key pages are allocated on first insert, and the directory
/// itself grows only as far as the highest leaf used. An insert is two
/// indexed loads and a bit test, with no hashing, and iteration visits
/// keys in ascending order.
#[derive(Clone, Default)]
pub(crate) struct BlockSet {
    leaves: Vec<Option<Box<Leaf>>>,
}

/// `key`'s leaf, page within the leaf, word within the page, and bit.
#[inline]
fn split(key: u32) -> (usize, usize, usize, u64) {
    let key = key as usize;
    (
        key >> 22,
        (key >> 12) % LEAF_PAGES,
        (key % PAGE_KEYS) / 64,
        1 << (key % 64),
    )
}

impl BlockSet {
    /// Add `key`; returns whether it was absent.
    #[inline]
    pub(crate) fn insert(&mut self, key: u32) -> bool {
        let (leaf, page, word, bit) = split(key);
        if leaf >= self.leaves.len() {
            self.leaves.resize_with(leaf + 1, || None);
        }
        let pages = self.leaves[leaf].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]));
        let page = pages[page].get_or_insert_with(|| Box::new([0; PAGE_KEYS / 64]));
        let absent = page[word] & bit == 0;
        page[word] |= bit;
        absent
    }

    /// Whether `key` is in the set.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: u32) -> bool {
        let (leaf, page, word, bit) = split(key);
        self.leaves
            .get(leaf)
            .and_then(Option::as_deref)
            .and_then(|pages| pages[page].as_deref())
            .is_some_and(|page| page[word] & bit != 0)
    }

    /// Empty the set, keeping its pages (zeroed) for reuse.
    pub(crate) fn clear(&mut self) {
        for pages in self.leaves.iter_mut().flatten() {
            for page in pages.iter_mut().flatten() {
                page.fill(0);
            }
        }
    }

    /// The keys, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.leaves
            .iter()
            .enumerate()
            .flat_map(|(l, leaf)| {
                leaf.iter().flat_map(move |pages| {
                    pages.iter().enumerate().filter_map(move |(p, page)| {
                        Some(((l * LEAF_PAGES + p) * PAGE_KEYS, page.as_deref()?))
                    })
                })
            })
            .flat_map(|(base, page)| {
                page.iter().enumerate().flat_map(move |(w, &bits)| {
                    let mut bits = bits;
                    std::iter::from_fn(move || {
                        (bits != 0).then(|| {
                            let bit = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            (base + w * 64 + bit) as u32
                        })
                    })
                })
            })
    }
}

impl FromIterator<u32> for BlockSet {
    fn from_iter<I: IntoIterator<Item = u32>>(keys: I) -> BlockSet {
        let mut set = BlockSet::default();
        for key in keys {
            set.insert(key);
        }
        set
    }
}

impl fmt::Debug for BlockSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_either_side_of_page_and_leaf_boundaries() {
        let mut set = BlockSet::default();
        // Page 0 | page 1, and the last page of leaf 0 | leaf 1.
        let keys = [4095, 4096, (1 << 22) - 1, 1 << 22];
        for key in keys {
            assert!(set.insert(key), "{key} is new");
            assert!(!set.insert(key), "{key} is already in");
        }
        for key in keys {
            assert!(set.contains(key));
        }
        for absent in [0, 4094, 4097, (1 << 22) + 1] {
            assert!(!set.contains(absent), "{absent} was never inserted");
        }
    }

    #[test]
    fn the_top_key_lands_in_the_last_leaf() {
        let mut set = BlockSet::default();
        assert!(set.insert(u32::MAX));
        assert!(set.contains(u32::MAX));
        assert!(!set.contains(u32::MAX - 1));
        assert_eq!(set.leaves.len(), LEAF_PAGES);
        assert_eq!(set.iter().collect::<Vec<_>>(), [u32::MAX]);
    }

    #[test]
    fn iteration_is_ascending_whatever_the_insert_order() {
        let keys = [u32::MAX, 70_000, 5, 1 << 22, 64, 63, 4096, 0, 3 << 30];
        let set: BlockSet = keys.into_iter().collect();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn clear_empties_the_set_and_it_refills() {
        let mut set: BlockSet = [1, 4096, u32::MAX].into_iter().collect();
        set.clear();
        assert_eq!(set.iter().count(), 0);
        assert!(!set.contains(1));
        assert!(set.insert(4096));
        assert_eq!(set.iter().collect::<Vec<_>>(), [4096]);
    }
}

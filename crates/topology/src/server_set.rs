//! [`ServerSet`]: a set of server ids as a paged bitset.
//!
//! The broker's membership, free-pool and pending-move sets and Twine's
//! capacity buckets change one server at a time, hundreds of thousands of
//! times in a region's round 0, and are read in ascending id order. A bit
//! per id makes each change O(1); a summary bit per nonzero word lets the
//! ascending walk and [`ServerSet::next_from`] skip empty words; pages of
//! 64 words are allocated only where members are, so a set of a few
//! servers stays a few pages however large the region is.

use crate::ids::ServerId;

/// Words per page: a page covers `64 · 64 = 4 096` consecutive ids.
const PAGE_WORDS: usize = 64;

/// `log2` of the ids one page covers.
const PAGE_SHIFT: u32 = 12;

/// One allocated page: its words, and a summary bit for each nonzero word.
/// A page whose summary reads 0 is freed.
struct Page {
    summary: u64,
    words: [u64; PAGE_WORDS],
}

/// Splits an id into its page, its word within the page and its bit.
fn locate(id: ServerId) -> (usize, usize, u32) {
    let page = (id.0 >> PAGE_SHIFT) as usize;
    let word = (id.0 >> 6) as usize % PAGE_WORDS;
    (page, word, id.0 % 64)
}

/// The id at `bit` of `word` of `page`. Every allocated page holds a
/// `u32` id, so its ids fit in a `u32`.
fn id_at(page: usize, word: usize, bit: u32) -> ServerId {
    ServerId(((page << PAGE_SHIFT) + word * 64) as u32 + bit)
}

/// The lowest member of `page` at or after bit `bit` of word `word`.
fn first_in_page(page: &Page, word: usize, bit: u32) -> Option<(usize, u32)> {
    let bits = page.words[word] & (u64::MAX << bit);
    if bits != 0 {
        return Some((word, bits.trailing_zeros()));
    }
    // The nonzero words after `word`; the last word has none after it.
    let later = match word + 1 {
        PAGE_WORDS => 0,
        next => page.summary & (u64::MAX << next),
    };
    if later == 0 {
        return None;
    }
    let w = later.trailing_zeros() as usize;
    Some((w, page.words[w].trailing_zeros()))
}

/// A set of [`ServerId`]s with O(1) `insert`, `remove` and `contains`, a
/// count, and ascending iteration.
///
/// Storage is one bit per id in pages of 4 096 ids, allocated on first
/// insert and freed when they empty, plus one directory slot per page up
/// to the highest page held.
#[derive(Default)]
pub struct ServerSet {
    /// `pages[p]` holds ids `p·4096 .. (p+1)·4096`; `None` holds none.
    pages: Vec<Option<Box<Page>>>,
    len: usize,
}

impl ServerSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// True when `id` is a member.
    pub fn contains(&self, id: ServerId) -> bool {
        let (p, w, b) = locate(id);
        match self.pages.get(p) {
            Some(Some(page)) => (page.words[w] >> b) & 1 == 1,
            _ => false,
        }
    }

    /// Adds `id`; false when it was already a member.
    pub fn insert(&mut self, id: ServerId) -> bool {
        let (p, w, b) = locate(id);
        if self.pages.len() <= p {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| {
            Box::new(Page {
                summary: 0,
                words: [0; PAGE_WORDS],
            })
        });
        let word = &mut page.words[w];
        if (*word >> b) & 1 == 1 {
            return false;
        }
        *word |= 1 << b;
        page.summary |= 1 << w;
        self.len += 1;
        true
    }

    /// Removes `id`; false when it was not a member.
    pub fn remove(&mut self, id: ServerId) -> bool {
        let (p, w, b) = locate(id);
        let Some(Some(page)) = self.pages.get_mut(p) else {
            return false;
        };
        let word = &mut page.words[w];
        if (*word >> b) & 1 == 0 {
            return false;
        }
        *word &= !(1 << b);
        if *word == 0 {
            page.summary &= !(1 << w);
            if page.summary == 0 {
                self.pages[p] = None;
            }
        }
        self.len -= 1;
        true
    }

    /// The lowest member `>= id`.
    pub fn next_from(&self, id: ServerId) -> Option<ServerId> {
        let (p, w, b) = locate(id);
        if let Some(Some(page)) = self.pages.get(p) {
            if let Some((w, b)) = first_in_page(page, w, b) {
                return Some(id_at(p, w, b));
            }
        }
        let (p, page) = self
            .pages
            .iter()
            .enumerate()
            .skip(p + 1)
            .find_map(|(p, page)| Some((p, page.as_deref()?)))?;
        let w = page.summary.trailing_zeros() as usize;
        Some(id_at(p, w, page.words[w].trailing_zeros()))
    }

    /// The members, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            pages: self.pages.iter().enumerate(),
            words: &EMPTY_PAGE,
            page_base: 0,
            summary: 0,
            word_base: 0,
            bits: 0,
            remaining: self.len,
        }
    }
}

impl std::fmt::Debug for ServerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The words an iterator walks before it reaches a page.
static EMPTY_PAGE: [u64; PAGE_WORDS] = [0; PAGE_WORDS];

impl FromIterator<ServerId> for ServerSet {
    fn from_iter<I: IntoIterator<Item = ServerId>>(iter: I) -> Self {
        let mut set = Self::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl<'a> IntoIterator for &'a ServerSet {
    type Item = ServerId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over a [`ServerSet`].
pub struct Iter<'a> {
    pages: std::iter::Enumerate<std::slice::Iter<'a, Option<Box<Page>>>>,
    /// The words of the page being walked, and its first id.
    words: &'a [u64; PAGE_WORDS],
    page_base: u32,
    /// The current page's nonzero words not yet walked.
    summary: u64,
    /// The first id of the current word, and its bits not yet yielded.
    word_base: u32,
    bits: u64,
    remaining: usize,
}

impl Iterator for Iter<'_> {
    type Item = ServerId;

    fn next(&mut self) -> Option<ServerId> {
        while self.bits == 0 {
            if self.summary == 0 {
                let (p, page) = self
                    .pages
                    .find_map(|(p, page)| Some((p, page.as_deref()?)))?;
                self.words = &page.words;
                self.page_base = id_at(p, 0, 0).0;
                self.summary = page.summary;
            }
            let w = self.summary.trailing_zeros();
            self.summary &= self.summary - 1;
            self.bits = self.words[w as usize];
            self.word_base = self.page_base + w * 64;
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        self.remaining -= 1;
        Some(ServerId(self.word_base + b))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_far_apart_ids_hold_two_pages() {
        let mut set = ServerSet::new();
        assert!(set.insert(ServerId(3)));
        assert!(set.insert(ServerId(999_999)));
        assert!(set.page_count() <= 2);
        assert_eq!(set.len(), 2);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![ServerId(3), ServerId(999_999)]
        );
        assert_eq!(set.next_from(ServerId(4)), Some(ServerId(999_999)));
        assert_eq!(set.next_from(ServerId(1_000_000)), None);
    }

    #[test]
    fn an_emptied_page_is_freed() {
        let mut set: ServerSet = [ServerId(10), ServerId(5_000)].into_iter().collect();
        assert_eq!(set.page_count(), 2);
        assert!(set.remove(ServerId(5_000)));
        assert!(!set.remove(ServerId(5_000)));
        assert_eq!(set.page_count(), 1);
        assert_eq!(set.next_from(ServerId(11)), None);
        assert!(set.remove(ServerId(10)));
        assert!(set.is_empty());
        assert_eq!(set.page_count(), 0);
        assert_eq!(set.iter().next(), None);
    }
}

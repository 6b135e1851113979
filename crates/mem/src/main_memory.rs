//! Main memory behind the external cache.

/// Words per allocation page of the sparse store.
const PAGE_WORDS: u32 = 4096;

/// Pages per directory leaf. A word address splits into a leaf index (the
/// top 10 bits), a page within the leaf (the next 10) and a word within
/// the page (the low 12), so 1024 leaves cover the whole address space.
const LEAF_PAGES: usize = 1024;

type Page = [u32; PAGE_WORDS as usize];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// A sparse, word-addressed main memory.
///
/// The full 32-bit word-address space is backed lazily by 4K-word pages, so
/// programs can scatter code, stacks, and the system-space exception vector
/// without preallocating gigabytes. Uninitialized words read as zero (which
/// decodes to a harmless `ld r0, 0(r0)`).
///
/// Pages hang off a two-level directory: 1024 leaves, each of 1024
/// optional pages, both allocated on first write. A word is two indexed
/// loads away, with no hashing, and walking the directory visits pages in
/// ascending order.
///
/// The page written last sits in a hot slot ahead of the directory, moved
/// out of its directory entry, so reads and writes to it (a loop's data
/// page) skip the walk. A write to another page moves the hot page back
/// and takes that one's place. Where a page sits is invisible outside:
/// [`MainMemory::snapshot_state`] lists every resident page, hot or not,
/// in ascending order.
///
/// `latency_cycles` is the number of processor cycles a fetch spends in main
/// memory once the Ecache has detected a miss — each of those cycles is one
/// trip around the late-miss retry loop.
#[derive(Clone, Debug)]
pub struct MainMemory {
    leaves: Box<[Option<Box<Leaf>>; LEAF_PAGES]>,
    /// The page written last, as `(page number, page)`; its directory
    /// entry is empty while it is here.
    hot: Option<(u32, Box<Page>)>,
    /// Cycles per access once an Ecache miss is detected.
    pub latency_cycles: u32,
    reads: u64,
    writes: u64,
}

/// `addr`'s page number and word within the page.
#[inline]
fn split(addr: u32) -> (u32, usize) {
    (addr / PAGE_WORDS, (addr % PAGE_WORDS) as usize)
}

/// Page `number`'s leaf and page within the leaf.
#[inline]
fn place(number: u32) -> (usize, usize) {
    let number = number as usize;
    (number / LEAF_PAGES, number % LEAF_PAGES)
}

impl MainMemory {
    /// Default main-memory latency in processor cycles.
    ///
    /// The paper sized the Ecache so that *"completing a fetch in 50 ns would
    /// be tight"* — i.e. the Ecache itself answers within the cycle. DRAM of
    /// the era behind it ran around 5 processor cycles; the experiment
    /// harness sweeps this.
    pub const DEFAULT_LATENCY: u32 = 5;

    /// An empty memory with [`MainMemory::DEFAULT_LATENCY`].
    pub fn new() -> MainMemory {
        MainMemory::with_latency(Self::DEFAULT_LATENCY)
    }

    /// An empty memory with an explicit access latency.
    pub fn with_latency(latency_cycles: u32) -> MainMemory {
        MainMemory {
            leaves: Box::new([const { None }; LEAF_PAGES]),
            hot: None,
            latency_cycles,
            reads: 0,
            writes: 0,
        }
    }

    /// Read the word at `addr` (word address). Unwritten words are zero.
    pub fn read(&mut self, addr: u32) -> u32 {
        self.count_read();
        self.peek(addr)
    }

    /// Count a read access whose word the reader does not need.
    pub(crate) fn count_read(&mut self) {
        self.reads += 1;
    }

    /// Write the word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u32, word: u32) {
        self.writes += 1;
        let (number, offset) = split(addr);
        match &mut self.hot {
            Some((hot, page)) if *hot == number => page[offset] = word,
            _ => self.heat(number)[offset] = word,
        }
    }

    /// Read without counting as an access (debug/verification use).
    #[inline]
    pub fn peek(&self, addr: u32) -> u32 {
        let (number, offset) = split(addr);
        match &self.hot {
            Some((hot, page)) if *hot == number => page[offset],
            _ => {
                let (leaf, page) = place(number);
                match &self.leaves[leaf] {
                    Some(pages) => pages[page].as_ref().map_or(0, |p| p[offset]),
                    None => 0,
                }
            }
        }
    }

    /// Make page `number` the hot page, allocating it (zeroed) if absent,
    /// and put the page it replaces back in the directory.
    fn heat(&mut self, number: u32) -> &mut Page {
        if let Some((cold, page)) = self.hot.take() {
            *self.entry(cold) = Some(page);
        }
        let page = self
            .entry(number)
            .take()
            .unwrap_or_else(|| Box::new([0; PAGE_WORDS as usize]));
        &mut self.hot.insert((number, page)).1
    }

    /// Page `number`'s directory entry, allocating its leaf if absent.
    fn entry(&mut self, number: u32) -> &mut Option<Box<Page>> {
        let (leaf, page) = place(number);
        &mut self.leaves[leaf].get_or_insert_with(|| Box::new([const { None }; LEAF_PAGES]))[page]
    }

    /// The resident pages as `(page number, page)`, ascending by number:
    /// the directory's, with the hot page in its place among them.
    fn pages(&self) -> impl Iterator<Item = (u32, &Page)> {
        let mut hot = self.hot.as_ref().map(|(n, page)| (*n, &**page));
        let mut directory = self
            .leaves
            .iter()
            .enumerate()
            .flat_map(|(l, leaf)| {
                leaf.iter().flat_map(move |pages| {
                    pages.iter().enumerate().filter_map(move |(p, page)| {
                        Some(((l * LEAF_PAGES + p) as u32, page.as_deref()?))
                    })
                })
            })
            .peekable();
        std::iter::from_fn(move || match (hot, directory.peek()) {
            (Some((n, _)), Some(&(d, _))) if d < n => directory.next(),
            (Some(_), _) => hot.take(),
            (None, _) => directory.next(),
        })
    }

    /// Every word of every resident page with its address, ascending: the
    /// words ever written, and the zeros that share a page with them.
    pub fn resident_words(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pages().flat_map(|(n, page)| {
            let base = n * PAGE_WORDS;
            page.iter()
                .enumerate()
                .map(move |(i, &word)| (base + i as u32, word))
        })
    }

    /// Bulk-load a slice of words starting at `origin`.
    pub fn load(&mut self, origin: u32, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.write(origin + i as u32, w);
        }
    }

    /// Number of read accesses served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write accesses served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of 4K-word pages currently allocated.
    pub fn resident_pages(&self) -> usize {
        self.pages().count()
    }

    /// Reset to an empty memory with a new latency.
    ///
    /// Resident pages are zeroed in place rather than dropped: sweep
    /// workers reset thousands of machines back-to-back and the page boxes
    /// are the only sizable allocation here, so keeping them turns each
    /// reset into a handful of `memset`s.
    pub fn reset(&mut self, latency_cycles: u32) {
        let hot = self.hot.iter_mut().map(|(_, page)| page);
        for page in self
            .leaves
            .iter_mut()
            .flatten()
            .flat_map(|l| l.iter_mut().flatten())
            .chain(hot)
        {
            page.fill(0);
        }
        self.latency_cycles = latency_cycles;
        self.reads = 0;
        self.writes = 0;
    }
}

impl Default for MainMemory {
    fn default() -> MainMemory {
        MainMemory::new()
    }
}

/// Plain-data image of a [`MainMemory`] for checkpointing: the resident
/// pages (sorted by page number so the same memory always encodes to the
/// same bytes), the configured latency, and the access counters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MainMemoryState {
    /// Cycles per access once an Ecache miss is detected.
    pub latency_cycles: u32,
    /// Read accesses served so far.
    pub reads: u64,
    /// Write accesses served so far.
    pub writes: u64,
    /// `(page number, page contents)` sorted ascending by page number;
    /// every page is exactly 4096 words.
    pub pages: Vec<(u32, Vec<u32>)>,
}

impl MainMemory {
    /// Capture the memory's full state for a checkpoint.
    pub fn snapshot_state(&self) -> MainMemoryState {
        MainMemoryState {
            latency_cycles: self.latency_cycles,
            reads: self.reads,
            writes: self.writes,
            pages: self.pages().map(|(n, p)| (n, p.to_vec())).collect(),
        }
    }

    /// Replace the memory's full state from a checkpoint. Fails (leaving
    /// the memory untouched) if any page is not exactly 4096 words or lies
    /// past the 32-bit address space.
    pub fn restore_state(&mut self, state: &MainMemoryState) -> Result<(), String> {
        for (n, words) in &state.pages {
            if words.len() != PAGE_WORDS as usize {
                return Err(format!(
                    "memory page {n} has {} words, expected {PAGE_WORDS}",
                    words.len()
                ));
            }
            if *n > u32::MAX / PAGE_WORDS {
                return Err(format!("memory page {n} lies past the address space"));
            }
        }
        self.latency_cycles = state.latency_cycles;
        self.reads = state.reads;
        self.writes = state.writes;
        self.leaves.fill_with(|| None);
        self.hot = None;
        for (n, words) in &state.pages {
            self.heat(*n).copy_from_slice(words);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mut m = MainMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u32::MAX), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = MainMemory::new();
        m.write(1234, 0xDEAD_BEEF);
        assert_eq!(m.read(1234), 0xDEAD_BEEF);
        assert_eq!(m.read(1235), 0);
    }

    #[test]
    fn pages_allocate_lazily() {
        let mut m = MainMemory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write(0, 1);
        m.write(PAGE_WORDS, 2); // second page
        m.write(PAGE_WORDS + 1, 3); // same page
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn load_places_words() {
        let mut m = MainMemory::new();
        m.load(100, &[10, 20, 30]);
        assert_eq!(m.peek(100), 10);
        assert_eq!(m.peek(102), 30);
    }

    #[test]
    fn access_counters() {
        let mut m = MainMemory::new();
        m.write(0, 1);
        let _ = m.read(0);
        let _ = m.peek(0); // not counted
        assert_eq!(m.reads(), 1);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn cross_page_boundary() {
        let mut m = MainMemory::new();
        m.write(PAGE_WORDS - 1, 7);
        m.write(PAGE_WORDS, 8);
        assert_eq!(m.peek(PAGE_WORDS - 1), 7);
        assert_eq!(m.peek(PAGE_WORDS), 8);
    }

    #[test]
    fn pages_either_side_of_a_leaf_boundary() {
        // Pages 1023 and 1024 sit in different directory leaves.
        let mut m = MainMemory::new();
        let last_of_leaf = 1024 * PAGE_WORDS - 1;
        m.write(last_of_leaf, 5);
        m.write(last_of_leaf + 1, 6);
        assert_eq!(m.peek(last_of_leaf), 5);
        assert_eq!(m.peek(last_of_leaf + 1), 6);
        assert_eq!(m.peek(last_of_leaf - PAGE_WORDS), 0);
        assert_eq!(m.resident_pages(), 2);
        let numbers: Vec<u32> = m.snapshot_state().pages.iter().map(|(n, _)| *n).collect();
        assert_eq!(numbers, [1023, 1024]);
    }

    #[test]
    fn the_top_page_holds_the_last_word() {
        let mut m = MainMemory::new();
        m.write(u32::MAX, 9);
        assert_eq!(m.peek(u32::MAX), 9);
        assert_eq!(m.peek(u32::MAX - 1), 0);
        assert_eq!(m.peek(u32::MAX >> 1), 0);
        let state = m.snapshot_state();
        assert_eq!(state.pages.len(), 1);
        assert_eq!(state.pages[0].0, u32::MAX / PAGE_WORDS);
        assert_eq!(state.pages[0].1[PAGE_WORDS as usize - 1], 9);
    }

    #[test]
    fn snapshot_pages_come_sorted() {
        let mut m = MainMemory::new();
        for addr in [
            u32::MAX,
            7 << 22,
            3,
            5 * PAGE_WORDS,
            1 << 31,
            2 * PAGE_WORDS,
        ] {
            m.write(addr, addr | 1);
        }
        let numbers: Vec<u32> = m.snapshot_state().pages.iter().map(|(n, _)| *n).collect();
        let mut sorted = numbers.clone();
        sorted.sort_unstable();
        assert_eq!(numbers, sorted);
        assert_eq!(numbers.len(), 6);
    }

    /// Moving pages in and out of the hot slot changes nothing a reader
    /// sees: after every write, every written word, the resident page
    /// numbers in ascending order and a restored copy agree with a plain
    /// map of the writes, across leaves and at the top of the space.
    #[test]
    fn the_hot_page_is_invisible() {
        let addrs = [
            5 * PAGE_WORDS + 3,
            5 * PAGE_WORDS + 4,
            7,
            u32::MAX,
            5 * PAGE_WORDS + 3,
            1024 * PAGE_WORDS,
            1024 * PAGE_WORDS - 1,
            8,
        ];
        let mut m = MainMemory::new();
        let mut want = std::collections::BTreeMap::new();
        for (i, &addr) in addrs.iter().enumerate() {
            m.write(addr, i as u32 + 1);
            want.insert(addr, i as u32 + 1);
            for (&a, &w) in &want {
                assert_eq!(m.peek(a), w, "word {a:#x} after write {i}");
            }
            let mut numbers: Vec<u32> = want.keys().map(|a| a / PAGE_WORDS).collect();
            numbers.dedup();
            let state = m.snapshot_state();
            let got: Vec<u32> = state.pages.iter().map(|(n, _)| *n).collect();
            assert_eq!(got, numbers, "pages after write {i}");
            assert_eq!(m.resident_pages(), numbers.len());
            let mut restored = MainMemory::new();
            restored.write(addr ^ PAGE_WORDS, 9);
            restored.restore_state(&state).unwrap();
            assert_eq!(restored.snapshot_state(), state, "restore after write {i}");
        }
        m.reset(5);
        assert!(addrs.iter().all(|&a| m.peek(a) == 0));
        assert_eq!(m.resident_pages(), 5);
    }

    #[test]
    fn reset_keeps_pages_resident_and_zeroed() {
        let mut m = MainMemory::new();
        m.write(10, 1);
        m.write(1 << 30, 2);
        let _ = m.read(10);
        m.reset(9);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.peek(10), 0);
        assert_eq!(m.peek(1 << 30), 0);
        assert_eq!((m.reads(), m.writes(), m.latency_cycles), (0, 0, 9));
    }

    #[test]
    fn restore_round_trips_and_drops_other_pages() {
        let mut m = MainMemory::with_latency(7);
        m.write(42, 1);
        m.write(1024 * PAGE_WORDS, 2);
        m.write(u32::MAX, 3);
        let _ = m.read(42);
        let state = m.snapshot_state();
        let mut other = MainMemory::new();
        other.write(5 * PAGE_WORDS, 4);
        other.restore_state(&state).unwrap();
        assert_eq!(other.snapshot_state(), state);
        assert_eq!(other.resident_pages(), 3);
        assert_eq!(other.peek(5 * PAGE_WORDS), 0);
        assert_eq!(other.peek(u32::MAX), 3);
        // A malformed page leaves the memory as it was.
        let mut bad = state.clone();
        bad.pages[0].1.pop();
        assert!(other.restore_state(&bad).is_err());
        let mut past = state.clone();
        past.pages[2].0 = u32::MAX / PAGE_WORDS + 1;
        assert!(other.restore_state(&past).is_err());
        assert_eq!(other.snapshot_state(), state);
    }
}

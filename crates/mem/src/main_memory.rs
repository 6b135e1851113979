//! Main memory behind the external cache.

use std::collections::HashMap;

use crate::hash::BuildU32Hasher;

/// Words per allocation page of the sparse store (must be a power of two).
const PAGE_WORDS: u32 = 4096;

/// A sparse, word-addressed main memory.
///
/// The full 32-bit word-address space is backed lazily by 4K-word pages, so
/// programs can scatter code, stacks, and the system-space exception vector
/// without preallocating gigabytes. Uninitialized words read as zero (which
/// decodes to a harmless `ld r0, 0(r0)`).
///
/// `latency_cycles` is the number of processor cycles a fetch spends in main
/// memory once the Ecache has detected a miss — each of those cycles is one
/// trip around the late-miss retry loop.
#[derive(Clone, Debug)]
pub struct MainMemory {
    pages: HashMap<u32, Box<[u32]>, BuildU32Hasher>,
    /// Cycles per access once an Ecache miss is detected.
    pub latency_cycles: u32,
    reads: u64,
    writes: u64,
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
            pages: HashMap::default(),
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
    pub fn write(&mut self, addr: u32, word: u32) {
        self.writes += 1;
        let page = self
            .pages
            .entry(addr / PAGE_WORDS)
            .or_insert_with(|| vec![0u32; PAGE_WORDS as usize].into_boxed_slice());
        page[(addr % PAGE_WORDS) as usize] = word;
    }

    /// Read without counting as an access (debug/verification use).
    pub fn peek(&self, addr: u32) -> u32 {
        self.pages
            .get(&(addr / PAGE_WORDS))
            .map_or(0, |p| p[(addr % PAGE_WORDS) as usize])
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
        self.pages.len()
    }

    /// Reset to an empty memory with a new latency.
    ///
    /// Resident pages are zeroed in place rather than dropped: sweep
    /// workers reset thousands of machines back-to-back and the page boxes
    /// are the only sizable allocation here, so keeping them turns each
    /// reset into a handful of `memset`s.
    pub fn reset(&mut self, latency_cycles: u32) {
        for page in self.pages.values_mut() {
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
        let mut pages: Vec<(u32, Vec<u32>)> =
            self.pages.iter().map(|(&n, p)| (n, p.to_vec())).collect();
        pages.sort_unstable_by_key(|(n, _)| *n);
        MainMemoryState {
            latency_cycles: self.latency_cycles,
            reads: self.reads,
            writes: self.writes,
            pages,
        }
    }

    /// Replace the memory's full state from a checkpoint. Fails (leaving
    /// the memory untouched) if any page is not exactly 4096 words.
    pub fn restore_state(&mut self, state: &MainMemoryState) -> Result<(), String> {
        for (n, words) in &state.pages {
            if words.len() != PAGE_WORDS as usize {
                return Err(format!(
                    "memory page {n} has {} words, expected {PAGE_WORDS}",
                    words.len()
                ));
            }
        }
        self.latency_cycles = state.latency_cycles;
        self.reads = state.reads;
        self.writes = state.writes;
        self.pages = state
            .pages
            .iter()
            .map(|(n, words)| (*n, words.clone().into_boxed_slice()))
            .collect();
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
}

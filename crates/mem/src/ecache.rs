//! The external cache with the late-miss protocol.

use crate::block_set::BlockSet;
use crate::stats::MissCause;
use crate::{CacheStats, MainMemory};

/// Organization of the external cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EcacheConfig {
    /// Total capacity in words. The paper's board uses *"a large 64K word
    /// external cache."*
    pub size_words: u32,
    /// Words per block (line).
    pub block_words: u32,
    /// Extra cycles lost to the **late miss**: the cache *"would inform the
    /// processor at the beginning of the WB cycle whether the cache access
    /// during MEM was successful"*, so one MEM cycle is always wasted before
    /// the retry loop starts.
    pub late_miss_overhead: u32,
    /// When false, every access goes straight to main memory (the test
    /// feature the instruction-register latch provides on the real chip).
    pub enabled: bool,
}

impl EcacheConfig {
    /// The configuration of the MIPS-X board: 64K words, 4-word blocks,
    /// 1-cycle late-miss overhead.
    pub fn mipsx() -> EcacheConfig {
        EcacheConfig {
            size_words: 64 * 1024,
            block_words: 4,
            late_miss_overhead: 1,
            enabled: true,
        }
    }

    /// Check the organization the model relies on: size and block words
    /// powers of two, the cache at least one block and at least two words
    /// (a one-word cache's tag is the whole 32-bit address, which leaves
    /// the tag store no value to mark an empty frame). The error names the
    /// broken rule and the geometry.
    pub fn check(&self) -> Result<(), String> {
        let broken = if !self.block_words.is_power_of_two() {
            "block size power of two"
        } else if !self.size_words.is_power_of_two() {
            "cache size power of two"
        } else if self.size_words < self.block_words {
            "cache smaller than one block"
        } else if self.size_words < 2 {
            "cache of at least two words"
        } else {
            return Ok(());
        };
        Err(format!(
            "{broken} (ecache size and block words must be powers of two, size >= block, \
             size >= 2: size_words={} block_words={})",
            self.size_words, self.block_words
        ))
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    fn num_blocks(&self) -> u32 {
        self.size_words / self.block_words
    }
}

impl Default for EcacheConfig {
    fn default() -> EcacheConfig {
        EcacheConfig::mipsx()
    }
}

/// Most frames one tag page holds. A page of 4K `u32` tags is 16 KiB,
/// allocated in the arena the first time one of its frames is written.
const TAG_PAGE_FRAMES: u32 = 4096;

/// The 64K-word external cache.
///
/// Direct-mapped, write-through with buffered (non-stalling) writes, and the
/// late-miss retry loop on read misses: the processor re-executes φ2 of its
/// MEM stage each cycle until main memory returns the block, costing
/// `late_miss_overhead + memory latency` stall cycles.
///
/// Data is not duplicated here — the cache tracks only tags and validity and
/// reads through to [`MainMemory`], which is exact for a write-through
/// hierarchy (the cache can never hold a value that differs from memory).
///
/// The tag store is paged: a program touches a few frames of the
/// ideal-memory configuration's million, so only the pages it writes are
/// allocated, and a cold start clears only those. The pages sit in one
/// arena, and a directory maps each to its offset there; every page not
/// yet written maps to the arena's first page, which stays all zero, so a
/// lookup never asks whether its page exists.
#[derive(Clone, Debug)]
pub struct Ecache {
    cfg: EcacheConfig,
    /// `dir[page]`: the arena offset of tag page `page`, 0 (the zero
    /// page) while none of its frames has been written.
    dir: Vec<u32>,
    /// Tag pages: `tag + 1` of the block cached in each frame, 0 for none.
    /// A cache of at least two words has tags below `u32::MAX`.
    arena: Vec<u32>,
    /// log2 of the frames per tag page.
    page_bits: u32,
    /// log2 of the words per block: an address's block number is
    /// `addr >> block_bits`.
    block_bits: u32,
    /// log2 of the frames: a block's tag is `block >> frame_bits`.
    frame_bits: u32,
    /// Block addresses ever read, for cold/conflict classification.
    seen_blocks: BlockSet,
    stats: CacheStats,
}

impl Ecache {
    /// Build an external cache with the given organization.
    ///
    /// # Panics
    /// Panics if sizes are not powers of two, the cache is smaller than a
    /// block, or it holds one word.
    pub fn new(cfg: EcacheConfig) -> Ecache {
        cfg.validate();
        let page_frames = cfg.num_blocks().min(TAG_PAGE_FRAMES);
        Ecache {
            dir: vec![0; (cfg.num_blocks() / page_frames) as usize],
            arena: vec![0; page_frames as usize],
            page_bits: page_frames.trailing_zeros(),
            block_bits: cfg.block_words.trailing_zeros(),
            frame_bits: cfg.num_blocks().trailing_zeros(),
            seen_blocks: BlockSet::default(),
            cfg,
            stats: CacheStats::new(),
        }
    }

    /// The MIPS-X board configuration.
    pub fn mipsx() -> Ecache {
        Ecache::new(EcacheConfig::mipsx())
    }

    /// The cache's configuration.
    pub fn config(&self) -> EcacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics (the contents stay warm).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Invalidate all blocks (cold start — miss classification restarts
    /// too).
    pub fn invalidate_all(&mut self) {
        self.dir.fill(0);
        self.arena.truncate(self.page_frames());
        self.seen_blocks.clear();
    }

    fn page_frames(&self) -> usize {
        1 << self.page_bits
    }

    /// Frame `index`'s slot in the arena (in the zero page while its page
    /// is unwritten).
    #[inline]
    fn slot(&self, index: usize) -> usize {
        self.dir[index >> self.page_bits] as usize + (index & (self.page_frames() - 1))
    }

    /// The tag held in frame `index`.
    fn tag(&self, index: usize) -> Option<u32> {
        self.arena[self.slot(index)].checked_sub(1)
    }

    /// Install `tag` in frame `index`, allocating its page on first write.
    #[inline]
    fn set_tag(&mut self, index: usize, tag: u32) {
        let page = index >> self.page_bits;
        if self.dir[page] == 0 {
            self.dir[page] = self.arena.len() as u32;
            self.arena.resize(self.arena.len() + self.page_frames(), 0);
        }
        let slot = self.slot(index);
        self.arena[slot] = tag + 1;
    }

    #[inline]
    fn index_and_tag(&self, addr: u32) -> (usize, u32) {
        // Sizes are powers of two: shifts and masks, not divisions.
        let block = addr >> self.block_bits;
        (
            (block & ((1 << self.frame_bits) - 1)) as usize,
            block >> self.frame_bits,
        )
    }

    /// Whether `addr` currently hits.
    pub fn probe(&self, addr: u32) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let (index, tag) = self.index_and_tag(addr);
        self.tag(index) == Some(tag)
    }

    /// Read a word through the cache.
    ///
    /// Returns `(data, extra_cycles)` where `extra_cycles` is the stall the
    /// processor pays beyond the base MEM cycle — zero on a hit, the
    /// late-miss retry loop on a miss.
    pub fn read(&mut self, addr: u32, mem: &mut MainMemory) -> (u32, u32) {
        let extra = self.access(addr, mem);
        (mem.peek(addr), extra)
    }

    /// Book a read of `addr` exactly as [`Ecache::read`] does — cache
    /// statistics, tags and `mem`'s read counter — without fetching the
    /// word, for callers that need only the stall. Returns the extra
    /// cycles.
    #[inline]
    pub fn access(&mut self, addr: u32, mem: &mut MainMemory) -> u32 {
        mem.count_read();
        if !self.cfg.enabled {
            // A disabled cache retains nothing: every read is compulsory.
            let extra = self.cfg.late_miss_overhead + mem.latency_cycles;
            self.stats.record_miss(extra as u64, 1);
            self.stats.record_miss_cause(MissCause::Cold);
            return extra;
        }
        let (index, tag) = self.index_and_tag(addr);
        if self.arena[self.slot(index)] == tag + 1 {
            self.stats.record_hit();
            return 0;
        }
        let extra = self.cfg.late_miss_overhead + mem.latency_cycles;
        self.set_tag(index, tag);
        self.stats
            .record_miss(extra as u64, self.cfg.block_words as u64);
        let cause = if self.seen_blocks.insert(addr >> self.block_bits) {
            MissCause::Cold
        } else {
            MissCause::Conflict
        };
        self.stats.record_miss_cause(cause);
        extra
    }

    /// Write a word through the cache (write-through, no write-allocate,
    /// buffered — no processor stall).
    ///
    /// Returns the extra stall cycles, always zero in this model: the write
    /// buffer absorbs the main-memory access, as in the write-through
    /// machines surveyed by Smith (the paper's reference [15]).
    pub fn write(&mut self, addr: u32, word: u32, mem: &mut MainMemory) -> u32 {
        // Write-through updates memory; if the block is resident it stays
        // valid (memory and cache agree because reads pass through).
        mem.write(addr, word);
        0
    }

    /// `(allocated frames, total frames)` — the direct-mapped cache's
    /// occupancy.
    pub fn occupancy(&self) -> (u32, u32) {
        let pages = &self.arena[self.page_frames()..];
        let allocated = pages.iter().filter(|&&t| t != 0).count() as u32;
        (allocated, self.cfg.num_blocks())
    }

    /// One-line occupancy summary.
    pub fn occupancy_report(&self) -> String {
        let (allocated, total) = self.occupancy();
        format!(
            "ecache occupancy: {allocated}/{total} frames allocated ({:.1}%)",
            allocated as f64 * 100.0 / total as f64
        )
    }
}

impl Default for Ecache {
    fn default() -> Ecache {
        Ecache::mipsx()
    }
}

/// Plain-data image of an [`Ecache`]'s mutable state (tags,
/// miss-classification history, statistics) for checkpointing. The
/// configuration is not part of the state — the owner restores into a
/// cache built with the identical [`EcacheConfig`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EcacheState {
    /// Tag per direct-mapped frame.
    pub tags: Vec<Option<u32>>,
    /// Block addresses ever read, sorted ascending (deterministic
    /// encoding of the same cache state).
    pub seen_blocks: Vec<u32>,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

impl Ecache {
    /// Capture the cache's mutable state for a checkpoint.
    pub fn snapshot_state(&self) -> EcacheState {
        let frames = self.page_frames();
        let mut tags = vec![None; self.cfg.num_blocks() as usize];
        for (chunk, &at) in tags.chunks_mut(frames).zip(&self.dir) {
            let page = &self.arena[at as usize..at as usize + frames];
            for (tag, &stored) in chunk.iter_mut().zip(page) {
                *tag = stored.checked_sub(1);
            }
        }
        EcacheState {
            tags,
            seen_blocks: self.seen_blocks.iter().collect(),
            stats: self.stats,
        }
    }

    /// Overwrite the cache's mutable state from a checkpoint taken from a
    /// cache with the same configuration. Fails (leaving the cache
    /// untouched) if the frame count does not match this organization or a
    /// tag is wider than its tags.
    pub fn restore_state(&mut self, state: &EcacheState) -> Result<(), String> {
        let frames = self.cfg.num_blocks() as usize;
        if state.tags.len() != frames {
            return Err(format!(
                "ecache state has {} frames, organization needs {frames}",
                state.tags.len(),
            ));
        }
        let max_tag = u32::MAX >> (self.block_bits + self.frame_bits);
        if let Some(tag) = state.tags.iter().flatten().find(|&&t| t > max_tag) {
            return Err(format!(
                "ecache state holds tag {tag:#x}, organization's tags stop at {max_tag:#x}"
            ));
        }
        self.dir.fill(0);
        self.arena.truncate(self.page_frames());
        for (index, tag) in state.tags.iter().enumerate() {
            if let Some(tag) = *tag {
                self.set_tag(index, tag);
            }
        }
        self.seen_blocks = state.seen_blocks.iter().copied().collect();
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Ecache, MainMemory) {
        let cache = Ecache::new(EcacheConfig {
            size_words: 64,
            block_words: 4,
            late_miss_overhead: 1,
            enabled: true,
        });
        (cache, MainMemory::with_latency(5))
    }

    #[test]
    fn cold_miss_then_hit() {
        let (mut c, mut m) = small();
        m.write(10, 99);
        let (v, extra) = c.read(10, &mut m);
        assert_eq!(v, 99);
        assert_eq!(extra, 6); // 1 late-miss + 5 memory
        let (v, extra) = c.read(10, &mut m);
        assert_eq!(v, 99);
        assert_eq!(extra, 0);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn block_granularity() {
        let (mut c, mut m) = small();
        let (_, miss) = c.read(8, &mut m);
        assert!(miss > 0);
        // Same 4-word block: 8..12 all hit now.
        for a in 9..12 {
            let (_, extra) = c.read(a, &mut m);
            assert_eq!(extra, 0, "address {a} should hit");
        }
        // Next block misses.
        let (_, extra) = c.read(12, &mut m);
        assert!(extra > 0);
    }

    #[test]
    fn conflicting_blocks_evict() {
        let (mut c, mut m) = small();
        // 64-word cache, 4-word blocks -> 16 frames; addresses 0 and 64
        // share frame 0.
        let (_, m1) = c.read(0, &mut m);
        let (_, m2) = c.read(64, &mut m);
        let (_, m3) = c.read(0, &mut m);
        assert!(m1 > 0 && m2 > 0 && m3 > 0, "conflict misses expected");
    }

    #[test]
    fn write_through_keeps_consistency() {
        let (mut c, mut m) = small();
        let _ = c.read(20, &mut m); // allocate block
        let stall = c.write(20, 1234, &mut m);
        assert_eq!(stall, 0);
        let (v, extra) = c.read(20, &mut m);
        assert_eq!(v, 1234);
        assert_eq!(extra, 0); // still resident
        assert_eq!(m.peek(20), 1234); // memory updated immediately
    }

    #[test]
    fn access_books_what_read_books() {
        for enabled in [true, false] {
            let cfg = EcacheConfig {
                enabled,
                ..small().0.config()
            };
            let (mut reader, mut reader_mem) = (Ecache::new(cfg), MainMemory::with_latency(5));
            let (mut booker, mut booker_mem) = (Ecache::new(cfg), MainMemory::with_latency(5));
            for addr in [0, 1, 64, 0, 200, 3, 64] {
                let (_, extra) = reader.read(addr, &mut reader_mem);
                assert_eq!(booker.access(addr, &mut booker_mem), extra);
            }
            assert_eq!(booker.snapshot_state(), reader.snapshot_state());
            assert_eq!(booker_mem.reads(), reader_mem.reads());
        }
    }

    #[test]
    fn disabled_cache_always_misses() {
        let mut c = Ecache::new(EcacheConfig {
            enabled: false,
            ..EcacheConfig::mipsx()
        });
        let mut m = MainMemory::with_latency(3);
        let (_, e1) = c.read(5, &mut m);
        let (_, e2) = c.read(5, &mut m);
        assert_eq!(e1, 4);
        assert_eq!(e2, 4);
        assert!(!c.probe(5));
    }

    #[test]
    fn probe_does_not_touch_stats() {
        let (mut c, mut m) = small();
        let _ = c.read(0, &mut m);
        let before = *c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(1000));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn invalidate_all_forces_cold() {
        let (mut c, mut m) = small();
        let _ = c.read(0, &mut m);
        c.invalidate_all();
        let (_, extra) = c.read(0, &mut m);
        assert!(extra > 0);
    }

    /// A one-word cache's tag is the whole address, with no value left to
    /// mark an empty frame; a state with a tag wider than the
    /// organization's cannot be restored.
    #[test]
    fn one_word_caches_and_wide_tags_are_refused() {
        let one_word = EcacheConfig {
            size_words: 1,
            block_words: 1,
            ..EcacheConfig::mipsx()
        };
        assert!(one_word.check().unwrap_err().contains("at least two words"));
        let two_words = EcacheConfig {
            size_words: 2,
            ..one_word
        };
        assert_eq!(two_words.check(), Ok(()));

        let (mut c, mut m) = small();
        let _ = c.read(u32::MAX, &mut m);
        let mut state = c.snapshot_state();
        assert!(state.tags.contains(&Some(u32::MAX >> 6)), "the top tag");
        state.tags[0] = Some(u32::MAX >> 6 | 1 << 26);
        assert!(c.restore_state(&state).is_err());
        assert!(
            c.probe(u32::MAX),
            "a refused restore leaves the cache as it was"
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_config_panics() {
        let _ = Ecache::new(EcacheConfig {
            size_words: 60,
            ..EcacheConfig::mipsx()
        });
    }
}

//! The on-chip instruction cache.
//!
//! *"The instruction cache is organized as an 8-way set-associative cache,
//! with 4 sets (rows) and 16 words in each block (line). A sub-block
//! replacement scheme is used so there are 512 valid bits, one per word, as
//! well as the 32 tags."*
//!
//! Two design decisions from the paper are first-class parameters here:
//!
//! - **miss service time**: placing the tags in the datapath made a 2-cycle
//!   miss possible instead of 3 — the paper found performance *"more
//!   sensitive to the miss service time than the miss ratio"*;
//! - **double-word fetch-back**: *"the 2 cache miss cycles could be used to
//!   fetch back 2 instructions, the one that missed and the next one to be
//!   executed ... Fetching back 2 words almost halves the miss ratio."*

use std::collections::HashSet;

use crate::hash::BuildU32Hasher;
use crate::stats::MissCause;
use crate::{CacheStats, Ecache, MainMemory};

/// Replacement policy within a row.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Replacement {
    /// Round-robin victim per row — a shift register in hardware, the kind
    /// of minimal logic the MIPS-X control philosophy favors.
    #[default]
    Fifo,
    /// Least-recently-used (more state; modeled for the organization sweep).
    Lru,
    /// Pseudo-random (xorshift; deterministic across runs).
    Random,
}

/// Organization of the instruction cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IcacheConfig {
    /// Number of rows (sets).
    pub rows: u32,
    /// Associativity (blocks per row).
    pub ways: u32,
    /// Words per block.
    pub block_words: u32,
    /// Words fetched back per miss (1 or 2). The real machine fetches 2.
    pub fetch_words: u32,
    /// Processor stall cycles per Icache miss (before any Ecache stall).
    /// 2 in the real machine; 3 if the tags had not been in the datapath.
    pub miss_penalty: u32,
    /// Replacement policy.
    pub replacement: Replacement,
    /// When false, every fetch bypasses the cache (the instruction-register
    /// test feature: *"allowing the processor to run with the cache
    /// disabled"*).
    pub enabled: bool,
    /// Ablation of the sub-block valid bits: when true, a miss fills the
    /// *entire* block before the processor resumes, paying one bus cycle
    /// per word (the external path delivers one word per 50 ns cycle —
    /// that is why the shipped double fetch-back takes exactly 2 cycles)
    /// instead of the 2-cycle sub-block service. This is the design the
    /// 512 per-word valid bits exist to avoid.
    pub whole_block_fill: bool,
}

impl IcacheConfig {
    /// The shipped MIPS-X organization: 4 rows × 8 ways × 16 words =
    /// 512 words, 2-cycle miss, double-word fetch-back.
    pub fn mipsx() -> IcacheConfig {
        IcacheConfig {
            rows: 4,
            ways: 8,
            block_words: 16,
            fetch_words: 2,
            miss_penalty: 2,
            replacement: Replacement::Fifo,
            enabled: true,
            whole_block_fill: false,
        }
    }

    /// Total capacity in words.
    pub fn size_words(&self) -> u32 {
        self.rows * self.ways * self.block_words
    }

    /// Check the organization the model relies on: rows and block words
    /// powers of two (blocks of at most 64 words, one valid bit each), at
    /// least one way, a 1- or 2-word fetch-back. The error names the
    /// broken rule and the geometry.
    pub fn check(&self) -> Result<(), String> {
        let broken = if !self.rows.is_power_of_two() {
            "rows must be a power of two"
        } else if !self.block_words.is_power_of_two() || self.block_words > 64 {
            "block words must be a power of two <= 64"
        } else if self.ways == 0 {
            "at least one way"
        } else if !(1..=2).contains(&self.fetch_words) {
            "fetch-back of 1 or 2 words"
        } else {
            return Ok(());
        };
        Err(format!(
            "{broken} (icache rows and block words must be powers of two, block <= 64, \
             with >= 1 way and a 1- or 2-word fetch-back: rows={} ways={} block_words={} \
             fetch_words={})",
            self.rows, self.ways, self.block_words, self.fetch_words
        ))
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for IcacheConfig {
    fn default() -> IcacheConfig {
        IcacheConfig::mipsx()
    }
}

/// One cached block: a tag plus per-word valid bits (sub-block placement).
#[derive(Clone, Copy, Debug, Default)]
struct Block {
    tag: Option<u32>,
    /// Bit `i` set ⇔ word `i` of the block is valid.
    valid: u64,
    /// Recency stamp for LRU.
    stamp: u64,
}

/// Where a line sits in its row, from one scan of the row's ways.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// The line's tag holds this block (a tag occupies at most one way of
    /// a row: a fill allocates only when its tag is absent).
    Present(usize),
    /// The tag is absent: the first unallocated way, if any, and (under
    /// LRU replacement) the least recently stamped way — the victim
    /// candidates.
    Absent { empty: Option<u32>, lru: u32 },
    /// The cache is disabled and retains nothing.
    Bypass,
}

/// Result of probing the instruction cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FetchOutcome {
    /// The word is resident.
    Hit,
    /// The word is absent; servicing costs the configured penalty plus any
    /// external-cache stall.
    Miss,
}

/// Result of a trace-driven simulation run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceResult {
    /// Hit/miss accounting for the run.
    pub stats: CacheStats,
    /// Average cycles per instruction fetch (1 + amortized stalls) — the
    /// paper's cost metric (1.24 for the final design).
    pub avg_fetch_cycles: f64,
}

/// The on-chip instruction cache.
#[derive(Clone, Debug)]
pub struct Icache {
    cfg: IcacheConfig,
    /// `blocks[row * ways + way]`.
    blocks: Vec<Block>,
    /// FIFO pointer per row.
    fifo: Vec<u32>,
    /// Recency counter for LRU stamps.
    clock: u64,
    /// xorshift state for random replacement.
    rng: u64,
    /// Block addresses ever referenced, for cold/conflict classification.
    seen_blocks: HashSet<u32, BuildU32Hasher>,
    stats: CacheStats,
}

impl Icache {
    /// Build an instruction cache with the given organization.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see [`IcacheConfig`] field
    /// docs).
    pub fn new(cfg: IcacheConfig) -> Icache {
        cfg.validate();
        Icache {
            blocks: vec![Block::default(); (cfg.rows * cfg.ways) as usize],
            fifo: vec![0; cfg.rows as usize],
            clock: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            seen_blocks: HashSet::default(),
            cfg,
            stats: CacheStats::new(),
        }
    }

    /// The shipped MIPS-X organization.
    pub fn mipsx() -> Icache {
        Icache::new(IcacheConfig::mipsx())
    }

    /// The cache's configuration.
    pub fn config(&self) -> IcacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset statistics, keeping contents warm.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Invalidate everything (cold start — miss classification restarts
    /// too, so the first re-reference of each block counts as cold again).
    pub fn invalidate_all(&mut self) {
        for b in &mut self.blocks {
            *b = Block::default();
        }
        self.fifo.fill(0);
        self.seen_blocks.clear();
    }

    #[inline]
    fn locate(&self, addr: u32) -> (u32, u32, u32) {
        // Rows and block words are powers of two: shifts and masks.
        let block_addr = addr >> self.cfg.block_words.trailing_zeros();
        let row = block_addr & (self.cfg.rows - 1);
        let tag = block_addr >> self.cfg.rows.trailing_zeros();
        let word = addr & (self.cfg.block_words - 1);
        (row, tag, word)
    }

    #[inline]
    fn block_index(&self, row: u32, way: u32) -> usize {
        (row * self.cfg.ways + way) as usize
    }

    /// Drop the sub-block valid bit covering `addr`, as a detected parity
    /// error would: the stored word can no longer be trusted, so the next
    /// fetch of `addr` misses with [`MissCause::SubBlockInvalid`] and
    /// refetches the word (and its fetch-back partner) through the external
    /// cache. The block's tag stays resident — parity kills one word, not
    /// the block. Returns whether the word was resident (a non-resident
    /// word has no parity to fail).
    pub fn invalidate_word(&mut self, addr: u32) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let (row, tag, word) = self.locate(addr);
        for way in 0..self.cfg.ways {
            let index = self.block_index(row, way);
            let b = &mut self.blocks[index];
            if b.tag == Some(tag) && b.valid & (1 << word) != 0 {
                b.valid &= !(1 << word);
                return true;
            }
        }
        false
    }

    /// Whether `addr` is resident (no statistics side effects).
    pub fn probe(&self, addr: u32) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let (row, tag, word) = self.locate(addr);
        (0..self.cfg.ways).any(|way| {
            let b = &self.blocks[self.block_index(row, way)];
            b.tag == Some(tag) && b.valid & (1 << word) != 0
        })
    }

    /// Record a fetch of `addr`, updating statistics and replacement state.
    /// On a miss the service cost is attributed separately by whoever
    /// services it ([`Icache::fetch_through`] or [`Icache::simulate_trace`]).
    pub fn fetch(&mut self, addr: u32) -> FetchOutcome {
        match self.access(addr) {
            Ok(_) => FetchOutcome::Hit,
            Err(_) => FetchOutcome::Miss,
        }
    }

    /// One row scan for line `(row, tag)`: the way holding the tag, or
    /// else the victim candidates.
    #[inline]
    fn scan(&self, row: u32, tag: u32) -> Slot {
        let base = self.block_index(row, 0);
        let track_lru = self.cfg.replacement == Replacement::Lru;
        let mut empty = None;
        let (mut lru, mut oldest) = (0, u64::MAX);
        for (way, b) in self.blocks[base..base + self.cfg.ways as usize]
            .iter()
            .enumerate()
        {
            match b.tag {
                Some(t) if t == tag => return Slot::Present(base + way),
                None if empty.is_none() => empty = Some(way as u32),
                _ => {}
            }
            if track_lru && b.stamp < oldest {
                (lru, oldest) = (way as u32, b.stamp);
            }
        }
        Slot::Absent { empty, lru }
    }

    /// [`Icache::fetch`]'s bookkeeping: `Ok(block index)` on a hit, or the
    /// miss (its cause recorded) with the row scan its fill will use.
    #[inline]
    fn access(&mut self, addr: u32) -> Result<usize, Slot> {
        if !self.cfg.enabled {
            // A disabled cache never retains anything: every fetch is a
            // compulsory trip off-chip.
            self.stats.record_miss_pending();
            self.stats.record_miss_cause(MissCause::Cold);
            return Err(Slot::Bypass);
        }
        let (row, tag, word) = self.locate(addr);
        let slot = self.scan(row, tag);
        if let Slot::Present(index) = slot {
            if self.blocks[index].valid & (1 << word) != 0 {
                self.book_hits(index, 1);
                return Ok(index);
            }
        }
        self.stats.record_miss_pending();
        let block_addr = addr >> self.cfg.block_words.trailing_zeros();
        let first_reference = self.seen_blocks.insert(block_addr);
        let cause = match slot {
            Slot::Present(_) => MissCause::SubBlockInvalid,
            _ if first_reference => MissCause::Cold,
            _ => MissCause::Conflict,
        };
        self.stats.record_miss_cause(cause);
        Err(slot)
    }

    /// Book `words` hits on block `index`, the last of them now: the
    /// statistics and the recency stamp that every hit path records.
    #[inline]
    fn book_hits(&mut self, index: usize, words: u32) {
        self.clock += u64::from(words);
        self.blocks[index].stamp = self.clock;
        self.stats.accesses += u64::from(words);
        self.stats.hits += u64::from(words);
    }

    /// The runs of `len` sequential fetches from `start` that fall in one
    /// block (line), in fetch order, as `(row, tag, valid bits needed,
    /// fetches)`. Organizations are powers of two, so this is shifts and
    /// masks.
    #[inline]
    fn line_runs(&self, start: u32, len: u32) -> impl Iterator<Item = (u32, u32, u64, u32)> {
        let word_bits = self.cfg.block_words.trailing_zeros();
        let row_bits = self.cfg.rows.trailing_zeros();
        let end = u64::from(start) + u64::from(len);
        let mut addr = u64::from(start);
        std::iter::from_fn(move || {
            if addr >= end {
                return None;
            }
            let line = addr >> word_bits;
            let next = ((line + 1) << word_bits).min(end);
            let (lo, words) = ((addr & ((1 << word_bits) - 1)) as u32, (next - addr) as u32);
            let mask = (u64::MAX >> (64 - words)) << lo;
            addr = next;
            let (row, tag) = (
                line as u32 & ((1 << row_bits) - 1),
                (line >> row_bits) as u32,
            );
            Some((row, tag, mask, words))
        })
    }

    /// The way holding line `(row, tag)` with every word of `mask` valid.
    #[inline]
    fn resident_way(&self, row: u32, tag: u32, mask: u64) -> Option<usize> {
        let base = self.block_index(row, 0);
        self.blocks[base..base + self.cfg.ways as usize]
            .iter()
            .position(|b| b.tag == Some(tag) && b.valid & mask == mask)
            .map(|way| base + way)
    }

    /// Book `len` sequential fetches from `start` that all hit, in one
    /// step. If every word is resident, record one hit per word and stamp
    /// each line's recency as its last fetch would have — exactly what
    /// [`Icache::fetch`] does word by word — and return true. Otherwise
    /// change nothing and return false; the caller then fetches the words
    /// one at a time.
    pub fn hit_run(&mut self, start: u32, len: u32) -> bool {
        if !self.cfg.enabled
            || !self
                .line_runs(start, len)
                .all(|(row, tag, mask, _)| self.resident_way(row, tag, mask).is_some())
        {
            return false;
        }
        for (row, tag, mask, words) in self.line_runs(start, len) {
            let index = self.resident_way(row, tag, mask).expect("checked resident");
            self.book_hits(index, words);
        }
        true
    }

    /// Install `addr` (allocating a block if its tag is absent) and mark its
    /// word valid. Returns true if a whole block had to be (re)allocated.
    pub fn fill(&mut self, addr: u32) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let (row, tag, word) = self.locate(addr);
        let slot = self.scan(row, tag);
        self.install(row, tag, word, slot);
        matches!(slot, Slot::Absent { .. })
    }

    /// Mark `word` of line `(row, tag)` valid in the block `slot` found,
    /// allocating a victim way when the tag is absent. Returns the block's
    /// index (`None` for a disabled cache).
    fn install(&mut self, row: u32, tag: u32, word: u32, slot: Slot) -> Option<usize> {
        let index = match slot {
            Slot::Bypass => return None,
            Slot::Present(index) => index,
            Slot::Absent { empty, lru } => {
                let way = self.victim(row, empty, lru);
                let index = self.block_index(row, way);
                self.blocks[index] = Block {
                    tag: Some(tag),
                    ..Block::default()
                };
                index
            }
        };
        self.clock += 1;
        let b = &mut self.blocks[index];
        b.valid |= 1 << word;
        b.stamp = self.clock;
        Some(index)
    }

    /// The way a fill of an absent tag evicts, from [`Icache::scan`]'s
    /// candidates.
    fn victim(&mut self, row: u32, empty: Option<u32>, lru: u32) -> u32 {
        // Prefer an unallocated way regardless of policy.
        if let Some(way) = empty {
            return way;
        }
        match self.cfg.replacement {
            Replacement::Fifo => {
                let way = self.fifo[row as usize];
                self.fifo[row as usize] = (way + 1) % self.cfg.ways;
                way
            }
            Replacement::Lru => lru,
            Replacement::Random => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % self.cfg.ways as u64) as u32
            }
        }
    }

    /// Fetch through the full hierarchy, servicing misses via the external
    /// cache and main memory.
    ///
    /// Returns `(instruction word, stall cycles)`. A hit costs no stalls; a
    /// miss costs [`IcacheConfig::miss_penalty`] plus whatever the Ecache
    /// retry loop adds, and fetches back [`IcacheConfig::fetch_words`] words
    /// (the missed word and its sequential successor — the paper's key
    /// bandwidth observation).
    pub fn fetch_through(
        &mut self,
        addr: u32,
        ecache: &mut Ecache,
        mem: &mut MainMemory,
    ) -> (u32, u32) {
        match self.access(addr) {
            Ok(_) => (mem.peek(addr), 0),
            Err(slot) => self.service_miss(addr, slot, ecache, mem),
        }
    }

    /// [`Icache::fetch_through`] for a caller that needs only the stall
    /// cycles (a block engine replaying fetches it has already decoded): a
    /// hit skips the memory read.
    pub fn fetch_stall(&mut self, addr: u32, ecache: &mut Ecache, mem: &mut MainMemory) -> u32 {
        match self.access(addr) {
            Ok(_) => 0,
            Err(slot) => self.service_miss(addr, slot, ecache, mem).1,
        }
    }

    /// Service the miss [`Icache::access`] just recorded for `addr`: bring
    /// the word (and its fetch-back partner) on-chip through the external
    /// cache. Returns `(instruction word, stall cycles)`.
    fn service_miss(
        &mut self,
        addr: u32,
        slot: Slot,
        ecache: &mut Ecache,
        mem: &mut MainMemory,
    ) -> (u32, u32) {
        // The word comes on-chip through the Ecache.
        let (word, extra) = ecache.read(addr, mem);
        let stall = self.fill_miss(addr, slot, extra, |a| ecache.read(a, mem).1);
        (word, stall)
    }

    /// The miss-fill rule, one for the hierarchy and the trace-driven
    /// path: install the missed word and its fetch-back partner (or, in
    /// the whole-block ablation, the whole block) and book the service
    /// cost. `slot` is the row scan of the miss; `stall` is what fetching
    /// `addr` itself cost off-chip; `next_level(a)` brings one more word
    /// on-chip and returns its extra stall. Returns the miss's stall
    /// cycles.
    fn fill_miss(
        &mut self,
        addr: u32,
        slot: Slot,
        mut stall: u32,
        mut next_level: impl FnMut(u32) -> u32,
    ) -> u32 {
        let (row, tag, word) = self.locate(addr);
        let filled = if self.cfg.whole_block_fill {
            // Ablation: stream the whole block in at one word per bus cycle.
            stall += self.cfg.block_words.max(2);
            let mut slot = slot;
            for w in 0..self.cfg.block_words {
                stall += next_level(addr - word + w);
                if let Some(index) = self.install(row, tag, w, slot) {
                    slot = Slot::Present(index);
                }
            }
            self.cfg.block_words
        } else {
            stall += self.cfg.miss_penalty;
            self.install(row, tag, word, slot);
            if self.cfg.fetch_words == 2 {
                // The second fetch rides the otherwise-idle miss cycle; only
                // an Ecache miss on it can add stalls (rare: same block).
                stall += next_level(addr + 1);
                self.fill(addr + 1);
            }
            self.cfg.fetch_words
        };
        self.stats
            .add_miss_cost(u64::from(stall), u64::from(filled));
        stall
    }

    /// Drive the cache with a pure instruction-address trace, charging the
    /// configured miss penalty per miss (no Ecache model — the paper's
    /// cache-organization studies were run exactly this way, trace-driven).
    ///
    /// Books exactly what [`Icache::fetch`] plus the miss-fill rule would,
    /// word by word. A fetch in the line the previous fetch hit skips the
    /// row scan: a tag occupies at most one way of a row, and only a miss's
    /// fill moves blocks, so that line is still where the hit found it.
    /// On the paper's Icache traces (E2, E3, E12) 66–79 % of fetches take
    /// that path.
    pub fn simulate_trace<I: IntoIterator<Item = u32>>(&mut self, trace: I) -> TraceResult {
        let word_bits = self.cfg.block_words.trailing_zeros();
        let word_mask = self.cfg.block_words - 1;
        // `(line address, block index)` of the previous fetch, if it hit.
        let mut last_hit: Option<(u32, usize)> = None;
        for addr in trace {
            let line = addr >> word_bits;
            if let Some((hit_line, index)) = last_hit {
                if hit_line == line && self.blocks[index].valid & (1 << (addr & word_mask)) != 0 {
                    self.book_hits(index, 1);
                    continue;
                }
            }
            match self.access(addr) {
                Ok(index) => last_hit = Some((line, index)),
                Err(slot) => {
                    last_hit = None;
                    self.fill_miss(addr, slot, 0, |_| 0);
                }
            }
        }
        TraceResult {
            stats: self.stats,
            avg_fetch_cycles: self.stats.avg_access_cycles(),
        }
    }

    /// Per-set/way occupancy: `occupancy()[row][way]` is the number of
    /// valid words in that block (0..=block_words; 0 with no tag means the
    /// way is unallocated).
    pub fn occupancy(&self) -> Vec<Vec<u32>> {
        let mask = if self.cfg.block_words == 64 {
            u64::MAX
        } else {
            (1u64 << self.cfg.block_words) - 1
        };
        (0..self.cfg.rows)
            .map(|row| {
                (0..self.cfg.ways)
                    .map(|way| {
                        let b = &self.blocks[self.block_index(row, way)];
                        if b.tag.is_some() {
                            (b.valid & mask).count_ones()
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Render the occupancy grid: one line per row (set), one cell per way
    /// with the valid-word count, `.` marking unallocated ways.
    pub fn occupancy_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "icache occupancy ({} rows x {} ways, {} words/block):\n",
            self.cfg.rows, self.cfg.ways, self.cfg.block_words
        ));
        for (row, ways) in self.occupancy().into_iter().enumerate() {
            out.push_str(&format!("  row {row}:"));
            for (way, count) in ways.into_iter().enumerate() {
                let b = &self.blocks[self.block_index(row as u32, way as u32)];
                if b.tag.is_some() {
                    out.push_str(&format!(" {count:>2}"));
                } else {
                    out.push_str("  .");
                }
            }
            out.push('\n');
        }
        out
    }
}

impl Default for Icache {
    fn default() -> Icache {
        Icache::mipsx()
    }
}

/// Plain-data image of an [`Icache`]'s mutable state — tags, sub-block
/// valid bits, replacement state (FIFO pointers, LRU clock, xorshift RNG),
/// miss-classification history, and statistics — for checkpointing. The
/// configuration is *not* part of the state: the owner restores into a
/// cache built with the identical [`IcacheConfig`], and
/// [`Icache::restore_state`] rejects a state whose shape does not match.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcacheState {
    /// `(tag, valid bits, recency stamp)` per block, in
    /// `row * ways + way` order.
    pub blocks: Vec<(Option<u32>, u64, u64)>,
    /// FIFO victim pointer per row.
    pub fifo: Vec<u32>,
    /// LRU recency clock.
    pub clock: u64,
    /// xorshift state for random replacement.
    pub rng: u64,
    /// Block addresses ever referenced, sorted ascending (so the encoding
    /// of the same cache state is always byte-identical).
    pub seen_blocks: Vec<u32>,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

impl Icache {
    /// Capture the cache's mutable state for a checkpoint.
    pub fn snapshot_state(&self) -> IcacheState {
        let mut seen_blocks: Vec<u32> = self.seen_blocks.iter().copied().collect();
        seen_blocks.sort_unstable();
        IcacheState {
            blocks: self
                .blocks
                .iter()
                .map(|b| (b.tag, b.valid, b.stamp))
                .collect(),
            fifo: self.fifo.clone(),
            clock: self.clock,
            rng: self.rng,
            seen_blocks,
            stats: self.stats,
        }
    }

    /// Overwrite the cache's mutable state from a checkpoint taken from a
    /// cache with the same configuration. Fails (leaving the cache
    /// untouched) if the state's shape does not match this organization.
    pub fn restore_state(&mut self, state: &IcacheState) -> Result<(), String> {
        if state.blocks.len() != self.blocks.len() {
            return Err(format!(
                "icache state has {} blocks, organization needs {}",
                state.blocks.len(),
                self.blocks.len()
            ));
        }
        if state.fifo.len() != self.fifo.len() {
            return Err(format!(
                "icache state has {} fifo pointers, organization needs {}",
                state.fifo.len(),
                self.fifo.len()
            ));
        }
        for (b, &(tag, valid, stamp)) in self.blocks.iter_mut().zip(&state.blocks) {
            *b = Block { tag, valid, stamp };
        }
        self.fifo.copy_from_slice(&state.fifo);
        self.clock = state.clock;
        self.rng = state.rng;
        self.seen_blocks = state.seen_blocks.iter().copied().collect();
        self.stats = state.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mipsx_organization_is_512_words() {
        let cfg = IcacheConfig::mipsx();
        assert_eq!(cfg.size_words(), 512);
        assert_eq!(cfg.rows * cfg.ways, 32); // 32 tags
        assert_eq!(cfg.size_words(), 512); // 512 valid bits, one per word
    }

    #[test]
    fn miss_then_hit_same_word() {
        let mut c = Icache::mipsx();
        assert_eq!(c.fetch(100), FetchOutcome::Miss);
        c.fill(100);
        assert_eq!(c.fetch(100), FetchOutcome::Hit);
    }

    #[test]
    fn sub_block_validity_is_per_word() {
        let mut c = Icache::mipsx();
        c.fill(0);
        assert!(c.probe(0));
        // Word 1 of the same block is NOT valid until filled.
        assert!(!c.probe(1));
        c.fill(1);
        assert!(c.probe(1));
    }

    #[test]
    fn double_fetch_halves_sequential_misses() {
        // A purely sequential trace: with fetch_words=2 every other fetch
        // hits, so the miss ratio is half that of fetch_words=1.
        let trace: Vec<u32> = (0..4096).collect();
        let mut single = Icache::new(IcacheConfig {
            fetch_words: 1,
            ..IcacheConfig::mipsx()
        });
        let mut double = Icache::new(IcacheConfig::mipsx());
        let r1 = single.simulate_trace(trace.iter().copied());
        let r2 = double.simulate_trace(trace.iter().copied());
        assert!((r1.stats.miss_ratio() - 1.0).abs() < 1e-9);
        assert!((r2.stats.miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn loop_inside_cache_hits_forever() {
        let mut c = Icache::mipsx();
        let loop_body: Vec<u32> = (0..64).collect();
        // Warm up.
        let _ = c.simulate_trace(loop_body.iter().copied());
        c.reset_stats();
        for _ in 0..10 {
            let _ = c.simulate_trace(loop_body.iter().copied());
        }
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Icache::mipsx();
        // 4096-word loop >> 512-word cache: every block is evicted before
        // reuse, so the steady-state miss ratio stays at the cold rate.
        let big_loop: Vec<u32> = (0..4096).collect();
        for _ in 0..4 {
            let _ = c.simulate_trace(big_loop.iter().copied());
        }
        assert!(c.stats().miss_ratio() > 0.4);
    }

    #[test]
    fn fetch_through_returns_memory_contents() {
        let mut c = Icache::mipsx();
        let mut e = Ecache::mipsx();
        let mut m = MainMemory::new();
        m.write(40, 0xABCD);
        let (w, stall) = c.fetch_through(40, &mut e, &mut m);
        assert_eq!(w, 0xABCD);
        // 2-cycle Icache penalty + Ecache cold miss (1 late + 5 memory).
        assert_eq!(stall, 8);
        let (w, stall) = c.fetch_through(40, &mut e, &mut m);
        assert_eq!(w, 0xABCD);
        assert_eq!(stall, 0);
        // The double fetch installed word 41 too.
        let (_, stall) = c.fetch_through(41, &mut e, &mut m);
        assert_eq!(stall, 0);
    }

    #[test]
    fn disabled_cache_misses_every_fetch() {
        let mut c = Icache::new(IcacheConfig {
            enabled: false,
            ..IcacheConfig::mipsx()
        });
        let r = c.simulate_trace([0, 0, 0]);
        assert_eq!(r.stats.misses, 3);
    }

    #[test]
    fn replacement_policies_differ_but_work() {
        for policy in [Replacement::Fifo, Replacement::Lru, Replacement::Random] {
            let mut c = Icache::new(IcacheConfig {
                replacement: policy,
                ..IcacheConfig::mipsx()
            });
            // 9 conflicting blocks in a 8-way row force evictions.
            let conflicting: Vec<u32> = (0..9)
                .map(|i| i * IcacheConfig::mipsx().block_words * IcacheConfig::mipsx().rows)
                .collect();
            for _ in 0..4 {
                for &a in &conflicting {
                    if c.fetch(a) == FetchOutcome::Miss {
                        c.fill(a);
                    }
                }
            }
            assert!(c.stats().misses >= 9, "{policy:?} must evict");
        }
    }

    #[test]
    fn lru_beats_fifo_on_skewed_reuse() {
        // One hot block touched between bursts of conflicting blocks: LRU
        // keeps it, FIFO eventually rotates it out.
        let cfg = IcacheConfig {
            rows: 1,
            ways: 4,
            block_words: 4,
            fetch_words: 1,
            ..IcacheConfig::mipsx()
        };
        let mut trace = Vec::new();
        for round in 0..64u32 {
            trace.push(0); // hot block
                           // Three distinct cold blocks per round.
            for k in 0..3 {
                trace.push((1 + round * 3 + k) * 4);
            }
        }
        let run = |replacement| {
            let mut c = Icache::new(IcacheConfig { replacement, ..cfg });
            c.simulate_trace(trace.iter().copied()).stats.misses
        };
        assert!(run(Replacement::Lru) < run(Replacement::Fifo));
    }

    #[test]
    fn avg_fetch_cycles_formula() {
        let mut c = Icache::mipsx();
        let r = c.simulate_trace((0..100u32).chain(0..100));
        // Sequential + repeat: some hits, some misses; cost = 1 + 2*missratio.
        let expected = 1.0 + 2.0 * r.stats.miss_ratio();
        assert!((r.avg_fetch_cycles - expected).abs() < 1e-9);
    }

    #[test]
    fn miss_causes_classified() {
        // 1 row x 2 ways x 4-word blocks: easy to force every miss kind.
        let mut c = Icache::new(IcacheConfig {
            rows: 1,
            ways: 2,
            block_words: 4,
            fetch_words: 1,
            ..IcacheConfig::mipsx()
        });
        assert_eq!(c.fetch(0), FetchOutcome::Miss); // cold (block 0)
        c.fill(0);
        assert_eq!(c.fetch(1), FetchOutcome::Miss); // sub-block (word 1 invalid)
        c.fill(1);
        assert_eq!(c.fetch(4), FetchOutcome::Miss); // cold (block 1)
        c.fill(4);
        assert_eq!(c.fetch(8), FetchOutcome::Miss); // cold (block 2, evicts block 0)
        c.fill(8);
        assert_eq!(c.fetch(0), FetchOutcome::Miss); // conflict (block 0 again)
        c.fill(0);
        let s = c.stats();
        assert_eq!(s.cold_misses, 3);
        assert_eq!(s.sub_block_misses, 1);
        assert_eq!(s.conflict_misses, 1);
        assert_eq!(s.classified_misses(), s.misses);
        // Occupancy reflects the valid words per way.
        let occ = c.occupancy();
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].len(), 2);
        // Final contents: block 2 (word 8) in way 0, refilled block 0
        // (word 0) in way 1 — one valid word each.
        assert_eq!(occ[0].iter().sum::<u32>(), 2);
        assert!(c.occupancy_report().contains("icache occupancy"));
    }

    #[test]
    fn hit_run_books_like_word_by_word_fetches() {
        let cfg = IcacheConfig {
            replacement: Replacement::Lru,
            ..IcacheConfig::mipsx()
        };
        // Warm a 40-word range that spans three lines, then replay a
        // 20-word sequence crossing a line boundary both ways.
        let mut warm = Icache::new(cfg);
        let _ = warm.simulate_trace(100..140);
        let mut bulk = warm.clone();
        let mut words = warm.clone();
        assert!(bulk.hit_run(110, 20));
        for a in 110..130 {
            assert_eq!(words.fetch(a), FetchOutcome::Hit);
        }
        assert_eq!(bulk.snapshot_state(), words.snapshot_state());

        // One absent word refuses the whole sequence and leaves no trace.
        let before = warm.snapshot_state();
        assert!(!warm.hit_run(130, 20));
        assert_eq!(warm.snapshot_state(), before);
        let disabled = IcacheConfig {
            enabled: false,
            ..cfg
        };
        assert!(!Icache::new(disabled).hit_run(0, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_rows_panics() {
        let _ = Icache::new(IcacheConfig {
            rows: 3,
            ..IcacheConfig::mipsx()
        });
    }
}

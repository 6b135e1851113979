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

use crate::block_set::BlockSet;
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

/// The tag of an unallocated way. A tag is at most 32 bits, so no line's
/// tag equals it.
const NO_TAG: u64 = u64::MAX;

/// Where a line sits in its row, from one scan of the row's tags.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// The line's tag holds this block (a tag occupies at most one way of
    /// a row: a fill allocates only when its tag is absent).
    Present(usize),
    /// The tag is absent; a fill picks its victim way then.
    Absent,
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

/// Lines a [`HitMemo`] holds; a run over more lines is booked line by line
/// every time. Eight lines cover a loop trip of up to 32 words at 4-word
/// blocks.
const MEMO_LINES: usize = 8;

/// The lines one sequential run booked on its last pass, for
/// [`Icache::fetch_run`] to book again without a row scan while each of
/// them still holds its tag with the words the run fetches valid. A memo
/// serves one run of one cache: a caller that may hand it another cache (a
/// rebuilt or restored one) clears it first.
#[derive(Clone, Copy, Debug, Default)]
pub struct HitMemo {
    start: u32,
    /// The run's length; 0 when the memo holds nothing (an empty run books
    /// nothing, replayed or not).
    len: u32,
    lines: u8,
    /// Per line in fetch order: its block index, its tag, the mask of its
    /// words the run fetches and how many they are.
    index: [u32; MEMO_LINES],
    tag: [u32; MEMO_LINES],
    window: [u64; MEMO_LINES],
    words: [u8; MEMO_LINES],
}

impl HitMemo {
    /// Whether the memo records the run of `len` fetches from `start`:
    /// after a pass over that run that missed nothing, the cache holds
    /// every line it recorded with the run's words valid, so
    /// [`Icache::replay`] books further passes exactly.
    #[inline]
    pub fn covers(&self, start: u32, len: u32) -> bool {
        self.start == start && self.len == len
    }

    /// Whether every recorded line of the run is still resident in its
    /// block with the run's words valid, so the run hits throughout.
    #[inline]
    fn holds(&self, icache: &Icache) -> bool {
        (0..usize::from(self.lines)).all(|line| {
            let index = self.index[line] as usize;
            let window = self.window[line];
            icache.tags[index] == u64::from(self.tag[line])
                && icache.valid[index] & window == window
        })
    }
}

/// The on-chip instruction cache.
#[derive(Clone, Debug)]
pub struct Icache {
    cfg: IcacheConfig,
    /// The blocks, one entry per way in `row * ways + way` order across
    /// parallel arrays, so a row scan reads only its contiguous tags.
    /// `tags[i]` is the block's tag ([`NO_TAG`] when unallocated).
    tags: Vec<u64>,
    /// `valid[i]` bit `w` set ⇔ word `w` of block `i` is valid (sub-block
    /// placement).
    valid: Vec<u64>,
    /// `stamps[i]`: block `i`'s recency stamp, for LRU.
    stamps: Vec<u64>,
    /// `known[i]`: block `i`'s address is already in `seen_blocks`, so a
    /// sub-block miss on it skips the insert. A pure memo — `false`
    /// is always safe — so it is not part of [`IcacheState`].
    known: Vec<bool>,
    /// FIFO pointer per row.
    fifo: Vec<u32>,
    /// Unallocated ways per row, so a fill into a full row skips the
    /// search for one. Derived from `tags`, so not part of [`IcacheState`].
    free: Vec<u32>,
    /// Recency counter for LRU stamps.
    clock: u64,
    /// xorshift state for random replacement.
    rng: u64,
    /// Block addresses ever referenced, for cold/conflict classification.
    seen_blocks: BlockSet,
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
        let blocks = (cfg.rows * cfg.ways) as usize;
        Icache {
            tags: vec![NO_TAG; blocks],
            valid: vec![0; blocks],
            stamps: vec![0; blocks],
            known: vec![false; blocks],
            fifo: vec![0; cfg.rows as usize],
            free: vec![cfg.ways; cfg.rows as usize],
            clock: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            seen_blocks: BlockSet::default(),
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
        self.tags.fill(NO_TAG);
        self.valid.fill(0);
        self.stamps.fill(0);
        self.known.fill(false);
        self.fifo.fill(0);
        self.free.fill(self.cfg.ways);
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
        match self.scan(row, tag) {
            Slot::Present(index) if self.valid[index] & (1 << word) != 0 => {
                self.valid[index] &= !(1 << word);
                true
            }
            _ => false,
        }
    }

    /// Whether `addr` is resident (no statistics side effects).
    pub fn probe(&self, addr: u32) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let (row, tag, word) = self.locate(addr);
        matches!(self.scan(row, tag),
            Slot::Present(index) if self.valid[index] & (1 << word) != 0)
    }

    /// Record a fetch of `addr`, updating statistics and replacement state.
    /// On a miss the service cost is attributed separately by whoever
    /// services it ([`Icache::fetch_through`], or the trace path of
    /// [`Icache::simulate_runs`]).
    pub fn fetch(&mut self, addr: u32) -> FetchOutcome {
        match self.access(addr) {
            Ok(_) => FetchOutcome::Hit,
            Err(_) => FetchOutcome::Miss,
        }
    }

    /// One row scan for line `(row, tag)`: the way holding the tag, if
    /// any. It compares every way, with no early exit: a tag sits in at
    /// most one way, and a scan with no exit branch to mispredict was
    /// faster than one that stops at the tag (4- to 16-word-block traces).
    #[inline]
    fn scan(&self, row: u32, tag: u32) -> Slot {
        let base = self.block_index(row, 0);
        let tag = u64::from(tag);
        // `usize::MAX` for none: an `Option` here measured slower.
        let mut hit = usize::MAX;
        for (way, &t) in self.tags[base..base + self.cfg.ways as usize]
            .iter()
            .enumerate()
        {
            if t == tag {
                hit = way;
            }
        }
        if hit == usize::MAX {
            Slot::Absent
        } else {
            Slot::Present(base + hit)
        }
    }

    /// [`Icache::fetch`]'s bookkeeping: `Ok(block index)` on a hit, or the
    /// miss (its cause recorded) with the row scan its fill will use.
    #[inline]
    fn access(&mut self, addr: u32) -> Result<usize, Slot> {
        if !self.cfg.enabled {
            self.record_miss(addr, Slot::Bypass);
            return Err(Slot::Bypass);
        }
        let (row, tag, word) = self.locate(addr);
        let slot = self.scan(row, tag);
        if let Slot::Present(index) = slot {
            if self.valid[index] & (1 << word) != 0 {
                self.book_hits(index, 1);
                return Ok(index);
            }
        }
        self.record_miss(addr, slot);
        Err(slot)
    }

    /// The miss-cause rule: record a miss on `addr` and classify it from
    /// the row scan `slot` that found the word absent. Afterwards the
    /// missed block's address is in `seen_blocks`.
    #[inline]
    fn record_miss(&mut self, addr: u32, slot: Slot) {
        self.stats.record_miss_pending();
        let block_addr = addr >> self.cfg.block_words.trailing_zeros();
        let cause = match slot {
            Slot::Present(index) => {
                if !self.known[index] {
                    self.seen_blocks.insert(block_addr);
                    self.known[index] = true;
                }
                MissCause::SubBlockInvalid
            }
            Slot::Absent if self.seen_blocks.insert(block_addr) => MissCause::Cold,
            Slot::Absent => MissCause::Conflict,
            // A disabled cache never retains anything: every fetch is a
            // compulsory trip off-chip.
            Slot::Bypass => MissCause::Cold,
        };
        self.stats.record_miss_cause(cause);
    }

    /// Book `words` hits on block `index`, the last of them now: the
    /// statistics and the recency stamp that every hit path records.
    #[inline]
    fn book_hits(&mut self, index: usize, words: u32) {
        self.clock += u64::from(words);
        self.stamps[index] = self.clock;
        self.stats.accesses += u64::from(words);
        self.stats.hits += u64::from(words);
    }

    /// Book `len` sequential fetches from `start` (addresses wrap) as
    /// word-by-word [`Icache::fetch_through`]s would, except for the
    /// misses' Ecache reads and service cost: each line in one step of the
    /// line kernel, from one row scan and the line's valid mask. The offset
    /// from `start` of every fetch that misses goes onto `missed`, in fetch
    /// order, for the caller to serve with [`Icache::fill_reads`] in that
    /// order. Deferring the reads past the run is exact: they touch no
    /// Icache state but the statistics' service-cost sums.
    ///
    /// While `memo` holds this run and each line it recorded still holds
    /// its tag in the block it was in, with the run's words valid, the run
    /// hits throughout: the lines are booked again as recorded, with no row
    /// scan. Otherwise, if the run spans at most the memo's lines, the line
    /// kernel books it and the memo records it, misses or not.
    pub fn fetch_run(&mut self, start: u32, len: u32, memo: &mut HitMemo, missed: &mut Vec<u32>) {
        self.book_lines(start, len, Some(memo), |offset, mut mask| {
            while mask != 0 {
                missed.push(offset + mask.trailing_zeros());
                mask &= mask - 1;
            }
        });
    }

    /// The line kernel over a run: book `len` sequential fetches from
    /// `start` a line per step (see [`Icache::book_line`]) and hand
    /// `missed` each line's misses as the line's offset in the run and a
    /// mask of the missed fetches from there. A disabled cache books every
    /// fetch as a cold miss. With a `memo`, replay it or record the run in
    /// it, as [`Icache::fetch_run`] says. Returns the misses.
    #[inline]
    fn book_lines(
        &mut self,
        start: u32,
        len: u32,
        mut memo: Option<&mut HitMemo>,
        mut missed: impl FnMut(u32, u64),
    ) -> u32 {
        if let Some(memo) = memo.as_deref_mut() {
            if memo.covers(start, len) && memo.holds(self) {
                self.replay(memo, 1);
                return 0;
            }
        }
        if !self.cfg.enabled {
            self.stats.accesses += u64::from(len);
            self.stats.misses += u64::from(len);
            self.stats.cold_misses += u64::from(len);
            for offset in (0..len).step_by(64) {
                missed(offset, u64::MAX >> (64 - (len - offset).min(64)));
            }
            return len;
        }
        // Record only a run that spans at most the memo's lines.
        let block_words = u64::from(self.cfg.block_words);
        let first_word = u64::from(start) & (block_words - 1);
        let spans = (first_word + u64::from(len)).div_ceil(block_words);
        let mut memo = memo.filter(|_| spans <= MEMO_LINES as u64);
        let (mut done, mut lines, mut misses) = (0, 0, 0);
        while done < len {
            let addr = start.wrapping_add(done);
            let (words, index, mask) = self.book_line(addr, len - done);
            if mask != 0 {
                missed(done, mask);
                misses += mask.count_ones();
            }
            if let Some(memo) = memo.as_deref_mut() {
                // The tag from the address: a partner fill into the next
                // line may have evicted this one from `index`.
                let (_, tag, word) = self.locate(addr);
                memo.index[lines] = index as u32;
                memo.tag[lines] = tag;
                memo.window[lines] = (u64::MAX >> (64 - words)) << word;
                memo.words[lines] = words as u8;
            }
            lines += 1;
            done += words;
        }
        if let Some(memo) = memo {
            (memo.start, memo.len, memo.lines) = (start, len, lines as u8);
        }
        misses
    }

    /// Book `passes` more passes over the run `memo` records, each hitting
    /// throughout, as `passes` [`Icache::fetch_run`]s replaying the memo
    /// would: every fetch a hit, the clock one further per fetch, and each
    /// recorded line stamped as the last pass leaves it, so the first
    /// `passes − 1` passes are only their length on the clock. The caller
    /// vouches that the memo holds — it [`covers`](HitMemo::covers) a run
    /// whose last pass missed nothing, and no fill or invalidation has
    /// come since — because hits move no tag, valid bit or victim pointer.
    pub fn replay(&mut self, memo: &HitMemo, passes: u64) {
        if passes == 0 {
            return;
        }
        let len = u64::from(memo.len);
        self.clock += (passes - 1) * len;
        // `book_hits` per line, with the statistics booked once: the
        // lines' words add up to the run.
        for line in 0..usize::from(memo.lines) {
            self.clock += u64::from(memo.words[line]);
            self.stamps[memo.index[line] as usize] = self.clock;
        }
        self.stats.accesses += passes * len;
        self.stats.hits += passes * len;
    }

    /// Install `addr` (allocating a block if its tag is absent) and mark its
    /// word valid. Returns true if a whole block had to be (re)allocated.
    pub fn fill(&mut self, addr: u32) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let (row, tag, word) = self.locate(addr);
        let (index, allocated) = match self.scan(row, tag) {
            Slot::Present(index) => (index, false),
            _ => (self.allocate(row, tag), true),
        };
        self.mark_valid(index, word);
        allocated
    }

    /// Give line `(row, tag)`, absent from its row, the row's victim way
    /// with no word valid. Returns the block's index.
    fn allocate(&mut self, row: u32, tag: u32) -> usize {
        let way = self.victim(row);
        let index = self.block_index(row, way);
        if self.tags[index] == NO_TAG {
            self.free[row as usize] -= 1;
        }
        self.tags[index] = u64::from(tag);
        self.valid[index] = 0;
        self.known[index] = false;
        index
    }

    /// Mark `word` of block `index` valid, stamped as the latest fill.
    #[inline]
    fn mark_valid(&mut self, index: usize, word: u32) {
        self.clock += 1;
        self.valid[index] |= 1 << word;
        self.stamps[index] = self.clock;
    }

    /// The way a fill of a tag absent from `row` evicts.
    fn victim(&mut self, row: u32) -> u32 {
        let base = self.block_index(row, 0);
        let row_blocks = base..base + self.cfg.ways as usize;
        // Prefer an unallocated way regardless of policy.
        if self.free[row as usize] > 0 {
            let way = self.tags[row_blocks].iter().position(|&t| t == NO_TAG);
            return way.expect("a row with a free way has an unallocated tag") as u32;
        }
        match self.cfg.replacement {
            Replacement::Fifo => {
                let way = self.fifo[row as usize];
                self.fifo[row as usize] = (way + 1) % self.cfg.ways;
                way
            }
            Replacement::Lru => {
                // The least recently stamped way, the first of any tie.
                let (mut lru, mut oldest) = (0, u64::MAX);
                for (way, &stamp) in self.stamps[row_blocks].iter().enumerate() {
                    if stamp < oldest {
                        (lru, oldest) = (way as u32, stamp);
                    }
                }
                lru
            }
            Replacement::Random => {
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % self.cfg.ways as u64) as u32
            }
        }
    }

    /// Fetch through the full hierarchy, servicing a miss via the external
    /// cache and main memory, and return the stall cycles; the word itself
    /// is memory's ([`MainMemory::peek`]), which callers read only when
    /// they decode it.
    ///
    /// A hit costs no stalls; a miss costs [`IcacheConfig::miss_penalty`]
    /// plus whatever the Ecache retry loop adds, and fetches back
    /// [`IcacheConfig::fetch_words`] words (the missed word and its
    /// sequential successor — the paper's key bandwidth observation).
    pub fn fetch_through(&mut self, addr: u32, ecache: &mut Ecache, mem: &mut MainMemory) -> u32 {
        match self.access(addr) {
            Ok(_) => 0,
            Err(slot) => self.fill_miss(addr, slot, ecache, mem),
        }
    }

    /// The miss-fill rule of the hierarchy: install the missed word and its
    /// fetch-back partner (or, in the whole-block ablation, the whole
    /// block), and bring them on-chip through the Ecache with
    /// [`Icache::fill_reads`]. `slot` is the row scan of the miss, which
    /// [`Icache::record_miss`] recorded, putting the line's block in
    /// `seen_blocks`. Returns the miss's stall cycles.
    fn fill_miss(
        &mut self,
        addr: u32,
        slot: Slot,
        ecache: &mut Ecache,
        mem: &mut MainMemory,
    ) -> u32 {
        let (row, tag, word) = self.locate(addr);
        let index = match slot {
            Slot::Present(index) => Some(index),
            Slot::Absent => Some(self.allocate(row, tag)),
            Slot::Bypass => None,
        };
        if let Some(index) = index {
            self.known[index] = true;
        }
        if self.cfg.whole_block_fill {
            if let Some(index) = index {
                for w in 0..self.cfg.block_words {
                    self.mark_valid(index, w);
                }
            }
        } else {
            if let Some(index) = index {
                self.mark_valid(index, word);
            }
            if self.cfg.fetch_words == 2 {
                match index {
                    // The partner shares the missed word's line: its block
                    // is the one just installed, no second scan.
                    Some(index) if word + 1 < self.cfg.block_words => {
                        self.mark_valid(index, word + 1)
                    }
                    _ => {
                        self.fill(addr.wrapping_add(1));
                    }
                }
            }
        }
        self.fill_reads(addr, ecache, mem)
    }

    /// The Ecache reads that bring a miss on `addr` on-chip, in the order
    /// the fill makes them — the missed word, then its fetch-back partner
    /// or, in the whole-block ablation, every word of its line — with the
    /// miss's service cost booked in the statistics. Returns the miss's
    /// stall cycles: [`IcacheConfig::miss_penalty`] (or one bus cycle per
    /// word of a whole-block stream) plus whatever the Ecache retry loop
    /// adds.
    ///
    /// [`Icache::fetch_through`] calls it for each miss; a caller that books
    /// fetches with [`Icache::fetch_run`] calls it for each missed fetch
    /// the run reports, in fetch order.
    pub fn fill_reads(&mut self, addr: u32, ecache: &mut Ecache, mem: &mut MainMemory) -> u32 {
        let mut stall = ecache.access(addr, mem);
        let filled = if self.cfg.whole_block_fill {
            // Ablation: stream the whole block in at one word per bus cycle.
            stall += self.cfg.block_words.max(2);
            let base = addr & !(self.cfg.block_words - 1);
            for w in 0..self.cfg.block_words {
                stall += ecache.access(base + w, mem);
            }
            self.cfg.block_words
        } else {
            stall += self.cfg.miss_penalty;
            if self.cfg.fetch_words == 2 {
                // The second fetch rides the otherwise-idle miss cycle; only
                // an Ecache miss on it can add stalls (rare: same block).
                stall += ecache.access(addr.wrapping_add(1), mem);
            }
            self.cfg.fetch_words
        };
        self.stats
            .add_miss_cost(u64::from(stall), u64::from(filled));
        stall
    }

    /// Drive the cache with a pure instruction-address trace given as
    /// sequential runs, charging the configured miss penalty per miss (no
    /// Ecache model — the paper's cache-organization studies were run
    /// exactly this way, trace-driven). Run `(start, len)` fetches `start`,
    /// `start + 1`, …, `len` words in all, its addresses wrapping past
    /// `u32::MAX`; an empty run fetches nothing.
    ///
    /// Books exactly what [`Icache::fetch`] plus the miss-fill rule would,
    /// word by word over the flattened runs: the line kernel books each
    /// line a run touches in one step, from one row scan and the line's
    /// valid mask. A run equal to the run just before or just after it (a
    /// loop's trips) goes through one [`HitMemo`] for the call, as in
    /// [`Icache::fetch_run`]: a trip that hits throughout records the
    /// memo, and each later repeat, while no resident word has gone away
    /// since, books the recorded lines with no row scan. Returns the
    /// cache's statistics, cumulative over every call.
    pub fn simulate_runs(&mut self, runs: &[(u32, u32)]) -> CacheStats {
        self.simulate_trips(runs.iter().copied())
    }

    /// [`Icache::simulate_runs`] for a trace given one fetch per word:
    /// consecutive addresses merge into sequential runs (never across the
    /// top of the address space), which the same kernel books, a repeated
    /// run from the same memo.
    pub fn simulate_trace<I: IntoIterator<Item = u32>>(&mut self, trace: I) -> CacheStats {
        let mut trace = trace.into_iter().peekable();
        let runs = std::iter::from_fn(|| {
            let start = trace.next()?;
            let mut len = 1;
            while len < u32::MAX
                && trace
                    .next_if(|&addr| start.checked_add(len) == Some(addr))
                    .is_some()
            {
                len += 1;
            }
            Some((start, len))
        });
        self.simulate_trips(runs)
    }

    /// The trace-driven kernel behind [`Icache::simulate_runs`] and
    /// [`Icache::simulate_trace`]: the line kernel over each run, a
    /// repeated run through the call's [`HitMemo`]. Replaying a repeated
    /// run is exact for the reasons [`Icache::fetch_run`]'s is: a hit moves
    /// no block, and the memo checks each line's tag and valid words before
    /// it replays. Recording on the trip before a repeat lets a loop whose
    /// first trip merged into the run before it record on its second trip
    /// and replay from its third. Once a trip through the memo has hit
    /// throughout, the repeats right after it hit throughout too, so they
    /// are booked together by one [`Icache::replay`].
    fn simulate_trips(&mut self, runs: impl Iterator<Item = (u32, u32)>) -> CacheStats {
        let mut memo = HitMemo::default();
        let mut runs = runs.peekable();
        let mut last = None;
        while let Some(run @ (start, len)) = runs.next() {
            // Two calls, so that each inlined copy folds its memo branches.
            let misses = if last == Some(run) || runs.peek() == Some(&run) {
                let misses = self.book_lines(start, len, Some(&mut memo), |_, _| {});
                if misses == 0 && memo.covers(start, len) {
                    let mut repeats = 0;
                    while runs.next_if_eq(&run).is_some() {
                        repeats += 1;
                    }
                    self.replay(&memo, repeats);
                }
                misses
            } else {
                self.book_lines(start, len, None, |_, _| {})
            };
            if misses > 0 {
                self.add_trace_miss_cost(misses);
            }
            last = Some(run);
        }
        self.stats
    }

    /// The line kernel: book the fetches of `len` sequential ones from
    /// `addr` that fall in `addr`'s line as word-by-word [`Icache::fetch`]es
    /// with the miss-fill rule would, but for the service cost, in closed
    /// form from the line's valid mask `V` and the window `W` of words
    /// fetched. Returns how many fetches that is, the line's block index
    /// and a mask of the missed fetches (bit `k` for the fetch of
    /// `addr + k`).
    /// The invalid fetched words are `I = !V & W`:
    ///
    /// - a 1-word fetch-back misses on each of them, and validates them;
    /// - a 2-word fetch-back misses on every other word of each maximal
    ///   run of them, from the run's first (the miss validates the next
    ///   word, which then hits), and validates each missed word and its
    ///   partner; a miss on the line's last word sends its partner, the
    ///   next line's first word, through [`Icache::fill`] once this line
    ///   is written back;
    /// - a whole-block fill misses once if any is invalid, and validates
    ///   the line.
    ///
    /// Every fetch advances the clock by one, and so does every word a miss
    /// installs beyond the missed one, so the line's stamp is the clock
    /// after its last fetch, before any partner in the next line. An absent
    /// line takes its victim way first, and its first miss is cold or a
    /// conflict; every other miss is a sub-block miss.
    #[inline]
    fn book_line(&mut self, addr: u32, len: u32) -> (u32, usize, u64) {
        /// The even words of a line; their complement is the odd words.
        const EVEN: u64 = 0x5555_5555_5555_5555;
        let block_words = self.cfg.block_words;
        let (row, tag, word) = self.locate(addr);
        let block_addr = addr >> block_words.trailing_zeros();
        let n = (block_words - word).min(len);
        let line = u64::MAX >> (64 - block_words);
        let window = (u64::MAX >> (64 - n)) << word;
        let (index, first_cause) = match self.scan(row, tag) {
            Slot::Present(index) => (index, None),
            _ => {
                let cause = if self.seen_blocks.insert(block_addr) {
                    MissCause::Cold
                } else {
                    MissCause::Conflict
                };
                let index = self.allocate(row, tag);
                self.known[index] = true;
                (index, Some(cause))
            }
        };
        let valid = self.valid[index];
        let invalid = !valid & window;
        let mut clock = u64::from(n);
        let mut partner = false;
        let missed = if invalid == 0 {
            0
        } else if self.cfg.whole_block_fill {
            clock += u64::from(block_words - 1);
            self.valid[index] = line;
            invalid & invalid.wrapping_neg()
        } else if self.cfg.fetch_words == 1 {
            self.valid[index] = valid | invalid;
            invalid
        } else {
            // A carry from each run's first word clears the runs that
            // start on an even word.
            let starts = invalid & !(invalid << 1);
            let even_runs = invalid & !invalid.wrapping_add(starts & EVEN);
            let missed = (even_runs & EVEN) | (invalid & !even_runs & !EVEN);
            partner = missed >> (block_words - 1) != 0;
            clock += u64::from(missed.count_ones()) - u64::from(partner);
            self.valid[index] = valid | missed | ((missed << 1) & line);
            missed
        };
        let misses = missed.count_ones();
        self.clock += clock;
        self.stamps[index] = self.clock;
        self.stats.accesses += u64::from(n);
        self.stats.hits += u64::from(n - misses);
        self.stats.misses += u64::from(misses);
        if misses > 0 {
            let mut sub_block = misses;
            if let Some(cause) = first_cause {
                self.stats.record_miss_cause(cause);
                sub_block -= 1;
            } else if !self.known[index] {
                self.seen_blocks.insert(block_addr);
                self.known[index] = true;
            }
            self.stats.sub_block_misses += u64::from(sub_block);
        }
        if partner {
            self.fill(addr.wrapping_add(n));
        }
        (n, index, missed >> word)
    }

    /// The trace path's service cost of `misses` misses: the miss penalty
    /// and the fetch-back words each, or the whole-block stream.
    fn add_trace_miss_cost(&mut self, misses: u32) {
        let (stall, words) = if self.cfg.whole_block_fill {
            (self.cfg.block_words.max(2), self.cfg.block_words)
        } else {
            (self.cfg.miss_penalty, self.cfg.fetch_words)
        };
        self.stats.add_miss_cost(
            u64::from(misses) * u64::from(stall),
            u64::from(misses) * u64::from(words),
        );
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
                        let index = self.block_index(row, way);
                        if self.tags[index] != NO_TAG {
                            (self.valid[index] & mask).count_ones()
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
                if self.tags[self.block_index(row as u32, way as u32)] != NO_TAG {
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
        IcacheState {
            blocks: (0..self.tags.len())
                .map(|i| {
                    let tag = self.tags[i];
                    (
                        (tag != NO_TAG).then_some(tag as u32),
                        self.valid[i],
                        self.stamps[i],
                    )
                })
                .collect(),
            fifo: self.fifo.clone(),
            clock: self.clock,
            rng: self.rng,
            seen_blocks: self.seen_blocks.iter().collect(),
            stats: self.stats,
        }
    }

    /// Overwrite the cache's mutable state from a checkpoint taken from a
    /// cache with the same configuration. Fails (leaving the cache
    /// untouched) if the state's shape does not match this organization.
    pub fn restore_state(&mut self, state: &IcacheState) -> Result<(), String> {
        if state.blocks.len() != self.tags.len() {
            return Err(format!(
                "icache state has {} blocks, organization needs {}",
                state.blocks.len(),
                self.tags.len()
            ));
        }
        if state.fifo.len() != self.fifo.len() {
            return Err(format!(
                "icache state has {} fifo pointers, organization needs {}",
                state.fifo.len(),
                self.fifo.len()
            ));
        }
        for (i, &(tag, valid, stamp)) in state.blocks.iter().enumerate() {
            self.tags[i] = tag.map_or(NO_TAG, u64::from);
            self.valid[i] = valid;
            self.stamps[i] = stamp;
        }
        self.known.fill(false);
        let ways = self.cfg.ways as usize;
        for (free, row) in self.free.iter_mut().zip(self.tags.chunks(ways)) {
            *free = row.iter().filter(|&&t| t == NO_TAG).count() as u32;
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
        assert!((r1.miss_ratio() - 1.0).abs() < 1e-9);
        assert!((r2.miss_ratio() - 0.5).abs() < 1e-9);
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
        // The stall alone: the fetched word is memory's, and the decode
        // differential tests cover what the stepper reads.
        // 2-cycle Icache penalty + Ecache cold miss (1 late + 5 memory).
        assert_eq!(c.fetch_through(40, &mut e, &mut m), 8);
        assert_eq!(c.fetch_through(40, &mut e, &mut m), 0);
        // The double fetch installed word 41 too.
        assert_eq!(c.fetch_through(41, &mut e, &mut m), 0);
    }

    #[test]
    fn disabled_cache_misses_every_fetch() {
        let mut c = Icache::new(IcacheConfig {
            enabled: false,
            ..IcacheConfig::mipsx()
        });
        assert_eq!(c.simulate_trace([0, 0, 0]).misses, 3);
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
            c.simulate_trace(trace.iter().copied()).misses
        };
        assert!(run(Replacement::Lru) < run(Replacement::Fifo));
    }

    #[test]
    fn avg_fetch_cycles_formula() {
        let mut c = Icache::mipsx();
        let s = c.simulate_trace((0..100u32).chain(0..100));
        // Sequential + repeat: some hits, some misses; cost = 1 + 2*missratio.
        let expected = 1.0 + 2.0 * s.miss_ratio();
        assert!((s.avg_access_cycles() - expected).abs() < 1e-9);
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
    fn miss_history_round_trips_through_restore() {
        // One-word blocks: block addresses either side of a 4096-key page
        // of the history, and the top of the address space.
        let cfg = IcacheConfig {
            rows: 1,
            ways: 2,
            block_words: 1,
            fetch_words: 1,
            ..IcacheConfig::mipsx()
        };
        let mut c = Icache::new(cfg);
        let _ = c.simulate_trace([u32::MAX, 4096, 4095, 7]);
        let state = c.snapshot_state();
        assert_eq!(state.seen_blocks, [7, 4095, 4096, u32::MAX]);
        let mut restored = Icache::new(cfg);
        restored.restore_state(&state).unwrap();
        assert_eq!(restored.snapshot_state(), state);
        // The restored history still tells conflict from cold misses.
        for cache in [&mut c, &mut restored] {
            let s = cache.simulate_trace([u32::MAX, 9]);
            assert_eq!((s.conflict_misses, s.cold_misses), (1, 5));
        }
        c.invalidate_all();
        assert!(c.snapshot_state().seen_blocks.is_empty());
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

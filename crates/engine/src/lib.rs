//! Basic-block superop execution engine for the MIPS-X model.
//!
//! The cycle-accurate [`Machine`] stepper pays the full five-stage pipeline
//! dance for every instruction. Fault-free, that dance is statically
//! predictable: the static analyzer's [`BlockSummary`] facts pin down every
//! cycle, squash and nop of a block visit in closed form — the property
//! the verify crate's static/dynamic differential proves exactly on the
//! cache-ideal configuration — and cache stalls only add frozen cycles
//! on top. This crate exploits that proof in the other direction: instead
//! of *checking* the stepper against the closed forms, it *replaces* the
//! stepper with them wherever they apply, and falls back to the stepper
//! everywhere they don't.
//!
//! # Execution model
//!
//! [`BlockEngine::new`] discovers basic blocks from the verifier's CFG over
//! the machine's decoded image and compiles each into a straight-line
//! superop chain (see `compile`). At run time the engine executes
//! block-at-a-time: retire the block's ops eagerly against architectural
//! state, count the visit under its branch outcome, put its length on the
//! clock, jump to the successor — the statically known one chained from
//! the block when there is one, else the block at the PC. One match per
//! op, each op one monomorphic case, and no op at all for an instruction
//! that changes nothing — no pipeline slots, no bypass search.
//! The pre-computed per-outcome `RunStats` deltas are booked from the
//! visit counts at each region boundary (the halt return, a demotion, or
//! just before a recompile replaces the blocks they count), and so is the
//! PC-chain seed, from the last visits.
//!
//! # Caches
//!
//! On a configuration where every stall is priced at zero
//! (`MachineConfig::cache_ideal()`; see [`drives_caches`]) the fast path
//! skips the cache models.
//! On any other — the board, `ideal_memory()`, any memory latency — it
//! drives the machine's own Icache and Ecache, so `RunStats`, cache
//! statistics and cache state stay identical to a stepper run: the Icache
//! books all of a visit's fetches through its line entry point, one row
//! scan per line with the missed words read from the valid mask, and the
//! Ecache then takes each miss's fill reads and each load's read in the
//! stepper's event order (see `BlockEngine::book_caches`).
//!
//! Each compiled block has a [`HitMemo`] in the engine (not in the
//! shared compiled image): the Icache lines its last visit booked, each
//! with its block index and tag. While every one of them still holds its
//! tag there with the visit's words valid, the next visit books those
//! lines again without a row scan, with the same statistics, clock and
//! recency stamps as the line kernel.
//! The memos are cleared at every region entry, because the machine may
//! have been reset or restored between runs.
//!
//! # The cycle-splice contract
//!
//! Fast execution must be *invisible* in the books. The handshake with the
//! stepper ([`Machine::enter_block_region`] / `exit_block_region`) charges
//! the five-cycle pipeline-fill ramp on entry and refunds it on a
//! fallback exit — the demoted stepper re-pays the same ramp as it
//! refills, so total `cycles` across any mix of fast regions and stepper
//! regions equals a contiguous stepper run **exactly**. On a fallback exit
//! the engine also seeds the PC shift chain with the last three fetch
//! records, reproducing what the pipeline's own advances would have
//! written, so a later exception restart sequence replays the right PCs,
//! and it steps the refill's first cycles itself to give the Ecache the
//! reads the last block's tail loads still owe.
//!
//! # When the engine refuses
//!
//! Anything outside the closed-form world demotes to the stepper — at run
//! granularity (entry blockers: tracing sinks, attached coprocessors, live
//! fault plans, pending interrupts, enabled overflow traps, user mode) or
//! at block granularity (fallback ops, load-delay hazards, halt shadows,
//! irregular regions, cold code, cycle budgets). Every demotion is tallied
//! by [`FallbackCause`] in [`EngineStats`].
//!
//! # Self-modifying code
//!
//! The engine compiles from the machine's *memory*, not the original
//! program, and watches every store: a hit inside a compiled block (or a
//! halt block's fetch shadow) marks the cache dirty, and the next block
//! boundary recompiles the image — mirroring the `DecodedMem`
//! invalidation protocol the interpreter uses. Stores that land fewer
//! than four words ahead of their own execution point — inside the
//! pipeline shadow a real fetch would already have passed — take effect
//! one block earlier than on silicon; the same caveat applies to the
//! interpreter's decode cache.
//!
//! [`BlockSummary`]: mipsx_verify::BlockSummary

mod compile;

use std::sync::Arc;

use compile::{CodeCache, Exit, FetchRecord, Op, Rrr, Shift, TailSeed, NO_BLOCK};
use mipsx_asm::{DecodedEntry, Program};
use mipsx_core::{
    FaultPlan, Machine, MachineConfig, NullSink, RunError, RunStats, StallCause, TraceSink,
};
use mipsx_isa::{Instr, Mode};
use mipsx_mem::HitMemo;

/// Why the engine handed control (back) to the cycle-accurate stepper.
///
/// Entry blockers (checked once per run) come first, then block-granular
/// causes (checked per dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackCause {
    /// A tracing sink is attached; per-cycle events require the stepper.
    Traced,
    /// Cache/memory timing the fast path cannot account. No configuration
    /// raises it since the fast path drives the cache models itself; the
    /// cause stays so per-cause counter names keep their schema.
    NonIdealConfig,
    /// Coprocessors are attached; their FSMs tick per cycle.
    Coprocessor,
    /// A fault plan has events left to inject at exact cycle numbers.
    FaultPlan,
    /// An interrupt or NMI line is live.
    InterruptPending,
    /// Overflow traps are enabled; a trapping add needs the exception path.
    OverflowTrap,
    /// The CPU is in user mode; privilege checks belong to the stepper.
    UserMode,
    /// The pipeline holds in-flight state (mid-run handoff).
    NotQuiescent,
    /// Control reached an address that heads no compiled block.
    ColdCode,
    /// The block is part of an irregular region (runoff, window-landing
    /// targets, control transfers inside delay windows).
    IrregularBlock,
    /// The block contains an instruction outside the fast op set, or a
    /// `movtos md` in a step's write-back shadow, which the fast ops
    /// would commit in program order.
    FallbackOp,
    /// An in-block distance-1 load-use pair (stale read under `Trust`,
    /// run error under `Detect`).
    LoadDelay,
    /// The block's executed tail feeds a load-delay hazard, or a step's
    /// MD write-back, into a dynamic successor's head.
    EntryHazard,
    /// A word in the post-`halt` fetch shadow is not provably inert.
    HaltShadow,
    /// The next block would overrun the caller's cycle budget.
    CycleBudget,
}

impl FallbackCause {
    /// Every cause, in display order.
    pub const ALL: [FallbackCause; 15] = [
        FallbackCause::Traced,
        FallbackCause::NonIdealConfig,
        FallbackCause::Coprocessor,
        FallbackCause::FaultPlan,
        FallbackCause::InterruptPending,
        FallbackCause::OverflowTrap,
        FallbackCause::UserMode,
        FallbackCause::NotQuiescent,
        FallbackCause::ColdCode,
        FallbackCause::IrregularBlock,
        FallbackCause::FallbackOp,
        FallbackCause::LoadDelay,
        FallbackCause::EntryHazard,
        FallbackCause::HaltShadow,
        FallbackCause::CycleBudget,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap_or(0)
    }

    /// Stable kebab-case label for telemetry counters and reports.
    pub fn label(self) -> &'static str {
        match self {
            FallbackCause::Traced => "traced",
            FallbackCause::NonIdealConfig => "non-ideal-config",
            FallbackCause::Coprocessor => "coprocessor",
            FallbackCause::FaultPlan => "fault-plan",
            FallbackCause::InterruptPending => "interrupt-pending",
            FallbackCause::OverflowTrap => "overflow-trap",
            FallbackCause::UserMode => "user-mode",
            FallbackCause::NotQuiescent => "not-quiescent",
            FallbackCause::ColdCode => "cold-code",
            FallbackCause::IrregularBlock => "irregular-block",
            FallbackCause::FallbackOp => "fallback-op",
            FallbackCause::LoadDelay => "load-delay",
            FallbackCause::EntryHazard => "entry-hazard",
            FallbackCause::HaltShadow => "halt-shadow",
            FallbackCause::CycleBudget => "cycle-budget",
        }
    }
}

/// Execution counters kept by the engine (separate from the machine's
/// architectural `RunStats`, which the engine maintains exactly).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Blocks compiled over the engine's lifetime (recompiles included).
    pub blocks_compiled: u64,
    /// Compiled blocks carrying a static fallback verdict (current image).
    pub fallback_blocks: u64,
    /// Whole-image recompiles triggered by self-modifying stores.
    pub recompiles: u64,
    /// Blocks dispatched on the fast path.
    pub block_visits: u64,
    /// Cycles accounted by the fast path, stall cycles included.
    pub fast_cycles: u64,
    /// Instructions retired by the fast path.
    pub fast_instructions: u64,
    /// Demotions to the stepper, by cause.
    pub fallback_exits: [u64; FallbackCause::ALL.len()],
}

impl EngineStats {
    /// Total demotions across all causes.
    pub fn total_fallbacks(&self) -> u64 {
        self.fallback_exits.iter().sum()
    }

    /// Non-zero fallback tallies as `(label, count)` pairs.
    pub fn fallback_breakdown(&self) -> Vec<(&'static str, u64)> {
        FallbackCause::ALL
            .iter()
            .filter_map(|&c| {
                let n = self.fallback_exits[c.index()];
                (n > 0).then(|| (c.label(), n))
            })
            .collect()
    }
}

/// Whether the fast path drives the cache models on `cfg`: it does unless
/// every stall source is priced at zero cycles, as on
/// `MachineConfig::cache_ideal()` — no Icache miss penalty or forced
/// coprocessor miss, no Ecache late-miss retry, no memory latency, no
/// whole-block fills. On such a configuration the fast path skips the
/// caches, and their statistics stay near empty.
pub fn drives_caches(cfg: &MachineConfig) -> bool {
    cfg.icache.miss_penalty != 0
        || cfg.ecache.late_miss_overhead != 0
        || cfg.mem_latency != 0
        || cfg.icache.whole_block_fill
}

/// The last ≤3 fetch records — the PC-chain seed handed to
/// [`Machine::exit_block_region`] on demotion. The records sit at the end
/// of `buf`, the newest last.
#[derive(Clone, Copy, Debug, Default)]
struct Recent {
    buf: [FetchRecord; 3],
    len: usize,
}

impl Recent {
    /// Append a visit's tail, its last `min(len, 3)` fetch records: a full
    /// tail replaces the buffer, a shorter one shifts in behind the newest
    /// records kept.
    #[inline]
    fn take(&mut self, tail: &TailSeed) {
        let [a, b, _] = tail.entries;
        let [_, y, z] = self.buf;
        self.buf = match tail.len {
            0 => return,
            1 => [y, z, a],
            2 => [z, a, b],
            _ => tail.entries,
        };
        self.len = (self.len + usize::from(tail.len)).min(3);
    }

    /// The seed, oldest first, as `(pc, killed)` pairs.
    fn seed(&self) -> Vec<(u32, bool)> {
        self.buf[3 - self.len..].iter().map(|r| r.get()).collect()
    }
}

/// The last four visits not yet folded into [`Recent`], as keys
/// `block << 1 | outcome`, the newest in the low 32 bits; an empty slot
/// holds `u32::MAX`. A visit fetches at least one word, so the last three
/// visits hold every record of the seed.
#[derive(Clone, Copy, Debug)]
struct Trail(u128);

impl Trail {
    const EMPTY: Trail = Trail(u128::MAX);

    #[inline]
    fn push(&mut self, key: u32) {
        self.0 = self.0 << 32 | u128::from(key);
    }

    /// Take the last three visits' tails into `recent`, oldest first, and
    /// empty the trail. `tail` maps a key to its visit's tail.
    fn fold(&mut self, recent: &mut Recent, tail: impl Fn(u32) -> TailSeed) {
        for shift in [64, 32, 0] {
            let key = (self.0 >> shift) as u32;
            if key != u32::MAX {
                recent.take(&tail(key));
            }
        }
        *self = Trail::EMPTY;
    }
}

/// The block-at-a-time execution engine. Construct once per program +
/// machine configuration; run against a freshly loaded [`Machine`].
pub struct BlockEngine {
    origin: u32,
    entry: u32,
    image_words: u32,
    cfg: MachineConfig,
    /// The configuration prices some stall, so the fast path drives the
    /// machine's cache models (see [`BlockEngine::book_caches`]).
    cached: bool,
    /// Fetches since region entry.
    fetched: u64,
    /// Loads retired eagerly whose Ecache read is still due, as
    /// `(fetch position, address)` in program order: a load's MEM stage
    /// reads after the fetch three positions on.
    owed: Vec<(u64, u32)>,
    /// Shared immutable compiled image; a recompile swaps in a fresh `Arc`,
    /// so clones sharing an old image are unaffected.
    code: Arc<CodeCache>,
    /// A watched store landed since the last (re)compile.
    dirty: bool,
    /// Per compiled block, the Icache lines its last visit booked
    /// (see [`BlockEngine::book_caches`]). Per engine, unlike the shared
    /// image: each memo belongs to the Icache of the run that recorded it.
    memos: Vec<HitMemo>,
    /// Per compiled block and outcome, the visits since the last
    /// [`BlockEngine::book_visits`], which books their deltas.
    visits: Vec<[u64; 2]>,
    /// `RunStats::cycles` at the last booking: every cycle since is a fast
    /// cycle.
    booked_cycles: u64,
    /// The PC-chain seed as of the last booking, and the visits since.
    recent: Recent,
    trail: Trail,
    /// Scratch for one visit's missed fetch offsets.
    missed: Vec<u32>,
    stats: EngineStats,
}

impl BlockEngine {
    /// Compile `program`'s image as currently held in `machine`'s memory.
    /// (Reading memory rather than the program covers `load_at` patches
    /// applied after assembly.)
    pub fn new(program: &Program, machine: &Machine) -> BlockEngine {
        let mut engine = BlockEngine::empty(program, machine.config());
        engine.compile_from(machine);
        engine
    }

    /// Compile `program`'s image as assembled, without a [`Machine`].
    ///
    /// This is the prepared-image path: a sweep compiles one engine per
    /// (image, config) pair up front and hands each job a
    /// [`clone_template`](BlockEngine::clone_template) of it. The result is
    /// only valid for a machine that runs `program` verbatim — `load_at`
    /// patches applied after loading are covered by the self-modify watch
    /// (the store marks the cache dirty and forces a recompile from the
    /// machine's memory), not by this constructor.
    pub fn from_program(program: &Program, cfg: &MachineConfig) -> BlockEngine {
        let mut engine = BlockEngine::empty(program, cfg);
        engine.install(compile::compile(
            program.origin,
            program.entry,
            &program.words,
            cfg,
        ));
        engine
    }

    /// A fresh engine sharing this one's compiled image: zeroed run
    /// counters, clean self-modify state. Cloning is O(1) —
    /// the [`CodeCache`] rides behind an `Arc` — which is what lets one
    /// compiled template serve every job of a sweep grid.
    pub fn clone_template(&self) -> BlockEngine {
        BlockEngine {
            origin: self.origin,
            entry: self.entry,
            image_words: self.image_words,
            cfg: self.cfg,
            cached: self.cached,
            fetched: 0,
            owed: Vec::new(),
            code: Arc::clone(&self.code),
            dirty: false,
            memos: Vec::new(),
            visits: Vec::new(),
            booked_cycles: 0,
            recent: Recent::default(),
            trail: Trail::EMPTY,
            missed: Vec::new(),
            stats: EngineStats {
                fallback_blocks: self.stats.fallback_blocks,
                ..EngineStats::default()
            },
        }
    }

    fn empty(program: &Program, cfg: &MachineConfig) -> BlockEngine {
        BlockEngine {
            origin: program.origin,
            entry: program.entry,
            image_words: program.words.len() as u32,
            cfg: *cfg,
            cached: drives_caches(cfg),
            fetched: 0,
            owed: Vec::new(),
            code: Arc::new(CodeCache::empty(program.origin)),
            dirty: false,
            memos: Vec::new(),
            visits: Vec::new(),
            booked_cycles: 0,
            recent: Recent::default(),
            trail: Trail::EMPTY,
            missed: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Engine-side counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn compile_from(&mut self, m: &Machine) {
        let words: Vec<u32> = (0..self.image_words)
            .map(|i| m.read_word(self.origin.wrapping_add(i)))
            .collect();
        self.install(compile::compile(self.origin, self.entry, &words, &self.cfg));
    }

    fn install(&mut self, code: CodeCache) {
        self.code = Arc::new(code);
        self.dirty = false;
        self.stats.blocks_compiled += self.code.blocks.len() as u64;
        self.stats.fallback_blocks = self
            .code
            .blocks
            .iter()
            .filter(|b| b.fallback.is_some())
            .count() as u64;
    }

    /// Run until halt or `max_cycles`, no tracing, no fault injection.
    pub fn run(&mut self, m: &mut Machine, max_cycles: u64) -> Result<RunStats, RunError> {
        self.run_with_faults(m, max_cycles, &mut NullSink, &mut FaultPlan::none())
    }

    /// Run with a trace sink and a fault plan. An enabled sink or a
    /// non-exhausted plan demotes the whole run to the stepper, which makes
    /// traced output (JSONL included) byte-identical to a plain
    /// [`Machine::run_with_faults`] call.
    pub fn run_with_faults<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, RunError> {
        if m.halted() {
            return Err(RunError::AlreadyHalted);
        }
        if let Some(cause) = self.entry_blocker::<S>(m, plan) {
            self.note_fallback(cause);
            return interpret(m, max_cycles, sink, plan, max_cycles);
        }
        if !m.enter_block_region() {
            self.note_fallback(FallbackCause::NotQuiescent);
            return interpret(m, max_cycles, sink, plan, max_cycles);
        }
        self.recent = Recent::default();
        self.trail = Trail::EMPTY;
        self.fetched = 0;
        self.owed.clear();
        let start_cycles = m.stats().cycles; // includes the entry ramp charge
        self.booked_cycles = start_cycles;
        // The machine may have been reset or restored since the last run.
        self.reset_blocks();

        // The statically known successor of the last visit, if any.
        let mut chained = NO_BLOCK;
        loop {
            let bi = if chained != NO_BLOCK && !self.dirty {
                chained as usize
            } else {
                if m.halted() {
                    self.book_visits(m);
                    return Ok(*m.stats());
                }
                if self.dirty {
                    // The counts index the blocks about to be replaced.
                    self.book_visits(m);
                    self.stats.recompiles += 1;
                    self.compile_from(m);
                    self.reset_blocks();
                }
                match self.code.block_at(m.pc()) {
                    Some(bi) => bi,
                    None => {
                        return self.demote(
                            m,
                            max_cycles,
                            start_cycles,
                            sink,
                            plan,
                            FallbackCause::ColdCode,
                        )
                    }
                }
            };
            if let Some(cause) = self.code.blocks[bi].fallback {
                return self.demote(m, max_cycles, start_cycles, sink, plan, cause);
            }
            // A contiguous run retires this block's last drain by relative
            // cycle `work + ramp + cost_bound`; past the budget, it could
            // stop at `CycleLimit` first.
            let ramp = Machine::PIPE_FILL_CYCLES;
            let cost = self.code.blocks[bi].cost_bound;
            if self.stats_used(m, start_cycles) + ramp + cost > max_cycles {
                return self.demote(
                    m,
                    max_cycles,
                    start_cycles,
                    sink,
                    plan,
                    FallbackCause::CycleBudget,
                );
            }
            chained = if self.cached {
                self.execute::<true>(m, bi)
            } else {
                self.execute::<false>(m, bi)
            };
        }
    }

    /// Per-block run state for the current image: zero visit counts, and
    /// one empty [`HitMemo`] per block when the fast path drives the
    /// caches.
    fn reset_blocks(&mut self) {
        let blocks = self.code.blocks.len();
        self.visits.clear();
        self.visits.resize(blocks, [0; 2]);
        self.memos.clear();
        if self.cached {
            self.memos.resize(blocks, HitMemo::default());
        }
    }

    /// Book the visits counted since the last booking: their `RunStats`
    /// deltas, the engine's visit, instruction and fast-cycle counters, and
    /// their fetch records into the PC-chain seed. It runs at every region
    /// boundary — the halt return, each demotion, and before a recompile
    /// replaces the blocks the counts index — so the books are whole
    /// wherever anything outside the fast path reads them. Counts add, so
    /// booking them late is exact; only `cycles`, which the budget check
    /// reads, goes on the books per visit.
    fn book_visits(&mut self, m: &mut Machine) {
        let s = m.stats_mut();
        for (b, visits) in self.code.blocks.iter().zip(&mut self.visits) {
            for (d, n) in b.delta.iter().zip(std::mem::take(visits)) {
                if n == 0 {
                    continue;
                }
                d.book(n, s);
                self.stats.block_visits += n;
                self.stats.fast_instructions += n * u64::from(d.instructions);
            }
        }
        self.stats.fast_cycles += s.cycles - self.booked_cycles;
        self.booked_cycles = s.cycles;
        let blocks = &self.code.blocks;
        self.trail.fold(&mut self.recent, |key| {
            blocks[(key >> 1) as usize].tail[(key & 1) as usize]
        });
    }

    /// Fast cycles consumed since region entry (ramp charge excluded).
    #[inline]
    fn stats_used(&self, m: &Machine, start_cycles: u64) -> u64 {
        m.stats().cycles - start_cycles
    }

    /// Run-granular blockers, checked before entering the fast region.
    fn entry_blocker<S: TraceSink>(&self, m: &Machine, plan: &FaultPlan) -> Option<FallbackCause> {
        if S::ENABLED {
            return Some(FallbackCause::Traced);
        }
        if m.has_coprocessors() {
            return Some(FallbackCause::Coprocessor);
        }
        if !plan.exhausted() {
            return Some(FallbackCause::FaultPlan);
        }
        if m.interrupt_pending() {
            return Some(FallbackCause::InterruptPending);
        }
        if m.cpu().psw.overflow_trap_enabled() {
            return Some(FallbackCause::OverflowTrap);
        }
        if m.cpu().psw.mode() == Mode::User {
            return Some(FallbackCause::UserMode);
        }
        None
    }

    fn note_fallback(&mut self, cause: FallbackCause) {
        self.stats.fallback_exits[cause.index()] += 1;
    }

    /// Leave the fast region (refunding the ramp charge and seeding the PC
    /// chain) and hand the remaining budget to the stepper.
    fn demote<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        start_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
        cause: FallbackCause,
    ) -> Result<RunStats, RunError> {
        self.note_fallback(cause);
        self.book_visits(m);
        // Fast work on the books (ramp excluded); the block-dispatch budget
        // check guarantees `used + ramp <= max_cycles`, and the demoted
        // stepper re-pays the ramp out of the remainder as it refills.
        let used = self.stats_used(m, start_cycles);
        let pc = m.pc();
        m.exit_block_region(pc, &self.recent.seed());
        let budget = max_cycles - used;
        let refill_start = m.stats().cycles;
        self.replay_owed_loads(m, budget, sink, plan)?;
        let spent = m.stats().cycles - refill_start;
        interpret(m, budget - spent, sink, plan, max_cycles)
    }

    /// Give the stepper's refill the Ecache reads the region still owes:
    /// the loads in the last block's final three fetch positions read after
    /// the successor's first fetches. Each read goes in the first advancing
    /// cycle after the fetch three positions past its load, before that
    /// cycle's own fetch — where the MEM stage puts it — and its late-miss
    /// stall starts there. Errors end the replay exactly where a contiguous
    /// run would stop.
    ///
    /// The replay always finishes inside `budget`: the last block passed
    /// the dispatch check, and `CompiledBlock::cost_bound` reserves the
    /// successor's first four fetches and the reads it owes on top of the
    /// block's own cost. Running out here would lose the remaining reads —
    /// a resumed run demotes whole and never makes them — so it panics.
    fn replay_owed_loads<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        budget: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<(), RunError> {
        let start = m.stats().cycles;
        let head = m.pc();
        let head_end = self.fetched;
        for (pos, addr) in std::mem::take(&mut self.owed) {
            loop {
                assert!(
                    m.stats().cycles - start < budget,
                    "owed Ecache reads overran the budget reserved for them"
                );
                let advancing = !m.miss_fsm().stalled();
                if advancing && self.fetched == pos + 4 {
                    break;
                }
                step_once(m, sink, plan)?;
                self.fetched += u64::from(advancing);
            }
            // Three fetches in, the demoted block's head is in ALU, which
            // faults on an illegal word before MEM would read.
            if self.fetched == head_end + 3
                && matches!(
                    DecodedEntry::decode(m.read_word(head)).instr,
                    Instr::Illegal(_)
                )
            {
                return step_once(m, sink, plan);
            }
            let (_, ecache, mem) = m.memory_mut();
            let extra = ecache.access(addr, mem);
            step_once(m, sink, plan)?;
            self.fetched += 1;
            m.start_stall(StallCause::EcacheRetry, extra);
        }
        Ok(())
    }

    /// Execute one compiled (non-fallback) block against architectural
    /// state, count the visit under its outcome for
    /// [`BlockEngine::book_visits`] and put its length on the clock.
    /// `CACHED` drives the cache models as well. Returns the block's
    /// statically known successor for that outcome, or [`NO_BLOCK`].
    fn execute<const CACHED: bool>(&mut self, m: &mut Machine, bi: usize) -> u32 {
        enum Next {
            Goto(u32),
            Stop(u32),
        }
        let code: &CodeCache = &self.code;
        let b = &code.blocks[bi];
        let dirty = &mut self.dirty;
        let owed = &mut self.owed;
        let base = self.fetched;
        for &op in b.body.iter() {
            exec_op::<CACHED>(code, m, dirty, owed, base, op);
        }
        let (taken, next) = match b.exit {
            Exit::Fall { next } => (false, Next::Goto(next)),
            Exit::Halt { final_pc, .. } => (false, Next::Stop(final_pc)),
            Exit::Branch {
                cond,
                rs1,
                rs2,
                target,
                fall,
                kills,
            } => {
                // Resolve from pre-window state, as the pipeline does: the
                // condition reads at the resolve stage while the window is
                // still upstream.
                let cpu = m.cpu();
                let t = cond.eval(cpu.reg(rs1), cpu.reg(rs2));
                if !kills[usize::from(t)] {
                    for &op in b.window.iter() {
                        exec_op::<CACHED>(code, m, dirty, owed, base, op);
                    }
                }
                (t, Next::Goto(if t { target } else { fall }))
            }
            Exit::Jump { rs1, rd, imm, link } => {
                // Base read before the link lands (jspci reads rs1 at RF);
                // link committed before the window, which may consume it.
                let to = m.cpu().reg(rs1).wrapping_add(imm as u32);
                m.cpu_mut().set_reg(rd, link);
                for &op in b.window.iter() {
                    exec_op::<CACHED>(code, m, dirty, owed, base, op);
                }
                (false, Next::Goto(to))
            }
        };
        if CACHED {
            if let Exit::Halt {
                shadow_load: Some((rs1, offset)),
                ..
            } = b.exit
            {
                // Registers are final: the shadow load's base reads the
                // file or the bypass, both current (halt defines nothing).
                let addr = m.cpu().reg(rs1).wrapping_add(offset as u32);
                self.owed.push((base + u64::from(b.len), addr));
            }
            self.book_caches(m, bi);
        }
        let b = &self.code.blocks[bi];
        let o = usize::from(taken);
        self.visits[bi][o] += 1;
        self.trail.push((bi as u32) << 1 | o as u32);
        m.stats_mut().cycles += u64::from(b.len);
        match next {
            Next::Goto(pc) => m.set_pc(pc),
            Next::Stop(pc) => {
                m.set_pc(pc);
                m.retire_halt();
            }
        }
        b.next[o]
    }

    /// Drive the machine's caches through one visit exactly as the stepper
    /// would: the visit's fetches in order (a `halt` block's shadow
    /// included), each owed load's Ecache read after the fetch three
    /// positions past it, and every stall booked. The block's last three
    /// positions stay owed to the successor.
    ///
    /// The Icache books the visit's fetches first, through
    /// [`Icache::fetch_run`](mipsx_mem::Icache::fetch_run): a replay of the
    /// block's [`HitMemo`] while each line it recorded still holds its tag
    /// with the visit's words valid, else the line kernel, one row scan
    /// per line with the missed words read from the valid mask. Then the
    /// Ecache takes each miss's fill reads
    /// ([`Icache::fill_reads`](mipsx_mem::Icache::fill_reads)) in fetch
    /// order, each after the owed reads due before its fetch. Booking the
    /// fetches first is exact: an Icache fetch touches no Ecache state, and
    /// the fill reads touch no Icache state but the statistics' sums.
    ///
    /// Stalls add, so most go straight onto the clock. A `halt` retires in
    /// the cycle of its last shadow fetch, which is also when the first
    /// shadow word's load reads: those two stalls start but never freeze.
    // Inlined into its one caller: as a call it cost `board_pipeline`
    // about 6 % (6 of 6 alternating perfbench pairs).
    #[inline(always)]
    fn book_caches(&mut self, m: &mut Machine, bi: usize) {
        let b = &self.code.blocks[bi];
        let fetches = b.fetches();
        let start = self.fetched;
        let end = start + u64::from(fetches);
        let (on_clock_fetches, on_clock_reads) = match b.exit {
            Exit::Halt { .. } => (end - 1, start + u64::from(b.len)),
            _ => (u64::MAX, u64::MAX),
        };
        let book = |m: &mut Machine, cause, cycles, on_clock: bool| {
            if on_clock {
                m.book_stall(cause, cycles);
            } else {
                m.start_stall(cause, cycles);
            }
        };
        let owed = &self.owed;
        let mut next = 0;
        // The owed reads due before fetch position `f`.
        let mut read_before = |m: &mut Machine, f: u64| {
            while next < owed.len() && owed[next].0 + 3 < f {
                let (pos, addr) = owed[next];
                let (_, ecache, mem) = m.memory_mut();
                let extra = ecache.access(addr, mem);
                book(m, StallCause::EcacheRetry, extra, pos < on_clock_reads);
                next += 1;
            }
        };
        self.missed.clear();
        m.memory_mut()
            .0
            .fetch_run(b.start, fetches, &mut self.memos[bi], &mut self.missed);
        for &k in &self.missed {
            let f = start + u64::from(k);
            read_before(m, f);
            let (icache, ecache, mem) = m.memory_mut();
            let stall = icache.fill_reads(b.start.wrapping_add(k), ecache, mem);
            book(m, StallCause::IcacheMiss, stall, f < on_clock_fetches);
        }
        read_before(m, end);
        self.owed.drain(..next);
        self.fetched = end;
    }
}

/// One stepper cycle. It goes through the budget loop rather than
/// [`Machine::step`] so that the loop stays `step`'s only caller, which
/// lets the compiler inline the cycle into it.
fn step_once<S: TraceSink>(
    m: &mut Machine,
    sink: &mut S,
    plan: &mut FaultPlan,
) -> Result<(), RunError> {
    match m.run_with_faults(1, sink, plan) {
        Ok(_) | Err(RunError::CycleLimit { .. }) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Hand a budget to the stepper, remapping its budget error to the
/// caller's original limit.
fn interpret<S: TraceSink>(
    m: &mut Machine,
    budget: u64,
    sink: &mut S,
    plan: &mut FaultPlan,
    caller_limit: u64,
) -> Result<RunStats, RunError> {
    match m.run_with_faults(budget, sink, plan) {
        Err(RunError::CycleLimit { .. }) => Err(RunError::CycleLimit {
            limit: caller_limit,
        }),
        r => r,
    }
}

/// Retire one superop eagerly against architectural state.
/// With `CACHED`, a load also owes the Ecache a read at its fetch offset
/// from `base`, the block's first fetch position.
#[inline(always)]
fn exec_op<const CACHED: bool>(
    code: &CodeCache,
    m: &mut Machine,
    dirty: &mut bool,
    owed: &mut Vec<(u64, u32)>,
    base: u64,
    op: Op,
) {
    /// A 5-bit register operand as an index the compiler knows is in
    /// bounds.
    #[inline(always)]
    fn ix(r: u8) -> usize {
        usize::from(r & 31)
    }
    /// The write of an op that may target `r0`, which stays zero.
    #[inline(always)]
    fn write(r: &mut [u32; 32], rd: u8, v: u32) {
        r[ix(rd)] = v;
        r[0] = 0;
    }
    let r = m.cpu_mut().regs_mut();
    match op {
        Op::Add(Rrr { rs1, rs2, rd }) => r[ix(rd)] = r[ix(rs1)].wrapping_add(r[ix(rs2)]),
        Op::Sub(Rrr { rs1, rs2, rd }) => r[ix(rd)] = r[ix(rs1)].wrapping_sub(r[ix(rs2)]),
        Op::And(Rrr { rs1, rs2, rd }) => r[ix(rd)] = r[ix(rs1)] & r[ix(rs2)],
        Op::Or(Rrr { rs1, rs2, rd }) => r[ix(rd)] = r[ix(rs1)] | r[ix(rs2)],
        Op::Xor(Rrr { rs1, rs2, rd }) => r[ix(rd)] = r[ix(rs1)] ^ r[ix(rs2)],
        Op::Nor(Rrr { rs1, rs2, rd }) => r[ix(rd)] = !(r[ix(rs1)] | r[ix(rs2)]),
        Op::Sll(Shift { rs1, rd, sh }) => r[ix(rd)] = r[ix(rs1)] << (sh & 31),
        Op::Srl(Shift { rs1, rd, sh }) => r[ix(rd)] = r[ix(rs1)] >> (sh & 31),
        Op::Sra(Shift { rs1, rd, sh }) => r[ix(rd)] = ((r[ix(rs1)] as i32) >> (sh & 31)) as u32,
        Op::Compute {
            op,
            rs1,
            rs2,
            rd,
            shamt,
        } => {
            let (a, b) = (r[ix(rs1)], r[ix(rs2)]);
            let cpu = m.cpu_mut();
            let (v, _overflow, md_out) = op.execute(a, b, shamt, cpu.md);
            if let Some(md) = md_out {
                cpu.md = md;
            }
            write(cpu.regs_mut(), rd, v);
        }
        Op::Addi { rs1, rd, imm } => r[ix(rd)] = r[ix(rs1)].wrapping_add(imm as u32),
        Op::Ld { rs1, rd, at } => {
            let (offset, at) = at.get();
            let addr = r[ix(rs1)].wrapping_add(offset as u32);
            let v = m.read_word(addr);
            write(m.cpu_mut().regs_mut(), rd, v);
            if CACHED {
                owed.push((base + u64::from(at), addr));
            }
        }
        Op::St { rs1, rsrc, offset } => {
            let (addr, v) = (r[ix(rs1)].wrapping_add(offset as u32), r[ix(rsrc)]);
            m.write_word(addr, v);
            if code.watched(addr) {
                *dirty = true;
            }
        }
        Op::Movfrs { rd, sreg } => {
            let v = m.cpu().special(sreg);
            write(m.cpu_mut().regs_mut(), rd, v);
        }
        Op::MovtosMd { rs } => {
            let v = r[ix(rs)];
            m.cpu_mut().md = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_isa::{ComputeOp, Reg};

    /// Every compute lowers to a superop that computes what
    /// `ComputeOp::execute` does — destination and MD — on edge operands,
    /// every shift amount and every destination kind, `r0` included (a
    /// dropped op must leave the state as `execute` and a discarded write
    /// would).
    #[test]
    fn superops_compute_what_execute_computes() {
        const EDGES: [u32; 8] = [
            0,
            1,
            2,
            0x7FFF_FFFF,
            0x8000_0000,
            0x8000_0001,
            0xFFFF_FFFF,
            0x1234_5678,
        ];
        let code = CodeCache::empty(0);
        let mut m = Machine::new(MachineConfig::cache_ideal());
        let mut checked = 0;
        for op in ComputeOp::ALL {
            let shamts: Vec<u8> = if op.uses_shamt() {
                (0..32).collect()
            } else {
                vec![0]
            };
            let operands = EDGES
                .iter()
                .flat_map(|&a| EDGES.iter().map(move |&b| (a, b)));
            for (a, b) in operands {
                for (md, &shamt) in [0, 0x8000_0000, 0xDEAD_BEEF]
                    .into_iter()
                    .flat_map(|md| shamts.iter().map(move |s| (md, s)))
                {
                    // Destinations: r0, a fresh register, and each source.
                    for rd in [0u8, 3, 1, 2] {
                        let instr = Instr::Compute {
                            op,
                            rs1: Reg::new(1),
                            rs2: Reg::new(2),
                            rd: Reg::new(rd),
                            shamt,
                        };
                        let cpu = m.cpu_mut();
                        *cpu.regs_mut() = [0x5A5A_5A5A; 32];
                        cpu.regs_mut()[0] = 0;
                        cpu.regs_mut()[1] = a;
                        cpu.regs_mut()[2] = b;
                        cpu.md = md;
                        let mut want = *cpu.regs_mut();
                        let (v, _, md_out) = op.execute(a, b, shamt, md);
                        if rd != 0 {
                            want[usize::from(rd)] = v;
                        }
                        let want_md = md_out.unwrap_or(md);
                        if let Some(op) = compile::compile_op(instr, 0).expect("in the op set") {
                            exec_op::<false>(&code, &mut m, &mut false, &mut Vec::new(), 0, op);
                        }
                        let label =
                            format!("{op:?} rd=r{rd} a={a:#x} b={b:#x} sh={shamt} md={md:#x}");
                        assert_eq!(m.cpu_mut().regs_mut(), &want, "{label}: registers");
                        assert_eq!(m.cpu().md, want_md, "{label}: MD");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000);
    }

    /// A load's offset and fetch offset survive packing at the edges of
    /// both fields.
    #[test]
    fn load_offsets_pack_exactly() {
        for offset in [-65_536, -65_535, -1, 0, 1, 255, 256, 65_534, 65_535] {
            for at in [
                0,
                1,
                255,
                256,
                257,
                65_535,
                65_536,
                70_000,
                compile::LoadAt::MAX,
            ] {
                let packed = compile::LoadAt::pack(offset, at);
                assert_eq!(packed.get(), (offset, at), "offset {offset}, at {at}");
            }
        }
    }

    /// The demotion seed is the last three fetch records, oldest first,
    /// after any sequence of visits with 1-, 2- and 3-entry tails.
    #[test]
    fn demotion_seed_is_the_last_three_fetch_records() {
        let tails: [&[u8]; 5] = [
            &[1, 1, 1, 1],
            &[2, 1, 3, 2],
            &[3, 1, 2],
            &[1, 2, 2, 1],
            &[2, 3],
        ];
        for (case, lens) in tails.iter().enumerate() {
            let mut recent = Recent::default();
            let mut fetched = Vec::new();
            for (visit, &len) in lens.iter().enumerate() {
                let mut tail = TailSeed {
                    len,
                    ..TailSeed::default()
                };
                for j in 0..usize::from(len) {
                    let record = (100 * visit as u32 + j as u32, j % 2 == 1);
                    tail.entries[j] = FetchRecord::new(record.0, record.1);
                    fetched.push(record);
                }
                recent.take(&tail);
                let want = &fetched[fetched.len().saturating_sub(3)..];
                assert_eq!(recent.seed(), want, "case {case}, visit {visit}");
            }
        }
    }
}

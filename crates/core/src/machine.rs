//! The pipeline simulator.
//!
//! ## Cycle anatomy
//!
//! Each call to [`Machine::step`] simulates one clock. Within a cycle the
//! phases run in an order that reproduces the hardware's timing:
//!
//! 1. **ψ1 gate** — if the cache-miss FSM is stalled (Icache miss service or
//!    Ecache late-miss retry), the qualified clock is withheld and nothing
//!    moves (*"the control state does not shift down the pipeline control
//!    latches"*).
//! 2. **Interrupts** — external lines sampled at the cycle boundary; an
//!    accepted interrupt halts the pipeline: every in-flight instruction is
//!    killed, the PC chain freezes, PSW → PSWold, PC ← 0.
//! 3. **ALU** — the instruction in the ALU stage resolves its operands
//!    through the two-level bypass network and computes; `movtos` commits
//!    here (special registers live beside the datapath, and the write is
//!    idempotent under replay).
//! 4. **Overflow trap** — a trapping add/subtract in ALU raises the one
//!    on-chip exception.
//! 5. **MEM** — loads/stores go through the external cache (the late-miss
//!    retry loop freezes following cycles); coprocessor traffic is driven
//!    out the address pins.
//! 6. **Control resolution** — a branch in the resolve stage evaluates its
//!    compare, drives the PC bus from the displacement adder, and asserts
//!    the Squash line when its delay slots must die.
//! 7. **WB** — delayed write-back: the *only* point where the register
//!    file, the MD register, and (for `halt`) the run state change.
//! 8. **Advance** — the pipeline shifts, a new word is fetched through the
//!    instruction cache, and the PC chain shifts when enabled.
//!
//! ## Observability
//!
//! [`Machine::step`] and [`Machine::run_with_faults`] take a
//! [`TraceSink`](crate::probe::TraceSink) and report every cycle's stage
//! occupancy, bypass activations, squashes, freezes and tagged stalls.
//! [`Machine::run`] is the same code monomorphised over the no-op
//! [`NullSink`](crate::probe::NullSink), so the untraced path pays nothing.

use mipsx_asm::{DecodedEntry, DecodedMem, Program};
use mipsx_coproc::Coprocessor;
use mipsx_isa::{ComputeOp, ExceptionCause, Instr, InstrMeta, Mode, Reg, SpecialReg, SquashMode};
use mipsx_mem::{Ecache, Icache, MainMemory};

use crate::cpu::PcChainEntry;
use crate::inject::{FaultKind, FaultPlan};
use crate::probe::{NullSink, SquashReason, Stage, StallCause, TraceSink};
use crate::{CacheMissFsm, Cpu, InterlockPolicy, MachineConfig, RunError, RunStats, SquashFsm};

/// Pipeline stage indices.
const IF: usize = 0;
const RF: usize = 1;
const ALU: usize = 2;
const MEM: usize = 3;
const WB: usize = 4;

/// One in-flight instruction. Fields are crate-visible so the snapshot
/// module can marshal pipeline latches without an accessor layer.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    pub(crate) pc: u32,
    pub(crate) instr: Instr,
    /// Precomputed facts about `instr`, fetched with it from the decoded
    /// image — the stage logic below reads these instead of re-classifying.
    pub(crate) meta: InstrMeta,
    /// The destination-kill bit the Squash/Exception lines set.
    pub(crate) kill: bool,
    /// ALU result / effective address / link value / `movfrs` datum.
    pub(crate) result: u32,
    /// Effective memory address (loads/stores), computed in ALU.
    pub(crate) addr: u32,
    /// Datum returned by MEM (loads, `mvfc`).
    pub(crate) mem_data: u32,
    /// Pending MD-register update (msteps/dsteps), committed at WB.
    pub(crate) md_out: Option<u32>,
    /// Signed overflow detected in ALU.
    pub(crate) overflow: bool,
}

impl Slot {
    pub(crate) fn new(pc: u32, entry: DecodedEntry, kill: bool) -> Slot {
        Slot {
            pc,
            instr: entry.instr,
            meta: entry.meta,
            kill,
            result: 0,
            addr: 0,
            mem_data: 0,
            md_out: None,
            overflow: false,
        }
    }

    /// The value this instruction writes to its destination register.
    fn final_value(&self) -> u32 {
        if self.meta.mem_result {
            self.mem_data
        } else {
            self.result
        }
    }
}

/// Why an operand could not be resolved.
enum Hazard {
    /// The producer is a load (or `mvfc`) one cycle ahead — its datum is not
    /// back yet. Under [`InterlockPolicy::Trust`] the stale register value
    /// is used, as in the real hardware.
    LoadUse { reg: Reg },
}

/// A complete simulated MIPS-X system: CPU, pipeline, caches, memory and up
/// to seven coprocessors. Fields are crate-visible so the snapshot module
/// can marshal the full state.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) cpu: Cpu,
    pub(crate) slots: [Option<Slot>; 5],
    pub(crate) icache: Icache,
    pub(crate) ecache: Ecache,
    pub(crate) mem: MainMemory,
    pub(crate) coprocs: [Option<Box<dyn Coprocessor>>; 8],
    /// Decode-once side-car over instruction memory: IF fetches memoized
    /// [`DecodedEntry`] records; every store to memory invalidates its
    /// address so self-modifying code re-decodes the new word.
    pub(crate) decoded: DecodedMem,
    pub(crate) miss_fsm: CacheMissFsm,
    pub(crate) squash_fsm: SquashFsm,
    pub(crate) stats: RunStats,
    pub(crate) halted: bool,
    /// Kill the next fetched instruction (replay of a squashed PC-chain
    /// entry).
    pub(crate) pending_fetch_kill: bool,
    /// Level-triggered maskable interrupt line.
    pub(crate) interrupt_line: bool,
    /// Edge-triggered non-maskable interrupt.
    pub(crate) nmi_pending: bool,
}

impl Machine {
    /// Build a machine from a configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.validate();
        Machine {
            cpu: Cpu::new(),
            slots: [None; 5],
            icache: Icache::new(cfg.icache),
            ecache: Ecache::new(cfg.ecache),
            mem: MainMemory::with_latency(cfg.mem_latency),
            coprocs: Default::default(),
            decoded: DecodedMem::new(),
            miss_fsm: CacheMissFsm::new(),
            squash_fsm: SquashFsm::new(),
            stats: RunStats::default(),
            halted: false,
            pending_fetch_kill: false,
            interrupt_line: false,
            nmi_pending: false,
            cfg,
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Architectural CPU state.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable CPU state (test setup).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Instruction-cache statistics.
    pub fn icache(&self) -> &Icache {
        &self.icache
    }

    /// External-cache statistics.
    pub fn ecache(&self) -> &Ecache {
        &self.ecache
    }

    /// The squash FSM's instrumentation (Figure 3).
    pub fn squash_fsm(&self) -> &SquashFsm {
        &self.squash_fsm
    }

    /// The cache-miss FSM's instrumentation (Figure 4).
    pub fn miss_fsm(&self) -> &CacheMissFsm {
        &self.miss_fsm
    }

    /// Whether `halt` has completed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Load a program image into memory and point the PC at its entry.
    ///
    /// The decode-once table fills lazily: each word is decoded the first
    /// time IF fetches it (eager preloading would also decode data words
    /// and charge short runs for instructions they never reach). Any
    /// entries cached before the load are dropped.
    pub fn load_program(&mut self, program: &Program) {
        self.decoded.clear();
        self.mem.load(program.origin, &program.words);
        self.cpu.pc = program.entry;
    }

    /// Load raw words at an address (e.g. an exception handler at the
    /// vector).
    pub fn load_at(&mut self, origin: u32, words: &[u32]) {
        self.decoded.clear();
        self.mem.load(origin, words);
    }

    /// Read a memory word directly (verification).
    #[inline]
    pub fn read_word(&self, addr: u32) -> u32 {
        self.mem.peek(addr)
    }

    /// Write a memory word directly (test setup).
    #[inline]
    pub fn write_word(&mut self, addr: u32, word: u32) {
        self.decoded.invalidate(addr);
        self.mem.write(addr, word);
    }

    /// Enable or disable the decode-once fetch cache (enabled by default).
    ///
    /// Disabling makes every IF fetch decode its word afresh — the
    /// word-decode baseline the decode differential test compares
    /// against. Simulated behaviour is identical
    /// either way; this is deliberately not a [`MachineConfig`] field so it
    /// cannot perturb the sweep engine's config-keyed result cache.
    pub fn set_decode_cache_enabled(&mut self, enabled: bool) {
        self.decoded.set_enabled(enabled);
    }

    /// Attach a coprocessor to slot `n` (1..8; 0 is the CPU itself).
    ///
    /// # Panics
    /// Panics if `n` is 0 or ≥ 8.
    pub fn attach_coprocessor(&mut self, n: u8, coproc: Box<dyn Coprocessor>) {
        assert!((1..8).contains(&n), "coprocessor slots are 1..8");
        self.coprocs[n as usize] = Some(coproc);
    }

    /// Borrow an attached coprocessor.
    pub fn coprocessor(&self, n: u8) -> Option<&dyn Coprocessor> {
        self.coprocs[n as usize & 7].as_deref()
    }

    /// Drive the level-triggered maskable interrupt pin.
    pub fn set_interrupt_line(&mut self, asserted: bool) {
        self.interrupt_line = asserted;
    }

    /// Pulse the non-maskable interrupt pin.
    pub fn pulse_nmi(&mut self) {
        self.nmi_pending = true;
    }

    // === Lifecycle reuse and the block-engine handshake ==================

    /// Cycles on the clock before the first WB drain from an empty pipe:
    /// the instruction fetched on cycle 1 occupies IF/RF/ALU/MEM on cycles
    /// 1–4 and drains from WB on cycle 5. `mipsx_verify`'s static/dynamic
    /// differential proves `cycles == drains + PIPE_FILL_CYCLES` on every
    /// stall-free run, which is what makes the block-engine enter/exit
    /// cycle splice exact.
    pub const PIPE_FILL_CYCLES: u64 = 5;

    /// Reset to power-on state under a (possibly different) configuration,
    /// reusing this machine's allocations.
    ///
    /// The post-state is indistinguishable from `Machine::new(cfg)`, but
    /// the big allocations — cache tag arrays, resident memory pages, the
    /// decode-once table — are recycled when the new configuration permits.
    /// Sweep workers run thousands of jobs back-to-back and construction
    /// dominated their serial time; this is the reuse path. Attached
    /// coprocessors are dropped (each job attaches its own).
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::validate`]).
    pub fn reset_with(&mut self, cfg: MachineConfig) {
        cfg.validate();
        self.cpu = Cpu::new();
        self.slots = [None; 5];
        if self.icache.config() == cfg.icache {
            self.icache.invalidate_all();
            self.icache.reset_stats();
        } else {
            self.icache = Icache::new(cfg.icache);
        }
        if self.ecache.config() == cfg.ecache {
            self.ecache.invalidate_all();
            self.ecache.reset_stats();
        } else {
            self.ecache = Ecache::new(cfg.ecache);
        }
        self.mem.reset(cfg.mem_latency);
        self.coprocs = Default::default();
        self.decoded.clear();
        self.decoded.set_enabled(true);
        self.miss_fsm = CacheMissFsm::new();
        self.squash_fsm = SquashFsm::new();
        self.stats = RunStats::default();
        self.halted = false;
        self.pending_fetch_kill = false;
        self.interrupt_line = false;
        self.nmi_pending = false;
        self.cfg = cfg;
    }

    /// The next fetch address (the architectural PC).
    pub fn pc(&self) -> u32 {
        self.cpu.pc
    }

    /// Redirect the next fetch (block-engine handoff).
    pub fn set_pc(&mut self, pc: u32) {
        self.cpu.pc = pc;
    }

    /// Mutable run statistics (block-engine accounting).
    pub fn stats_mut(&mut self) -> &mut RunStats {
        &mut self.stats
    }

    /// Whether the pipeline is quiescent: no instruction in flight, no
    /// pending fetch kill, and no cache miss in service. Holds at reset and
    /// whenever the pipe has fully drained; it is the precondition for
    /// entering a block-engine fast region.
    pub fn pipeline_quiescent(&self) -> bool {
        self.slots.iter().all(Option::is_none)
            && !self.pending_fetch_kill
            && !self.miss_fsm.stalled()
    }

    /// Whether any coprocessor is attached. Coprocessor interfaces stall
    /// the pipe asynchronously, which is outside the block engine's static
    /// model.
    pub fn has_coprocessors(&self) -> bool {
        self.coprocs.iter().any(Option::is_some)
    }

    /// Whether an external interrupt is awaiting delivery (level-triggered
    /// line asserted or an NMI edge latched).
    pub fn interrupt_pending(&self) -> bool {
        self.interrupt_line || self.nmi_pending
    }

    /// Begin a block-engine fast region: charge the [`Self::PIPE_FILL_CYCLES`]
    /// fetch ramp the region's first block would have paid on the stepper.
    ///
    /// Returns `false` — charging nothing — unless the machine is quiescent
    /// and not halted; the caller must then stay on the stepper.
    pub fn enter_block_region(&mut self) -> bool {
        if self.halted || !self.pipeline_quiescent() {
            return false;
        }
        self.stats.cycles += Self::PIPE_FILL_CYCLES;
        true
    }

    /// End a block-engine fast region, handing control back to the stepper
    /// with the next fetch at `pc`.
    ///
    /// Refunds the [`Self::PIPE_FILL_CYCLES`] ramp charged by
    /// [`Machine::enter_block_region`]: the stepper re-pays exactly that
    /// many cycles refilling the empty pipe, so the final cycle count
    /// matches a contiguous stepper run to the cycle. `recent` seeds the PC
    /// history chain with the last (up to three) instructions the region
    /// fetched, oldest first, as `(pc, squashed)` pairs — reproducing the
    /// chain contents a contiguous run would carry into the handoff point,
    /// so `jpc`/`jpcrs` replay stays exact even if an exception fires
    /// before the stepper's own advances refresh the chain.
    pub fn exit_block_region(&mut self, pc: u32, recent: &[(u32, bool)]) {
        debug_assert!(self.stats.cycles >= Self::PIPE_FILL_CYCLES);
        self.stats.cycles -= Self::PIPE_FILL_CYCLES;
        self.cpu.pc = pc;
        if self.cpu.psw.pc_shifting_enabled() {
            let chain_len = self.cpu.pc_chain.len();
            let n = recent.len().min(chain_len);
            // Oldest entry lands deepest (chain[0] mirrors the MEM stage).
            for (i, &(rpc, squashed)) in recent[recent.len() - n..].iter().enumerate() {
                self.cpu.pc_chain[chain_len - n + i] = PcChainEntry { pc: rpc, squashed };
            }
        }
    }

    /// Retire a `halt` on the block-engine fast path: the region keeps its
    /// pipe-fill charge (a halting region is not handed back to the
    /// stepper) and the machine refuses further stepping, exactly as after
    /// a stepper-retired `halt`.
    pub fn retire_halt(&mut self) {
        self.halted = true;
    }

    /// The memory hierarchy — Icache, Ecache and main memory — for a block
    /// engine that drives the cache models itself. A fetch through the
    /// Icache or an [`Ecache::read`] here is exactly the access the
    /// stepper's IF or MEM stage makes; its stall cycles are then booked
    /// with [`Machine::book_stall`] or [`Machine::start_stall`].
    pub fn memory_mut(&mut self) -> (&mut Icache, &mut Ecache, &mut MainMemory) {
        (&mut self.icache, &mut self.ecache, &mut self.mem)
    }

    /// Book, at once, a stall whose frozen cycles a block-engine fast path
    /// runs through: the cause's `RunStats` counter, `cycles` and
    /// `frozen_cycles` on the clock, and the cache-miss FSM's counters —
    /// everything the stepper books over the stall's lifetime. Stalls add
    /// (each event freezes the pipe for its own cycles, in any order), so
    /// a block visit costs its length plus its stalls.
    pub fn book_stall(&mut self, cause: StallCause, cycles: u32) {
        if cycles == 0 {
            return;
        }
        let n = u64::from(cycles);
        *self.stats.stall_cycles_mut(cause) += n;
        self.stats.cycles += n;
        self.stats.frozen_cycles += n;
        self.miss_fsm.serve(cycles);
    }

    /// Start a stall as the stepper does at the event that causes it: the
    /// cause's `RunStats` counter now, frozen cycles as the clock runs.
    /// For accesses a block engine replays among stepper cycles, and for
    /// those in a `halt`'s retiring cycle, whose freeze never comes.
    pub fn start_stall(&mut self, cause: StallCause, cycles: u32) {
        let pc = self.cpu.pc;
        self.stall(cause, cycles, pc, &mut NullSink);
    }

    /// [`Machine::run_with_faults`] untraced and fault-free.
    ///
    /// # Errors
    /// As [`Machine::run_with_faults`].
    // Inlined so callers instantiate the loop as they do for `run_with`:
    // the untraced and `NullSink` paths then compile to the same code.
    #[inline]
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, RunError> {
        self.run_with_faults(max_cycles, &mut NullSink, &mut FaultPlan::none())
    }

    /// [`Machine::run_with_faults`] fault-free, reporting every cycle to
    /// `sink`.
    ///
    /// # Errors
    /// As [`Machine::run_with_faults`].
    pub fn run_with<S: TraceSink>(
        &mut self,
        max_cycles: u64,
        sink: &mut S,
    ) -> Result<RunStats, RunError> {
        self.run_with_faults(max_cycles, sink, &mut FaultPlan::none())
    }

    /// Run until `halt` completes or `max_cycles` more cycles have passed,
    /// reporting every cycle to `sink` and injecting faults from `plan` as
    /// their cycles come due. The budget is relative, so an expired run
    /// resumes with another call. The plan is consumed in place: after a
    /// run its cursor sits past every delivered event
    /// ([`FaultPlan::rewind`] replays it).
    ///
    /// # Errors
    /// [`RunError::CycleLimit`] if the budget expires;
    /// [`RunError::AlreadyHalted`] if the machine already halted; any
    /// [`RunError`] from [`Machine::step`].
    pub fn run_with_faults<S: TraceSink>(
        &mut self,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, RunError> {
        if self.halted {
            return Err(RunError::AlreadyHalted);
        }
        let start = self.stats.cycles;
        while !self.halted {
            if self.stats.cycles - start >= max_cycles {
                return Err(RunError::CycleLimit { limit: max_cycles });
            }
            self.step(sink, plan)?;
        }
        Ok(self.stats)
    }

    /// Simulate one clock cycle, reporting its events to `sink` and
    /// injecting any faults from `plan` due this cycle before the pipeline
    /// phases run.
    ///
    /// # Errors
    /// Returns scheduling violations under [`InterlockPolicy::Detect`],
    /// illegal instructions, and privilege violations. Architectural
    /// exceptions (overflow trap, interrupts) are handled, not returned.
    pub fn step<S: TraceSink>(
        &mut self,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<(), RunError> {
        if self.halted {
            return Err(RunError::AlreadyHalted);
        }
        self.stats.cycles += 1;
        let cycle = self.stats.cycles;
        if S::ENABLED {
            sink.cycle(cycle);
        }
        for c in self.coprocs.iter_mut().flatten() {
            c.tick();
        }

        // Phase 0: fault injection — external misfortune asserts pins and
        // corrupts caches before the pipeline sees the cycle.
        if !plan.exhausted() {
            self.apply_faults(plan, sink);
        }

        // Phase 1: ψ1 gate — frozen cycles advance nothing.
        if !self.miss_fsm.tick() {
            self.stats.frozen_cycles += 1;
            if S::ENABLED {
                sink.frozen(cycle);
            }
            return Ok(());
        }

        // Phase 2: interrupt sampling.
        self.sample_interrupts(sink);

        // Phase 3: ALU.
        self.phase_alu(sink)?;

        // Phase 4: overflow trap.
        if let Some(slot) = self.slots[ALU] {
            if !slot.kill && slot.overflow && self.cpu.psw.overflow_trap_enabled() {
                self.take_exception(ExceptionCause::Overflow, sink);
            }
        }

        // Phase 5: MEM.
        self.phase_mem(sink)?;

        // Phase 6: control resolution.
        self.phase_control(sink)?;

        // Stage occupancy snapshot: after control resolution (this cycle's
        // squash kills are visible), before the WB drain.
        if S::ENABLED {
            for (i, slot) in self.slots.iter().enumerate() {
                if let Some(s) = slot {
                    sink.stage(cycle, Stage::from_index(i), s.pc, s.instr, s.kill);
                }
            }
        }

        // Phase 7: WB.
        self.phase_wb(sink);

        // Phase 8: advance.
        self.phase_advance(sink);
        Ok(())
    }

    /// Deliver every fault due this cycle. Interrupts and NMIs assert the
    /// external pins (sampled later this same cycle by
    /// [`Machine::sample_interrupts`]); parity, jitter and coprocessor-busy
    /// faults perturb timing only and must leave architectural state
    /// untouched — the lockstep differ holds the machine to that.
    fn apply_faults<S: TraceSink>(&mut self, plan: &mut FaultPlan, sink: &mut S) {
        let cycle = self.stats.cycles;
        if plan.interrupt_release_due(cycle) {
            self.interrupt_line = false;
        }
        while let Some(kind) = plan.pop_due(cycle) {
            if S::ENABLED {
                sink.fault(cycle, kind, self.cpu.pc);
            }
            match kind {
                FaultKind::Interrupt { hold } => {
                    self.interrupt_line = true;
                    plan.hold_interrupt_until(cycle + u64::from(hold.max(1)));
                    self.stats.injected_interrupts += 1;
                }
                FaultKind::Nmi => {
                    self.nmi_pending = true;
                    self.stats.injected_nmis += 1;
                }
                FaultKind::IcacheParity => {
                    // Drop the sub-block valid bit under the current fetch
                    // PC; the next fetch refetches it through the Ecache.
                    // A miss on a word that was never resident is not a
                    // retry, so only count hits that were invalidated.
                    if self.icache.invalidate_word(self.cpu.pc) {
                        self.stats.injected_parity_retries += 1;
                    }
                }
                FaultKind::EcacheJitter { extra } => {
                    let extra = extra.max(1);
                    self.stall(StallCause::EcacheRetry, extra, self.cpu.pc, sink);
                    self.stats.injected_jitter_cycles += u64::from(extra);
                }
                FaultKind::CoprocBusy { cycles } => {
                    let cycles = cycles.max(1);
                    for c in self.coprocs.iter_mut().flatten() {
                        c.inject_busy(cycles);
                    }
                    self.stall(StallCause::CoprocBusy, cycles, self.cpu.pc, sink);
                    self.stats.injected_coproc_busy_cycles += u64::from(cycles);
                }
            }
        }
    }

    /// Sample external interrupt pins; take an exception if one is
    /// accepted. Acceptance is deferred while a special jump (`jpc`/`jpcrs`)
    /// is in flight: the restart sequence must complete atomically, and
    /// delaying acceptance at most three cycles is the cheap hardware fix.
    fn sample_interrupts<S: TraceSink>(&mut self, sink: &mut S) {
        // The pipe must be primed first: an exception taken while the
        // pipeline is still filling from reset would save a PC chain that
        // holds reset-default entries, and the restart sequence would
        // replay them. Boot software runs this window with interrupts
        // masked; the model defers sampling until every pre-WB stage
        // holds a real instruction (NMIs stay latched meanwhile).
        if self.slots[..WB].iter().any(|s| s.is_none()) {
            return;
        }
        let special_jump_in_flight = self.slots[..WB]
            .iter()
            .any(|s| s.is_some_and(|s| !s.kill && s.meta.is_special_jump));
        if special_jump_in_flight {
            return;
        }
        if self.nmi_pending {
            self.nmi_pending = false;
            self.take_exception(ExceptionCause::NonMaskableInterrupt, sink);
        } else if self.interrupt_line && self.cpu.psw.interrupts_enabled() {
            self.take_exception(ExceptionCause::Interrupt, sink);
        }
    }

    /// Halt the pipeline: *"No instructions are completed. The PC is
    /// immediately set to zero and the shift chain of old PC values is
    /// frozen ... The current PSW is placed in PSWold, interrupts are turned
    /// off and the machine is placed into system mode."*
    fn take_exception<S: TraceSink>(&mut self, cause: ExceptionCause, sink: &mut S) {
        let lines = self.squash_fsm.exception();
        if S::ENABLED {
            sink.squash(
                self.stats.cycles,
                SquashReason::Exception,
                lines,
                self.cpu.pc,
            );
            sink.exception(self.stats.cycles, cause);
        }
        for slot in self.slots[..WB].iter_mut().flatten() {
            slot.kill = true;
        }
        self.cpu.psw_old = self.cpu.psw;
        self.cpu.psw.record_cause(cause);
        self.cpu.psw.set_mode(Mode::System);
        self.cpu.psw.set_interrupts_enabled(false);
        self.cpu.psw.set_pc_shifting_enabled(false);
        self.cpu.pc = self.cfg.exception_vector;
        self.pending_fetch_kill = false;
        self.stats.exceptions += 1;
    }

    /// Resolve a register operand for a consumer in stage `consumer`
    /// (ALU for ordinary instructions, the control-resolve stage for
    /// branches and jumps) through the two-level bypass network.
    /// On success also reports where the value came from: `Some(stage)` for
    /// a bypass from the producer in that stage, `None` for a register-file
    /// read.
    fn resolve_operand(&self, reg: Reg, consumer: usize) -> Result<(u32, Option<usize>), Hazard> {
        if reg.is_zero() {
            return Ok((0, None));
        }
        // Nearest producer wins; a producer one stage ahead whose datum
        // comes from memory has not got it yet.
        for distance in 1..=(WB - consumer) {
            let stage = consumer + distance;
            let Some(p) = &self.slots[stage] else {
                continue;
            };
            if p.kill || p.meta.def != Some(reg) {
                continue;
            }
            if p.meta.mem_result {
                // A load's datum exists from the end of its MEM cycle. A
                // producer still before MEM has nothing; a producer *in* MEM
                // delivers at the very end of this cycle — too late for a
                // consumer in ALU (the load delay slot), but usable by a
                // consumer in RF (the quick-compare timing worry, modeled
                // as available) and by a consumer in MEM next phase.
                if stage < MEM || (stage == MEM && consumer == ALU) {
                    return Err(Hazard::LoadUse { reg });
                }
                let v = if stage == MEM {
                    p.mem_data
                } else {
                    p.final_value()
                };
                return Ok((v, Some(stage)));
            }
            let v = if stage == WB {
                p.final_value()
            } else {
                p.result
            };
            return Ok((v, Some(stage)));
        }
        Ok((self.cpu.reg(reg), None))
    }

    /// Resolve with the configured interlock policy applied, reporting any
    /// bypass activation to `sink`.
    fn operand<S: TraceSink>(
        &self,
        reg: Reg,
        consumer: usize,
        pc: u32,
        sink: &mut S,
    ) -> Result<u32, RunError> {
        match self.resolve_operand(reg, consumer) {
            Ok((v, from)) => {
                if S::ENABLED {
                    if let Some(stage) = from {
                        sink.bypass(
                            self.stats.cycles,
                            reg,
                            Stage::from_index(stage),
                            Stage::from_index(consumer),
                        );
                    }
                }
                Ok(v)
            }
            Err(Hazard::LoadUse { reg }) => match self.cfg.interlock {
                InterlockPolicy::Trust => Ok(self.cpu.reg(reg)),
                InterlockPolicy::Detect => Err(RunError::LoadUseHazard { pc, reg }),
            },
        }
    }

    /// The MD register as seen by an mstep/dstep in ALU: pending updates in
    /// MEM and WB bypass ahead of the architectural register.
    fn effective_md(&self) -> u32 {
        for stage in [MEM, WB] {
            if let Some(p) = &self.slots[stage] {
                if !p.kill {
                    if let Some(md) = p.md_out {
                        return md;
                    }
                }
            }
        }
        self.cpu.md
    }

    /// Phase 3: the ALU stage — everything except control transfer.
    fn phase_alu<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), RunError> {
        let Some(mut slot) = self.slots[ALU] else {
            return Ok(());
        };
        if slot.kill {
            return Ok(());
        }
        let pc = slot.pc;
        if let Instr::Illegal(word) = slot.instr {
            return Err(RunError::IllegalInstruction { pc, word });
        }
        if slot.meta.is_privileged && self.cpu.psw.mode() == Mode::User {
            return Err(RunError::PrivilegeViolation { pc });
        }
        match slot.instr {
            Instr::Compute {
                op,
                rs1,
                rs2,
                rd: _,
                shamt,
            } => {
                let a = self.operand(rs1, ALU, pc, sink)?;
                let b = if op.uses_rs2() {
                    self.operand(rs2, ALU, pc, sink)?
                } else {
                    0
                };
                let (result, overflow, md_out) =
                    execute_compute(op, a, b, shamt, || self.effective_md());
                slot.result = result;
                slot.overflow = overflow;
                slot.md_out = md_out;
            }
            Instr::Addi { rs1, rd: _, imm } => {
                let a = self.operand(rs1, ALU, pc, sink)?;
                let (sum, ovf) = (a as i32).overflowing_add(imm);
                slot.result = sum as u32;
                slot.overflow = ovf;
            }
            Instr::Ld { rs1, offset, .. }
            | Instr::St { rs1, offset, .. }
            | Instr::Ldf { rs1, offset, .. }
            | Instr::Stf { rs1, offset, .. } => {
                let base = self.operand(rs1, ALU, pc, sink)?;
                slot.addr = base.wrapping_add(offset as u32);
            }
            Instr::Cpop { rs1, op, .. } => {
                // The address cycle drives base + op out the pins; the
                // memory system ignores it.
                let base = self.operand(rs1, ALU, pc, sink)?;
                slot.addr = base.wrapping_add(op as u32);
            }
            Instr::Mvtc { .. } | Instr::Mvfc { .. } => {}
            Instr::Movfrs { sreg, .. } => {
                slot.result = match sreg {
                    SpecialReg::Md => self.effective_md(),
                    other => self.cpu.special(other),
                };
            }
            Instr::Movtos { sreg, rs } => {
                // Early commit: special registers sit beside the datapath
                // and the write is idempotent under post-exception replay.
                let v = self.operand(rs, ALU, pc, sink)?;
                self.cpu.set_special(sreg, v);
            }
            // Control transfers resolve in phase_control; nops and halt do
            // nothing here.
            _ => {}
        }
        self.slots[ALU] = Some(slot);
        Ok(())
    }

    /// Phase 5: the MEM stage — data memory and the coprocessor interface.
    fn phase_mem<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), RunError> {
        let Some(mut slot) = self.slots[MEM] else {
            return Ok(());
        };
        if slot.kill {
            return Ok(());
        }
        let pc = slot.pc;
        match slot.instr {
            Instr::Ld { .. } => {
                let (data, extra) = self.ecache.read(slot.addr, &mut self.mem);
                slot.mem_data = data;
                self.stall(StallCause::EcacheRetry, extra, pc, sink);
            }
            Instr::St { rsrc, .. } => {
                let v = self.operand(rsrc, MEM, pc, sink)?;
                // The store may hit instruction memory: drop any decoded
                // entry so the next fetch re-decodes the written word.
                self.decoded.invalidate(slot.addr);
                let extra = self.ecache.write(slot.addr, v, &mut self.mem);
                self.stall(StallCause::EcacheRetry, extra, pc, sink);
            }
            Instr::Ldf { fr, .. } => {
                self.stall_if_coproc_busy(1, pc, sink);
                let (data, extra) = self.ecache.read(slot.addr, &mut self.mem);
                self.stall(StallCause::EcacheRetry, extra, pc, sink);
                if let Some(c) = &mut self.coprocs[1] {
                    c.load_direct(fr, data);
                }
            }
            Instr::Stf { fr, .. } => {
                self.stall_if_coproc_busy(1, pc, sink);
                let v = self.coprocs[1].as_mut().map_or(0, |c| c.store_direct(fr));
                self.decoded.invalidate(slot.addr);
                let extra = self.ecache.write(slot.addr, v, &mut self.mem);
                self.stall(StallCause::EcacheRetry, extra, pc, sink);
            }
            Instr::Cpop { cop, op, .. } => {
                self.stall_if_coproc_busy(cop, pc, sink);
                if let Some(c) = &mut self.coprocs[cop as usize] {
                    c.execute(op);
                }
            }
            Instr::Mvtc { rs, cop, op } => {
                self.stall_if_coproc_busy(cop, pc, sink);
                let v = self.operand(rs, MEM, pc, sink)?;
                if let Some(c) = &mut self.coprocs[cop as usize] {
                    c.write(op, v);
                }
            }
            Instr::Mvfc { cop, op, .. } => {
                self.stall_if_coproc_busy(cop, pc, sink);
                slot.mem_data = self.coprocs[cop as usize]
                    .as_mut()
                    .map_or(0, |c| c.read(op));
            }
            _ => {}
        }
        self.slots[MEM] = Some(slot);
        Ok(())
    }

    /// Stall until coprocessor `cop` can accept an operation.
    fn stall_if_coproc_busy<S: TraceSink>(&mut self, cop: u8, pc: u32, sink: &mut S) {
        if let Some(c) = &self.coprocs[cop as usize & 7] {
            let busy = c.busy_cycles();
            self.stall(StallCause::CoprocBusy, busy, pc, sink);
        }
    }

    /// Start a stall of `cycles` frozen cycles at the event that caused it:
    /// the cause's `RunStats` counter now, and the cache-miss FSM withholds
    /// ψ1 for the next `cycles` cycles (stalls already in service add up).
    #[inline]
    fn stall<S: TraceSink>(&mut self, cause: StallCause, cycles: u32, pc: u32, sink: &mut S) {
        if cycles == 0 {
            return;
        }
        self.miss_fsm.start(cycles);
        *self.stats.stall_cycles_mut(cause) += u64::from(cycles);
        if S::ENABLED {
            sink.stall(self.stats.cycles, cause, cycles, pc);
        }
    }

    /// Phase 6: control resolution at the configured stage (ALU for the
    /// real two-slot pipeline, RF for the one-slot quick-compare variant).
    fn phase_control<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), RunError> {
        let resolve_stage = self.cfg.branch_delay_slots; // 2 -> ALU, 1 -> RF
        let Some(mut slot) = self.slots[resolve_stage] else {
            return Ok(());
        };
        if slot.kill || !slot.meta.is_control {
            return Ok(());
        }
        let pc = slot.pc;
        match slot.instr {
            Instr::Branch {
                cond,
                squash,
                rs1,
                rs2,
                disp,
            } => {
                let a = self.operand(rs1, resolve_stage, pc, sink)?;
                let b = self.operand(rs2, resolve_stage, pc, sink)?;
                let taken = cond.eval(a, b);
                self.stats.branches += 1;
                if taken {
                    self.stats.branches_taken += 1;
                    // The displacement adder drives the PC bus.
                    self.cpu.pc = pc.wrapping_add(disp as u32);
                }
                self.account_branch_slots(resolve_stage, squash, taken, pc, sink);
            }
            Instr::Jspci { rs1, rd: _, imm } => {
                let base = self.operand(rs1, resolve_stage, pc, sink)?;
                slot.result = pc
                    .wrapping_add(1)
                    .wrapping_add(self.cfg.branch_delay_slots as u32);
                self.cpu.pc = base.wrapping_add(imm as u32);
                self.stats.jumps += 1;
            }
            Instr::Jpc | Instr::Jpcrs => {
                if self.cpu.psw.mode() == Mode::User {
                    return Err(RunError::PrivilegeViolation { pc });
                }
                let entry = self.cpu.pc_chain[0];
                self.cpu.pc_chain.rotate_left(1);
                self.cpu.pc = entry.pc;
                self.pending_fetch_kill = entry.squashed;
                if matches!(slot.instr, Instr::Jpcrs) {
                    // The last restart jump restores the interrupted PSW.
                    self.cpu.psw = self.cpu.psw_old;
                }
                self.stats.jumps += 1;
            }
            _ => {}
        }
        self.slots[resolve_stage] = Some(slot);
        Ok(())
    }

    /// Apply squashing and charge delay-slot waste to the branch, per the
    /// Table 1 footnote.
    fn account_branch_slots<S: TraceSink>(
        &mut self,
        resolve_stage: usize,
        squash: SquashMode,
        taken: bool,
        pc: u32,
        sink: &mut S,
    ) {
        let slots_execute = squash.slots_execute(taken);
        let lines = if slots_execute {
            None
        } else {
            Some(self.squash_fsm.branch_squash(self.cfg.branch_delay_slots))
        };
        if S::ENABLED {
            if let Some(lines) = lines {
                sink.squash(self.stats.cycles, SquashReason::BranchWrongWay, lines, pc);
            }
        }
        // The delay slots sit in the stages younger than the branch.
        let mut squashed_slots = 0u32;
        let mut nop_slots = 0u32;
        for stage in (0..resolve_stage).rev() {
            let Some(s) = &mut self.slots[stage] else {
                continue;
            };
            if s.kill {
                // Already dead (e.g. replayed squashed entry): wasted, but
                // charged to whoever killed it.
                continue;
            }
            if let Some(lines) = lines {
                let killed = match stage {
                    IF => lines.kill_if,
                    RF => lines.kill_rf,
                    _ => false,
                };
                if killed {
                    s.kill = true;
                    self.stats.branch_slot_squashed += 1;
                    squashed_slots += 1;
                    continue;
                }
            }
            if s.meta.is_nop {
                self.stats.branch_slot_nops += 1;
                nop_slots += 1;
            }
        }
        if S::ENABLED {
            // A branch resolving behind an in-flight `halt` never drains:
            // the machine stops when the halt retires, so the resolution is
            // a fetch-ramp artifact. The probe event models the retiring
            // stream and suppresses it; the aggregate `branches` counters
            // keep it, matching the resolve-stage hardware activity.
            let behind_halt = (resolve_stage + 1..=WB).any(|stage| {
                self.slots[stage]
                    .as_ref()
                    .is_some_and(|s| !s.kill && matches!(s.instr, Instr::Halt))
            });
            if !behind_halt {
                sink.branch(self.stats.cycles, pc, taken, squashed_slots, nop_slots);
            }
        }
    }

    /// Phase 7: write-back — the only phase that changes register state.
    fn phase_wb<S: TraceSink>(&mut self, sink: &mut S) {
        let Some(slot) = self.slots[WB] else {
            return;
        };
        if S::ENABLED {
            sink.retire(self.stats.cycles, slot.pc, slot.instr, slot.kill);
        }
        if slot.kill {
            self.stats.squashed += 1;
            return;
        }
        self.stats.instructions += 1;
        if let Some(rd) = slot.meta.def {
            self.cpu.set_reg(rd, slot.final_value());
        }
        if let Some(md) = slot.md_out {
            self.cpu.md = md;
        }
        if slot.meta.is_nop {
            self.stats.nops += 1;
        } else if slot.meta.is_load {
            self.stats.loads += 1;
        } else if slot.meta.is_store {
            self.stats.stores += 1;
        } else if matches!(slot.instr, Instr::Halt) {
            self.halted = true;
        }
        if slot.meta.is_coproc {
            self.stats.coproc_ops += 1;
        }
    }

    /// Phase 8: shift the pipeline, fetch the next instruction, shift the
    /// PC chain.
    fn phase_advance<S: TraceSink>(&mut self, sink: &mut S) {
        self.slots[WB] = self.slots[MEM];
        self.slots[MEM] = self.slots[ALU];
        self.slots[ALU] = self.slots[RF];
        self.slots[RF] = self.slots[IF];

        // Instruction fetch through the on-chip cache.
        let pc = self.cpu.pc;
        let stall = self
            .icache
            .fetch_through(pc, &mut self.ecache, &mut self.mem);
        self.stall(StallCause::IcacheMiss, stall, pc, sink);
        // Decode-once: the side-car table serves the memoized entry; only a
        // first fetch (or one after an invalidating store) reads the word
        // from memory and decodes it.
        let entry = self.decoded.fetch_with(pc, || self.mem.peek(pc));
        // The non-cached coprocessor scheme forces an internal miss for
        // every coprocessor instruction so the coprocessor can see it on
        // the memory bus.
        if entry.meta.is_coproc {
            let forced = self
                .cfg
                .coproc_scheme
                .per_op_stall(self.cfg.icache.miss_penalty);
            self.stall(StallCause::CoprocForcedMiss, forced, pc, sink);
        }
        let kill = std::mem::take(&mut self.pending_fetch_kill);
        self.slots[IF] = Some(Slot::new(pc, entry, kill));
        self.cpu.pc = pc.wrapping_add(1);

        // PC chain: PCs (and kill bits) of the instructions now in RF, ALU
        // and MEM, oldest first.
        if self.cpu.psw.pc_shifting_enabled() {
            for (i, stage) in [MEM, ALU, RF].into_iter().enumerate() {
                if let Some(s) = &self.slots[stage] {
                    self.cpu.pc_chain[i] = PcChainEntry {
                        pc: s.pc,
                        squashed: s.kill,
                    };
                }
            }
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.cpu.pc)
            .field("halted", &self.halted)
            .field("cycles", &self.stats.cycles)
            .finish_non_exhaustive()
    }
}

/// Execute a compute operation. Returns `(result, overflow, md_update)`.
///
/// Semantics live in [`ComputeOp::execute`], shared with the functional
/// reference interpreter; `md` is read lazily here so the (rare)
/// mstep/dstep path alone pays for the bypass scan.
fn execute_compute(
    op: ComputeOp,
    a: u32,
    b: u32,
    shamt: u8,
    md: impl FnOnce() -> u32,
) -> (u32, bool, Option<u32>) {
    let md = if op.touches_md() { md() } else { 0 };
    op.execute(a, b, shamt, md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_is_send() {
        // The sweep engine builds one Machine per grid cell inside worker
        // threads and lets the scheduler move jobs freely between them.
        fn assert_send<T: Send>() {}
        assert_send::<Machine>();
    }

    #[test]
    fn mstep_multiplies() {
        // 32 msteps compute a*b mod 2^32 with md = b, accumulator threaded
        // through (a constant-register model of the datapath loop).
        let cases = [(3u32, 5u32), (0, 77), (123456, 7890), (u32::MAX, 2)];
        for (a, b) in cases {
            let mut md = b;
            let mut acc = 0u32;
            for _ in 0..32 {
                let (r, _, m) = execute_compute(ComputeOp::Mstep, a, acc, 0, || md);
                acc = r;
                md = m.unwrap();
            }
            assert_eq!(acc, a.wrapping_mul(b), "mstep {a}*{b}");
        }
    }

    #[test]
    fn dstep_divides() {
        let cases = [(100u32, 7u32), (12345, 1), (5, 9), (u32::MAX, 3)];
        for (n, d) in cases {
            let mut md = n; // dividend
            let mut rem = 0u32;
            for _ in 0..32 {
                let (r, _, m) = execute_compute(ComputeOp::Dstep, d, rem, 0, || md);
                rem = r;
                md = m.unwrap();
            }
            assert_eq!(md, n / d, "quotient {n}/{d}");
            assert_eq!(rem, n % d, "remainder {n}%{d}");
        }
    }

    #[test]
    fn funnel_shift() {
        let (r, _, _) = execute_compute(ComputeOp::Shf, 0x1, 0x8000_0000, 32, || 0);
        assert_eq!(r, 1); // top word shifted fully down
        let (r, _, _) = execute_compute(ComputeOp::Shf, 0xABCD_1234, 0x5678_0000, 16, || 0);
        assert_eq!(r, 0x1234_5678);
        let (r, _, _) = execute_compute(ComputeOp::Shf, 0, 42, 0, || 0);
        assert_eq!(r, 42);
    }

    #[test]
    fn add_overflow_flag() {
        let (_, o, _) = execute_compute(ComputeOp::Add, i32::MAX as u32, 1, 0, || 0);
        assert!(o);
        let (_, o, _) = execute_compute(ComputeOp::AddU, i32::MAX as u32, 1, 0, || 0);
        assert!(!o);
        let (_, o, _) = execute_compute(ComputeOp::Sub, i32::MIN as u32, 1, 0, || 0);
        assert!(o);
    }
}

//! The functional reference interpreter.
//!
//! [`RefMachine`] executes MIPS-X programs **by the book**: one committed
//! instruction at a time, straight from the ISA definition, with no
//! pipeline registers, no caches, no bypass network and no stall model.
//! The only micro-architectural facts it knows are the ones the ISA itself
//! exposes:
//!
//! - **two branch delay slots** and **squashing** — a control transfer
//!   redirects the instruction stream three positions later, and a
//!   squashing branch kills the two slot instructions;
//! - the **PC shift chain** — on exception entry the three uncompleted
//!   instruction addresses become architectural state, and the
//!   `jpc`/`jpc`/`jpcrs` return sequence replays them;
//! - the **PSW rules** for exception entry and return;
//! - the **`mstep`/`dstep` write-back shadow** — a step writes MD two
//!   positions after it executes, as the pipeline's WB trails its ALU, so
//!   a `movtos md` one or two positions behind it is overwritten, and
//!   later MD readers see the step's value over the MEM/WB bypass.
//!   Annulled positions count, as fetches do.
//!
//! Everything else (bypassing, delayed write-back, cache misses, frozen
//! cycles, coprocessor busy stalls) is supposed to be *invisible* at this
//! level — which is exactly the property the lockstep differ checks.
//!
//! ## How the differ drives it
//!
//! The pipeline retires (drains at WB) exactly one instruction per
//! advancing cycle, either *committed* or *killed*. [`RefMachine::step_retire`]
//! mirrors that: it consumes one instruction-stream position and reports
//! the same `(pc, killed)` pair the pipeline's write-back stage sees, so
//! the differ can compare every retirement, not just the committed ones.
//! When the pipeline reports an exception, the differ calls
//! [`RefMachine::take_exception`] with the same cause.
//!
//! ## Known timing skews (documented, not modelled)
//!
//! Three machine behaviours commit earlier than write-back and are only
//! equivalent — not identical — in this model: `movtos` writes its special
//! register at ALU (idempotent, so replay-safe), `jpc`/`jpcrs` rotate the
//! chain and restore the PSW at their resolve cycle (interrupt sampling is
//! deferred while they are in flight, so nothing can observe the skew),
//! and `movfrs` of a PC-chain entry while PC shifting is *enabled* reads a
//! live pipeline value this model does not reproduce (handlers read the
//! chain with shifting disabled, where the model is exact).

use std::collections::{BTreeSet, HashMap, VecDeque};

use mipsx_asm::{DecodedEntry, DecodedMem, Program};
use mipsx_core::PcChainEntry;
use mipsx_isa::{ExceptionCause, Instr, Mode, Psw, Reg, SpecialReg};

/// Depth of the delay line between a control transfer and the fetch it
/// redirects: the target is fetched three positions after the jump (the
/// jump itself resolves in ALU, two delay slots behind it are in flight).
const REDIRECT_DEPTH: usize = 3;

/// How many in-flight instructions an exception kills: everything in
/// IF, RF, ALU and MEM. They drain through write-back over the next four
/// cycles as killed retirements.
const KILL_DEPTH: usize = 4;

/// A pending instruction-stream redirect from a resolved control transfer.
#[derive(Clone, Copy, Debug)]
struct Redirect {
    target: u32,
    /// Refetching a chain entry that was squashed kills it again
    /// (`jpc` through a squashed entry).
    kill: bool,
}

/// One consumed instruction-stream position, as seen at write-back.
#[derive(Clone, Copy, Debug)]
pub struct RetireStep {
    /// Word address of the position.
    pub pc: u32,
    /// The decoded instruction, or `None` for a position killed by
    /// exception entry (the pipeline drains it without the model
    /// re-decoding it).
    pub instr: Option<Instr>,
    /// Whether the position was killed (squashed slot, kill-on-refetch,
    /// or exception drain) rather than committed.
    pub killed: bool,
}

/// The ISA-level reference model. See the module docs.
pub struct RefMachine {
    regs: [u32; 32],
    pc: u32,
    psw: Psw,
    psw_old: Psw,
    /// MD as written back so far: committed steps two positions late, a
    /// `movtos md` at once.
    md: u32,
    /// Step MD write-backs in flight, youngest first: the position being
    /// consumed, then the two before it. The oldest lands after the
    /// current position executes.
    md_wb: [Option<u32>; 3],
    /// The architectural PC chain: written on exception entry (from the
    /// model's own lookahead), read by `movfrs`, rotated by the special
    /// jumps. Frozen while PC shifting is disabled.
    chain: [PcChainEntry; REDIRECT_DEPTH],
    /// Word-addressed memory. Absent words read as zero, like the
    /// machine's main memory.
    mem: HashMap<u32, u32>,
    /// Decode-once side-car over `mem`: retire and lookahead fetch
    /// memoized entries; stores invalidate their address.
    decoded: DecodedMem,
    /// Every address a store has written — the footprint the differ
    /// compares against machine memory at halt.
    written: BTreeSet<u32>,
    /// Delay line of resolved control transfers: a transfer at position
    /// `i` writes slot 2; the line shifts once per position; slot 0 fires
    /// at the end of position `i + 2`, redirecting position `i + 3`.
    pending: [Option<Redirect>; REDIRECT_DEPTH],
    /// Remaining positions to kill from a squashing branch.
    squash_next: u32,
    /// Kill the next fetched position (refetch of a squashed chain entry).
    fetch_kill: bool,
    /// Positions killed by exception entry, still draining through
    /// write-back.
    drain: VecDeque<u32>,
    exception_vector: u32,
    halted: bool,
    committed: u64,
}

impl RefMachine {
    /// Reset state, mirroring [`mipsx_core::Cpu::new`].
    pub fn new(exception_vector: u32) -> RefMachine {
        RefMachine {
            regs: [0; 32],
            pc: 0,
            psw: Psw::reset(),
            psw_old: Psw::reset(),
            md: 0,
            md_wb: [None; 3],
            chain: [PcChainEntry::default(); REDIRECT_DEPTH],
            mem: HashMap::new(),
            decoded: DecodedMem::new(),
            written: BTreeSet::new(),
            pending: [None; REDIRECT_DEPTH],
            squash_next: 0,
            fetch_kill: false,
            drain: VecDeque::new(),
            exception_vector,
            halted: false,
            committed: 0,
        }
    }

    /// Load a program image and start execution at its entry point.
    pub fn load_program(&mut self, program: &Program) {
        self.load_image(program.origin, &program.words);
        self.pc = program.entry;
    }

    /// Load an image (e.g. an exception handler at the vector) without
    /// touching the PC.
    pub fn load_image(&mut self, origin: u32, words: &[u32]) {
        self.decoded.clear();
        for (i, &w) in words.iter().enumerate() {
            self.mem.insert(origin.wrapping_add(i as u32), w);
        }
    }

    /// The PSW, mutable — used by harnesses to enable interrupts before a
    /// run, mirroring the same write on the machine side.
    pub fn psw_mut(&mut self) -> &mut Psw {
        &mut self.psw
    }

    /// Current PSW.
    pub fn psw(&self) -> Psw {
        self.psw
    }

    /// Saved PSW from the last exception entry.
    pub fn psw_old(&self) -> Psw {
        self.psw_old
    }

    /// The next instruction-stream position to consume.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The multiply/divide step register, as the next MD reader sees it:
    /// the youngest step write-back in flight, else the register.
    pub fn md(&self) -> u32 {
        self.md_wb[1].or(self.md_wb[2]).unwrap_or(self.md)
    }

    /// Whether `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Committed (non-killed) instructions so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Read a register.
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Snapshot of the register file, `r0` included.
    pub fn regs_snapshot(&self) -> [u32; 32] {
        self.regs
    }

    /// Read a memory word (absent words are zero).
    pub fn mem_word(&self, addr: u32) -> u32 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    /// Every address written by a committed store, in order.
    pub fn written_addrs(&self) -> impl Iterator<Item = u32> + '_ {
        self.written.iter().copied()
    }

    /// Consume one instruction-stream position and report it as the
    /// pipeline's write-back stage would: `(pc, instr, killed)`.
    pub fn step_retire(&mut self) -> RetireStep {
        // Positions killed by an exception drain first; the stream has
        // already been redirected to the vector.
        if let Some(pc) = self.drain.pop_front() {
            return RetireStep {
                pc,
                instr: None,
                killed: true,
            };
        }
        let this_pc = self.pc;
        let instr = self.fetch_decoded(this_pc).instr;
        self.pc = this_pc.wrapping_add(1);
        // Both kill sources apply to the same position when a squashing
        // branch is replayed through the chain: consuming only one would
        // leak the other onto a later position.
        let mut killed = false;
        if self.fetch_kill {
            self.fetch_kill = false;
            killed = true;
        }
        if self.squash_next > 0 {
            self.squash_next -= 1;
            killed = true;
        }
        if !killed {
            self.execute(this_pc, instr);
            self.committed += 1;
        }
        self.finish_position();
        RetireStep {
            pc: this_pc,
            instr: Some(instr),
            killed,
        }
    }

    /// Fetch the decoded entry at `addr` through the decode-once side-car,
    /// reading `mem` only when the entry is absent.
    fn fetch_decoded(&mut self, addr: u32) -> DecodedEntry {
        let mem = &self.mem;
        self.decoded
            .fetch_with(addr, || mem.get(&addr).copied().unwrap_or(0))
    }

    /// End-of-position bookkeeping: fire the oldest pending redirect, land
    /// the oldest step write-back, and shift both delay lines.
    fn finish_position(&mut self) {
        if let Some(r) = self.pending[0].take() {
            self.pc = r.target;
            self.fetch_kill = r.kill;
        }
        self.pending = [self.pending[1].take(), self.pending[2].take(), None];
        if let Some(md) = self.md_wb[2] {
            self.md = md;
        }
        self.md_wb = [None, self.md_wb[0], self.md_wb[1]];
    }

    /// Architectural effect of one committed instruction.
    fn execute(&mut self, this_pc: u32, instr: Instr) {
        match instr {
            Instr::Nop | Instr::Illegal(_) => {}
            Instr::Halt => self.halted = true,
            Instr::Addi { rs1, rd, imm } => {
                let v = (self.reg(rs1) as i32).wrapping_add(imm) as u32;
                self.set(rd, v);
            }
            Instr::Compute {
                op,
                rs1,
                rs2,
                rd,
                shamt,
            } => {
                let a = self.reg(rs1);
                let b = if op.uses_rs2() { self.reg(rs2) } else { 0 };
                let md = if op.touches_md() { self.md() } else { 0 };
                let (v, _overflow, md_out) = op.execute(a, b, shamt, md);
                self.set(rd, v);
                self.md_wb[0] = md_out;
            }
            Instr::Ld { rs1, rd, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let v = self.mem_word(addr);
                self.set(rd, v);
            }
            Instr::St { rs1, rsrc, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let v = self.reg(rsrc);
                self.write_mem(addr, v);
            }
            // Coprocessor traffic with nothing attached: `mvfc` reads
            // zero off the bus, `stf` stores the bus idle value (zero),
            // the rest have no main-CPU architectural effect.
            Instr::Ldf { .. } | Instr::Cpop { .. } | Instr::Mvtc { .. } => {}
            Instr::Stf { rs1, offset, .. } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                self.write_mem(addr, 0);
            }
            Instr::Mvfc { rd, .. } => self.set(rd, 0),
            Instr::Branch {
                cond,
                squash,
                rs1,
                rs2,
                disp,
            } => {
                let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                if taken {
                    self.pending[REDIRECT_DEPTH - 1] = Some(Redirect {
                        target: this_pc.wrapping_add(disp as u32),
                        kill: false,
                    });
                }
                if !squash.slots_execute(taken) {
                    self.squash_next = 2;
                }
            }
            Instr::Jspci { rs1, rd, imm } => {
                // Base read before the link write: `jspci rN, off(rN)`
                // jumps through the old value.
                let target = self.reg(rs1).wrapping_add(imm as u32);
                self.set(rd, this_pc.wrapping_add(3));
                self.pending[REDIRECT_DEPTH - 1] = Some(Redirect {
                    target,
                    kill: false,
                });
            }
            Instr::Jpc => self.special_jump(false),
            Instr::Jpcrs => self.special_jump(true),
            Instr::Movfrs { rd, sreg } => {
                let v = self.read_special(sreg);
                self.set(rd, v);
            }
            Instr::Movtos { sreg, rs } => {
                let v = self.reg(rs);
                self.write_special(sreg, v);
            }
        }
    }

    /// `jpc` / `jpcrs`: jump through the oldest chain entry, rotate the
    /// chain, and (for `jpcrs`) restore the PSW.
    fn special_jump(&mut self, restore: bool) {
        let entry = self.chain[0];
        self.chain.rotate_left(1);
        self.pending[REDIRECT_DEPTH - 1] = Some(Redirect {
            target: entry.pc,
            kill: entry.squashed,
        });
        if restore {
            self.psw = self.psw_old;
        }
    }

    fn read_special(&self, sreg: SpecialReg) -> u32 {
        match sreg {
            SpecialReg::Psw => self.psw.bits(),
            SpecialReg::PswOld => self.psw_old.bits(),
            SpecialReg::Md => self.md(),
            SpecialReg::PcChain0 => self.chain[0].to_word(),
            SpecialReg::PcChain1 => self.chain[1].to_word(),
            SpecialReg::PcChain2 => self.chain[2].to_word(),
        }
    }

    fn write_special(&mut self, sreg: SpecialReg, v: u32) {
        match sreg {
            SpecialReg::Psw => self.psw = Psw::from_bits(v),
            SpecialReg::PswOld => self.psw_old = Psw::from_bits(v),
            SpecialReg::Md => self.md = v,
            SpecialReg::PcChain0 => self.chain[0] = PcChainEntry::from_word(v),
            SpecialReg::PcChain1 => self.chain[1] = PcChainEntry::from_word(v),
            SpecialReg::PcChain2 => self.chain[2] = PcChainEntry::from_word(v),
        }
    }

    fn set(&mut self, rd: Reg, v: u32) {
        if !rd.is_zero() {
            self.regs[rd.index()] = v;
        }
    }

    fn write_mem(&mut self, addr: u32, v: u32) {
        // The store may overwrite an instruction: invalidate its decoded
        // entry so the next fetch re-decodes the new word.
        self.decoded.invalidate(addr);
        self.mem.insert(addr, v);
        self.written.insert(addr);
    }

    /// Exception entry, driven by the pipeline's exception event.
    ///
    /// The pipeline kills its four uncompleted instructions and saves the
    /// addresses of the oldest three in the PC chain. This model computes
    /// the same four positions by *lookahead*: it walks the fetch stream
    /// forward — applying pending redirects, squashes and kill-on-refetch
    /// flags, but committing **nothing** — because those four positions
    /// are exactly the next four it would have consumed.
    ///
    /// One subtlety: the oldest uncompleted instruction (the pipeline's
    /// MEM-stage slot) *resolved* its control decision one cycle before
    /// the exception, so its taken-branch redirect and squash are already
    /// reflected in the younger chain entries; the model evaluates
    /// control effects for that position only. Younger positions never
    /// resolved and simply re-execute after restart. Its operands are
    /// safe to read from the committed register file: every producer it
    /// could have bypassed from has retired by the time the exception is
    /// processed. (It can never be a `jpc`/`jpcrs` — interrupt sampling
    /// is deferred while one is in flight.)
    pub fn take_exception(&mut self, cause: ExceptionCause) {
        let mut entries = [PcChainEntry::default(); KILL_DEPTH];
        let mut n = 0;
        // Positions still draining from a previous exception occupy the
        // deep stages first (they are killed, so no control evaluation).
        while n < KILL_DEPTH {
            let Some(pc) = self.drain.pop_front() else {
                break;
            };
            entries[n] = PcChainEntry { pc, squashed: true };
            n += 1;
        }
        // Simulate the remaining fetches without committing state.
        let mut pc = self.pc;
        let mut pending = self.pending;
        let mut squash_next = self.squash_next;
        let mut fetch_kill = self.fetch_kill;
        while n < KILL_DEPTH {
            let this_pc = pc;
            pc = this_pc.wrapping_add(1);
            let mut killed = false;
            if fetch_kill {
                fetch_kill = false;
                killed = true;
            }
            if squash_next > 0 {
                squash_next -= 1;
                killed = true;
            }
            entries[n] = PcChainEntry {
                pc: this_pc,
                squashed: killed,
            };
            if n == 0 && !killed {
                // The already-resolved oldest position (see above).
                match self.fetch_decoded(this_pc).instr {
                    Instr::Branch {
                        cond,
                        squash,
                        rs1,
                        rs2,
                        disp,
                    } => {
                        let taken = cond.eval(self.reg(rs1), self.reg(rs2));
                        if taken {
                            pending[REDIRECT_DEPTH - 1] = Some(Redirect {
                                target: this_pc.wrapping_add(disp as u32),
                                kill: false,
                            });
                        }
                        if !squash.slots_execute(taken) {
                            squash_next = 2;
                        }
                    }
                    Instr::Jspci { rs1, imm, .. } => {
                        pending[REDIRECT_DEPTH - 1] = Some(Redirect {
                            target: self.reg(rs1).wrapping_add(imm as u32),
                            kill: false,
                        });
                    }
                    _ => {}
                }
            }
            n += 1;
            if let Some(r) = pending[0].take() {
                pc = r.target;
                fetch_kill = r.kill;
            }
            pending = [pending[1].take(), pending[2].take(), None];
        }
        // The chain freezes while PC shifting is disabled (a nested
        // exception inside a handler must not clobber the restart PCs).
        if self.psw.pc_shifting_enabled() {
            self.chain.copy_from_slice(&entries[..REDIRECT_DEPTH]);
        }
        self.drain = entries.iter().map(|e| e.pc).collect();
        // Every consumed position has written back by the time the
        // handler runs.
        self.md = self.md();
        self.md_wb = [None; 3];
        self.psw_old = self.psw;
        self.psw.record_cause(cause);
        self.psw.set_mode(Mode::System);
        self.psw.set_interrupts_enabled(false);
        self.psw.set_pc_shifting_enabled(false);
        self.pc = self.exception_vector;
        self.pending = [None; REDIRECT_DEPTH];
        self.squash_next = 0;
        self.fetch_kill = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_asm::assemble;

    fn run_to_halt(src: &str) -> RefMachine {
        let program = assemble(src).expect("assembles");
        let mut m = RefMachine::new(0x8000);
        m.load_program(&program);
        for _ in 0..10_000 {
            if m.halted() {
                return m;
            }
            m.step_retire();
        }
        panic!("reference model did not halt");
    }

    #[test]
    fn straight_line_arithmetic() {
        let m = run_to_halt("li r1, 20\nli r2, 22\nadd r3, r1, r2\nhalt");
        assert_eq!(m.reg(Reg::new(3)), 42);
        assert!(m.committed() >= 4);
    }

    #[test]
    fn branch_delay_slots_and_squash() {
        // Taken squashing branch: both slots killed, target reached.
        let m = run_to_halt(
            "li r1, 1\n\
             beqsqg r1, r1, target\n\
             addi r2, r0, 11\n\
             addi r2, r0, 22\n\
             target: addi r3, r0, 33\n\
             halt",
        );
        assert_eq!(m.reg(Reg::new(2)), 0, "squashed slots must not execute");
        assert_eq!(m.reg(Reg::new(3)), 33);
    }

    #[test]
    fn exception_replays_uncompleted_instructions() {
        // Take an exception mid-stream, run the three special jumps, and
        // confirm the final state is as if the exception never happened.
        let program = assemble(
            "li r1, 0\n\
             addi r1, r1, 1\n\
             addi r1, r1, 2\n\
             addi r1, r1, 4\n\
             addi r1, r1, 8\n\
             halt",
        )
        .expect("assembles");
        let handler = assemble("jpc\njpc\njpcrs").expect("assembles");
        let mut m = RefMachine::new(0x8000);
        m.load_program(&program);
        m.load_image(0x8000, &handler.words);
        m.psw_mut().set_interrupts_enabled(true);
        // Commit two instructions, then deliver an interrupt.
        m.step_retire();
        m.step_retire();
        m.take_exception(ExceptionCause::Interrupt);
        assert!(!m.psw().interrupts_enabled());
        assert!(m.psw_old().interrupts_enabled());
        for _ in 0..100 {
            if m.halted() {
                break;
            }
            m.step_retire();
        }
        assert!(m.halted());
        assert_eq!(m.reg(Reg::new(1)), 15, "all four adds must commit once");
        assert!(m.psw().interrupts_enabled(), "jpcrs restores the PSW");
    }
}

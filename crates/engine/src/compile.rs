//! Block compilation: turn the verifier's [`BlockSummary`] partition into
//! straight-line superop chains with pre-resolved per-visit accounting.
//!
//! A compiled block carries four things:
//!
//! 1. **Superops** — the body and delay-window instructions lowered to a
//!    small closed set of monomorphic ops ([`Op`]: one per non-MD ALU
//!    function, shifts by a fixed amount, 5-bit register indices) that
//!    can be retired eagerly, in program order, against architectural
//!    state. Instructions that change nothing (`nop`s, and computes but
//!    the MD steps and `addi`s that write `r0`) compile to no op, so each
//!    load carries its own fetch offset in the block, from which its
//!    Ecache read is owed ([`LoadAt`]). Lowering is valid because a
//!    stall freezes the whole pipe, so the bypass network's reach is
//!    always exactly the two preceding issue slots and the register file
//!    is current beyond that (WB of cycle *c−1* strictly precedes ALU of
//!    cycle *c*), so eager sequential commit computes the same values the
//!    pipeline's forwarding paths deliver — *except* for stale load-delay
//!    reads, which compilation refuses (see the hazard guards below).
//! 2. **Per-visit [`Delta`]s** — closed-form `RunStats` increments per
//!    branch outcome: the [`BlockSummary::delta`] pair the static/dynamic
//!    differential proves exact against the stepper.
//! 3. **A fallback verdict** — any instruction or hazard outside the fast
//!    model marks the whole block: the engine demotes to the cycle-accurate
//!    stepper *at the block boundary, before executing any of it*, so the
//!    stepper observes exactly the architectural state a contiguous run
//!    would have had.
//! 4. **Chained successors** — per outcome, the index of the block a
//!    fall-through or branch edge reaches, so the next visit skips the
//!    dispatch-map lookup.
//!
//! Hazard guards (each one demotes rather than risks divergence):
//!
//! - `would_interlock > 0`: an in-block distance-1 load-use pair. Under
//!   `Trust` the pipeline reads the stale register; under `Detect` it is a
//!   run error. Both are the stepper's business.
//! - **Entry hazards**: a block whose *executed* tail instruction is
//!   load-class and whose dynamic successor ALU-consumes that register at
//!   distance 1 must not commit the load eagerly — the successor's head is
//!   entitled to the stale value. The *predecessor* is marked (demoting at
//!   the successor would be too late: the eager commit already happened).
//!   Squashing edges are exempt — an annulled window slot is skipped by
//!   operand resolution, and the bypass reach ends before any live
//!   producer.
//! - **MD write after a step**: a `movtos md` one or two fetches behind an
//!   `mstep`/`dstep` is overwritten in the pipeline by the step's later
//!   write-back, while eager commit keeps program order. A block holding
//!   the shape demotes; a block whose executed tail steps into such a
//!   successor head, or into an unknowable landing such as a return's, is
//!   marked like an entry hazard. Both read the rule from [`MdShadow`].
//! - **Halt shadow**: after `halt` is fetched the pipeline keeps fetching
//!   for four advances, and runoff words can still act before the retire
//!   stops the clock (a store reaches MEM, `movtos` commits at ALU, a
//!   branch bumps the resolve-stage counters, an illegal word faults). If
//!   any shadow word is not provably inert, the halt block demotes and the
//!   stepper runs the ending exactly.

use crate::FallbackCause;
use mipsx_asm::{DecodedEntry, DecodedImage};
use mipsx_core::{InterlockPolicy, MachineConfig};
use mipsx_isa::{ComputeOp, Cond, Instr, MdRole, Reg, SpecialReg};
use mipsx_verify::{BlockExit, BlockSummary, Delta, MdShadow, Partition, VerifyConfig};

/// Map sentinel: address holds no compiled code.
const NONE: u32 = u32::MAX;
/// [`CompiledBlock::next`] sentinel: the successor is looked up by PC.
pub(crate) const NO_BLOCK: u32 = u32::MAX;
/// Map sentinel: address is watched for self-modification (a halt block's
/// fetch shadow) but is not part of a block.
const WATCH: u32 = u32::MAX - 1;
/// Words past a `halt` the pipeline still fetches before the retire stops
/// the clock (halt drains from WB four advances after its own fetch; the
/// deepest shadow word that can still act sits three words out).
const SHADOW_WORDS: u32 = 3;
/// Words past a `halt` the pipeline fetches before the retire stops the
/// clock, the last of them in the retiring cycle itself (which is why a
/// contiguous run leaves the PC at `halt + 6`).
pub(crate) const SHADOW_FETCHES: u32 = 5;

/// The most stall cycles one Ecache read and one instruction fetch can
/// cost on `cfg`.
fn max_stalls(cfg: &MachineConfig) -> (u64, u64) {
    let read = u64::from(cfg.ecache.late_miss_overhead + cfg.mem_latency);
    let ic = &cfg.icache;
    let fill = if ic.whole_block_fill {
        u64::from(ic.block_words.max(2)) + u64::from(1 + ic.block_words) * read
    } else {
        u64::from(ic.miss_penalty) + u64::from(ic.fetch_words) * read
    };
    let forced = u64::from(cfg.coproc_scheme.per_op_stall(ic.miss_penalty));
    (read, fill + forced)
}

/// One superop: an instruction the fast path can retire eagerly against
/// architectural state, lowered to one monomorphic case. Everything outside
/// this set makes its block a fallback block.
///
/// Register operands are 5-bit indices into the raw register file
/// ([`mipsx_core::Cpu::regs_mut`]); no op writes `r0` but `Ld`, `Movfrs` and
/// the generic `Compute`, which re-zero it. Each non-MD ALU function has a
/// case of its own (`add` shares `addu`'s and `sub` `subu`'s: enabled
/// overflow traps keep a run off the fast path), and a shift carries its
/// amount; `shf`, `mstep` and `dstep` go through [`ComputeOp::execute`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    Add(Rrr),
    Sub(Rrr),
    And(Rrr),
    Or(Rrr),
    Xor(Rrr),
    Nor(Rrr),
    Sll(Shift),
    Srl(Shift),
    Sra(Shift),
    /// `shf`, `mstep` and `dstep`.
    Compute {
        op: ComputeOp,
        rs1: u8,
        rs2: u8,
        rd: u8,
        shamt: u8,
    },
    Addi {
        rs1: u8,
        rd: u8,
        imm: i32,
    },
    /// `rd = mem[r[rs1] + offset]`, with the load's fetch offset in its
    /// block, from which its Ecache read is owed: both packed by
    /// [`LoadAt::pack`], since a separate `u32` would not fit 8 bytes.
    Ld {
        rs1: u8,
        rd: u8,
        at: LoadAt,
    },
    St {
        rs1: u8,
        rsrc: u8,
        offset: i32,
    },
    /// `movfrs` from MD/PSW/PSWold only — the PC-chain registers are not
    /// maintained during fast execution, so reading them is a fallback op.
    Movfrs {
        rd: u8,
        sreg: SpecialReg,
    },
    /// `movtos md` — the one unprivileged special write; commits early at
    /// ALU in the pipeline, which equals program order.
    MovtosMd {
        rs: u8,
    },
}

/// The operands of a register-register ALU op.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rrr {
    pub rs1: u8,
    pub rs2: u8,
    pub rd: u8,
}

/// The operands of a shift by a fixed amount.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Shift {
    pub rs1: u8,
    pub rd: u8,
    pub sh: u8,
}

// Eight bytes: a visit streams its ops, and a 12-byte `Op` (an unpacked
// `LoadAt`) raised perfbench `ideal_block`'s peak RSS from 15.4 to 16.0 MiB
// on a shared 2-vCPU host.
const _: () = assert!(std::mem::size_of::<Op>() == 8);

/// A load's 17-bit signed offset and its fetch offset in its block, in the
/// five bytes an 8-byte [`Op`] has left beside its tag and two registers:
/// the offset in the low 17 bits of `word`, the fetch offset in `word`'s
/// top 15 bits above the 8 of `low`. A block whose load sits deeper than
/// [`LoadAt::MAX`] is a fallback block.
#[derive(Clone, Copy, Debug)]
#[repr(C, packed)]
pub(crate) struct LoadAt {
    low: u8,
    word: u32,
}

impl LoadAt {
    /// The deepest fetch offset a load can carry: a 23-bit field.
    pub const MAX: u32 = (1 << 23) - 1;

    /// Pack `offset` (17-bit signed) and fetch offset `at <= MAX`.
    pub fn pack(offset: i32, at: u32) -> LoadAt {
        debug_assert!(at <= Self::MAX);
        LoadAt {
            low: at as u8,
            word: (offset as u32 & 0x1_FFFF) | (at >> 8) << 17,
        }
    }

    /// `(offset, fetch offset)`.
    #[inline(always)]
    pub fn get(self) -> (i32, u32) {
        let word = self.word;
        (
            ((word << 15) as i32) >> 15,
            (word >> 17) << 8 | u32::from(self.low),
        )
    }
}

/// How a compiled block transfers control.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Exit {
    Fall {
        next: u32,
    },
    Branch {
        cond: Cond,
        rs1: Reg,
        rs2: Reg,
        target: u32,
        fall: u32,
        /// Whether the delay window is annulled, per outcome.
        kills: [bool; 2],
    },
    /// `jspci`: link committed before the window runs (the window may
    /// consume it over the bypass), then control goes to `r[rs1] + imm`.
    Jump {
        rs1: Reg,
        rd: Reg,
        imm: i32,
        link: u32,
    },
    /// `halt` retires; `final_pc` is where a contiguous stepper run leaves
    /// the PC after the post-halt fetch ramp.
    Halt {
        final_pc: u32,
        /// `(base, offset)` of a load in the first shadow word: it reaches
        /// MEM, and reads the Ecache, in the cycle the `halt` retires.
        shadow_load: Option<(Reg, i32)>,
    },
}

/// One fetch record of the PC-chain seed: the word's address and whether
/// the visit killed it, in one `u64`, so that shifting records moves whole
/// words (moving a `(u32, bool)` pair copied its padding byte by byte).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FetchRecord(u64);

impl FetchRecord {
    pub fn new(pc: u32, killed: bool) -> FetchRecord {
        FetchRecord(u64::from(pc) | u64::from(killed) << 32)
    }

    /// The record as the PC chain takes it, `(pc, killed)`.
    pub fn get(self) -> (u32, bool) {
        (self.0 as u32, self.0 >> 32 != 0)
    }
}

/// The last up-to-three fetch records of a visit, oldest first — fuel for
/// the PC-chain seed at a fallback exit.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TailSeed {
    pub entries: [FetchRecord; 3],
    pub len: u8,
}

/// One basic block, compiled once.
#[derive(Clone, Debug)]
pub(crate) struct CompiledBlock {
    pub start: u32,
    pub len: u32,
    /// `Some` when the fast path must demote at this block's boundary.
    pub fallback: Option<FallbackCause>,
    /// Superops before the terminator.
    pub body: Box<[Op]>,
    /// Superops in the delay window (empty for fall-through/halt blocks).
    pub window: Box<[Op]>,
    pub exit: Exit,
    /// Per-outcome stats increments (index 0 = not taken / non-branch,
    /// 1 = taken).
    pub delta: [Delta; 2],
    /// Per-outcome PC-chain seed records.
    pub tail: [TailSeed; 2],
    /// Per-outcome index of the block control reaches next when it is
    /// known statically (a fall-through or a branch edge into a compiled
    /// block), else [`NO_BLOCK`]: jumps, halts and edges into cold code.
    pub next: [u32; 2],
    /// An upper bound on the cycles from the visit's first fetch to its
    /// last drain in a contiguous run (see [`cost_bound`]).
    pub cost_bound: u64,
}

impl CompiledBlock {
    /// Fetches per visit: the block, plus the shadow of a `halt`.
    pub fn fetches(&self) -> u32 {
        match self.exit {
            Exit::Halt { .. } => self.len + SHADOW_FETCHES,
            _ => self.len,
        }
    }
}

/// An upper bound on the cycles from the first fetch of a visit to a block
/// of `len` words with at most `loads` loads to its last drain in a
/// contiguous run, on a configuration whose [`max_stalls`] are `(read_max,
/// fetch_max)`: its length plus the most its own fetches, the loads it and
/// its predecessor owe the Ecache, and the successor's first four fetches
/// can stall.
///
/// The predecessor and successor terms (`+ 3` reads, `+ 4` fetches) are
/// what make a demotion right after the block exact: they keep the budget
/// the stepper's refill needs to reach the Ecache reads the block's last
/// three positions still owe, so the engine's replay of those reads always
/// finishes inside the caller's budget.
fn cost_bound(len: u32, loads: u32, (read_max, fetch_max): (u64, u64)) -> u64 {
    let (len, loads) = (u64::from(len), u64::from(loads));
    len + (len + 4) * fetch_max + (loads + 3) * read_max
}

/// The compiled image: blocks plus a dense address map used both for
/// block dispatch and for the self-modification watch.
#[derive(Clone, Debug)]
pub(crate) struct CodeCache {
    origin: u32,
    /// `addr - origin` → the index of the block that starts there,
    /// [`WATCH`] for any other word of a block or of a halt block's
    /// shadow, or [`NONE`]. Covers the image plus [`SHADOW_WORDS`] words
    /// of runway.
    map: Vec<u32>,
    pub blocks: Vec<CompiledBlock>,
}

impl CodeCache {
    /// A cache holding no code (placeholder before the first compile).
    pub fn empty(origin: u32) -> CodeCache {
        CodeCache {
            origin,
            map: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// The block starting exactly at `pc`, if any. Mid-block addresses
    /// return `None` — the fast path only enters blocks at their head.
    #[inline]
    pub fn block_at(&self, pc: u32) -> Option<usize> {
        let i = *self.map.get(pc.wrapping_sub(self.origin) as usize)?;
        (i < WATCH).then_some(i as usize)
    }

    /// Whether a store to `addr` can change compiled behaviour (the
    /// address is inside a compiled block or a watched halt shadow).
    #[inline]
    pub fn watched(&self, addr: u32) -> bool {
        self.map
            .get(addr.wrapping_sub(self.origin) as usize)
            .is_some_and(|&i| i != NONE)
    }
}

// Beside the compiled-block types it prints.
impl crate::BlockEngine {
    /// The compiled image as text, one line per block: start, length, exit,
    /// fallback cause, body and window ops, per-outcome deltas, cost bound
    /// and chained successors. Goldens digest it to pin what the compiler
    /// emits independently of the static analysis it reads.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for b in &self.code.blocks {
            out.push_str(&format!(
                "{:#x} {} {:?} {:?} body={:?} window={:?} delta={:?} cost={} next={:?}\n",
                b.start, b.len, b.exit, b.fallback, b.body, b.window, b.delta, b.cost_bound, b.next
            ));
        }
        out
    }
}

/// Compile an image. `words` is the current memory content of
/// `[origin, origin + words.len())` — at recompile time that is the
/// possibly self-modified image, not the original program.
///
/// Compilation reads only the verifier's block [`Partition`] — not the
/// whole-program [`TimingAnalysis`](mipsx_verify::TimingAnalysis), whose
/// CFG, liveness and loop weights no compiled block uses.
pub(crate) fn compile(origin: u32, entry: u32, words: &[u32], cfg: &MachineConfig) -> CodeCache {
    let vcfg = VerifyConfig {
        branch_delay_slots: cfg.branch_delay_slots,
    };
    let part = Partition::of_image(DecodedImage::decode(origin, words), entry, &vcfg);

    let mut ops = Vec::new();
    let mut blocks: Vec<CompiledBlock> = part
        .blocks
        .iter()
        .map(|b| compile_block(b, part.entries(b), words, origin, cfg, &mut ops))
        .collect();
    mark_entry_hazards(&part, &mut blocks);

    let mut map = vec![NONE; words.len() + SHADOW_WORDS as usize];
    for (i, b) in blocks.iter().enumerate() {
        for a in b.start..b.start.wrapping_add(b.len) {
            if let Some(slot) = map.get_mut(a.wrapping_sub(origin) as usize) {
                *slot = if a == b.start { i as u32 } else { WATCH };
            }
        }
        if let Exit::Halt { .. } = b.exit {
            let halt_addr = b.start.wrapping_add(b.len).wrapping_sub(1);
            for k in 1..=SHADOW_WORDS {
                let off = halt_addr.wrapping_add(k).wrapping_sub(origin) as usize;
                if let Some(slot) = map.get_mut(off) {
                    if *slot == NONE {
                        *slot = WATCH;
                    }
                }
            }
        }
    }
    let mut code = CodeCache {
        origin,
        map,
        blocks,
    };
    for i in 0..code.blocks.len() {
        let index = |pc: u32| code.block_at(pc).map_or(NO_BLOCK, |b| b as u32);
        code.blocks[i].next = match code.blocks[i].exit {
            Exit::Fall { next } => [index(next), NO_BLOCK],
            Exit::Branch { target, fall, .. } => [index(fall), index(target)],
            Exit::Jump { .. } | Exit::Halt { .. } => [NO_BLOCK; 2],
        };
    }
    code
}

/// Lower the instruction at fetch offset `at` of its block: `Ok(None)` for
/// one that changes no state (a `nop`, or a compute or `addi` into `r0`),
/// `Err(())` for one outside the fast op set (the block is a fallback
/// block).
pub(crate) fn compile_op(i: Instr, at: u32) -> Result<Option<Op>, ()> {
    let inert = match i {
        Instr::Nop => true,
        Instr::Compute { op, rd, .. } => rd.is_zero() && !op.touches_md(),
        Instr::Addi { rd, .. } => rd.is_zero(),
        _ => false,
    };
    if inert {
        return Ok(None);
    }
    let r = |reg: Reg| reg.index() as u8;
    Ok(Some(match i {
        Instr::Compute {
            op,
            rs1,
            rs2,
            rd,
            shamt,
        } => {
            let (rs1, rs2, rd) = (r(rs1), r(rs2), r(rd));
            let rrr = Rrr { rs1, rs2, rd };
            let shift = Shift {
                rs1,
                rd,
                sh: shamt & 31,
            };
            match op {
                ComputeOp::Add | ComputeOp::AddU => Op::Add(rrr),
                ComputeOp::Sub | ComputeOp::SubU => Op::Sub(rrr),
                ComputeOp::And => Op::And(rrr),
                ComputeOp::Or => Op::Or(rrr),
                ComputeOp::Xor => Op::Xor(rrr),
                ComputeOp::Nor => Op::Nor(rrr),
                ComputeOp::Sll => Op::Sll(shift),
                ComputeOp::Srl => Op::Srl(shift),
                ComputeOp::Sra => Op::Sra(shift),
                ComputeOp::Shf | ComputeOp::Mstep | ComputeOp::Dstep => Op::Compute {
                    op,
                    rs1,
                    rs2,
                    rd,
                    shamt,
                },
            }
        }
        Instr::Addi { rs1, rd, imm } => Op::Addi {
            rs1: r(rs1),
            rd: r(rd),
            imm,
        },
        Instr::Ld { rs1, rd, offset } if at <= LoadAt::MAX => Op::Ld {
            rs1: r(rs1),
            rd: r(rd),
            at: LoadAt::pack(offset, at),
        },
        Instr::St { rs1, rsrc, offset } => Op::St {
            rs1: r(rs1),
            rsrc: r(rsrc),
            offset,
        },
        Instr::Movfrs { rd, sreg }
            if matches!(sreg, SpecialReg::Md | SpecialReg::Psw | SpecialReg::PswOld) =>
        {
            Op::Movfrs { rd: r(rd), sreg }
        }
        Instr::Movtos {
            sreg: SpecialReg::Md,
            rs,
        } => Op::MovtosMd { rs: r(rs) },
        // Coprocessor traffic, `jpc`/`jpcrs`, privileged special writes,
        // PC-chain reads, illegal words: all stepper territory.
        _ => return Err(()),
    }))
}

/// Compile one block from its decoded `entries`; `ops` is scratch for
/// lowering, copied out at its exact size.
fn compile_block(
    b: &BlockSummary,
    entries: &[DecodedEntry],
    words: &[u32],
    origin: u32,
    cfg: &MachineConfig,
    ops: &mut Vec<Op>,
) -> CompiledBlock {
    let mut fallback: Option<FallbackCause> = None;
    let demote = |cause: FallbackCause, fb: &mut Option<FallbackCause>| {
        fb.get_or_insert(cause);
    };

    if b.irregular {
        demote(FallbackCause::IrregularBlock, &mut fallback);
    }
    if b.would_interlock > 0 {
        demote(FallbackCause::LoadDelay, &mut fallback);
    }
    if b.md_shadow_writes > 0 {
        // The fast ops commit `movtos md` in program order; the step's
        // later write-back wins in the stepper.
        demote(FallbackCause::FallbackOp, &mut fallback);
    }

    let slots = b.slots as usize;
    let none: &[DecodedEntry] = &[];
    let (body_es, term, window_es) = match b.exit {
        BlockExit::Halt => (
            &entries[..entries.len() - 1],
            entries.last().map(|e| e.instr),
            none,
        ),
        BlockExit::FallThrough { .. } => (entries, None, none),
        BlockExit::Branch { .. } | BlockExit::Jump { .. } => {
            if entries.len() > slots {
                let t = entries.len() - 1 - slots;
                (&entries[..t], Some(entries[t].instr), &entries[t + 1..])
            } else {
                demote(FallbackCause::IrregularBlock, &mut fallback);
                (none, None, none)
            }
        }
    };

    // The window's first word follows the terminator.
    let mut lower = |src: &[DecodedEntry], first: usize, fb: &mut Option<FallbackCause>| {
        ops.clear();
        for (k, e) in src.iter().enumerate() {
            match compile_op(e.instr, (first + k) as u32) {
                Ok(op) => ops.extend(op),
                Err(()) => {
                    fb.get_or_insert(FallbackCause::FallbackOp);
                }
            }
        }
        Box::<[Op]>::from(&ops[..])
    };
    let body = lower(body_es, 0, &mut fallback);
    let window = lower(window_es, body_es.len() + 1, &mut fallback);

    let term_addr = b
        .term_addr
        .unwrap_or(b.start.wrapping_add(b.len).wrapping_sub(1));
    let exit = match b.exit {
        BlockExit::FallThrough { next } => Exit::Fall { next },
        BlockExit::Halt => {
            // A contiguous run keeps advancing while halt drains — the
            // fetch-advance runs on the retiring cycle too, leaving the PC
            // at `halt + 6` (measured against the stepper and pinned by the
            // lockstep suite).
            if !halt_shadow_inert(term_addr, words, origin, cfg) {
                demote(FallbackCause::HaltShadow, &mut fallback);
            }
            let shadow = DecodedEntry::decode(word_at(words, origin, term_addr.wrapping_add(1)));
            let shadow_load = match shadow.instr {
                Instr::Ld { rs1, offset, .. } => Some((rs1, offset)),
                _ => None,
            };
            Exit::Halt {
                final_pc: term_addr.wrapping_add(1 + SHADOW_FETCHES),
                shadow_load,
            }
        }
        BlockExit::Branch { target, fall, .. } => match term {
            Some(Instr::Branch { cond, rs1, rs2, .. }) => Exit::Branch {
                cond,
                rs1,
                rs2,
                target,
                fall,
                kills: [false, true].map(|taken| b.delta(taken).squashed > 0),
            },
            _ => {
                demote(FallbackCause::IrregularBlock, &mut fallback);
                Exit::Halt {
                    final_pc: 0,
                    shadow_load: None,
                }
            }
        },
        BlockExit::Jump { .. } => match term {
            Some(Instr::Jspci { rs1, rd, imm }) => Exit::Jump {
                rs1,
                rd,
                imm,
                link: term_addr
                    .wrapping_add(1)
                    .wrapping_add(cfg.branch_delay_slots as u32),
            },
            // jpc/jpcrs consume the PC chain and touch the PSW.
            _ => {
                demote(FallbackCause::FallbackOp, &mut fallback);
                Exit::Halt {
                    final_pc: 0,
                    shadow_load: None,
                }
            }
        },
    };

    let delta = [b.delta(false), b.delta(true)];
    let tail = [make_tail(b, false), make_tail(b, true)];
    let loads = delta[0].loads.max(delta[1].loads);

    CompiledBlock {
        start: b.start,
        len: b.len,
        fallback,
        body,
        window,
        exit,
        delta,
        tail,
        next: [NO_BLOCK; 2],
        cost_bound: cost_bound(b.len, loads, max_stalls(cfg)),
    }
}

/// The last up-to-three fetched `(pc, killed)` records of a visit with
/// outcome `taken`, oldest first (fetch order — the window is fetched even
/// on a taken branch; annulment only marks it killed).
fn make_tail(b: &BlockSummary, taken: bool) -> TailSeed {
    let n = b.len.min(3);
    let squashes = b.delta(taken).squashed > 0;
    let window_from = b.start.wrapping_add(b.len).wrapping_sub(b.slots);
    let mut seed = TailSeed::default();
    for j in 0..n {
        let addr = b.start.wrapping_add(b.len).wrapping_sub(n).wrapping_add(j);
        let killed = squashes && addr >= window_from;
        seed.entries[j as usize] = FetchRecord::new(addr, killed);
    }
    seed.len = n as u8;
    seed
}

/// What a visit with outcome `taken` hands its successor: the late-def
/// mask of its executed tail — the register (if any) whose value would
/// still be in flight, deliverable only as MEM data and stale at an ALU
/// consumer one slot later — and the step shadow of its fetches. Annulled
/// slots deliver nothing: operand resolution skips them, the bypass reach
/// ends before any live producer, and they write no MD back.
fn tail(b: &BlockSummary, entries: &[DecodedEntry], taken: bool) -> (u32, MdShadow) {
    let executed = b.delta(taken).instructions as usize;
    let mut shadow = MdShadow::CLEAR;
    for (k, e) in entries.iter().enumerate().filter(|_| b.md_steps > 0) {
        let role = e.meta.md_role;
        shadow.fetch(if k < executed { role } else { MdRole::None });
    }
    let last = entries.last().filter(|_| executed == entries.len());
    let late = last.and_then(|e| e.meta.late_def);
    (late.map_or(0, |r| 1 << r.index()), shadow)
}

/// Mark every block whose executed tail feeds a distance-1 load-use, or a
/// step whose MD write-back overtakes a `movtos md`, into a dynamic
/// successor's head (or into an unknowable landing) as fallback — the
/// *predecessor* must stay on the stepper so the successor sees what the
/// pipeline contract promises.
fn mark_entry_hazards(part: &Partition, blocks: &mut [CompiledBlock]) {
    let image = part.image();
    let head_alu: Vec<u32> = part
        .blocks
        .iter()
        .map(|b| image.meta_at(b.start).map_or(0, |m| m.alu_use_mask))
        .collect();
    for (i, b) in part.blocks.iter().enumerate() {
        for taken in [false, true] {
            let (mask, tail) = tail(b, part.entries(b), taken);
            if mask == 0 && tail.is_clear() {
                continue;
            }
            let edge = match b.exit {
                BlockExit::FallThrough { next } if !taken => Some(next),
                BlockExit::Branch { target, fall, .. } => Some(if taken { target } else { fall }),
                // The `ret` continuation of a linking jump is reached via
                // the callee's own return jump, not this edge.
                BlockExit::Jump { target, .. } if !taken => target,
                _ => continue,
            };
            // Landings outside the partition, and indirect jumps, are
            // unknowable: hazardous.
            let landing = edge.and_then(|addr| part.block_at(addr));
            let late = mask != 0 && landing.is_none_or(|j| head_alu[j] & mask != 0);
            // The tail's shadow runs on into the successor's head; a head
            // too short to clear it counts as a hit.
            let clobbers = |j: usize| {
                let mut shadow = tail;
                let head = part.entries(&part.blocks[j]);
                head.iter()
                    .any(|e| !shadow.is_clear() && shadow.fetch(e.meta.md_role).is_some())
                    || !shadow.is_clear()
            };
            if late || (!tail.is_clear() && landing.is_none_or(clobbers)) {
                blocks[i].fallback.get_or_insert(FallbackCause::EntryHazard);
            }
        }
    }
}

/// Whether every word in the post-`halt` fetch shadow is provably inert in
/// the stepper: no resolve-stage control activity within reach, and no
/// ALU/MEM-stage effect (store, special write, illegal fault, coprocessor
/// traffic, or a Detect-mode load-use read) before the halt retires.
fn halt_shadow_inert(halt_addr: u32, words: &[u32], origin: u32, cfg: &MachineConfig) -> bool {
    let resolve = cfg.branch_delay_slots as u32; // stage index: 2 → ALU, 1 → RF
    let word = |addr: u32| word_at(words, origin, addr);
    // A coprocessor word fetched under the non-cached scheme forces an
    // Icache miss, a stall the fast path does not model.
    if cfg.coproc_scheme.per_op_stall(cfg.icache.miss_penalty) > 0
        && (1..=SHADOW_FETCHES).any(|k| {
            DecodedEntry::decode(word(halt_addr.wrapping_add(k)))
                .meta
                .is_coproc
        })
    {
        return false;
    }
    // halt fetched at cycle C retires from WB at C+4; shadow word k reaches
    // the resolve stage at C+k+resolve and the ALU at C+k+2.
    let control_reach = 4 - resolve;
    let mut prev_late: Option<Reg> = None; // halt defines nothing
    for k in 1..=control_reach.max(2) {
        let e = DecodedEntry::decode(word(halt_addr.wrapping_add(k)));
        let m = &e.meta;
        if k <= control_reach && m.is_control {
            return false;
        }
        if k <= 2 {
            if matches!(e.instr, Instr::Illegal(_) | Instr::Movtos { .. })
                || m.is_store
                || m.is_coproc
            {
                return false;
            }
            if cfg.interlock == InterlockPolicy::Detect {
                if let Some(d) = prev_late {
                    if m.alu_uses(d) {
                        return false;
                    }
                }
            }
            prev_late = m.late_def;
        }
    }
    true
}

/// The image word at `addr` (zero outside the image, as in memory).
fn word_at(words: &[u32], origin: u32, addr: u32) -> u32 {
    words
        .get(addr.wrapping_sub(origin) as usize)
        .copied()
        .unwrap_or(0)
}

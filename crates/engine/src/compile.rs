//! Block compilation: turn the verifier's [`BlockSummary`] partition into
//! straight-line superop chains with pre-resolved per-visit accounting.
//!
//! A compiled block carries four things:
//!
//! 1. **Superops** — the body and delay-window instructions lowered to a
//!    small closed op set ([`Op`]) that can be retired eagerly, in program
//!    order, against architectural state. Lowering is valid because a
//!    stall freezes the whole pipe, so the bypass network's reach is
//!    always exactly the two preceding issue slots and the register file
//!    is current beyond that (WB of cycle *c−1* strictly precedes ALU of
//!    cycle *c*), so eager sequential commit computes the same values the
//!    pipeline's forwarding paths deliver — *except* for stale load-delay
//!    reads, which compilation refuses (see the hazard guards below).
//! 2. **Per-visit [`Delta`]s** — closed-form `RunStats` increments per
//!    branch outcome, derived from the same [`BlockSummary`] facts the
//!    static/dynamic differential proves exact against the stepper.
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
//! - **Halt shadow**: after `halt` is fetched the pipeline keeps fetching
//!   for four advances, and runoff words can still act before the retire
//!   stops the clock (a store reaches MEM, `movtos` commits at ALU, a
//!   branch bumps the resolve-stage counters, an illegal word faults). If
//!   any shadow word is not provably inert, the halt block demotes and the
//!   stepper runs the ending exactly.

use crate::FallbackCause;
use mipsx_asm::{DecodedEntry, DecodedImage, Program};
use mipsx_core::{InterlockPolicy, MachineConfig};
use mipsx_isa::{Cond, Instr, Reg, SpecialReg};
use mipsx_verify::{BlockExit, BlockSummary, TimingAnalysis, VerifyConfig};

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
/// architectural state. Everything outside this set makes its block a
/// fallback block.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    Nop,
    Compute {
        op: mipsx_isa::ComputeOp,
        rs1: Reg,
        /// `Reg::ZERO` when the op consumes `shamt` instead — reading r0
        /// reproduces the pipeline's zero operand without a branch.
        rs2: Reg,
        rd: Reg,
        shamt: u8,
    },
    Addi {
        rs1: Reg,
        rd: Reg,
        imm: i32,
    },
    Ld {
        rs1: Reg,
        rd: Reg,
        offset: i32,
    },
    St {
        rs1: Reg,
        rsrc: Reg,
        offset: i32,
    },
    /// `movfrs` from MD/PSW/PSWold only — the PC-chain registers are not
    /// maintained during fast execution, so reading them is a fallback op.
    Movfrs {
        rd: Reg,
        sreg: SpecialReg,
    },
    /// `movtos md` — the one unprivileged special write; commits early at
    /// ALU in the pipeline, which equals program order.
    MovtosMd {
        rs: Reg,
    },
}

/// Closed-form `RunStats` increments for one block visit under one branch
/// outcome (index 0 = not taken / non-branch, 1 = taken). Each is at most
/// the block's length, so `u32` holds it.
// Not a full `RunStats`: two 24-field deltas per block raised `ideal_block`'s peak RSS by 25 %.
// `u32` rather than `u64` fields halve what a visit reads here and cut
// `ideal_block`'s peak RSS by about 8 %.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Delta {
    pub instructions: u32,
    pub nops: u32,
    pub squashed: u32,
    pub branches: u32,
    pub branches_taken: u32,
    pub branch_slot_nops: u32,
    pub branch_slot_squashed: u32,
    pub jumps: u32,
    pub loads: u32,
    pub stores: u32,
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
    /// Per-outcome stats increments.
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

/// Compile an image. `words` is the current memory content of
/// `[origin, origin + words.len())` — at recompile time that is the
/// possibly self-modified image, not the original program.
pub(crate) fn compile(origin: u32, entry: u32, words: &[u32], cfg: &MachineConfig) -> CodeCache {
    let mut program = Program::from_words(origin, words.to_vec());
    program.entry = entry;
    let vcfg = VerifyConfig {
        branch_delay_slots: cfg.branch_delay_slots,
    };
    let ta = TimingAnalysis::of(&program, &vcfg);
    let image = ta.image();

    let mut blocks: Vec<CompiledBlock> = ta
        .blocks
        .iter()
        .map(|b| compile_block(b, image, words, origin, cfg))
        .collect();
    mark_entry_hazards(&ta, image, &mut blocks);

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

/// Lower one instruction, or refuse (`None` ⇒ the block is a fallback
/// block).
fn compile_op(i: Instr) -> Option<Op> {
    Some(match i {
        Instr::Nop => Op::Nop,
        Instr::Compute {
            op,
            rs1,
            rs2,
            rd,
            shamt,
        } => Op::Compute {
            op,
            rs1,
            rs2: if op.uses_rs2() { rs2 } else { Reg::ZERO },
            rd,
            shamt,
        },
        Instr::Addi { rs1, rd, imm } => Op::Addi { rs1, rd, imm },
        Instr::Ld { rs1, rd, offset } => Op::Ld { rs1, rd, offset },
        Instr::St { rs1, rsrc, offset } => Op::St { rs1, rsrc, offset },
        Instr::Movfrs { rd, sreg }
            if matches!(sreg, SpecialReg::Md | SpecialReg::Psw | SpecialReg::PswOld) =>
        {
            Op::Movfrs { rd, sreg }
        }
        Instr::Movtos {
            sreg: SpecialReg::Md,
            rs,
        } => Op::MovtosMd { rs },
        // Coprocessor traffic, `jpc`/`jpcrs`, privileged special writes,
        // PC-chain reads, illegal words: all stepper territory.
        _ => return None,
    })
}

fn compile_block(
    b: &BlockSummary,
    image: &DecodedImage,
    words: &[u32],
    origin: u32,
    cfg: &MachineConfig,
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

    let instrs: Vec<Instr> = (0..b.len)
        .map(|k| {
            image
                .instr_at(b.start.wrapping_add(k))
                .unwrap_or(Instr::Illegal(0))
        })
        .collect();

    let slots = b.slots as usize;
    let (body_is, term, window_is): (&[Instr], Option<Instr>, &[Instr]) = match b.exit {
        BlockExit::Halt => (&instrs[..instrs.len() - 1], instrs.last().copied(), &[][..]),
        BlockExit::FallThrough { .. } => (&instrs[..], None, &[][..]),
        BlockExit::Branch { .. } | BlockExit::Jump { .. } => {
            if instrs.len() > slots {
                let t = instrs.len() - 1 - slots;
                (&instrs[..t], Some(instrs[t]), &instrs[t + 1..])
            } else {
                demote(FallbackCause::IrregularBlock, &mut fallback);
                (&[][..], None, &[][..])
            }
        }
    };

    let lower = |src: &[Instr], fb: &mut Option<FallbackCause>| -> Box<[Op]> {
        src.iter()
            .map(|&i| {
                compile_op(i).unwrap_or_else(|| {
                    fb.get_or_insert(FallbackCause::FallbackOp);
                    Op::Nop
                })
            })
            .collect()
    };
    let body = lower(body_is, &mut fallback);
    let window = lower(window_is, &mut fallback);

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
                kills: [b.squashed_when(false) > 0, b.squashed_when(true) > 0],
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

    let delta = [
        make_delta(b, false, &instrs, term),
        make_delta(b, true, &instrs, term),
    ];
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

/// The `RunStats` increments of one visit with branch outcome `taken`,
/// mirroring the stepper's write-back and resolve-stage accounting.
fn make_delta(b: &BlockSummary, taken: bool, instrs: &[Instr], term: Option<Instr>) -> Delta {
    let squashed = b.squashed_when(taken);
    let is_branch = matches!(b.exit, BlockExit::Branch { .. });
    let is_jspci = matches!(term, Some(Instr::Jspci { .. }));
    let window_from = instrs.len() - b.slots as usize;
    let (mut loads, mut stores) = (0, 0);
    for (i, ins) in instrs.iter().enumerate() {
        let killed = squashed > 0 && i >= window_from;
        if killed {
            continue;
        }
        // WB's exclusive classification chain: nop, else load, else store.
        if ins.is_nop() {
        } else if ins.is_load() {
            loads += 1;
        } else if ins.is_store() {
            stores += 1;
        }
    }
    Delta {
        instructions: b.len - squashed,
        nops: b.nops_when(taken),
        squashed,
        branches: u32::from(is_branch),
        branches_taken: u32::from(is_branch && taken),
        branch_slot_nops: if is_branch && squashed == 0 {
            b.slot_nops
        } else {
            0
        },
        branch_slot_squashed: if is_branch { squashed } else { 0 },
        jumps: u32::from(is_jspci),
        loads,
        stores,
    }
}

/// The last up-to-three fetched `(pc, killed)` records of a visit with
/// outcome `taken`, oldest first (fetch order — the window is fetched even
/// on a taken branch; annulment only marks it killed).
fn make_tail(b: &BlockSummary, taken: bool) -> TailSeed {
    let n = b.len.min(3);
    let squashes = b.squashed_when(taken) > 0;
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

/// The executed-tail late-def mask of a block under outcome `taken`: the
/// register (if any) whose value would still be in flight — deliverable
/// only as MEM data, stale at an ALU consumer one slot later — when
/// control crosses into a successor.
fn tail_late_mask(b: &BlockSummary, taken: bool, image: &DecodedImage) -> u32 {
    if b.len == 0 || matches!(b.exit, BlockExit::Halt) {
        return 0;
    }
    if b.squashed_when(taken) > 0 {
        // Annulled slots are skipped by operand resolution, and the bypass
        // reach ends before any live producer: successors read the file.
        return 0;
    }
    let last = b.start.wrapping_add(b.len).wrapping_sub(1);
    image
        .meta_at(last)
        .and_then(|m| m.late_def)
        .map_or(0, |r| 1u32 << r.index())
}

/// Mark every block whose executed tail feeds a distance-1 load-use into a
/// dynamic successor's head (or into an unknowable landing) as fallback —
/// the *predecessor* must stay on the stepper so the successor can read
/// the stale register the pipeline contract promises.
fn mark_entry_hazards(ta: &TimingAnalysis, image: &DecodedImage, blocks: &mut [CompiledBlock]) {
    let head_alu: Vec<u32> = ta
        .blocks
        .iter()
        .map(|b| image.meta_at(b.start).map_or(0, |m| m.alu_use_mask))
        .collect();
    for (i, b) in ta.blocks.iter().enumerate() {
        for taken in [false, true] {
            let mask = tail_late_mask(b, taken, image);
            if mask == 0 {
                continue;
            }
            let edges: &[Option<u32>] = match b.exit {
                BlockExit::FallThrough { next } if !taken => &[Some(next)],
                BlockExit::Branch { target, fall, .. } => {
                    if taken {
                        &[Some(target)]
                    } else {
                        &[Some(fall)]
                    }
                }
                // The `ret` continuation of a linking jump is reached via
                // the callee's own return jump, not this edge.
                BlockExit::Jump { target, .. } if !taken => &[target],
                _ => &[],
            };
            let hazardous = edges.iter().any(|t| match t {
                Some(addr) => match ta.block_at(*addr) {
                    Some(j) => head_alu[j] & mask != 0,
                    None => true, // lands outside the partition
                },
                None => true, // indirect jump: landing unknowable
            });
            if hazardous {
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

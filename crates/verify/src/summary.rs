//! Per-basic-block static summaries — the unit record of the timing
//! analyzer.
//!
//! A [`BlockSummary`] condenses one basic block into exactly the facts a
//! block-based execution engine (ROADMAP item 1) or a static cost model
//! needs: local def/use masks and (after the whole-program liveness pass in
//! [`crate::timing`]) live-in/live-out sets, fillable-vs-wasted delay-slot
//! accounting, per-cause static stall event counts, and a pre-resolved
//! bypass plan ([`HazardRef`]) saying which operands arrive over the
//! forwarding network instead of the register file.
//!
//! **Block shape.** Leaders are the program entry, every branch/jump
//! target, and the first address past every delay window; a control
//! transfer *and its delay slots* terminate the block that contains them,
//! so a block is fetched — and, fault-free, drained — as a unit. That
//! invariant is what makes the dynamic differential in [`crate::attrib`]
//! exact: per visit, a block costs exactly `len` advancing cycles.
//!
//! Summaries of two blocks split at a non-branch boundary can be
//! [`merged`](BlockSummary::merge) back together. The merge composes the
//! positional and mask facts exactly and concatenates the bypass plans; it
//! is associative (the property test in `tests/` checks this), though
//! *cross-boundary* pair facts (adjacency hazards spanning the split) are
//! a property of the unsplit analysis and are not re-synthesized.

use crate::analysis::Analysis;
use mipsx_asm::DecodedEntry;
use mipsx_isa::{Instr, InstrMeta, Reg, SquashMode};

/// Mask of every register that can carry dataflow (`r1`..`r31`).
pub const ALL_REGS: u32 = 0xFFFF_FFFE;

/// How a basic block ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockExit {
    /// The next address is a leader (someone branches there); control
    /// falls straight into `next` with no transfer instruction.
    FallThrough { next: u32 },
    /// A conditional branch (plus its delay window) ends the block.
    Branch {
        squash: SquashMode,
        /// Branch-taken successor (word address).
        target: u32,
        /// Fall-through successor: the first address past the window.
        fall: u32,
    },
    /// An unconditional jump (`jspci`, `jpc`, `jpcrs`) ends the block.
    Jump {
        /// Known target for a direct jump, `None` for indirect/special.
        target: Option<u32>,
        /// The jump writes a link register (it is a call), so the
        /// continuation at `ret` is reached again when the callee returns.
        link: bool,
        /// First address past the delay window.
        ret: u32,
    },
    /// `halt` ends the block (and the program).
    Halt,
}

/// One pre-resolved bypass: the instruction at block-relative index `at`
/// reads `reg` from the forwarding network, not the register file, because
/// a producer `dist` instructions earlier in the same block defines it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HazardRef {
    /// Consumer's index within the block.
    pub at: u32,
    /// The forwarded register.
    pub reg: Reg,
    /// Issue distance to the producer (1 or 2 — bypass reach).
    pub dist: u32,
    /// The producer is load-class: its value arrives from MEM, one stage
    /// later than an ALU result (`dist == 1` + ALU consumption would be
    /// the load-delay hazard the verifier rejects).
    pub late: bool,
}

/// Static summary of one basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSummary {
    /// Word address of the first instruction.
    pub start: u32,
    /// Instruction count, *including* the terminator and its delay slots.
    pub len: u32,
    /// How the block ends.
    pub exit: BlockExit,
    /// Address of the terminating transfer/halt (`None` for fall-through).
    pub term_addr: Option<u32>,
    /// Delay slots owned by the terminator (0 for halt/fall-through).
    pub slots: u32,
    /// Delay-slot positions holding explicit nops (wasted issue slots).
    pub slot_nops: u32,
    /// Delay-slot positions holding real instructions (filled slots).
    pub slot_filled: u32,
    /// Explicit nops outside the delay window.
    pub body_nops: u32,
    /// Subset of `body_nops` that pad a load delay (removing them would
    /// create the distance-1 hazard) — wasted cycles the schedule *needs*.
    pub load_pad_nops: u32,
    /// Distance-1 load-use pairs: what a hardware-interlocked variant
    /// would stall on. Zero in verifier-clean code ([`StallCause::Interlock`]
    /// static count).
    ///
    /// [`StallCause::Interlock`]: mipsx_core::probe::StallCause
    pub would_interlock: u32,
    /// `mstep`/`dstep` instructions (MD busy-chain length contribution).
    pub md_steps: u32,
    /// Coprocessor instructions fetched per visit — the static multiplier
    /// for the non-cached scheme's forced per-op miss.
    pub coproc_ops: u32,
    /// Adjacent `cpop` → `mvfc` (same unit) pairs: coprocessor result
    /// read-backs that may find the unit busy (`CoprocBusy` static count).
    pub coproc_result_hazards: u32,
    /// Registers this block always writes (defs in squashable delay slots
    /// are excluded — they may be annulled).
    pub def_mask: u32,
    /// Upward-exposed reads: registers read before any write in-block.
    pub use_mask: u32,
    /// Registers live on entry (filled by the whole-program pass; zero
    /// until then).
    pub live_in: u32,
    /// Registers live on exit (filled by the whole-program pass).
    pub live_out: u32,
    /// Pre-resolved bypass plan, consumer order.
    pub hazards: Vec<HazardRef>,
    /// The block's shape violates the clean-partition invariants (a leader
    /// inside a delay window, a window running off the image, or a control
    /// transfer inside a window, e.g. the `jpc` restart chain). Static
    /// per-visit cost claims do not hold for irregular blocks.
    pub irregular: bool,
}

impl BlockSummary {
    /// CFG successor addresses (callee return paths flow through the
    /// `ret` continuation of a linking jump; indirect jumps end the walk).
    pub fn successors(&self) -> Vec<u32> {
        match self.exit {
            BlockExit::FallThrough { next } => vec![next],
            BlockExit::Branch { target, fall, .. } => vec![target, fall],
            BlockExit::Jump { target, link, ret } => {
                let mut s: Vec<u32> = target.into_iter().collect();
                if link {
                    s.push(ret);
                }
                s
            }
            BlockExit::Halt => vec![],
        }
    }

    /// Delay-slot instructions killed when the terminator resolves with
    /// outcome `taken` (0 for every non-branch exit).
    pub fn squashed_when(&self, taken: bool) -> u32 {
        match self.exit {
            BlockExit::Branch { squash, .. } if !squash.slots_execute(taken) => self.slots,
            _ => 0,
        }
    }

    /// Nops that retire (un-annulled) per visit with outcome `taken`.
    pub fn nops_when(&self, taken: bool) -> u32 {
        self.body_nops
            + if self.squashed_when(taken) > 0 {
                0
            } else {
                self.slot_nops
            }
    }

    /// Wasted issue slots per visit (squashed drains + surviving nops) for
    /// outcome `taken`.
    pub fn wasted_when(&self, taken: bool) -> u32 {
        self.squashed_when(taken) + self.nops_when(taken)
    }

    /// Per-visit static stall *event* counts, indexed by
    /// [`StallCause::index`]: cache events are dynamic (always 0 here);
    /// `CoprocBusy` is bounded by the result-timing hazards, the forced
    /// per-op miss fires once per coprocessor fetch, and `Interlock` is
    /// what an interlocked variant would hit.
    ///
    /// [`StallCause::index`]: mipsx_core::probe::StallCause::index
    pub fn static_stall_events(&self) -> [u64; 5] {
        [
            0,
            0,
            u64::from(self.coproc_result_hazards),
            u64::from(self.coproc_ops),
            u64::from(self.would_interlock),
        ]
    }

    /// Merge two summaries split at a non-branch boundary: `self` must
    /// fall through directly into `other`. Positional counts add, masks
    /// compose left-to-right, bypass plans concatenate (cross-boundary
    /// pairs are a property of the unsplit analysis). Returns `None` when
    /// the blocks are not split-adjacent.
    pub fn merge(&self, other: &BlockSummary) -> Option<BlockSummary> {
        match self.exit {
            BlockExit::FallThrough { next } if next == other.start => {}
            _ => return None,
        }
        let mut hazards = self.hazards.clone();
        hazards.extend(other.hazards.iter().map(|h| HazardRef {
            at: h.at + self.len,
            ..*h
        }));
        Some(BlockSummary {
            start: self.start,
            len: self.len + other.len,
            exit: other.exit,
            term_addr: other.term_addr,
            slots: other.slots,
            slot_nops: other.slot_nops,
            slot_filled: other.slot_filled,
            body_nops: self.body_nops + other.body_nops,
            load_pad_nops: self.load_pad_nops + other.load_pad_nops,
            would_interlock: self.would_interlock + other.would_interlock,
            md_steps: self.md_steps + other.md_steps,
            coproc_ops: self.coproc_ops + other.coproc_ops,
            coproc_result_hazards: self.coproc_result_hazards + other.coproc_result_hazards,
            def_mask: self.def_mask | other.def_mask,
            use_mask: self.use_mask | (other.use_mask & !self.def_mask),
            live_in: self.live_in,
            live_out: other.live_out,
            hazards,
            irregular: self.irregular || other.irregular,
        })
    }
}

/// Partition the reachable image into basic blocks and compute every
/// block-local fact. `live_in`/`live_out` are left zero for the
/// whole-program pass. The second return is the global irregularity flag
/// (true when the partition invariants do not hold somewhere).
pub(crate) fn build_blocks(a: &Analysis) -> (Vec<BlockSummary>, bool) {
    let slots = a.slots;
    let origin = a.code.origin();
    let mut global_irregular = false;

    // Leaders: entry, transfer targets, post-window continuations. One
    // flag per image word; a leader that is not reachable is no leader.
    let mut leaders = vec![false; a.code.len()];
    let mut lead = |addr: u32| {
        if let Some(i) = a.reachable_index(addr) {
            leaders[i] = true;
        }
    };
    lead(a.entry);
    for addr in a.reachable() {
        match a.at(addr).instr {
            Instr::Branch { disp, .. } => {
                lead(addr.wrapping_add(disp as u32));
                lead(addr + slots + 1);
            }
            Instr::Jspci { rs1, imm, .. } => {
                if rs1.is_zero() {
                    lead(imm as u32);
                }
                lead(addr + slots + 1);
            }
            Instr::Jpc | Instr::Jpcrs => {
                lead(addr + slots + 1);
            }
            Instr::Halt => {
                lead(addr + 1);
            }
            _ => {}
        }
    }
    let is_leader = |addr: u32| a.code.index(addr).is_some_and(|i| leaders[i]);

    let mut blocks = Vec::new();
    let mut covered = vec![false; a.code.len()];
    for start in (0..leaders.len()).filter(|&i| leaders[i]) {
        if covered[start] {
            // A branch targets the inside of an already-consumed window.
            global_irregular = true;
            continue;
        }
        let start = origin + start as u32;
        let mut irregular = false;
        let mut addr = start;
        let (term_addr, window, exit) = loop {
            covered[(addr - origin) as usize] = true;
            let entry = a.at(addr);
            if entry.is_halt() {
                break (Some(addr), 0, BlockExit::Halt);
            }
            if entry.meta.is_control {
                // The window belongs to this block.
                let mut window = 0;
                for k in 1..=slots {
                    let s = addr + k;
                    match a.code.get(s) {
                        Some(e) => {
                            if e.meta.is_control {
                                // e.g. the jpc restart chain.
                                irregular = true;
                            }
                            covered[(s - origin) as usize] = true;
                            window += 1;
                        }
                        None => {
                            // Window runs off the image (SlotRunoff).
                            irregular = true;
                        }
                    }
                }
                let exit = match entry.instr {
                    Instr::Branch { squash, disp, .. } => BlockExit::Branch {
                        squash,
                        target: addr.wrapping_add(disp as u32),
                        fall: addr + slots + 1,
                    },
                    Instr::Jspci { rs1, rd, imm } => BlockExit::Jump {
                        target: rs1.is_zero().then_some(imm as u32),
                        link: !rd.is_zero(),
                        ret: addr + slots + 1,
                    },
                    // jpc/jpcrs: the restart chain's successor is carried
                    // in the PC chain, unknowable statically.
                    _ => BlockExit::Jump {
                        target: None,
                        link: false,
                        ret: addr + slots + 1,
                    },
                };
                break (Some(addr), window, exit);
            }
            let next = addr + 1;
            if is_leader(next) {
                break (None, 0, BlockExit::FallThrough { next });
            }
            if a.reachable_index(next).is_none() {
                // Straight-line code ending without a halt: off the map.
                irregular = true;
                break (None, 0, BlockExit::FallThrough { next });
            }
            addr = next;
        };
        // The block is the contiguous run from its leader through the
        // last instruction walked and the window slots inside the image.
        let len = addr - start + 1 + window;
        global_irregular |= irregular;
        blocks.push(summarize(
            start,
            a.run(start, len),
            term_addr,
            window,
            exit,
            irregular,
        ));
    }

    // Every reachable address must be covered exactly once.
    if covered.iter().filter(|&&c| c).count() != a.reachable().count() {
        global_irregular = true;
    }
    (blocks, global_irregular)
}

/// Compute the block-local facts for one partitioned block.
fn summarize(
    start: u32,
    entries: &[DecodedEntry],
    term_addr: Option<u32>,
    window: u32,
    exit: BlockExit,
    irregular: bool,
) -> BlockSummary {
    let len = entries.len() as u32;
    let slots = match exit {
        BlockExit::Branch { .. } | BlockExit::Jump { .. } => window,
        _ => 0,
    };
    let body_len = (len - slots) as usize;
    // Defs in squashable slots may be annulled: keep them out of the
    // must-define mask.
    let slots_may_squash = matches!(
        exit,
        BlockExit::Branch { squash, .. } if squash != SquashMode::NoSquash
    );

    let mut s = BlockSummary {
        start,
        len,
        exit,
        term_addr,
        slots,
        slot_nops: 0,
        slot_filled: 0,
        body_nops: 0,
        load_pad_nops: 0,
        would_interlock: 0,
        md_steps: 0,
        coproc_ops: 0,
        coproc_result_hazards: 0,
        def_mask: 0,
        use_mask: 0,
        live_in: 0,
        live_out: 0,
        hazards: Vec::new(),
        irregular,
    };

    for (i, e) in entries.iter().enumerate() {
        let m = &e.meta;
        let in_window = i >= body_len;
        if m.is_nop {
            if in_window {
                s.slot_nops += 1;
            } else {
                s.body_nops += 1;
                let padding = i > 0
                    && i + 1 < entries.len()
                    && entries[i - 1]
                        .meta
                        .late_def
                        .is_some_and(|d| entries[i + 1].meta.alu_uses(d));
                if padding {
                    s.load_pad_nops += 1;
                }
            }
        } else if in_window {
            s.slot_filled += 1;
        }
        if m.is_coproc {
            s.coproc_ops += 1;
        }
        if matches!(
            m.md_role,
            mipsx_isa::MdRole::Mstep | mipsx_isa::MdRole::Dstep
        ) {
            s.md_steps += 1;
        }
        if i + 1 < entries.len() {
            let n = &entries[i + 1];
            if m.late_def.is_some_and(|d| n.meta.alu_uses(d)) {
                s.would_interlock += 1;
            }
            if let (Instr::Cpop { cop, .. }, Instr::Mvfc { cop: c2, .. }) = (e.instr, n.instr) {
                if cop == c2 {
                    s.coproc_result_hazards += 1;
                }
            }
        }
        // Upward-exposed uses and must-defs.
        s.use_mask |= m.use_mask & !s.def_mask;
        if !(in_window && slots_may_squash) {
            s.def_mask |= m.def_mask;
        }
        // Pre-resolved bypass plan: nearest producer within forwarding
        // reach for every register this instruction reads.
        for reg in InstrMeta::mask_regs(m.use_mask) {
            for dist in 1..=2u32 {
                let Some(j) = i.checked_sub(dist as usize) else {
                    break;
                };
                if entries[j].meta.defines(reg) {
                    s.hazards.push(HazardRef {
                        at: i as u32,
                        reg,
                        dist,
                        late: entries[j].meta.mem_result,
                    });
                    break;
                }
            }
        }
    }
    s
}

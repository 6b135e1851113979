//! Per-basic-block static summaries — the unit record of the timing
//! analyzer.
//!
//! A [`BlockSummary`] condenses one basic block into exactly the facts the
//! block engine and the static cost model need: local def/use masks and
//! (after the whole-program liveness pass in [`crate::timing`])
//! live-in/live-out sets, fillable-vs-wasted delay-slot accounting,
//! per-cause static stall event counts, the number of operands the
//! forwarding network delivers, and the one rule for what a visit books:
//! [`BlockSummary::delta`], the per-outcome [`Delta`] the block engine
//! books and the static/dynamic differential in [`crate::attrib`] holds
//! to the stepper.
//!
//! **Block shape.** Leaders are the program entry, every branch/jump
//! target, and the first address past every delay window; a control
//! transfer *and its delay slots* terminate the block that contains them,
//! so a block is fetched — and, fault-free, drained — as a unit. That
//! invariant is what makes the dynamic differential exact: per visit, a
//! block costs exactly `len` advancing cycles.

use crate::analysis::{reads_back, Analysis};
use crate::{MdShadow, VerifyConfig};
use mipsx_asm::{DecodedEntry, DecodedImage, Program};
use mipsx_core::RunStats;
use mipsx_isa::{Instr, MdRole, SquashMode};

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

impl BlockExit {
    /// How the word `instr` at `addr` ends a block scheduled for `slots`
    /// delay slots; `None` for straight-line code.
    pub(crate) fn of(instr: Instr, addr: u32, slots: u32) -> Option<BlockExit> {
        let past = addr + slots + 1;
        Some(match instr {
            Instr::Branch { squash, disp, .. } => BlockExit::Branch {
                squash,
                target: addr.wrapping_add(disp as u32),
                fall: past,
            },
            Instr::Jspci { rs1, rd, imm } => BlockExit::Jump {
                target: rs1.is_zero().then_some(imm as u32),
                link: !rd.is_zero(),
                ret: past,
            },
            // jpc/jpcrs: the restart chain's successor is carried in the
            // PC chain, unknowable statically.
            Instr::Jpc | Instr::Jpcrs => BlockExit::Jump {
                target: None,
                link: false,
                ret: past,
            },
            Instr::Halt => BlockExit::Halt,
            _ => return None,
        })
    }

    /// CFG successor addresses (callee return paths flow through the
    /// `ret` continuation of a linking jump; indirect jumps end the walk).
    pub fn successors(self) -> impl Iterator<Item = u32> {
        let (a, b) = match self {
            BlockExit::FallThrough { next } => (Some(next), None),
            BlockExit::Branch { target, fall, .. } => (Some(target), Some(fall)),
            BlockExit::Jump { target, link, ret } => (target, link.then_some(ret)),
            BlockExit::Halt => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// The `RunStats` increments of one block visit under one branch outcome,
/// mirroring the stepper's write-back and resolve-stage accounting. Each
/// is at most the block's length, so `u32` holds it.
// Not a full `RunStats`: the block engine keeps two per compiled block,
// and two 24-field deltas raised `ideal_block`'s peak RSS by 25 %; `u32`
// rather than `u64` fields halve what a visit reads and cut it by 8 %.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Delta {
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

impl Delta {
    /// Book `n` visits into `s`.
    #[inline]
    pub fn book(&self, n: u64, s: &mut RunStats) {
        s.instructions += n * u64::from(self.instructions);
        s.nops += n * u64::from(self.nops);
        s.squashed += n * u64::from(self.squashed);
        s.branches += n * u64::from(self.branches);
        s.branches_taken += n * u64::from(self.branches_taken);
        s.branch_slot_nops += n * u64::from(self.branch_slot_nops);
        s.branch_slot_squashed += n * u64::from(self.branch_slot_squashed);
        s.jumps += n * u64::from(self.jumps);
        s.loads += n * u64::from(self.loads);
        s.stores += n * u64::from(self.stores);
    }

    /// Wasted issue slots: squashed drains plus surviving nops.
    pub fn wasted(&self) -> u32 {
        self.squashed + self.nops
    }
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
    /// Loads and stores outside the delay window.
    pub body_loads: u32,
    pub body_stores: u32,
    /// Loads and stores in the delay window.
    pub slot_loads: u32,
    pub slot_stores: u32,
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
    /// `movtos md` instructions fetched in the [`MdShadow`] of an earlier
    /// step in the block, whose write-back then overwrites them: the
    /// stepper's MD differs from a program-order commit. Zero in
    /// verifier-clean code.
    pub md_shadow_writes: u32,
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
    /// Operands read over the forwarding network: registers an
    /// instruction reads that one of the two before it in the block
    /// defines.
    pub bypasses: u32,
    /// The block's shape violates the clean-partition invariants (a leader
    /// inside a delay window, a window running off the image, or a control
    /// transfer inside a window, e.g. the `jpc` restart chain). Static
    /// per-visit cost claims do not hold for irregular blocks.
    pub irregular: bool,
}

impl BlockSummary {
    /// What one visit books when its terminator resolves with outcome
    /// `taken` (`false` for every non-branch exit): the whole block
    /// retires but the slots a squash annuls, which retire nothing.
    pub fn delta(&self, taken: bool) -> Delta {
        let branch = matches!(self.exit, BlockExit::Branch { .. });
        let squashed = match self.exit {
            BlockExit::Branch { squash, .. } if !squash.slots_execute(taken) => self.slots,
            _ => 0,
        };
        // Whether the window retires.
        let window = u32::from(squashed == 0);
        Delta {
            instructions: self.len - squashed,
            nops: self.body_nops + window * self.slot_nops,
            squashed,
            branches: u32::from(branch),
            branches_taken: u32::from(branch && taken),
            branch_slot_nops: u32::from(branch) * window * self.slot_nops,
            branch_slot_squashed: squashed,
            jumps: u32::from(matches!(self.exit, BlockExit::Jump { .. })),
            loads: self.body_loads + window * self.slot_loads,
            stores: self.body_stores + window * self.slot_stores,
        }
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
}

/// The basic-block partition of a scheduled image: every block the entry
/// reaches, ascending by start address, with its block-local facts
/// (`live_in`/`live_out` stay zero — liveness is a whole-program pass).
///
/// This is the one partitioner: [`TimingAnalysis::of`] builds its CFG,
/// liveness and loop weights on it, and a block compiler that needs only
/// the blocks runs it alone.
///
/// [`TimingAnalysis::of`]: crate::TimingAnalysis::of
#[derive(Clone, Debug)]
pub struct Partition {
    /// Every basic block, ascending by start address.
    pub blocks: Vec<BlockSummary>,
    /// The partition invariants failed somewhere; per-visit cost claims
    /// are unreliable for the flagged blocks.
    pub irregular: bool,
    /// The per-word analysis the blocks were cut from: the decoded image
    /// plus the tables the hazard verifier reads.
    pub(crate) analysis: Analysis,
}

impl Partition {
    /// Partition `program`, scheduled for `config.branch_delay_slots`.
    pub fn of(program: &Program, config: &VerifyConfig) -> Partition {
        Partition::of_image(program.decoded(), program.entry, config)
    }

    /// Partition an already decoded image entered at `entry`.
    pub fn of_image(code: DecodedImage, entry: u32, config: &VerifyConfig) -> Partition {
        let analysis = Analysis::new(code, entry, config);
        let (blocks, irregular) = build_blocks(&analysis);
        Partition {
            blocks,
            irregular,
            analysis,
        }
    }

    /// The decoded image the partition was cut from.
    pub fn image(&self) -> &DecodedImage {
        &self.analysis.code
    }

    /// Index of the block starting exactly at `addr`.
    pub fn block_at(&self, addr: u32) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.start).ok()
    }

    /// The decoded entries of a block of this partition, in address order.
    pub fn entries(&self, block: &BlockSummary) -> &[DecodedEntry] {
        self.analysis.run(block.start, block.len)
    }
}

/// Partition the reachable image into basic blocks and compute every
/// block-local fact. `live_in`/`live_out` are left zero for the
/// whole-program pass. The second return is the global irregularity flag
/// (true when the partition invariants do not hold somewhere).
fn build_blocks(a: &Analysis) -> (Vec<BlockSummary>, bool) {
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
        if let Some(exit) = BlockExit::of(a.at(addr).instr, addr, slots) {
            exit.successors().for_each(&mut lead);
            // The first address past the window, or past the `halt`.
            lead(addr + 1 + if exit == BlockExit::Halt { 0 } else { slots });
        }
    }
    let entries = a.code.entries();

    let mut blocks = Vec::with_capacity(leaders.iter().filter(|&&l| l).count());
    let mut covered = vec![false; a.code.len()];
    for start in (0..leaders.len()).filter(|&i| leaders[i]) {
        if covered[start] {
            // A branch targets the inside of an already-consumed window.
            global_irregular = true;
            continue;
        }
        let mut irregular = false;
        let mut i = start;
        let start = origin + start as u32;
        let (addr, term_addr, window, exit) = loop {
            covered[i] = true;
            let addr = origin + i as u32;
            let Some(exit) = BlockExit::of(entries[i].instr, addr, slots) else {
                let next = i + 1;
                if next < entries.len() && leaders[next] {
                    break (addr, None, 0, BlockExit::FallThrough { next: addr + 1 });
                }
                if next == entries.len() || !a.reachable[next] {
                    // Straight-line code ending without a halt: off the map.
                    irregular = true;
                    break (addr, None, 0, BlockExit::FallThrough { next: addr + 1 });
                }
                i = next;
                continue;
            };
            if exit == BlockExit::Halt {
                break (addr, Some(addr), 0, exit);
            }
            // A control transfer: the window belongs to this block.
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
            break (addr, Some(addr), window, exit);
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
        body_loads: 0,
        body_stores: 0,
        slot_loads: 0,
        slot_stores: 0,
        load_pad_nops: 0,
        would_interlock: 0,
        md_steps: 0,
        md_shadow_writes: 0,
        coproc_ops: 0,
        coproc_result_hazards: 0,
        def_mask: 0,
        use_mask: 0,
        live_in: 0,
        live_out: 0,
        bypasses: 0,
        irregular,
    };
    let mut shadow = MdShadow::CLEAR;

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
        let (loads, stores) = if in_window {
            (&mut s.slot_loads, &mut s.slot_stores)
        } else {
            (&mut s.body_loads, &mut s.body_stores)
        };
        *loads += u32::from(m.is_load);
        *stores += u32::from(m.is_store);
        if m.is_coproc {
            s.coproc_ops += 1;
        }
        if matches!(m.md_role, MdRole::Mstep | MdRole::Dstep) {
            s.md_steps += 1;
        }
        if shadow.fetch(m.md_role).is_some() {
            s.md_shadow_writes += 1;
        }
        if i + 1 < entries.len() {
            let n = &entries[i + 1];
            if m.late_def.is_some_and(|d| n.meta.alu_uses(d)) {
                s.would_interlock += 1;
            }
            if m.is_coproc && reads_back(e.instr, n.instr) {
                s.coproc_result_hazards += 1;
            }
        }
        // Upward-exposed uses and must-defs.
        s.use_mask |= m.use_mask & !s.def_mask;
        if !(in_window && slots_may_squash) {
            s.def_mask |= m.def_mask;
        }
        // Registers read from a producer within forwarding reach.
        let def_at = |dist: usize| i.checked_sub(dist).map_or(0, |j| entries[j].meta.def_mask);
        s.bypasses += (m.use_mask & (def_at(1) | def_at(2)) & ALL_REGS).count_ones();
    }
    s
}

//! Delay-slot scheduling.
//!
//! The scheduler works block-at-a-time over a [`RawProgram`]:
//!
//! 1. **Load-delay pass** — within each block, a load whose value is
//!    consumed by the very next instruction (at the ALU) gets an
//!    independent instruction pulled between them, or an explicit `nop`.
//!    These nops are the "other pipeline interlocks" of the paper's no-op
//!    statistic, and they are what balloons for Lisp's car/cdr chains.
//! 2. **Branch-slot pass** — per terminator, delay slots fill in the
//!    paper's priority order (hoist from before the branch; instructions
//!    from the destination or sequential path that are harmless the wrong
//!    way; with squashing, *any* instruction from the predicted path), and
//!    under [`SquashPolicy::SquashOptional`] each branch picks whichever
//!    option has the lower expected cost.
//! 3. **MD shadow check** — a block whose filled fetch stream would put a
//!    `movtos md` within two fetches of an `mstep`/`dstep` (in the block or
//!    at a landing) is scheduled again plain: `nop` pads and `nop` slots.
//!
//! The output is a real [`Program`] that runs on the cycle-accurate core
//! under [`InterlockPolicy::Detect`](mipsx_core::InterlockPolicy) — the
//! scheduling tests execute both the naive and the reorganized code and
//! require identical architectural results.

use std::error::Error;
use std::fmt;

use mipsx_asm::{Asm, AsmError, Program};
use mipsx_isa::{Instr, InstrMeta, MdRole, Reg, SquashMode};
use mipsx_verify::MdShadow;

use crate::liveness::{self, RegSet};
use crate::{BlockId, BranchScheme, RawProgram, SquashPolicy, Terminator};

/// Scheduling statistics for one reorganized program.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScheduleReport {
    /// Conditional branches scheduled.
    pub branches: usize,
    /// Branches emitted with a squashing mode.
    pub squashing_branches: usize,
    /// Total delay slots emitted (branches, jumps, calls, returns).
    pub slots_total: usize,
    /// Slots filled by hoisting an instruction from before the transfer.
    pub filled_from_before: usize,
    /// Slots filled with (copies of) predicted-path / target instructions.
    pub filled_from_target: usize,
    /// Slots filled from the sequential path or cross-path-safe
    /// instructions (no-squash fills that needed liveness proof).
    pub filled_safe: usize,
    /// Slots left as explicit `nop`s.
    pub slot_nops: usize,
    /// `nop`s inserted by the load-delay pass.
    pub load_nops: usize,
}

impl ScheduleReport {
    /// Fraction of delay slots that hold useful instructions.
    pub fn fill_ratio(&self) -> f64 {
        if self.slots_total == 0 {
            0.0
        } else {
            1.0 - self.slot_nops as f64 / self.slots_total as f64
        }
    }
}

/// Errors from reorganization (all bubble up from program emission).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReorgError {
    /// The scheduled program could not be assembled (e.g. displacement
    /// overflow on a very large block layout).
    Emit(AsmError),
}

impl fmt::Display for ReorgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReorgError::Emit(e) => write!(f, "emitting scheduled program: {e}"),
        }
    }
}

impl Error for ReorgError {}

impl From<AsmError> for ReorgError {
    fn from(e: AsmError) -> ReorgError {
        ReorgError::Emit(e)
    }
}

/// A body instruction and its facts, computed once by [`InstrMeta::of`]
/// when the instruction enters the scheduler and carried with it through
/// every pass, so no candidate loop re-derives them.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Item {
    instr: Instr,
    meta: InstrMeta,
    /// Memory, coprocessor, special-register or MD-step traffic: two such
    /// instructions keep their order. (A potentially-trapping add may
    /// move — the reorganizer trades exact trap location for schedule
    /// quality, as the original did.)
    ordered: bool,
}

impl Item {
    fn new(instr: Instr) -> Item {
        let meta = InstrMeta::of(instr);
        Item {
            instr,
            meta,
            ordered: meta.is_load
                || meta.is_store
                || meta.is_coproc
                || matches!(instr, Instr::Movtos { .. } | Instr::Movfrs { .. })
                || matches!(meta.md_role, MdRole::Mstep | MdRole::Dstep),
        }
    }

    /// Whether the instruction writes a register `mask` holds (`r0` writes
    /// carry no dataflow and never match).
    fn defines_any(&self, mask: RegSet) -> bool {
        self.meta.def_mask & mask != 0
    }

    /// Whether it delivers a load result one cycle late into a register
    /// `mask` holds.
    fn late_into(&self, mask: RegSet) -> bool {
        self.meta
            .late_def
            .is_some_and(|d| mask & 1 << d.index() != 0)
    }

    /// Whether an ALU-stage read of `next` consumes this instruction's late
    /// load result — a distance-1 load-use pair.
    fn feeds_at_alu(&self, next: &Item) -> bool {
        self.meta.late_def.is_some_and(|d| next.meta.alu_uses(d))
    }
}

/// The facts of a run of instructions a candidate would move across: the
/// union of their def and use masks, their destination specifiers (`r0`
/// included, for write-after-write) and whether any is [`Item::ordered`].
#[derive(Clone, Copy, Default)]
struct Span {
    defs: RegSet,
    uses: RegSet,
    specifiers: u32,
    ordered: bool,
}

impl Span {
    fn add(&mut self, i: &Item) {
        self.defs |= i.meta.def_mask;
        self.uses |= i.meta.use_mask;
        self.specifiers |= i.meta.def.map_or(0, |d| 1 << d.index());
        self.ordered |= i.ordered;
    }

    /// Whether `b` depends on or conflicts with some instruction of the
    /// span (cannot be reordered across it): it reads a def (RAW), defines
    /// a read register (WAR) or the same specifier (WAW), or both sides
    /// are ordered traffic.
    fn conflicts(&self, b: &Item) -> bool {
        b.meta.use_mask & self.defs != 0
            || b.meta.def_mask & self.uses != 0
            || b.meta
                .def
                .is_some_and(|d| self.specifiers & 1 << d.index() != 0)
            || (self.ordered && b.ordered)
    }
}

/// The mask of a register list (`r0` dropped).
fn mask_of(regs: &[Reg]) -> RegSet {
    regs.iter().fold(0, |m, r| m | r.mask_bit())
}

/// The most delay slots a scheme has.
const MAX_SLOTS: usize = 2;

/// One transfer's delay-slot contents in issue order, held inline.
#[derive(Clone, Copy)]
struct Slots {
    items: [Item; MAX_SLOTS],
    len: usize,
}

impl Slots {
    fn new() -> Slots {
        Slots {
            items: [Item::new(Instr::Nop); MAX_SLOTS],
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, item: Item) {
        self.items[self.len] = item;
        self.len += 1;
    }

    fn extend(&mut self, items: &[Item]) {
        for &i in items {
            self.push(i);
        }
    }

    fn last(&self) -> Option<&Item> {
        self.as_slice().last()
    }

    fn as_slice(&self) -> &[Item] {
        &self.items[..self.len]
    }

    /// Fill the remaining of `slots` with `nop`s; returns how many.
    fn pad(&mut self, slots: usize) -> usize {
        let nops = slots - self.len;
        self.len = slots; // `items` starts out all `nop`s
        nops
    }
}

/// Every block's working body, in one arena: block `b` is
/// `items[range[b].0..range[b].1]`. After load-delay scheduling the passes
/// only take instructions off a body's head (sequential-path moves) or
/// tail (hoists), which narrows its range.
struct Bodies {
    items: Vec<Item>,
    range: Vec<(usize, usize)>,
}

impl Bodies {
    fn get(&self, b: BlockId) -> &[Item] {
        let (lo, hi) = self.range[b];
        &self.items[lo..hi]
    }

    fn len(&self, b: BlockId) -> usize {
        let (lo, hi) = self.range[b];
        hi - lo
    }

    /// Remove and return the first `k` instructions of block `b`.
    fn take_head(&mut self, b: BlockId, k: usize) -> &[Item] {
        let lo = self.range[b].0;
        self.range[b].0 += k;
        &self.items[lo..lo + k]
    }

    /// Remove and return the last `k` instructions of block `b`.
    fn take_tail(&mut self, b: BlockId, k: usize) -> &[Item] {
        let hi = self.range[b].1;
        self.range[b].1 -= k;
        &self.items[hi - k..hi]
    }
}

/// Every transfer's slot decisions, per block.
struct Plan {
    /// Delay-slot contents.
    slot_fill: Vec<Slots>,
    /// Squash mode of a branch.
    squash_mode: Vec<SquashMode>,
    /// Retarget: skip the first `k` instructions of the transfer target.
    retarget: Vec<usize>,
}

/// The code reorganizer.
#[derive(Clone, Copy, Debug)]
pub struct Reorganizer {
    scheme: BranchScheme,
}

impl Reorganizer {
    /// A reorganizer for the given branch scheme.
    ///
    /// # Panics
    /// Panics if the scheme is invalid.
    pub fn new(scheme: BranchScheme) -> Reorganizer {
        scheme.validate();
        Reorganizer { scheme }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> BranchScheme {
        self.scheme
    }

    /// Lower without any slot filling: every delay slot is an explicit
    /// `nop`, no squashing. The semantic reference for scheduling tests and
    /// the "unoptimized" baseline in experiments.
    ///
    /// # Errors
    /// Returns [`ReorgError::Emit`] if the program cannot be assembled.
    pub fn lower_naive(&self, raw: &RawProgram) -> Result<(Program, ScheduleReport), ReorgError> {
        self.lower(raw, false)
    }

    /// Run the full reorganizer: load-delay scheduling plus branch-slot
    /// filling under the configured scheme.
    ///
    /// # Errors
    /// Returns [`ReorgError::Emit`] if the program cannot be assembled.
    pub fn reorganize(&self, raw: &RawProgram) -> Result<(Program, ScheduleReport), ReorgError> {
        self.lower(raw, true)
    }

    fn lower(&self, raw: &RawProgram, fill: bool) -> Result<(Program, ScheduleReport), ReorgError> {
        raw.validate();
        let preds = predecessor_counts(raw);
        let mut report = ScheduleReport::default();

        // Pass 1 also folds each block's liveness transfer from its
        // unscheduled body.
        let mut transfer: Vec<(RegSet, RegSet)> = Vec::with_capacity(raw.len());
        let mut plain = vec![false; raw.len()];
        let mut bodies = schedule_bodies(raw, &plain, &mut report, |term, body| {
            transfer.push(liveness::block_transfer(
                term,
                body.iter().map(|i| (i.meta.def_mask, i.meta.use_mask)),
            ));
        });
        let live = liveness::solve(&raw.terms, &transfer);

        // A fill can bring a `movtos md` into a step's write-back shadow
        // (a hoisted step landing on it, a moved head or a dropped pad
        // closing the gap). Each block that ends up with one is scheduled
        // again plain — no pulls, no slot fill, no dropped pads — which
        // keeps its own fetch distances and those into its landings at
        // least as long as the naive layout's.
        let plan = loop {
            let plan = self.fill_slots(raw, &mut bodies, &live, &preds, &plain, fill, &mut report);
            let mut again = false;
            for b in md_shadow_blocks(raw, &bodies, &plan) {
                again |= !plain[b];
                plain[b] = true;
            }
            if !again {
                break plan;
            }
            report = ScheduleReport::default();
            bodies = schedule_bodies(raw, &plain, &mut report, |_, _| {});
        };
        let Plan {
            slot_fill,
            squash_mode,
            retarget,
        } = plan;

        // Pass 3: emission.
        let mut asm = Asm::new(0);
        // Labels: one per (block, instruction offset) that is ever targeted,
        // keyed `block << 32 | offset` so keys sort as the pairs do.
        let key = |block: BlockId, offset: usize| (block as u64) << 32 | offset as u64;
        let mut needed: Vec<u64> = Vec::with_capacity(raw.len());
        for (id, term) in raw.terms.iter().enumerate() {
            match *term {
                Terminator::Jump(t) | Terminator::Call { target: t, .. } => {
                    needed.push(key(t, retarget[id]))
                }
                Terminator::Branch { taken, .. } => needed.push(key(taken, retarget[id])),
                _ => {}
            }
        }
        needed.sort_unstable();
        needed.dedup();
        // `labels[k]` marks `needed[k]`; sorted, so each block's labels are
        // one run in offset order, bound by a cursor as the block emits.
        let labels: Vec<mipsx_asm::Label> = needed.iter().map(|_| asm.new_label()).collect();
        let label = |t: BlockId, skip: usize| {
            let k = key(t, skip.min(bodies.len(t)));
            labels[needed.binary_search(&k).expect("targets are labelled")]
        };
        let mut next = 0;

        for id in 0..raw.len() {
            for (offset, item) in bodies.get(id).iter().enumerate() {
                if needed.get(next) == Some(&key(id, offset)) {
                    asm.bind(labels[next])?;
                    next += 1;
                }
                asm.emit(item.instr);
            }
            // Labels at or past the end of the body bind just before the
            // terminator.
            while needed.get(next).is_some_and(|&k| k >> 32 == id as u64) {
                asm.bind(labels[next])?;
                next += 1;
            }
            match raw.terms[id] {
                Terminator::Halt => asm.emit(Instr::Halt),
                Terminator::Jump(t) => asm.jump(label(t, retarget[id])),
                Terminator::Call { target, link, .. } => {
                    asm.call(label(target, retarget[id]), link)
                }
                Terminator::Return { link } => asm.ret(link),
                Terminator::Branch {
                    cond,
                    rs1,
                    rs2,
                    taken,
                    ..
                } => asm.branch(cond, squash_mode[id], rs1, rs2, label(taken, retarget[id])),
            }
            for s in slot_fill[id].as_slice() {
                asm.emit(s.instr);
            }
        }
        let program = asm.finish()?;

        // Debug-build post-condition: every program this reorganizer emits
        // passes the static hazard verifier. Callers that want the verdict
        // in release builds run `mipsx_verify` themselves.
        if cfg!(debug_assertions) {
            let config = mipsx_verify::VerifyConfig::for_slots(self.scheme.slots);
            let lint = mipsx_verify::verify(&program, &config);
            assert!(
                lint.is_clean(),
                "reorganizer emitted an illegal schedule:\n{lint}\n{program}"
            );
        }
        Ok((program, report))
    }

    /// Passes 2 and 2.5: fill every transfer's delay slots (a `plain`
    /// block's with `nop`s) in layout order, then drop load-delay pads that
    /// hoisting orphaned.
    #[allow(clippy::too_many_arguments)]
    fn fill_slots(
        &self,
        raw: &RawProgram,
        bodies: &mut Bodies,
        live: &liveness::Liveness,
        preds: &[usize],
        plain: &[bool],
        fill: bool,
        report: &mut ScheduleReport,
    ) -> Plan {
        let slots = self.scheme.slots;
        // Scheduled slot contents and squash mode per block.
        let mut slot_fill: Vec<Slots> = vec![Slots::new(); raw.len()];
        let mut squash_mode: Vec<SquashMode> = vec![SquashMode::NoSquash; raw.len()];
        // Retarget: skip the first `k` instructions of the transfer target.
        let mut retarget: Vec<usize> = vec![0; raw.len()];
        // The first `pinned[b]` instructions of block `b` were copied into a
        // predecessor's delay slots (with a retarget past them): they must
        // stay in place, or the skip would land in the wrong spot and the
        // copies would execute twice.
        let mut pinned: Vec<usize> = vec![0; raw.len()];

        // Pass 2: slot filling, in layout order.
        for id in 0..raw.len() {
            let term = raw.terms[id];
            match term {
                Terminator::Halt => {}
                Terminator::Branch {
                    taken,
                    fall,
                    p_taken,
                    rs1,
                    rs2,
                    ..
                } => {
                    report.branches += 1;
                    report.slots_total += slots;
                    if !fill || plain[id] {
                        report.slot_nops += slot_fill[id].pad(slots);
                        continue;
                    }
                    let (filled, mode, skip) = self.fill_branch_slots(
                        id,
                        taken,
                        fall,
                        p_taken,
                        mask_of(&[rs1, rs2]),
                        bodies,
                        live,
                        preds,
                        &pinned,
                        report,
                    );
                    slot_fill[id] = filled;
                    squash_mode[id] = mode;
                    retarget[id] = skip;
                    pinned[taken] = pinned[taken].max(skip);
                    if mode != SquashMode::NoSquash {
                        report.squashing_branches += 1;
                    }
                }
                Terminator::Jump(target) | Terminator::Call { target, .. } => {
                    report.slots_total += slots;
                    let filled = &mut slot_fill[id];
                    if !fill || plain[id] {
                        report.slot_nops += filled.pad(slots);
                        continue;
                    }
                    let protect = match term {
                        Terminator::Call { link, .. } => mask_of(&[link]),
                        _ => 0,
                    };
                    // Unconditional transfers fill only by *moving* code
                    // from before the jump — the post-pass reorganizers of
                    // the era did not duplicate target code into jump
                    // slots, and returns/indirect jumps have no static
                    // target anyway. (Branches get destination copies via
                    // the squash machinery below, which is the paper's
                    // explicit mechanism.)
                    let k = hoistable(bodies.get(id), slots, protect, 0, pinned[id]);
                    filled.extend(bodies.take_tail(id, k));
                    report.filled_from_before += k;
                    // When the target has a single predecessor, its head
                    // may be *moved* (not copied) into the remaining slots.
                    if preds[target] <= 1 && pinned[target] == 0 && target != id {
                        let head = bodies.get(target);
                        let mut moved = 0;
                        while filled.len() < slots && moved < head.len() {
                            let candidate = head[moved];
                            if candidate.meta.is_nop
                                || (candidate.meta.mem_result && filled.len() == slots - 1)
                                || filled.last().is_some_and(|p| p.feeds_at_alu(&candidate))
                            {
                                break;
                            }
                            filled.push(candidate);
                            moved += 1;
                            report.filled_from_target += 1;
                        }
                        // Moved, not copied: no retarget needed.
                        bodies.take_head(target, moved);
                    }
                    report.slot_nops += filled.pad(slots);
                }
                Terminator::Return { link } => {
                    report.slots_total += slots;
                    let filled = &mut slot_fill[id];
                    if !fill || plain[id] {
                        report.slot_nops += filled.pad(slots);
                        continue;
                    }
                    let link = mask_of(&[link]);
                    let k = hoistable(bodies.get(id), slots, link, link, pinned[id]);
                    filled.extend(bodies.take_tail(id, k));
                    report.filled_from_before += k;
                    report.slot_nops += filled.pad(slots);
                }
            }
        }

        // Pass 2.5: hoisting can orphan a load-delay pad — the consumer
        // moved into a delay slot, leaving its nop between the load and a
        // transfer that never reads the value. Trailing nops whose removal
        // provably creates no hazard are dropped. (The tail never overlaps
        // a prefix copied into a predecessor's squashing slots, which is
        // all `pinned` protects.)
        for (id, (term, &pin)) in raw.terms.iter().zip(&pinned).enumerate() {
            if plain[id] {
                continue;
            }
            let uses = term_alu_uses(term);
            while bodies.len(id) > pin.max(1) {
                let body = bodies.get(id);
                let n = body.len();
                if !body[n - 1].meta.is_nop || body[n - 2].late_into(uses) {
                    break;
                }
                bodies.take_tail(id, 1);
                report.load_nops = report.load_nops.saturating_sub(1);
            }
        }
        Plan {
            slot_fill,
            squash_mode,
            retarget,
        }
    }

    /// Fill one branch's delay slots; returns the slot instructions, the
    /// squash mode, and how many target-head instructions to skip.
    /// `branch_sources` masks the registers the branch compares.
    #[allow(clippy::too_many_arguments)]
    fn fill_branch_slots(
        &self,
        id: BlockId,
        taken: BlockId,
        fall: BlockId,
        p_taken: f64,
        branch_sources: RegSet,
        bodies: &mut Bodies,
        live: &liveness::Liveness,
        preds: &[usize],
        pinned: &[usize],
        report: &mut ScheduleReport,
    ) -> (Slots, SquashMode, usize) {
        let slots = self.scheme.slots;
        let predict_taken = p_taken >= 0.5;
        let p_correct = if predict_taken {
            p_taken
        } else {
            1.0 - p_taken
        };

        // Option A: no-squash fill.
        // 1. Hoist from before (planned only, so option B can still choose
        //    differently).
        let body = bodies.get(id);
        let a_before = hoistable(body, slots, branch_sources, branch_sources, pinned[id]);
        let mut a_fill = Slots::new();
        a_fill.extend(&body[body.len() - a_before..]);
        // 2. Copies from the taken-path head that are provably harmless on
        //    the fall path (dead destination, no side effects).
        let mut a_skip = 0;
        // For a self-loop, head copies may overlap the hoisted tail; only
        // one of the two sources may apply.
        let head = bodies.get(taken);
        while (taken != id || a_before == 0) && a_fill.len() < slots && a_skip < head.len() {
            let candidate = head[a_skip];
            let safe = !candidate.meta.has_side_effects
                && !candidate.meta.is_nop
                && !candidate.defines_any(live.live_in[fall])
                && (!candidate.meta.mem_result || a_fill.len() != slots - 1)
                && !a_fill.last().is_some_and(|p| p.feeds_at_alu(&candidate));
            if !safe {
                break;
            }
            a_fill.push(candidate);
            a_skip += 1;
        }
        let a_safe = a_fill.len() - a_before;
        // 3. Sequential-path move: only with a single predecessor, side
        //    effect free, dead on the taken path, and not a load.
        let mut a_fall_moved = 0;
        if preds[fall] <= 1 && pinned[fall] == 0 && a_skip == 0 {
            let head = bodies.get(fall);
            while a_fill.len() < slots && a_fall_moved < head.len() {
                let candidate = head[a_fall_moved];
                let safe = !candidate.meta.has_side_effects
                    && !candidate.meta.is_nop
                    && !candidate.meta.mem_result
                    && !candidate.defines_any(live.live_in[taken]);
                if !safe {
                    break;
                }
                a_fill.push(candidate);
                a_fall_moved += 1;
            }
        }
        let a_cost = (slots - a_fill.len()) as f64;

        // Option B: squashing fill — any instruction from the predicted
        // path, squashed if the branch goes the other way.
        let mut b_fill = Slots::new();
        let (b_mode, b_skip, b_cost) = if predict_taken {
            let head = bodies.get(taken);
            let mut skip = 0;
            while b_fill.len() < slots && skip < head.len() {
                let candidate = head[skip];
                // Squashed slots are annulled via the destination-register
                // kill line, so only instructions the kill line can reach
                // (plain register writes) may ride in them.
                if candidate.meta.is_nop
                    || !candidate.meta.squash_safe
                    || b_fill.last().is_some_and(|p| p.feeds_at_alu(&candidate))
                {
                    break;
                }
                b_fill.push(candidate);
                skip += 1;
            }
            let filled = b_fill.len();
            let cost = filled as f64 * (1.0 - p_correct) + (slots - filled) as f64;
            (SquashMode::SquashIfNotTaken, skip, cost)
        } else if !predict_taken && preds[fall] <= 1 && pinned[fall] == 0 {
            // Predict not-taken: move the sequential head into the slots
            // (squash-if-go kills them when the branch does take).
            let head = bodies.get(fall);
            let mut moved = 0;
            while b_fill.len() < slots && moved < head.len() {
                let candidate = head[moved];
                if candidate.meta.is_nop
                    || !candidate.meta.squash_safe
                    || (candidate.meta.mem_result && b_fill.len() == slots - 1)
                {
                    break;
                }
                b_fill.push(candidate);
                moved += 1;
            }
            let filled = b_fill.len();
            let cost = filled as f64 * (1.0 - p_correct) + (slots - filled) as f64;
            // Encode the move count in skip-space: we reuse `moved` by
            // draining the fall head below.
            (SquashMode::SquashIfGo, moved, cost)
        } else {
            (SquashMode::NoSquash, 0, f64::INFINITY)
        };

        let use_squash = match self.scheme.squash {
            SquashPolicy::NoSquash => false,
            SquashPolicy::AlwaysSquash => b_cost.is_finite(),
            SquashPolicy::SquashOptional => b_cost < a_cost,
        };

        if use_squash {
            let mut fill = b_fill;
            match b_mode {
                SquashMode::SquashIfNotTaken => {
                    report.filled_from_target += fill.len();
                }
                SquashMode::SquashIfGo => {
                    // Actually remove the moved instructions from the fall
                    // head.
                    bodies.take_head(fall, b_skip);
                    report.filled_from_target += fill.len();
                }
                SquashMode::NoSquash => {}
            }
            report.slot_nops += fill.pad(slots);
            let skip = if b_mode == SquashMode::SquashIfNotTaken {
                b_skip
            } else {
                0
            };
            (fill, b_mode, skip)
        } else {
            // Commit option A: take the planned hoist off the real body.
            let mut fill = Slots::new();
            fill.extend(bodies.take_tail(id, a_before));
            report.filled_from_before += a_before;
            fill.extend(&bodies.get(taken)[..a_safe]);
            report.filled_safe += a_safe;
            if a_fall_moved > 0 {
                fill.extend(bodies.take_head(fall, a_fall_moved));
                report.filled_safe += a_fall_moved;
            }
            report.slot_nops += fill.pad(slots);
            (fill, SquashMode::NoSquash, a_skip)
        }
    }
}

/// The ALU-resolved registers a terminator reads, as a mask (for the
/// load-delay pass: a load feeding a branch one instruction later is a
/// violation).
fn term_alu_uses(term: &Terminator) -> RegSet {
    match *term {
        Terminator::Branch { rs1, rs2, .. } => mask_of(&[rs1, rs2]),
        Terminator::Return { link } => mask_of(&[link]),
        _ => 0,
    }
}

/// Count predecessors of each block (including implicit layout edges via
/// `fall`/`ret_to`, which appear in `successors`).
fn predecessor_counts(raw: &RawProgram) -> Vec<usize> {
    let mut preds = vec![0usize; raw.len()];
    for term in &raw.terms {
        for s in term.successors() {
            preds[s] += 1;
        }
    }
    preds
}

/// Pass 1: each block's instructions enter as [`Item`]s, `fold` sees the
/// unscheduled body, then the load delays are scheduled (a `plain` block's
/// with `nop`s only).
fn schedule_bodies(
    raw: &RawProgram,
    plain: &[bool],
    report: &mut ScheduleReport,
    mut fold: impl FnMut(&Terminator, &[Item]),
) -> Bodies {
    let mut bodies = Bodies {
        // Room for the load-delay pads as well.
        items: Vec::with_capacity(raw.body_len() + raw.body_len() / 4),
        range: Vec::with_capacity(raw.len()),
    };
    let mut body = Vec::new();
    for ((block, term), &plain) in raw.blocks.iter().zip(&raw.terms).zip(plain) {
        body.clear();
        body.extend(block.instrs.iter().map(|&i| Item::new(i)));
        fold(term, &body);
        report.load_nops += schedule_load_delays(&mut body, term_alu_uses(term), !plain);
        let lo = bodies.items.len();
        bodies.items.extend_from_slice(&body);
        bodies.range.push((lo, bodies.items.len()));
    }
    bodies
}

/// The blocks whose fetch stream puts a `movtos md` in the [`MdShadow`] of
/// an executed `mstep`/`dstep` — in the block, or across an exit into the
/// first fetches of its landing. A return lands at the continuation of
/// every call that reaches it ([`RawProgram::return_landings`]).
fn md_shadow_blocks(raw: &RawProgram, bodies: &Bodies, plan: &Plan) -> Vec<BlockId> {
    // Block `b`'s fetch stream entered past its first `skip` instructions:
    // the body, the terminator, then the delay slots.
    let fetches = |b: BlockId, skip: usize| {
        let role = |i: &Item| i.meta.md_role;
        let body = &bodies.get(b)[skip.min(bodies.len(b))..];
        let slots = plan.slot_fill[b].as_slice();
        body.iter()
            .map(role)
            .chain([MdRole::None])
            .chain(slots.iter().map(role))
    };
    let mut returns = None;
    let mut flagged = Vec::new();
    for (x, term) in raw.terms.iter().enumerate() {
        let mut items = bodies.get(x).iter().chain(plan.slot_fill[x].as_slice());
        if !items.any(|i| matches!(i.meta.md_role, MdRole::Mstep | MdRole::Dstep)) {
            continue;
        }
        // The exit shadows with the slots run and annulled.
        let (mut run, mut annulled) = (MdShadow::CLEAR, MdShadow::CLEAR);
        let mut within = false;
        for (k, role) in fetches(x, 0).enumerate() {
            within |= run.fetch(role).is_some();
            let in_body = k < bodies.len(x);
            annulled.fetch(if in_body { role } else { MdRole::None });
        }
        // Whether the landing's stream clobbers a `movtos md` before the
        // exit's shadow clears.
        let lands = |t: BlockId, skip: usize, slots_run: bool| {
            let mut shadow = if slots_run { run } else { annulled };
            fetches(t, skip).any(|role| !shadow.is_clear() && shadow.fetch(role).is_some())
        };
        let across = match *term {
            Terminator::Branch { taken, fall, .. } => {
                let mode = plan.squash_mode[x];
                lands(taken, plan.retarget[x], mode.slots_execute(true))
                    || lands(fall, 0, mode.slots_execute(false))
            }
            Terminator::Jump(t) | Terminator::Call { target: t, .. } => {
                lands(t, plan.retarget[x], true)
            }
            Terminator::Return { .. } => returns.get_or_insert_with(|| raw.return_landings())[x]
                .iter()
                .any(|&c| lands(c, 0, true)),
            Terminator::Halt => false,
        };
        if within || across {
            flagged.push(x);
        }
    }
    flagged
}

/// Insert independent instructions (if `pull`) or `nop`s so that no load
/// is followed immediately by an ALU consumer of its value. `term_uses`
/// masks the registers the block's terminator reads. Returns inserted nop
/// count.
fn schedule_load_delays(body: &mut Vec<Item>, term_uses: RegSet, pull: bool) -> usize {
    let mut nops = 0;
    let mut i = 0;
    while i < body.len() {
        let load = body[i];
        let Some(def) = load.meta.late_def else {
            i += 1;
            continue;
        };
        let consumer_uses_def = match body.get(i + 1) {
            Some(next) => next.meta.alu_uses(def),
            None => load.late_into(term_uses),
        };
        if !consumer_uses_def {
            i += 1;
            continue;
        }
        // Try to pull an independent instruction from later in the block
        // into the delay slot. It must commute with the load and with
        // everything it jumps over, which `span` accumulates.
        let mut span = Span::default();
        for jumped in &body[i..(i + 2).min(body.len())] {
            span.add(jumped);
        }
        let mut pulled = None;
        for (j, candidate) in body.iter().enumerate().skip(i + 2).filter(|_| pull) {
            // Pulling a load forward may create a fresh hazard with its own
            // next instruction; keep it simple and skip loads.
            if !span.conflicts(candidate)
                && !candidate.meta.alu_uses(def)
                && !candidate.meta.mem_result
            {
                pulled = Some(j);
                break;
            }
            span.add(candidate);
        }
        match pulled {
            Some(j) => {
                let candidate = body.remove(j);
                body.insert(i + 1, candidate);
            }
            None => {
                body.insert(i + 1, Item::new(Instr::Nop));
                nops += 1;
            }
        }
        i += 1;
    }
    nops
}

/// How many instructions to hoist, up to `max`, from the block tail into
/// delay slots. Hoisted instructions must not define any register in the
/// `protect` mask (the transfer's sources) and must not leave a load
/// feeding a `hazard_check` register at distance one. Loads never land in
/// the final slot. The body keeps at least `min_len` instructions.
fn hoistable(
    body: &[Item],
    max: usize,
    protect: RegSet,
    hazard_check: RegSet,
    min_len: usize,
) -> usize {
    let mut k = 0;
    while k < max && body.len() - k > min_len {
        let candidate = body[body.len() - 1 - k];
        // A scheduling nop guards a load delay; moving it changes
        // distances. Leave it.
        if candidate.meta.is_nop
            // Must not produce a value the transfer itself reads.
            || candidate.defines_any(protect)
            // A hoisted load would land one instruction from the transfer
            // target's head; the final slot is forbidden to loads.
            || (candidate.meta.mem_result && k == 0)
        {
            break;
        }
        // After removal the new tail must not be a load feeding the
        // transfer's compare at distance one.
        let new_tail = (body.len() - k).checked_sub(2).map(|t| body[t]);
        if new_tail.is_some_and(|t| t.late_into(hazard_check)) {
            break;
        }
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawBlock;
    use mipsx_isa::{ComputeOp, Cond};

    fn add(rd: u8, rs1: u8, rs2: u8) -> Instr {
        Instr::Compute {
            op: ComputeOp::Add,
            rs1: Reg::new(rs1),
            rs2: Reg::new(rs2),
            rd: Reg::new(rd),
            shamt: 0,
        }
    }

    fn ld(rd: u8, base: u8, off: i32) -> Instr {
        Instr::Ld {
            rs1: Reg::new(base),
            rd: Reg::new(rd),
            offset: off,
        }
    }

    fn items(instrs: Vec<Instr>) -> Vec<Item> {
        instrs.into_iter().map(Item::new).collect()
    }

    #[test]
    fn load_delay_gets_a_nop() {
        let mut body = items(vec![ld(1, 2, 0), add(3, 1, 1)]);
        let nops = schedule_load_delays(&mut body, 0, true);
        assert_eq!(nops, 1);
        assert_eq!(body[1].instr, Instr::Nop);
    }

    #[test]
    fn load_delay_filled_by_independent_instruction() {
        let mut body = items(vec![ld(1, 2, 0), add(3, 1, 1), add(4, 5, 6)]);
        let nops = schedule_load_delays(&mut body, 0, true);
        assert_eq!(nops, 0);
        assert_eq!(body[1].instr, add(4, 5, 6));
        assert_eq!(body[2].instr, add(3, 1, 1));
        // Without pulls the same body gets a `nop`.
        let mut body = items(vec![ld(1, 2, 0), add(3, 1, 1), add(4, 5, 6)]);
        assert_eq!(schedule_load_delays(&mut body, 0, false), 1);
        assert_eq!(body[1].instr, Instr::Nop);
    }

    #[test]
    fn load_feeding_branch_gets_a_nop() {
        let mut body = items(vec![ld(1, 2, 0)]);
        let nops = schedule_load_delays(&mut body, mask_of(&[Reg::new(1)]), true);
        assert_eq!(nops, 1);
        assert_eq!(body.last().map(|i| i.instr), Some(Instr::Nop));
    }

    #[test]
    fn independent_load_pair_is_untouched() {
        let mut body = items(vec![ld(1, 2, 0), ld(3, 2, 1), add(4, 1, 3)]);
        let nops = schedule_load_delays(&mut body, 0, true);
        // ld r3 doesn't use r1; add is after ld r3 and uses r3 -> needs a
        // nop for the second hazard only.
        assert_eq!(nops, 1);
    }

    #[test]
    fn hoist_takes_tail_in_order() {
        let mut bodies = Bodies {
            items: items(vec![add(1, 2, 3), add(4, 5, 6), add(7, 8, 9)]),
            range: vec![(0, 3)],
        };
        assert_eq!(
            hoistable(bodies.get(0), 2, 0, 0, 2),
            1,
            "the body keeps `min_len`"
        );
        let k = hoistable(bodies.get(0), 2, 0, 0, 0);
        assert_eq!(
            bodies.take_tail(0, k),
            &items(vec![add(4, 5, 6), add(7, 8, 9)])[..]
        );
        assert_eq!(bodies.get(0), &items(vec![add(1, 2, 3)])[..]);
    }

    #[test]
    fn hoist_respects_protected_registers() {
        let body = items(vec![add(1, 2, 3), add(4, 5, 6)]);
        let k = hoistable(&body, 2, mask_of(&[Reg::new(4)]), 0, 0);
        assert_eq!(k, 0, "tail defines a branch source");
    }

    #[test]
    fn hoist_never_puts_load_in_final_slot() {
        let body = items(vec![add(1, 2, 3), ld(4, 5, 0)]);
        assert_eq!(hoistable(&body, 2, 0, 0, 0), 0);
    }

    fn simple_loop() -> RawProgram {
        // b0: r1 = 5; r2 = 0
        // b1: r2 += r1; r1 -= 1; if r1 != 0 goto b1
        // b2: halt
        RawProgram::new(
            vec![
                RawBlock::new(vec![
                    Instr::Addi {
                        rs1: Reg::ZERO,
                        rd: Reg::new(1),
                        imm: 5,
                    },
                    Instr::Addi {
                        rs1: Reg::ZERO,
                        rd: Reg::new(2),
                        imm: 0,
                    },
                ]),
                RawBlock::new(vec![
                    add(2, 2, 1),
                    Instr::Addi {
                        rs1: Reg::new(1),
                        rd: Reg::new(1),
                        imm: -1,
                    },
                ]),
                RawBlock::default(),
            ],
            vec![
                Terminator::Jump(1),
                Terminator::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::new(1),
                    rs2: Reg::ZERO,
                    taken: 1,
                    fall: 2,
                    p_taken: 0.8,
                },
                Terminator::Halt,
            ],
        )
    }

    #[test]
    fn naive_lowering_is_all_nops() {
        let r = Reorganizer::new(BranchScheme::mipsx());
        let (program, report) = r.lower_naive(&simple_loop()).unwrap();
        assert_eq!(report.slot_nops, report.slots_total);
        assert_eq!(report.fill_ratio(), 0.0);
        assert!(program.static_nop_count() >= report.slot_nops);
    }

    #[test]
    fn reorganized_program_fills_slots() {
        let r = Reorganizer::new(BranchScheme::mipsx());
        let (_, report) = r.reorganize(&simple_loop()).unwrap();
        assert!(
            report.fill_ratio() > 0.0,
            "some slots must fill: {report:?}"
        );
        assert_eq!(report.branches, 1);
    }

    #[test]
    fn always_squash_marks_every_branch() {
        let r = Reorganizer::new(BranchScheme {
            slots: 2,
            squash: SquashPolicy::AlwaysSquash,
        });
        let (_, report) = r.reorganize(&simple_loop()).unwrap();
        assert_eq!(report.squashing_branches, report.branches);
    }

    #[test]
    fn no_squash_never_marks() {
        let r = Reorganizer::new(BranchScheme {
            slots: 2,
            squash: SquashPolicy::NoSquash,
        });
        let (_, report) = r.reorganize(&simple_loop()).unwrap();
        assert_eq!(report.squashing_branches, 0);
    }
}

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
//!
//! The output is a real [`Program`] that runs on the cycle-accurate core
//! under [`InterlockPolicy::Detect`](mipsx_core::InterlockPolicy) — the
//! scheduling tests execute both the naive and the reorganized code and
//! require identical architectural results.

use std::error::Error;
use std::fmt;

use mipsx_asm::{Asm, AsmError, Program};
use mipsx_isa::{Instr, Reg, SquashMode};

use crate::liveness::{self, contains};
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

/// Whether instruction `b` depends on or conflicts with `a` (cannot be
/// reordered across it).
fn conflicts(a: &Instr, b: &Instr) -> bool {
    let a_def = a.def();
    // RAW: b reads a's def.
    if let Some(d) = a_def {
        if !d.is_zero() && b.uses().any(|u| u == d) {
            return true;
        }
    }
    // WAR: b defines something a reads.
    if let Some(d) = b.def() {
        if !d.is_zero() && a.uses().any(|u| u == d) {
            return true;
        }
        // WAW.
        if a_def == Some(d) {
            return true;
        }
    }
    // Memory/system ordering: loads, stores, coprocessor traffic,
    // special-register access, and MD-stepping sequences keep their order.
    // (A potentially-trapping add may move — the reorganizer trades exact
    // trap location for schedule quality, as the original did.)
    fn ordered(i: &Instr) -> bool {
        i.is_load()
            || i.is_store()
            || i.is_coproc()
            || matches!(i, Instr::Movtos { .. } | Instr::Movfrs { .. })
            || matches!(i, Instr::Compute { op, .. } if op.touches_md())
    }
    ordered(a) && ordered(b)
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
        let slots = self.scheme.slots;
        let live = liveness::analyze(raw);
        let preds = predecessor_counts(raw);
        let mut report = ScheduleReport::default();

        // Working copies: bodies may lose tail instructions (hoisting) or
        // head instructions (sequential-path moves).
        let mut bodies: Vec<Vec<Instr>> = raw.blocks.iter().map(|b| b.instrs.clone()).collect();
        // Scheduled slot contents and squash mode per block.
        let mut slot_fill: Vec<Vec<Instr>> = vec![Vec::new(); raw.len()];
        let mut squash_mode: Vec<SquashMode> = vec![SquashMode::NoSquash; raw.len()];
        // Retarget: skip the first `k` instructions of the transfer target.
        let mut retarget: Vec<usize> = vec![0; raw.len()];
        // The first `pinned[b]` instructions of block `b` were copied into a
        // predecessor's delay slots (with a retarget past them): they must
        // stay in place, or the skip would land in the wrong spot and the
        // copies would execute twice.
        let mut pinned: Vec<usize> = vec![0; raw.len()];

        // Pass 1: load-delay scheduling within each block.
        for (id, body) in bodies.iter_mut().enumerate() {
            report.load_nops += schedule_load_delays(body, &term_alu_uses(&raw.terms[id]));
        }

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
                    if !fill {
                        slot_fill[id] = vec![Instr::Nop; slots];
                        report.slot_nops += slots;
                        continue;
                    }
                    let (filled, mode, skip) = self.fill_branch_slots(
                        id,
                        taken,
                        fall,
                        p_taken,
                        [rs1, rs2],
                        &mut bodies,
                        &live,
                        &preds,
                        &pinned,
                        &mut report,
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
                    if !fill {
                        slot_fill[id] = vec![Instr::Nop; slots];
                        report.slot_nops += slots;
                        continue;
                    }
                    let protect: Vec<Reg> = match term {
                        Terminator::Call { link, .. } => vec![link],
                        _ => vec![],
                    };
                    // Unconditional transfers fill only by *moving* code
                    // from before the jump — the post-pass reorganizers of
                    // the era did not duplicate target code into jump
                    // slots, and returns/indirect jumps have no static
                    // target anyway. (Branches get destination copies via
                    // the squash machinery below, which is the paper's
                    // explicit mechanism.)
                    let mut filled =
                        hoist_from_before(&mut bodies[id], slots, &protect, &[], pinned[id]);
                    report.filled_from_before += filled.len();
                    // When the target has a single predecessor, its head
                    // may be *moved* (not copied) into the remaining slots.
                    let mut skip = 0;
                    if preds[target] <= 1 && pinned[target] == 0 && target != id {
                        while filled.len() < slots && skip < bodies[target].len() {
                            let candidate = bodies[target][skip];
                            if candidate.is_nop()
                                || (candidate.meta().mem_result && filled.len() == slots - 1)
                                || filled
                                    .last()
                                    .and_then(|p| p.meta().late_def)
                                    .is_some_and(|d| candidate.meta().alu_uses(d))
                            {
                                break;
                            }
                            filled.push(candidate);
                            skip += 1;
                            report.filled_from_target += 1;
                        }
                        bodies[target].drain(..skip);
                        skip = 0; // moved, not copied: no retarget needed
                    }
                    retarget[id] = skip;
                    while filled.len() < slots {
                        filled.push(Instr::Nop);
                        report.slot_nops += 1;
                    }
                    slot_fill[id] = filled;
                }
                Terminator::Return { link } => {
                    report.slots_total += slots;
                    if !fill {
                        slot_fill[id] = vec![Instr::Nop; slots];
                        report.slot_nops += slots;
                        continue;
                    }
                    let mut filled =
                        hoist_from_before(&mut bodies[id], slots, &[link], &[link], pinned[id]);
                    report.filled_from_before += filled.len();
                    while filled.len() < slots {
                        filled.push(Instr::Nop);
                        report.slot_nops += 1;
                    }
                    slot_fill[id] = filled;
                }
            }
        }

        // Pass 2.5: hoisting can orphan a load-delay pad — the consumer
        // moved into a delay slot, leaving its nop between the load and a
        // transfer that never reads the value. Trailing nops whose removal
        // provably creates no hazard are dropped. (The tail never overlaps
        // a prefix copied into a predecessor's squashing slots, which is
        // all `pinned` protects.)
        for id in 0..raw.len() {
            let uses = term_alu_uses(&raw.terms[id]);
            while bodies[id].len() > pinned[id].max(1) {
                let n = bodies[id].len();
                if !bodies[id][n - 1].is_nop() {
                    break;
                }
                let prev = bodies[id][n - 2];
                if prev.meta().late_def.is_some_and(|d| uses.contains(&d)) {
                    break;
                }
                bodies[id].pop();
                report.load_nops = report.load_nops.saturating_sub(1);
            }
        }

        // Pass 3: emission.
        let mut asm = Asm::new(0);
        // Labels: one per (block, instruction offset) that is ever targeted.
        let mut needed: Vec<(BlockId, usize)> = Vec::new();
        for (id, term) in raw.terms.iter().enumerate() {
            match *term {
                Terminator::Jump(t) | Terminator::Call { target: t, .. } => {
                    needed.push((t, retarget[id]))
                }
                Terminator::Branch { taken, .. } => needed.push((taken, retarget[id])),
                _ => {}
            }
        }
        needed.sort_unstable();
        needed.dedup();
        // `labels[k]` marks `needed[k]`; sorted, so each block's labels are
        // one run in offset order, bound by a cursor as the block emits.
        let labels: Vec<mipsx_asm::Label> = needed.iter().map(|_| asm.new_label()).collect();
        let label = |key| labels[needed.binary_search(&key).expect("targets are labelled")];
        let mut next = 0;

        for id in 0..raw.len() {
            for (offset, instr) in bodies[id].iter().enumerate() {
                if needed.get(next) == Some(&(id, offset)) {
                    asm.bind(labels[next])?;
                    next += 1;
                }
                asm.emit(*instr);
            }
            // Labels at or past the end of the body bind just before the
            // terminator.
            while needed.get(next).is_some_and(|&(b, _)| b == id) {
                asm.bind(labels[next])?;
                next += 1;
            }
            match raw.terms[id] {
                Terminator::Halt => asm.emit(Instr::Halt),
                Terminator::Jump(t) => {
                    let key = (t, retarget[id].min(bodies[t].len()));
                    asm.jump(label(key));
                }
                Terminator::Call { target, link, .. } => {
                    let key = (target, retarget[id].min(bodies[target].len()));
                    asm.call(label(key), link);
                }
                Terminator::Return { link } => asm.ret(link),
                Terminator::Branch {
                    cond,
                    rs1,
                    rs2,
                    taken,
                    ..
                } => {
                    let key = (taken, retarget[id].min(bodies[taken].len()));
                    asm.branch(cond, squash_mode[id], rs1, rs2, label(key));
                }
            }
            for s in &slot_fill[id] {
                asm.emit(*s);
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

    /// Fill one branch's delay slots; returns the slot instructions, the
    /// squash mode, and how many target-head instructions to skip.
    #[allow(clippy::too_many_arguments)]
    fn fill_branch_slots(
        &self,
        id: BlockId,
        taken: BlockId,
        fall: BlockId,
        p_taken: f64,
        branch_sources: [Reg; 2],
        bodies: &mut [Vec<Instr>],
        live: &liveness::Liveness,
        preds: &[usize],
        pinned: &[usize],
        report: &mut ScheduleReport,
    ) -> (Vec<Instr>, SquashMode, usize) {
        let slots = self.scheme.slots;
        let predict_taken = p_taken >= 0.5;
        let p_correct = if predict_taken {
            p_taken
        } else {
            1.0 - p_taken
        };

        // Option A: no-squash fill.
        // 1. Hoist from before (simulated on a scratch copy so option B can
        //    still choose differently).
        let mut scratch = bodies[id].clone();
        let mut a_fill = hoist_from_before(
            &mut scratch,
            slots,
            &branch_sources,
            &branch_sources,
            pinned[id],
        );
        let a_before = a_fill.len();
        // 2. Copies from the taken-path head that are provably harmless on
        //    the fall path (dead destination, no side effects).
        let mut a_skip = 0;
        // For a self-loop, head copies may overlap the hoisted tail; only
        // one of the two sources may apply.
        while (taken != id || a_before == 0) && a_fill.len() < slots && a_skip < bodies[taken].len()
        {
            let candidate = bodies[taken][a_skip];
            let safe = !candidate.has_side_effects()
                && !candidate.is_nop()
                && candidate
                    .def()
                    .is_none_or(|d| d.is_zero() || !contains(live.live_in[fall], d))
                && (!candidate.meta().mem_result || a_fill.len() != slots - 1)
                && a_fill
                    .last()
                    .and_then(|p| p.meta().late_def)
                    .is_none_or(|d| !candidate.meta().alu_uses(d));
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
            while a_fill.len() < slots && a_fall_moved < bodies[fall].len() {
                let candidate = bodies[fall][a_fall_moved];
                let safe = !candidate.has_side_effects()
                    && !candidate.is_nop()
                    && !candidate.meta().mem_result
                    && candidate
                        .def()
                        .is_none_or(|d| d.is_zero() || !contains(live.live_in[taken], d));
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
        let (b_fill, b_mode, b_skip, b_cost) = if predict_taken {
            let mut fill: Vec<Instr> = Vec::new();
            let mut skip = 0;
            while fill.len() < slots && skip < bodies[taken].len() {
                let candidate = bodies[taken][skip];
                // Squashed slots are annulled via the destination-register
                // kill line, so only instructions the kill line can reach
                // (plain register writes) may ride in them.
                if candidate.is_nop()
                    || !mipsx_verify::squash_safe(&candidate)
                    || fill
                        .last()
                        .and_then(|p| p.meta().late_def)
                        .is_some_and(|d| candidate.meta().alu_uses(d))
                {
                    break;
                }
                fill.push(candidate);
                skip += 1;
            }
            let filled = fill.len();
            let cost = filled as f64 * (1.0 - p_correct) + (slots - filled) as f64;
            (fill, SquashMode::SquashIfNotTaken, skip, cost)
        } else if !predict_taken && preds[fall] <= 1 && pinned[fall] == 0 {
            // Predict not-taken: move the sequential head into the slots
            // (squash-if-go kills them when the branch does take).
            let mut fill = Vec::new();
            let mut moved = 0;
            while fill.len() < slots && moved < bodies[fall].len() {
                let candidate = bodies[fall][moved];
                if candidate.is_nop()
                    || !mipsx_verify::squash_safe(&candidate)
                    || (candidate.meta().mem_result && fill.len() == slots - 1)
                {
                    break;
                }
                fill.push(candidate);
                moved += 1;
            }
            let filled = fill.len();
            let cost = filled as f64 * (1.0 - p_correct) + (slots - filled) as f64;
            // Encode the move count in skip-space: we reuse `moved` by
            // draining the fall head below.
            (fill, SquashMode::SquashIfGo, moved, cost)
        } else {
            (Vec::new(), SquashMode::NoSquash, 0, f64::INFINITY)
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
                    bodies[fall].drain(..b_skip);
                    report.filled_from_target += fill.len();
                }
                SquashMode::NoSquash => {}
            }
            while fill.len() < slots {
                fill.push(Instr::Nop);
                report.slot_nops += 1;
            }
            let skip = if b_mode == SquashMode::SquashIfNotTaken {
                b_skip
            } else {
                0
            };
            (fill, b_mode, skip)
        } else {
            // Commit option A: redo the hoist on the real body.
            let mut fill = hoist_from_before(
                &mut bodies[id],
                slots,
                &branch_sources,
                &branch_sources,
                pinned[id],
            );
            debug_assert_eq!(fill.len(), a_before);
            report.filled_from_before += a_before;
            fill.extend_from_slice(&bodies[taken][..a_safe]);
            report.filled_safe += a_safe;
            if a_fall_moved > 0 {
                fill.extend(bodies[fall].drain(..a_fall_moved));
                report.filled_safe += a_fall_moved;
            }
            while fill.len() < slots {
                fill.push(Instr::Nop);
                report.slot_nops += 1;
            }
            (fill, SquashMode::NoSquash, a_skip)
        }
    }
}

/// The ALU-resolved registers a terminator reads (for the load-delay pass:
/// a load feeding a branch one instruction later is a violation).
fn term_alu_uses(term: &Terminator) -> Vec<Reg> {
    match *term {
        Terminator::Branch { rs1, rs2, .. } => vec![rs1, rs2],
        Terminator::Return { link } => vec![link],
        _ => vec![],
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

/// Insert independent instructions or `nop`s so that no load is followed
/// immediately by an ALU consumer of its value. Returns inserted nop count.
fn schedule_load_delays(body: &mut Vec<Instr>, term_uses: &[Reg]) -> usize {
    let mut nops = 0;
    let mut i = 0;
    while i < body.len() {
        let instr = body[i];
        let Some(def) = instr.meta().late_def else {
            i += 1;
            continue;
        };
        let consumer_uses_def = if i + 1 < body.len() {
            body[i + 1].meta().alu_uses(def)
        } else {
            term_uses.contains(&def)
        };
        if !consumer_uses_def {
            i += 1;
            continue;
        }
        // Try to pull an independent instruction from later in the block
        // into the delay slot.
        let mut filled = false;
        for j in i + 2..body.len() {
            let candidate = body[j];
            // The candidate must commute with everything it jumps over.
            let independent = (i + 1..j)
                .all(|k| !conflicts(&body[k], &candidate) && !conflicts(&candidate, &body[k]))
                && !conflicts(&instr, &candidate)
                && !candidate.meta().alu_uses(def);
            // Pulling a load forward may create a fresh hazard with its own
            // next instruction; keep it simple and skip loads.
            if independent && !candidate.meta().mem_result {
                body.remove(j);
                body.insert(i + 1, candidate);
                filled = true;
                break;
            }
        }
        if !filled {
            body.insert(i + 1, Instr::Nop);
            nops += 1;
        }
        i += 1;
    }
    nops
}

/// Hoist up to `max` instructions from the block tail into delay slots.
/// Hoisted instructions must not define any register in `protect` (the
/// transfer's sources) and must not leave a load feeding a `hazard_check`
/// register at distance one. Loads never land in the final slot.
fn hoist_from_before(
    body: &mut Vec<Instr>,
    max: usize,
    protect: &[Reg],
    hazard_check: &[Reg],
    min_len: usize,
) -> Vec<Instr> {
    let mut hoisted: Vec<Instr> = Vec::new();
    while hoisted.len() < max && body.len() > min_len {
        let Some(&candidate) = body.last() else {
            break;
        };
        if candidate.is_nop() {
            // A scheduling nop guards a load delay; moving it changes
            // distances. Leave it.
            break;
        }
        // Must not produce a value the transfer itself reads.
        if candidate
            .def()
            .is_some_and(|d| !d.is_zero() && protect.contains(&d))
        {
            break;
        }
        // A hoisted load would land one instruction from the transfer
        // target's head; the final slot is forbidden to loads.
        if candidate.meta().mem_result && hoisted.is_empty() {
            break;
        }
        // After removal the new tail must not be a load feeding the
        // transfer's compare at distance one.
        let new_tail = body.len().checked_sub(2).map(|k| body[k]);
        if let Some(t) = new_tail {
            if t.meta().late_def.is_some_and(|d| hazard_check.contains(&d)) {
                break;
            }
        }
        body.pop();
        hoisted.insert(0, candidate); // preserve program order in the slots
    }
    hoisted
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

    #[test]
    fn load_delay_gets_a_nop() {
        let mut body = vec![ld(1, 2, 0), add(3, 1, 1)];
        let nops = schedule_load_delays(&mut body, &[]);
        assert_eq!(nops, 1);
        assert_eq!(body[1], Instr::Nop);
    }

    #[test]
    fn load_delay_filled_by_independent_instruction() {
        let mut body = vec![ld(1, 2, 0), add(3, 1, 1), add(4, 5, 6)];
        let nops = schedule_load_delays(&mut body, &[]);
        assert_eq!(nops, 0);
        assert_eq!(body[1], add(4, 5, 6));
        assert_eq!(body[2], add(3, 1, 1));
    }

    #[test]
    fn load_feeding_branch_gets_a_nop() {
        let mut body = vec![ld(1, 2, 0)];
        let nops = schedule_load_delays(&mut body, &[Reg::new(1)]);
        assert_eq!(nops, 1);
        assert_eq!(body.last(), Some(&Instr::Nop));
    }

    #[test]
    fn independent_load_pair_is_untouched() {
        let mut body = vec![ld(1, 2, 0), ld(3, 2, 1), add(4, 1, 3)];
        let nops = schedule_load_delays(&mut body, &[]);
        // ld r3 doesn't use r1; add is after ld r3 and uses r3 -> needs a
        // nop for the second hazard only.
        assert_eq!(nops, 1);
    }

    #[test]
    fn hoist_takes_tail_in_order() {
        let mut body = vec![add(1, 2, 3), add(4, 5, 6), add(7, 8, 9)];
        let hoisted = hoist_from_before(&mut body, 2, &[], &[], 0);
        assert_eq!(hoisted, vec![add(4, 5, 6), add(7, 8, 9)]);
        assert_eq!(body, vec![add(1, 2, 3)]);
    }

    #[test]
    fn hoist_respects_protected_registers() {
        let mut body = vec![add(1, 2, 3), add(4, 5, 6)];
        let hoisted = hoist_from_before(&mut body, 2, &[Reg::new(4)], &[], 0);
        assert!(hoisted.is_empty(), "tail defines a branch source");
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn hoist_never_puts_load_in_final_slot() {
        let mut body = vec![add(1, 2, 3), ld(4, 5, 0)];
        let hoisted = hoist_from_before(&mut body, 2, &[], &[], 0);
        assert!(hoisted.is_empty());
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

//! Scheduling-*quality* lints (`mipsx lint --timing`).
//!
//! The verifier proper ([`crate::verify`]) proves a schedule is *legal*;
//! these four rules judge whether it is *good*. Every finding is a
//! [`Severity::Warning`]: the code runs correctly, it just wastes issue
//! slots the reorganizer could provably have used. Each rule is
//! deliberately conservative — it fires only when the analyzer can exhibit
//! a concrete, dependence-respecting improvement, so a finding is always
//! actionable:
//!
//! - **missed-slot-fill** — a non-squashing delay window holds a nop while
//!   the instruction immediately before the transfer could legally move
//!   into the slot.
//! - **redundant-nop** — a nop outside every delay window that separates
//!   no load from its consumer and pads no coprocessor read-back:
//!   deleting it is free.
//! - **avoidable-load-stall** — a *needed* load-delay pad nop for which an
//!   independent instruction exists later in the same block: the wasted
//!   cycle could do real work.
//! - **cross-block-hazard-at-join** — a join head ALU-consumes a register
//!   loaded at issue distance exactly 2 along one incoming edge: legal,
//!   but with zero slack, and other edges into the join have different
//!   distances — the first cross-block scheduling change breaks it.
//!
//! [`Severity::Warning`]: crate::Severity::Warning

use crate::summary::{BlockExit, BlockSummary};
use crate::timing::TimingAnalysis;
use crate::{DiagKind, Diagnostic, LintReport, VerifyConfig};
use mipsx_asm::{DecodedEntry, Program};
use mipsx_isa::SquashMode;

/// Run only the four scheduling-quality lints.
pub fn quality(program: &Program, config: &VerifyConfig) -> LintReport {
    LintReport::from_raw(quality_diags(&TimingAnalysis::of(program, config)))
}

/// The full `--timing` report: the hazard verifier's diagnostics plus the
/// scheduling-quality findings, merged into one deterministically-sorted
/// listing. Both read one analysis of the program.
pub fn verify_with_timing(program: &Program, config: &VerifyConfig) -> LintReport {
    let ta = TimingAnalysis::of(program, config);
    let mut diags = ta.analysis.diagnostics();
    diags.extend(quality_diags(&ta));
    LintReport::from_raw(diags)
}

/// All quality findings over an existing timing analysis.
fn quality_diags(ta: &TimingAnalysis) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for b in &ta.blocks {
        if b.irregular {
            continue;
        }
        let entries = ta.analysis.run(b.start, b.len);
        missed_slot_fill(b, entries, &mut diags);
        redundant_and_avoidable(b, entries, &mut diags);
    }
    cross_block_hazards(ta, &mut diags);
    diags
}

/// Can `p` move from just before the transfer `t` into `t`'s delay window,
/// preserving semantics? Conservative: `p` must be a plain register-write
/// instruction independent of `t`'s sources and destination, with no late
/// (memory-stage) result, and removing it from its old position must not
/// create a load-delay pair between its old neighbour and `t`.
fn movable_into_slot(p: &DecodedEntry, before_p: Option<&DecodedEntry>, t: &DecodedEntry) -> bool {
    let m = &p.meta;
    !m.is_nop
        && !m.is_control
        && m.squash_safe // plain register write: no store/coproc/special
        && !m.is_load
        && m.late_def.is_none()
        && m.def_mask & t.meta.use_mask == 0 // t reads its sources at resolve, before the slot
        && m.def_mask & t.meta.def_mask == 0 // don't re-order against a link write
        && m.use_mask & t.meta.def_mask == 0
        && before_p.is_none_or(|q| !q.meta.late_def.is_some_and(|d| t.meta.alu_uses(d)))
}

/// Rule 1: a nop in a window that always executes, with a provably
/// movable instruction sitting right before the transfer.
fn missed_slot_fill(b: &BlockSummary, entries: &[DecodedEntry], diags: &mut Vec<Diagnostic>) {
    let always_executes = match b.exit {
        BlockExit::Branch { squash, .. } => squash == SquashMode::NoSquash,
        BlockExit::Jump { .. } => true,
        _ => false,
    };
    if !always_executes || b.slots == 0 {
        return;
    }
    let term = (b.len - b.slots - 1) as usize;
    // Only the first slot: moving the predecessor exactly one position
    // across the transfer is the case we can prove safe without reasoning
    // about the other slot's contents.
    let slot = term + 1;
    if !entries[slot].meta.is_nop || term == 0 {
        return;
    }
    let p = &entries[term - 1];
    let before_p = term.checked_sub(2).map(|i| &entries[i]);
    if movable_into_slot(p, before_p, &entries[term]) {
        let addr = b.start + slot as u32;
        diags.push(Diagnostic {
            kind: DiagKind::MissedSlotFill,
            addr,
            instr: entries[slot].instr,
            detail: format!(
                "delay slot wasted: the `{}` at {:#07x} could legally fill it",
                p.instr,
                b.start + (term - 1) as u32
            ),
        });
    }
}

/// Rules 2 and 3, which share the body-nop scan: a nop outside every
/// window either pads a real hazard (then rule 3 asks whether an
/// independent instruction could replace it) or pads nothing (rule 2).
fn redundant_and_avoidable(
    b: &BlockSummary,
    entries: &[DecodedEntry],
    diags: &mut Vec<Diagnostic>,
) {
    let body_len = (b.len - b.slots) as usize;
    for p in 1..body_len {
        if !entries[p].meta.is_nop || p + 1 >= entries.len() {
            continue;
        }
        let prev = &entries[p - 1];
        let next = &entries[p + 1];
        let load_pad = prev.meta.late_def.is_some_and(|d| next.meta.alu_uses(d));
        let coproc_pad = match (prev.instr, next.instr) {
            (mipsx_isa::Instr::Cpop { cop, .. }, mipsx_isa::Instr::Mvfc { cop: c2, .. }) => {
                cop == c2
            }
            _ => false,
        };
        let addr = b.start + p as u32;
        if !load_pad && !coproc_pad {
            diags.push(Diagnostic {
                kind: DiagKind::RedundantNop,
                addr,
                instr: entries[p].instr,
                detail: format!(
                    "separates no hazard (`{}` -> `{}`): deleting it is free",
                    prev.instr, next.instr
                ),
            });
            continue;
        }
        if !load_pad {
            continue;
        }
        // Rule 3: is there an independent instruction later in the body
        // that could occupy this pad slot instead of a nop?
        let d = prev.meta.late_def.expect("load_pad implies late_def");
        for j in p + 2..body_len {
            let c = &entries[j];
            let cm = &c.meta;
            let plain = !cm.is_nop
                && !cm.is_control
                && cm.squash_safe
                && !cm.is_load
                && cm.late_def.is_none()
                && matches!(cm.md_role, mipsx_isa::MdRole::None)
                && !cm.alu_uses(d);
            if !plain {
                continue;
            }
            // Must commute with everything it would move ahead of.
            let commutes = (p + 1..j).all(|k| {
                let i = &entries[k].meta;
                cm.use_mask & i.def_mask == 0
                    && cm.def_mask & i.use_mask == 0
                    && cm.def_mask & i.def_mask == 0
            });
            if commutes {
                diags.push(Diagnostic {
                    kind: DiagKind::AvoidableLoadStall,
                    addr,
                    instr: entries[p].instr,
                    detail: format!(
                        "load-delay pad for `{d}` could do real work: the independent `{}` at \
                         {:#07x} fits here",
                        c.instr,
                        b.start + j as u32
                    ),
                });
                break;
            }
        }
    }
}

/// Rule 4: at every join (≥ 2 CFG predecessors), look two issue slots back
/// along each incoming edge; a surviving load-class producer there whose
/// value the join head ALU-consumes has exactly zero scheduling slack.
fn cross_block_hazards(ta: &TimingAnalysis, diags: &mut Vec<Diagnostic>) {
    let preds = ta.predecessors();
    for (j, b) in ta.blocks.iter().enumerate() {
        if b.irregular || preds[j].len() < 2 {
            continue;
        }
        let head = ta.analysis.at(b.start);
        if head.meta.alu_use_mask == 0 {
            continue;
        }
        for &p in &preds[j] {
            let pb = &ta.blocks[p];
            if pb.irregular || pb.len < 2 {
                continue;
            }
            // The last two issue slots along the edge into `j`. Squashed
            // slots still issue but produce nothing, so an edge whose
            // window is annulled cannot deliver a producer from there.
            let survives = match pb.exit {
                BlockExit::Branch {
                    squash,
                    target,
                    fall,
                } => {
                    let via_taken = target == b.start;
                    let via_fall = fall == b.start;
                    // Either edge reaches this join; producers survive on
                    // an edge iff the window executes on that outcome.
                    (via_taken && squash.slots_execute(true))
                        || (via_fall && squash.slots_execute(false))
                }
                _ => true,
            };
            if !survives {
                continue;
            }
            let a1 = ta.analysis.at(pb.start + pb.len - 1);
            let a2 = ta.analysis.at(pb.start + pb.len - 2);
            let Some(d) = a2.meta.late_def else {
                continue;
            };
            if head.meta.alu_uses(d) && !a1.meta.defines(d) {
                diags.push(Diagnostic {
                    kind: DiagKind::CrossBlockHazardAtJoin,
                    addr: b.start,
                    instr: head.instr,
                    detail: format!(
                        "join head consumes `{d}` loaded at distance 2 on the edge from \
                         {:#07x}: zero slack, any insertion there breaks the schedule",
                        pb.start
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiagKind;
    use mipsx_asm::assemble;

    fn findings(src: &str) -> Vec<(DiagKind, u32)> {
        let report = quality(&assemble(src).unwrap(), &VerifyConfig::default());
        report
            .diagnostics
            .iter()
            .map(|d| (d.kind, d.addr))
            .collect()
    }

    #[test]
    fn missed_slot_fill_positive() {
        // The `add` before the branch is independent of the branch sources
        // and could legally occupy the first (nop) delay slot.
        let f = findings(
            "add r5, r6, r6\n\
             beq r1, r2, t\n\
             nop\n\
             nop\n\
             t: halt",
        );
        assert_eq!(f, vec![(DiagKind::MissedSlotFill, 2)]);
    }

    #[test]
    fn missed_slot_fill_negative_producer_feeds_branch() {
        // Moving the `add` past the branch would change the compared value.
        let f = findings(
            "add r1, r6, r6\n\
             beq r1, r2, t\n\
             nop\n\
             nop\n\
             t: halt",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missed_slot_fill_negative_squashing_window() {
        // A squashing window may be annulled; the rule only fires on
        // windows that always execute.
        let f = findings(
            "add r5, r6, r6\n\
             beqsq r1, r2, t\n\
             nop\n\
             nop\n\
             t: halt",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn redundant_nop_positive() {
        let f = findings(
            "add r3, r4, r4\n\
             nop\n\
             add r5, r6, r6\n\
             halt",
        );
        assert_eq!(f, vec![(DiagKind::RedundantNop, 1)]);
    }

    #[test]
    fn redundant_nop_negative_load_pad() {
        // The nop separates a load from its ALU consumer: required, and
        // with nothing independent to hoist, not avoidable either.
        let f = findings(
            "ld r1, 0(r2)\n\
             nop\n\
             add r3, r1, r1\n\
             halt",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn avoidable_load_stall_positive() {
        // `add r5, r6, r6` is independent of both the load and everything
        // it would move ahead of — it could fill the pad slot.
        let f = findings(
            "ld r1, 0(r2)\n\
             nop\n\
             add r3, r1, r1\n\
             add r5, r6, r6\n\
             halt",
        );
        assert_eq!(f, vec![(DiagKind::AvoidableLoadStall, 1)]);
    }

    #[test]
    fn avoidable_load_stall_negative_dependent_candidate() {
        // The only later instruction reads the consumer's result; moving
        // it ahead would read a stale value.
        let f = findings(
            "ld r1, 0(r2)\n\
             nop\n\
             add r3, r1, r1\n\
             add r4, r3, r3\n\
             halt",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cross_block_hazard_positive() {
        // The join head consumes `r1`, loaded two issue slots back along
        // the fall-through edge — zero slack.
        let f = findings(
            "beq r9, r0, t\n\
             nop\n\
             nop\n\
             ld r1, 0(r2)\n\
             nop\n\
             t: add r3, r1, r1\n\
             halt",
        );
        assert_eq!(f, vec![(DiagKind::CrossBlockHazardAtJoin, 5)]);
    }

    #[test]
    fn cross_block_hazard_negative_with_slack() {
        // One more nop gives the load distance 3: slack exists, so the
        // join rule stays quiet (the extra pad nop is its own finding).
        let f = findings(
            "beq r9, r0, t\n\
             nop\n\
             nop\n\
             ld r1, 0(r2)\n\
             nop\n\
             nop\n\
             t: add r3, r1, r1\n\
             halt",
        );
        assert!(
            !f.iter()
                .any(|(k, _)| *k == DiagKind::CrossBlockHazardAtJoin),
            "{f:?}"
        );
    }
}

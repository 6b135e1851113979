//! Register liveness over the basic-block graph.
//!
//! The no-squash slot filler needs to know whether an instruction hoisted
//! from one arm of a branch is harmless on the other arm — i.e. whether its
//! destination register is **dead** there. With 32 registers a live set is
//! a single `u32` mask, and the classic backward fixed point converges in a
//! few sweeps.
//!
//! Each block's backward transfer is folded once, before the fixed point,
//! into a `(kill, gen)` mask pair (`live_in = gen | (live_out & !kill)`),
//! so a sweep costs one mask operation per block rather than one
//! [`InstrMeta`] derivation per instruction.

use mipsx_isa::{Instr, InstrMeta, Reg};

use crate::{RawProgram, Terminator};

/// Bitmask of live registers (`bit i` ⇔ `r<i>` live). `r0` is never
/// considered live — it is constant.
pub type RegSet = u32;

/// Set membership test.
#[inline]
pub fn contains(set: RegSet, reg: Reg) -> bool {
    !reg.is_zero() && set & (1 << reg.index()) != 0
}

/// Per-block liveness solution.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: Vec<RegSet>,
    /// Registers live on exit from each block.
    pub live_out: Vec<RegSet>,
}

/// Transfer one instruction backward through a live set: kill the def,
/// then gen the uses, straight off the instruction's canonical
/// [`InstrMeta`] masks (which already exclude `r0`).
pub fn step_backward(live: &mut RegSet, instr: &Instr) {
    let m = InstrMeta::of(*instr);
    *live &= !m.def_mask;
    *live |= m.use_mask;
}

/// One block's backward transfer as `(kill, gen)`, from its terminator and
/// the `(def_mask, use_mask)` of each body instruction in program order:
/// walking back from the terminator, every def joins `kill` and leaves
/// `gen`, every use joins `gen` — the composition of [`step_backward`]
/// over the block.
pub(crate) fn block_transfer(
    term: &Terminator,
    body: impl DoubleEndedIterator<Item = (RegSet, RegSet)>,
) -> (RegSet, RegSet) {
    let mut kill = term.def().map_or(0, Reg::mask_bit);
    let mut gen = term.uses().fold(0, |m, r| m | r.mask_bit());
    for (def, uses) in body.rev() {
        gen = (gen & !def) | uses;
        kill |= def;
    }
    (kill, gen)
}

/// Compute liveness for a whole program.
///
/// Calls are treated conservatively: a `Call` makes **all** registers live
/// (the callee may read anything), and `Return`/`Halt` leave all registers
/// live at exit (the caller's continuation is not tracked
/// interprocedurally). This errs toward filling fewer cross-path slots,
/// never toward breaking a program.
pub fn analyze(program: &RawProgram) -> Liveness {
    let transfer: Vec<(RegSet, RegSet)> = program
        .blocks
        .iter()
        .zip(&program.terms)
        .map(|(block, term)| {
            block_transfer(
                term,
                block.instrs.iter().map(|&i| {
                    let m = InstrMeta::of(i);
                    (m.def_mask, m.use_mask)
                }),
            )
        })
        .collect();
    solve(&program.terms, &transfer)
}

/// The backward fixed point over the block graph, given each block's
/// [`block_transfer`].
pub(crate) fn solve(terms: &[Terminator], transfer: &[(RegSet, RegSet)]) -> Liveness {
    let n = terms.len();
    let mut live_in = vec![0u32; n];
    let mut live_out = vec![0u32; n];
    // All-live at the boundary terminators (conservative).
    const ALL: RegSet = !1; // every register except r0

    let mut changed = true;
    while changed {
        changed = false;
        for id in (0..n).rev() {
            let term = &terms[id];
            let out = match term {
                Terminator::Halt | Terminator::Return { .. } | Terminator::Call { .. } => ALL,
                _ => term.successors().fold(0, |acc, s| acc | live_in[s]),
            };
            let (kill, gen) = transfer[id];
            let inn = gen | (out & !kill);
            if out != live_out[id] || inn != live_in[id] {
                live_out[id] = out;
                live_in[id] = inn;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
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

    #[test]
    fn straight_line_liveness() {
        // Block 0: r3 = r1 + r2, branch on r3; block 1 halts.
        let p = RawProgram::new(
            vec![RawBlock::new(vec![add(3, 1, 2)]), RawBlock::default()],
            vec![
                Terminator::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::new(3),
                    rs2: Reg::ZERO,
                    taken: 1,
                    fall: 1,
                    p_taken: 0.5,
                },
                Terminator::Halt,
            ],
        );
        let l = analyze(&p);
        assert!(contains(l.live_in[0], Reg::new(1)));
        assert!(contains(l.live_in[0], Reg::new(2)));
        // r3 is defined before use — not live-in.
        assert!(!contains(l.live_in[0], Reg::new(3)));
    }

    #[test]
    fn r0_is_never_live() {
        assert_eq!(Reg::ZERO.mask_bit(), 0);
        assert!(!contains(u32::MAX, Reg::ZERO));
    }

    #[test]
    fn loop_reaches_fixed_point() {
        // Block 0 -> branch back to 0 or fall to 1; r5 used in the loop
        // body, defined nowhere: live-in everywhere.
        let p = RawProgram::new(
            vec![RawBlock::new(vec![add(6, 5, 6)]), RawBlock::default()],
            vec![
                Terminator::Branch {
                    cond: Cond::Ne,
                    rs1: Reg::new(6),
                    rs2: Reg::ZERO,
                    taken: 0,
                    fall: 1,
                    p_taken: 0.9,
                },
                Terminator::Halt,
            ],
        );
        let l = analyze(&p);
        assert!(contains(l.live_in[0], Reg::new(5)));
        assert!(contains(l.live_in[0], Reg::new(6)));
    }

    /// `step_backward` over every instruction class the workload and
    /// fuzzer generators can emit: the verifier and the slot filler both
    /// lean on these def/use sets, so each class gets an explicit check.
    #[test]
    fn def_use_sets_per_instruction_class() {
        use mipsx_isa::SpecialReg;
        let r = Reg::new;
        // (instr, expected def, expected uses)
        let cases: Vec<(Instr, Option<Reg>, Vec<Reg>)> = vec![
            (
                Instr::Ld {
                    rs1: r(2),
                    rd: r(1),
                    offset: 4,
                },
                Some(r(1)),
                vec![r(2)],
            ),
            (
                Instr::St {
                    rs1: r(2),
                    rsrc: r(3),
                    offset: -1,
                },
                None,
                vec![r(2), r(3)],
            ),
            (
                Instr::Addi {
                    rs1: r(4),
                    rd: r(5),
                    imm: 7,
                },
                Some(r(5)),
                vec![r(4)],
            ),
            (add(6, 7, 8), Some(r(6)), vec![r(7), r(8)]),
            (
                // Shifts read only rs1; rs2 is ignored by the funnel setup.
                Instr::Compute {
                    op: ComputeOp::Sll,
                    rs1: r(9),
                    rs2: r(10),
                    rd: r(11),
                    shamt: 3,
                },
                Some(r(11)),
                vec![r(9)],
            ),
            (
                Instr::Jspci {
                    rs1: r(31),
                    rd: r(12),
                    imm: 0,
                },
                Some(r(12)),
                vec![r(31)],
            ),
            (
                Instr::Mvtc {
                    rs: r(13),
                    cop: 1,
                    op: 2,
                },
                None,
                vec![r(13)],
            ),
            (
                Instr::Mvfc {
                    rd: r(14),
                    cop: 1,
                    op: 2,
                },
                Some(r(14)),
                vec![],
            ),
            (
                Instr::Ldf {
                    rs1: r(15),
                    fr: 0,
                    offset: 0,
                },
                None,
                vec![r(15)],
            ),
            (
                Instr::Stf {
                    rs1: r(16),
                    fr: 0,
                    offset: 0,
                },
                None,
                vec![r(16)],
            ),
            (
                Instr::Cpop {
                    rs1: r(17),
                    cop: 2,
                    op: 9,
                },
                None,
                vec![r(17)],
            ),
            (
                Instr::Movtos {
                    sreg: SpecialReg::Md,
                    rs: r(18),
                },
                None,
                vec![r(18)],
            ),
            (
                Instr::Movfrs {
                    rd: r(19),
                    sreg: SpecialReg::Md,
                },
                Some(r(19)),
                vec![],
            ),
            (Instr::Nop, None, vec![]),
        ];
        for (instr, def, uses) in cases {
            assert_eq!(instr.def(), def, "{instr}: wrong def");
            let got: Vec<Reg> = instr.uses().collect();
            assert_eq!(got, uses, "{instr}: wrong uses");
            // And the backward transfer agrees: defs leave the set, uses
            // enter it.
            let mut live: RegSet = def.map_or(0, |d| 1 << d.index());
            step_backward(&mut live, &instr);
            if let Some(d) = def {
                if !uses.contains(&d) {
                    assert!(!contains(live, d), "{instr}: def must be killed");
                }
            }
            for u in uses {
                assert!(contains(live, u), "{instr}: use must be live");
            }
        }
    }

    /// Compare-and-branch and call/return terminators feed the same
    /// analysis through `Terminator::{def, uses}`.
    #[test]
    fn def_use_sets_of_terminators() {
        let r = Reg::new;
        let branch = Terminator::Branch {
            cond: Cond::Lt,
            rs1: r(1),
            rs2: r(2),
            taken: 0,
            fall: 1,
            p_taken: 0.5,
        };
        assert_eq!(branch.def(), None);
        assert_eq!(branch.uses().collect::<Vec<_>>(), vec![r(1), r(2)]);
        let call = Terminator::Call {
            target: 0,
            link: Reg::LINK,
            ret_to: 1,
        };
        assert_eq!(call.def(), Some(Reg::LINK));
        assert_eq!(call.uses().count(), 0);
        let ret = Terminator::Return { link: Reg::LINK };
        assert_eq!(ret.def(), None);
        assert_eq!(ret.uses().collect::<Vec<_>>(), vec![Reg::LINK]);
        assert_eq!(Terminator::Halt.def(), None);
        assert_eq!(Terminator::Halt.uses().count(), 0);
    }

    #[test]
    fn step_backward_kill_then_gen() {
        // r1 = r1 + r2: def and use of r1 — still live (used before def).
        let mut live: RegSet = 0;
        step_backward(&mut live, &add(1, 1, 2));
        assert!(contains(live, Reg::new(1)));
        assert!(contains(live, Reg::new(2)));
        // r3 = r4 + r4, backward through {r3}: r3 dies, r4 born.
        let mut live: RegSet = 1 << 3;
        step_backward(&mut live, &add(3, 4, 4));
        assert!(!contains(live, Reg::new(3)));
        assert!(contains(live, Reg::new(4)));
    }
}

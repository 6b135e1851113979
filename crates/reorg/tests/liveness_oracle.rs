//! The block-mask liveness solver against the per-instruction fixed point
//! it replaced.
//!
//! `liveness::analyze` folds each block into one `(kill, gen)` mask pair
//! before iterating. The oracle below is the earlier solver, in which
//! every sweep pushes each instruction through [`step_backward`]. On random programs with every terminator kind —
//! halts, jumps, branches, calls and returns, including self-loops and
//! `r0` operands — both must agree on every block's live-in and live-out
//! sets. The proptest shim has no shrinking, so a failure prints its seed.

use mipsx_isa::{ComputeOp, Cond, Instr, Reg, SpecialReg};
use mipsx_reorg::liveness::{self, step_backward, Liveness, RegSet};
use mipsx_reorg::{RawBlock, RawProgram, Terminator};
use proptest::strategy::TestRng;

/// The per-instruction backward fixed point: terminator first, then the
/// body one instruction at a time, on every sweep.
fn oracle(program: &RawProgram) -> Liveness {
    const ALL: RegSet = !1;
    let n = program.len();
    let mut live_in = vec![0u32; n];
    let mut live_out = vec![0u32; n];
    let mut changed = true;
    while changed {
        changed = false;
        for id in (0..n).rev() {
            let term = &program.terms[id];
            let mut out = match term {
                Terminator::Halt | Terminator::Return { .. } | Terminator::Call { .. } => ALL,
                _ => term.successors().fold(0, |acc, s| acc | live_in[s]),
            };
            if out != live_out[id] {
                live_out[id] = out;
                changed = true;
            }
            if let Some(d) = term.def() {
                out &= !(1 << d.index());
            }
            for u in term.uses() {
                if !u.is_zero() {
                    out |= 1 << u.index();
                }
            }
            for instr in program.blocks[id].instrs.iter().rev() {
                step_backward(&mut out, instr);
            }
            if out != live_in[id] {
                live_in[id] = out;
                changed = true;
            }
        }
    }
    Liveness { live_in, live_out }
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A register from a small pool (so defs and uses collide), `r0` and the
/// link register included.
fn reg(rng: &mut TestRng) -> Reg {
    match below(rng, 10) {
        8 => Reg::ZERO,
        9 => Reg::LINK,
        i => Reg::new(1 + i as u8),
    }
}

/// Any straight-line instruction a block body may hold.
fn body_instr(rng: &mut TestRng) -> Instr {
    let (rs1, rs2, rd) = (reg(rng), reg(rng), reg(rng));
    match below(rng, 12) {
        0..=2 => Instr::Compute {
            op: ComputeOp::ALL[below(rng, ComputeOp::ALL.len() as u64) as usize],
            rs1,
            rs2,
            rd,
            shamt: below(rng, 32) as u8,
        },
        3 => Instr::Addi { rs1, rd, imm: 1 },
        4 => Instr::Ld { rs1, rd, offset: 0 },
        5 => Instr::St {
            rs1,
            rsrc: rs2,
            offset: 0,
        },
        6 => Instr::Mvtc {
            rs: rs1,
            cop: 1,
            op: 0,
        },
        7 => Instr::Mvfc { rd, cop: 1, op: 0 },
        8 => Instr::Movtos {
            sreg: SpecialReg::Md,
            rs: rs1,
        },
        9 => Instr::Movfrs {
            rd,
            sreg: SpecialReg::Md,
        },
        10 => Instr::Cpop { rs1, cop: 1, op: 0 },
        _ => Instr::Nop,
    }
}

/// A random valid program: `fall` and `ret_to` edges lead to the next
/// block, so the last block ends in a halt, jump or return.
fn program(rng: &mut TestRng) -> RawProgram {
    let n = 1 + below(rng, 12) as usize;
    let mut blocks = Vec::new();
    let mut terms = Vec::new();
    for id in 0..n {
        let len = below(rng, 7) as usize;
        blocks.push(RawBlock::new((0..len).map(|_| body_instr(rng)).collect()));
        let target = below(rng, n as u64) as usize;
        let has_next = id + 1 < n;
        terms.push(match below(rng, 5) {
            0 if has_next => Terminator::Branch {
                cond: Cond::ALL[below(rng, 8) as usize],
                rs1: reg(rng),
                rs2: reg(rng),
                taken: target,
                fall: id + 1,
                p_taken: 0.5,
            },
            1 if has_next => Terminator::Call {
                target,
                link: reg(rng),
                ret_to: id + 1,
            },
            2 => Terminator::Return { link: reg(rng) },
            3 => Terminator::Jump(target),
            _ => Terminator::Halt,
        });
    }
    RawProgram::new(blocks, terms)
}

#[test]
fn block_mask_liveness_matches_the_per_instruction_fixed_point() {
    let mut kinds = [0usize; 5];
    for seed in 0..3000u64 {
        let mut rng = TestRng::seed_from_u64(seed);
        let p = program(&mut rng);
        for t in &p.terms {
            kinds[match t {
                Terminator::Halt => 0,
                Terminator::Jump(_) => 1,
                Terminator::Branch { .. } => 2,
                Terminator::Call { .. } => 3,
                Terminator::Return { .. } => 4,
            }] += 1;
        }
        let (got, want) = (liveness::analyze(&p), oracle(&p));
        assert_eq!(
            got.live_in, want.live_in,
            "seed {seed}: live-in differs\n{p:?}"
        );
        assert_eq!(
            got.live_out, want.live_out,
            "seed {seed}: live-out differs\n{p:?}"
        );
    }
    assert!(
        kinds.iter().all(|&k| k > 100),
        "every terminator kind is exercised: {kinds:?}"
    );
}

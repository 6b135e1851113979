//! Property test: every program the reorganizer emits — under all six
//! Table 1 branch schemes, with and without slot filling — passes the
//! static hazard verifier with zero errors.
//!
//! This is the reorganizer's output contract stated directly: the
//! scheduler may only ever trade performance, never legality. The random
//! programs mirror the equivalence suite's generator (forward-branching
//! CFGs over loads, stores and ALU ops) and add multiply-step chains so
//! the MD rule sees reorganized `mstep` runs too.

use mipsx_isa::{ComputeOp, Cond, Instr, Reg, SpecialReg};
use mipsx_reorg::{BranchScheme, RawBlock, RawProgram, Reorganizer, Terminator};
use mipsx_verify::{verify, VerifyConfig};
use proptest::prelude::*;

const DATA_BASE: i32 = 4000;
const DATA_WORDS: i32 = 64;

fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
    Instr::Addi {
        rs1: Reg::new(rs1),
        rd: Reg::new(rd),
        imm,
    }
}

fn compute(op: ComputeOp, rd: u8, rs1: u8, rs2: u8) -> Instr {
    Instr::Compute {
        op,
        rs1: Reg::new(rs1),
        rs2: Reg::new(rs2),
        rd: Reg::new(rd),
        shamt: 0,
    }
}

/// Schedule `raw` every way the repo knows how and assert the verifier
/// finds no error-severity diagnostic in any of the outputs.
fn assert_verifies_clean(raw: &RawProgram) {
    for scheme in BranchScheme::table1() {
        let reorg = Reorganizer::new(scheme);
        let config = VerifyConfig::for_slots(scheme.slots);
        for (label, result) in [
            ("reorganize", reorg.reorganize(raw)),
            ("lower_naive", reorg.lower_naive(raw)),
        ] {
            let (program, _) = result.expect("lowering succeeds");
            let lint = verify(&program, &config);
            assert!(
                lint.is_clean(),
                "[{scheme}] {label} emitted an illegal schedule:\n{lint}\n{program}"
            );
        }
    }
}

#[derive(Clone, Debug)]
enum GenInstr {
    Addi { rd: u8, rs1: u8, imm: i32 },
    Alu { op: u8, rd: u8, rs1: u8, rs2: u8 },
    Ld { rd: u8, off: u8 },
    St { rsrc: u8, off: u8 },
}

fn lower_gen(i: &GenInstr) -> Instr {
    const OPS: [ComputeOp; 6] = [
        ComputeOp::AddU,
        ComputeOp::SubU,
        ComputeOp::And,
        ComputeOp::Or,
        ComputeOp::Xor,
        ComputeOp::Sll,
    ];
    match *i {
        GenInstr::Addi { rd, rs1, imm } => addi(rd, rs1, imm),
        GenInstr::Alu { op, rd, rs1, rs2 } => compute(OPS[op as usize % 6], rd, rs1, rs2),
        GenInstr::Ld { rd, off } => Instr::Ld {
            rs1: Reg::new(20),
            rd: Reg::new(rd),
            offset: (off % DATA_WORDS as u8) as i32,
        },
        GenInstr::St { rsrc, off } => Instr::St {
            rs1: Reg::new(20),
            rsrc: Reg::new(rsrc),
            offset: (off % DATA_WORDS as u8) as i32,
        },
    }
}

fn arb_gen_instr() -> impl Strategy<Value = GenInstr> {
    prop_oneof![
        (1u8..16, 0u8..16, -50i32..50).prop_map(|(rd, rs1, imm)| GenInstr::Addi { rd, rs1, imm }),
        (0u8..6, 1u8..16, 0u8..16, 0u8..16).prop_map(|(op, rd, rs1, rs2)| GenInstr::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (1u8..16, any::<u8>()).prop_map(|(rd, off)| GenInstr::Ld { rd, off }),
        (0u8..16, any::<u8>()).prop_map(|(rsrc, off)| GenInstr::St { rsrc, off }),
    ]
}

/// A complete 32-step multiply: MD setup plus the full step run. Complete
/// chains are the only thing compilers emit, and the verifier's MD rule
/// must accept them wherever the scheduler ends up placing the steps.
fn md_chain_body() -> Vec<Instr> {
    let mut body = vec![
        Instr::Movtos {
            sreg: SpecialReg::Md,
            rs: Reg::new(8),
        },
        addi(9, 0, 0),
    ];
    body.extend(std::iter::repeat_n(compute(ComputeOp::Mstep, 9, 7, 9), 32));
    body
}

fn build_raw(
    blocks: Vec<Vec<GenInstr>>,
    choices: Vec<(u8, u8, u8, bool)>,
    md_block: Option<usize>,
) -> RawProgram {
    let n = blocks.len();
    let mut raw_blocks: Vec<RawBlock> = Vec::new();
    let mut terms: Vec<Terminator> = Vec::new();
    for (id, body) in blocks.iter().enumerate() {
        let mut instrs: Vec<Instr> = body.iter().map(lower_gen).collect();
        if id == 0 {
            instrs.insert(0, addi(20, 0, DATA_BASE));
        }
        if md_block == Some(id) {
            instrs.extend(md_chain_body());
        }
        raw_blocks.push(RawBlock::new(instrs));
        let (c, r1, r2, far) = choices[id];
        if id + 1 >= n {
            terms.push(Terminator::Halt);
        } else {
            let taken = if far {
                ((id + 2).min(n - 1)).max(id + 1)
            } else {
                id + 1
            };
            terms.push(Terminator::Branch {
                cond: Cond::ALL[(c % 8) as usize],
                rs1: Reg::new(r1 % 16),
                rs2: Reg::new(r2 % 16),
                taken,
                fall: id + 1,
                p_taken: if far { 0.7 } else { 0.4 },
            });
        }
    }
    RawProgram::new(raw_blocks, terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn reorganized_programs_verify_clean(
        blocks in prop::collection::vec(prop::collection::vec(arb_gen_instr(), 0..8), 2..8),
        choices in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 8),
        md_pick in any::<u8>(),
    ) {
        prop_assume!(choices.len() >= blocks.len());
        // Roughly a third of the cases get a full multiply chain spliced
        // into a random block.
        let md_block = if md_pick % 3 == 0 {
            Some(md_pick as usize % blocks.len())
        } else {
            None
        };
        let raw = build_raw(blocks, choices, md_block);
        assert_verifies_clean(&raw);
    }
}

#[test]
fn call_return_and_diamond_shapes_verify_clean() {
    // Call/return: the link-register discipline and return-slot rules.
    let call = RawProgram::new(
        vec![
            RawBlock::new(vec![addi(1, 0, 21), addi(9, 0, 3)]),
            RawBlock::new(vec![compute(ComputeOp::AddU, 4, 3, 3)]),
            RawBlock::new(vec![compute(ComputeOp::AddU, 3, 1, 1), addi(9, 9, 40)]),
        ],
        vec![
            Terminator::Call {
                target: 2,
                link: Reg::LINK,
                ret_to: 1,
            },
            Terminator::Halt,
            Terminator::Return { link: Reg::LINK },
        ],
    );
    assert_verifies_clean(&call);

    // Diamond with a load feeding the join: delay pairs across both arms.
    let diamond = RawProgram::new(
        vec![
            RawBlock::new(vec![
                addi(20, 0, DATA_BASE),
                addi(1, 0, 100),
                addi(2, 0, 37),
            ]),
            RawBlock::new(vec![
                Instr::Ld {
                    rs1: Reg::new(20),
                    rd: Reg::new(5),
                    offset: 0,
                },
                compute(ComputeOp::Or, 6, 5, 2),
            ]),
            RawBlock::default(),
            RawBlock::new(vec![compute(ComputeOp::And, 5, 1, 2), addi(7, 5, 2)]),
            RawBlock::default(),
        ],
        vec![
            Terminator::Branch {
                cond: Cond::Lt,
                rs1: Reg::new(1),
                rs2: Reg::new(2),
                taken: 3,
                fall: 1,
                p_taken: 0.3,
            },
            Terminator::Jump(4),
            Terminator::Jump(4),
            Terminator::Jump(4),
            Terminator::Halt,
        ],
    );
    assert_verifies_clean(&diamond);
}

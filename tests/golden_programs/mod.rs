//! The program set the golden digests pin, shared by `analysis_golden`
//! and `compile_golden`: every kernel × all six Table 1 schemes, the
//! `pascal`, `lisp` and `pascal-large` synth programs at every experiment
//! seed under the same six schemes, and hand-assembled edge programs
//! (image edges the analysis must handle without panicking) under both
//! slot counts.

// Each golden test binary reads its own subset of these fields.
#![allow(dead_code)]

use mipsx::asm::Program;
use mipsx::bench::SEEDS;
use mipsx::isa::{Cond, Instr, Reg, SquashMode};
use mipsx::reorg::{BranchScheme, RawProgram, Reorganizer, ScheduleReport};
use mipsx::workloads::{all_kernels, synth, SynthConfig};

/// One pinned program.
pub struct Case {
    pub label: String,
    pub program: Program,
    /// The branch delay slots it was scheduled (or is analyzed) for.
    pub slots: usize,
    /// The reorganizer's report; `None` for a hand-assembled edge program.
    pub report: Option<ScheduleReport>,
}

/// `raw` scheduled under each of the six Table 1 schemes.
pub fn scheduled(label: &str, raw: &RawProgram) -> Vec<Case> {
    BranchScheme::table1()
        .into_iter()
        .map(|scheme| {
            let (program, report) = Reorganizer::new(scheme)
                .reorganize(raw)
                .unwrap_or_else(|e| panic!("{label} / {scheme}: reorganize failed: {e}"));
            Case {
                label: format!("{label} [{scheme}]"),
                program,
                slots: scheme.slots,
                report: Some(report),
            }
        })
        .collect()
}

/// The kernels, then the synth programs, then the edge programs.
pub fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for kernel in all_kernels() {
        cases.extend(scheduled(kernel.name, &kernel.raw));
    }
    for profile in ["pascal", "lisp", "pascal-large"] {
        for seed in SEEDS {
            let config = SynthConfig::named(profile, seed).expect("catalog profile");
            cases.extend(scheduled(
                &format!("synth:{profile}:{seed}"),
                &synth::generate(config).raw,
            ));
        }
    }
    for (name, program) in edge_programs() {
        for slots in [1, 2] {
            cases.push(Case {
                label: format!("edge:{name} [{slots}-slot]"),
                program: program.clone(),
                slots,
                report: None,
            });
        }
    }
    cases
}

fn branch(squash: SquashMode, disp: i32) -> u32 {
    Instr::Branch {
        cond: Cond::Eq,
        squash,
        rs1: Reg::new(1),
        rs2: Reg::new(2),
        disp,
    }
    .encode()
}

fn jspci(rd: u8, imm: i32) -> u32 {
    Instr::Jspci {
        rs1: Reg::ZERO,
        rd: Reg::new(rd),
        imm,
    }
    .encode()
}

fn ld(rd: u8) -> u32 {
    Instr::Ld {
        rs1: Reg::new(2),
        rd: Reg::new(rd),
        offset: 0,
    }
    .encode()
}

fn add(rd: u8, rs: u8) -> u32 {
    Instr::Addi {
        rs1: Reg::new(rs),
        rd: Reg::new(rd),
        imm: 1,
    }
    .encode()
}

/// Programs whose control flow leaves the image, each at a non-zero origin.
pub fn edge_programs() -> Vec<(&'static str, Program)> {
    let halt = Instr::Halt.encode();
    let nop = Instr::Nop.encode();
    vec![
        (
            // Taken path lands 0x20 words below the origin; the final slot
            // loads a register the (absent) target cannot be checked against.
            "branch-below-origin",
            Program::from_words(
                0x400,
                vec![
                    add(3, 4),
                    branch(SquashMode::NoSquash, -0x20),
                    nop,
                    ld(5),
                    halt,
                ],
            ),
        ),
        (
            // A direct jump and a call whose targets lie past the end.
            "jump-past-end",
            Program::from_words(
                0x200,
                vec![
                    ld(1),
                    nop,
                    jspci(31, 0x200 + 0x80),
                    nop,
                    ld(6),
                    add(7, 6),
                    jspci(0, 0x200 + 0x100),
                    add(8, 9),
                    nop,
                ],
            ),
        ),
        (
            // The last branch's delay window runs off the image (SlotRunoff).
            "slot-runoff",
            Program::from_words(
                0x100,
                vec![
                    add(3, 3),
                    branch(SquashMode::NoSquash, -1),
                    nop,
                    nop,
                    add(4, 4),
                    nop,
                    branch(SquashMode::SquashIfNotTaken, -5),
                ],
            ),
        ),
        (
            // Origin 0x10 with displacement -0x100: the target wraps to
            // the top of the address space.
            "wrapping-displacement",
            Program::from_words(
                0x10,
                vec![
                    branch(SquashMode::SquashIfNotTaken, -0x100),
                    ld(1),
                    ld(2),
                    add(3, 2),
                    jspci(0, -0x40),
                    nop,
                    nop,
                    halt,
                ],
            ),
        ),
        (
            // Straight-line code with no halt: the walk falls off the end.
            "fall-off-end",
            Program::from_words(
                0x300,
                vec![add(1, 1), ld(2), nop, add(3, 2), ld(4), add(5, 4)],
            ),
        ),
        (
            // The entry point lies below the image: nothing is reachable.
            "entry-below-origin",
            Program {
                entry: 0x2ff,
                ..Program::from_words(0x300, vec![add(1, 1), halt])
            },
        ),
    ]
}

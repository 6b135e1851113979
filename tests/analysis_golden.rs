//! Golden digests of the static analysis over every program the
//! experiments schedule.
//!
//! For every kernel × all six Table 1 schemes, and the `pascal`, `lisp`
//! and `pascal-large` synth programs at every experiment seed under the
//! same six schemes, one line pins FNV-1a digests of three reports:
//!
//! - `lint`: `verify_with_timing(..).to_json()` — the hazard verifier
//!   plus the scheduling-quality lints, the `mipsx lint --timing` path;
//! - `timing`: `TimingAnalysis::to_json()` — the block partition, loop
//!   weights, liveness and the static CPI bound;
//! - `report`: the reorganizer's `ScheduleReport`, its slot-fill and
//!   nop counts (the verdict on a schedule is the `lint` column's, not
//!   the reorganizer's);
//! - `words`: the scheduled image itself, so the reorganizer's emission
//!   stays word-for-word identical.
//!
//! Hand-assembled programs at a non-zero origin add the image edges the
//! analysis must handle without panicking: a branch below the origin, a
//! direct jump and a call past the end, a delay window running off the
//! image, a displacement that wraps below address 0, and straight-line
//! code falling off the end, and an entry point below the image. Each is
//! analyzed under both slot counts.
//!
//! Any change to what the analysis reports shows up as a changed line.
//! Regenerate intentionally with `UPDATE_GOLDEN=1`.

use mipsx::asm::Program;
use mipsx::bench::SEEDS;
use mipsx::isa::{Cond, Instr, Reg, SquashMode};
use mipsx::reorg::{BranchScheme, Reorganizer, ScheduleReport};
use mipsx::verify::{quality, verify, verify_with_timing, TimingAnalysis, VerifyConfig};
use mipsx::workloads::{all_kernels, synth, SynthConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/analysis.digests");

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(label: &str, program: &Program, slots: usize, report: Option<&ScheduleReport>) -> String {
    let cfg = VerifyConfig::for_slots(slots);
    let lint = verify_with_timing(program, &cfg).to_json();
    let timing = TimingAnalysis::of(program, &cfg).to_json();
    let mut out = format!(
        "{label}: lint={:016x} timing={:016x}",
        fnv1a(&lint),
        fnv1a(&timing)
    );
    if let Some(r) = report {
        out.push_str(&format!(
            " report={:016x} words={:016x}",
            fnv1a(&format!("{r:?}")),
            fnv1a(&format!("{:?}", program.words))
        ));
    }
    out
}

fn scheduled(label: &str, raw: &mipsx::reorg::RawProgram, lines: &mut Vec<String>) {
    for scheme in BranchScheme::table1() {
        let (program, report) = Reorganizer::new(scheme)
            .reorganize(raw)
            .unwrap_or_else(|e| panic!("{label} / {scheme}: reorganize failed: {e}"));
        lines.push(line(
            &format!("{label} [{scheme}]"),
            &program,
            scheme.slots,
            Some(&report),
        ));
    }
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
fn edge_programs() -> Vec<(&'static str, Program)> {
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

#[test]
fn analysis_digests_match_golden() {
    let mut lines = Vec::new();
    for kernel in all_kernels() {
        scheduled(kernel.name, &kernel.raw, &mut lines);
    }
    for profile in ["pascal", "lisp", "pascal-large"] {
        for seed in SEEDS {
            let config = SynthConfig::named(profile, seed).expect("catalog profile");
            scheduled(
                &format!("synth:{profile}:{seed}"),
                &synth::generate(config).raw,
                &mut lines,
            );
        }
    }
    for (name, program) in edge_programs() {
        for slots in [1, 2] {
            let cfg = VerifyConfig::for_slots(slots);
            // The standalone entry points must not panic at the edges.
            verify(&program, &cfg);
            quality(&program, &cfg);
            lines.push(line(
                &format!("edge:{name} [{slots}-slot]"),
                &program,
                slots,
                None,
            ));
        }
    }
    let got = lines.join("\n") + "\n";

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to regenerate");
    let changed: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        changed.is_empty() && got.lines().count() == want.lines().count(),
        "analysis digests changed ({} line(s) differ, {} vs {} lines); if intentional, \
         regenerate with UPDATE_GOLDEN=1:\n{}",
        changed.len(),
        got.lines().count(),
        want.lines().count(),
        changed.join("\n")
    );
}

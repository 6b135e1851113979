//! Property tests for [`mipsx_verify::BlockSummary`] (ISSUE satellite):
//!
//! 1. **Roundtrip invariance.** Block summaries are a pure function of the
//!    instruction image: re-materialising a program — through the text
//!    disassembler for textable instructions, or through decode → builder
//!    re-emission for full programs with branches — yields bit-identical
//!    summaries.
//! 2. **Merge associativity.** Splitting a straight-line region at
//!    non-branch boundaries and re-merging the pieces is associative, and
//!    (when no dataflow pair spans a split point) reproduces the unsplit
//!    analysis exactly.

use mipsx_asm::{assemble, disassemble, Asm, Program};
use mipsx_isa::{ComputeOp, Cond, Instr, Reg, SquashMode};
use mipsx_verify::{BlockSummary, TimingAnalysis, VerifyConfig};
use mipsx_workloads::random_scheduled_program;
use proptest::prelude::*;

fn summaries(p: &Program, slots: usize) -> Vec<BlockSummary> {
    TimingAnalysis::of(p, &VerifyConfig::for_slots(slots))
        .blocks
        .clone()
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

/// Instructions whose `Display` form the text assembler parses back
/// (branches display raw displacements, which the text syntax reads as
/// absolute targets — they go through the builder roundtrip instead).
fn arb_textable() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), arb_reg(), -65536i32..=65535).prop_map(|(rs1, rd, offset)| Instr::Ld {
            rs1,
            rd,
            offset
        }),
        (arb_reg(), arb_reg(), -65536i32..=65535).prop_map(|(rs1, rsrc, offset)| Instr::St {
            rs1,
            rsrc,
            offset
        }),
        (
            prop::sample::select(
                ComputeOp::ALL
                    .iter()
                    .copied()
                    .filter(|op| !op.uses_shamt())
                    .collect::<Vec<_>>()
            ),
            arb_reg(),
            arb_reg(),
            arb_reg()
        )
            .prop_map(|(op, rs1, rs2, rd)| Instr::Compute {
                op,
                rs1,
                rs2,
                rd,
                shamt: 0
            }),
        (arb_reg(), arb_reg(), -65536i32..=65535).prop_map(|(rs1, rd, imm)| Instr::Addi {
            rs1,
            rd,
            imm
        }),
        Just(Instr::Nop),
    ]
}

/// An instruction drawing its registers only from the 8-register pool
/// starting at `base`. The merge test gives each segment a disjoint pool
/// so no dataflow pair (bypass, load pad, interlock) spans a segment
/// boundary — the one class of fact [`BlockSummary::merge`] documents it
/// cannot re-synthesize.
fn arb_pooled(base: u8) -> impl Strategy<Value = Instr> {
    let reg = move || (0u8..8).prop_map(move |i| Reg::new(base + i));
    prop_oneof![
        (reg(), reg(), -256i32..=255).prop_map(|(rs1, rd, imm)| Instr::Addi { rs1, rd, imm }),
        (reg(), reg(), -64i32..=63).prop_map(|(rs1, rd, offset)| Instr::Ld { rs1, rd, offset }),
        (
            prop::sample::select(
                ComputeOp::ALL
                    .iter()
                    .copied()
                    .filter(|op| !op.uses_shamt())
                    .collect::<Vec<_>>()
            ),
            reg(),
            reg(),
            reg()
        )
            .prop_map(|(op, rs1, rs2, rd)| Instr::Compute {
                op,
                rs1,
                rs2,
                rd,
                shamt: 0
            }),
        Just(Instr::Nop),
    ]
}

fn arb_segment(base: u8) -> impl Strategy<Value = Vec<Instr>> {
    prop::collection::vec(arb_pooled(base), 1..12)
}

/// Build the split program: a two-branch dispatcher reaching three
/// fall-through-chained segments, so the analyzer is forced to place a
/// leader at each segment start. Returns the program plus the three
/// segment start addresses.
fn dispatcher_program(
    segs: &[Vec<Instr>; 3],
    slots: usize,
) -> Result<(Program, [u32; 3]), mipsx_asm::AsmError> {
    let mut a = Asm::new(0);
    let m1 = a.new_label();
    let m2 = a.new_label();
    a.branch(Cond::Eq, SquashMode::NoSquash, Reg::new(25), Reg::ZERO, m1);
    a.nops(slots);
    a.branch(Cond::Eq, SquashMode::NoSquash, Reg::new(26), Reg::ZERO, m2);
    a.nops(slots);
    let s0 = a.here();
    for i in &segs[0] {
        a.emit(*i);
    }
    a.bind(m1)?;
    let s1 = a.here();
    for i in &segs[1] {
        a.emit(*i);
    }
    a.bind(m2)?;
    let s2 = a.here();
    for i in &segs[2] {
        a.emit(*i);
    }
    a.emit(Instr::Halt);
    Ok((a.finish()?, [s0, s1, s2]))
}

proptest! {
    /// assemble → disassemble → reassemble preserves every block summary
    /// (and, transitively, the image itself) for textable instruction
    /// sequences.
    #[test]
    fn summaries_survive_text_round_trip(
        body in prop::collection::vec(arb_textable(), 0..48),
        slots in 1usize..=2,
    ) {
        let mut src = String::new();
        for i in &body {
            src.push_str(&i.to_string());
            src.push('\n');
        }
        src.push_str("halt\n");
        let p1 = assemble(&src).unwrap_or_else(|e| panic!("assemble failed: {e}"));
        let lines = disassemble(p1.origin, &p1.words);
        let src2 = lines
            .iter()
            .map(|l| l.split_once(":  ").expect("disasm line format").1)
            .collect::<Vec<_>>()
            .join("\n");
        let p2 = assemble(&src2).unwrap_or_else(|e| panic!("reassemble failed: {e}"));
        prop_assert_eq!(&p1.words, &p2.words);
        prop_assert_eq!(summaries(&p1, slots), summaries(&p2, slots));
    }

    /// Decoding a full scheduled program (branches included) and
    /// re-emitting every instruction through the builder reproduces the
    /// image and its summaries.
    #[test]
    fn summaries_survive_builder_reemission(seed in any::<u64>(), slots in 1usize..=2) {
        let p1 = random_scheduled_program(seed);
        let mut a = Asm::new(p1.origin);
        for (i, &word) in p1.words.iter().enumerate() {
            let addr = p1.origin + i as u32;
            match p1.instr_at(addr) {
                Some(instr) => a.emit(instr),
                None => a.word(word),
            }
        }
        let p2 = a.finish().expect("no fixups pending");
        prop_assert_eq!(&p1.words, &p2.words);
        prop_assert_eq!(summaries(&p1, slots), summaries(&p2, slots));
    }

    /// Merging summaries split at non-branch boundaries is associative,
    /// and — with no dataflow pair spanning a split — reproduces the
    /// unsplit block's summary on every field that is not positional
    /// bookkeeping (`start`/`term_addr`).
    #[test]
    fn merge_is_associative_and_matches_unsplit_analysis(
        seg0 in arb_segment(1),
        seg1 in arb_segment(9),
        seg2 in arb_segment(17),
        slots in 1usize..=2,
    ) {
        let segs = [seg0, seg1, seg2];
        let (split, starts) = dispatcher_program(&segs, slots).expect("assembles");
        let ta = TimingAnalysis::of(&split, &VerifyConfig::for_slots(slots));
        prop_assert!(!ta.irregular, "dispatcher program should partition cleanly");
        let find = |start: u32| {
            ta.blocks
                .iter()
                .find(|b| b.start == start)
                .unwrap_or_else(|| panic!("no block at {start:#x}"))
        };
        let (a, b, c) = (find(starts[0]), find(starts[1]), find(starts[2]));

        // Non-adjacent blocks refuse to merge.
        prop_assert!(a.merge(c).is_none());

        let ab = a.merge(b).expect("a falls through into b");
        let bc = b.merge(c).expect("b falls through into c");
        let left = ab.merge(c).expect("(a+b) falls through into c");
        let right = a.merge(&bc).expect("a falls through into (b+c)");
        prop_assert_eq!(&left, &right);

        // The re-merged summary equals the unsplit analysis of the same
        // instruction sequence, modulo where it sits in the image.
        let mut direct = Asm::new(0);
        for seg in &segs {
            for i in seg {
                direct.emit(*i);
            }
        }
        direct.emit(Instr::Halt);
        let unsplit = direct.finish().expect("no labels");
        let blocks = summaries(&unsplit, slots);
        prop_assert_eq!(blocks.len(), 1, "straight-line program is one block");
        let expected = BlockSummary {
            start: blocks[0].start,
            term_addr: blocks[0].term_addr,
            ..left.clone()
        };
        prop_assert_eq!(&expected, &blocks[0]);
    }
}

//! Property tests for [`mipsx_verify::BlockSummary`]: block summaries are
//! a pure function of the instruction image. Re-materialising a program —
//! through the text disassembler for textable instructions, or through
//! decode → builder re-emission for full programs with branches — yields
//! bit-identical summaries.

use mipsx_asm::{assemble, disassemble, Asm, Program};
use mipsx_isa::{ComputeOp, Instr, Reg};
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
}

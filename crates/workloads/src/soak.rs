//! Random **correctly-scheduled** programs for the fault-injection soak
//! harness.
//!
//! [`random_scheduled_program`] is the seed-driven twin of the generator
//! inside the pipeline's differential test: straight-line chunks of
//! arithmetic, MD step chains, loads and stores over a private data
//! region, linked by forward branches (squashing and not) or falling
//! through into each other, with the load-delay scheduling
//! rule enforced on the fly so both the pipeline and the functional
//! reference model are defined on every program. Forward-only control
//! keeps every program terminating by construction.
//!
//! `mipsx soak` pairs one of these programs with a random
//! [`FaultPlan`](mipsx_core::inject::FaultPlan) per iteration and runs the
//! lockstep differ over the pair; a failure reproduces from the printed
//! seed alone.

use mipsx_asm::{Asm, Program};
use mipsx_isa::{ComputeOp, Cond, Instr, Reg, SpecialReg, SquashMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Word address of the data region the generated loads/stores touch.
pub const SOAK_DATA_BASE: u32 = 3000;

/// Number of data words the generated programs may touch.
pub const SOAK_DATA_WORDS: i32 = 32;

/// Generate a random, correctly scheduled, always-terminating program.
/// Deterministic per `seed`.
pub fn random_scheduled_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_chunks = rng.gen_range(2usize..8);
    let chunks: Vec<Vec<Instr>> = (0..n_chunks)
        .map(|_| {
            let len = rng.gen_range(0usize..6);
            (0..len).flat_map(|_| body_instrs(&mut rng)).collect()
        })
        .collect();

    let mut asm = Asm::new(0);
    // Prologue: seed registers with distinct values, set the data base.
    asm.li(Reg::new(20), SOAK_DATA_BASE as i32);
    for i in 1..16u8 {
        asm.li(Reg::new(i), i as i32 * 17 - 40);
    }
    let end = asm.new_label();
    let mut labels: Vec<_> = (0..n_chunks).map(|_| asm.new_label()).collect();
    labels.push(end);
    // The destination of a load just emitted, carried into the next chunk
    // when this one falls through.
    let mut last_load_def: Option<Reg> = None;
    for (idx, chunk) in chunks.into_iter().enumerate() {
        asm.bind(labels[idx]).expect("fresh label");
        for instr in chunk {
            // Enforce the load-delay scheduling rule on the fly.
            if let Some(d) = last_load_def {
                let uses_at_alu: Vec<Reg> = match instr {
                    Instr::St { rs1, .. } => vec![rs1],
                    i => i.uses().collect(),
                };
                if uses_at_alu.contains(&d) {
                    asm.emit(Instr::Nop);
                }
            }
            last_load_def = if instr.is_load() { instr.def() } else { None };
            asm.emit(instr);
        }
        // One chunk in four falls through into the next (a block that can
        // end in loads); the others branch forward, skipping 0 or 1
        // chunks — forward-only, so the program terminates regardless of
        // which way conditions go.
        if rng.gen_range(0u32..4) == 0 {
            continue;
        }
        let skip = rng.gen_range(0usize..2);
        let target = labels[(idx + 1 + skip).min(n_chunks)];
        let cond = Cond::ALL[rng.gen_range(0usize..8)];
        let squash = if rng.gen_bool(0.5) {
            SquashMode::SquashIfNotTaken
        } else {
            SquashMode::NoSquash
        };
        let (r1, r2) = (
            Reg::new(rng.gen_range(0u8..16)),
            Reg::new(rng.gen_range(0u8..16)),
        );
        // Guard: the branch source must not be the immediately preceding
        // load's destination (conditions resolve a stage early).
        if last_load_def == Some(r1) || last_load_def == Some(r2) {
            asm.emit(Instr::Nop);
        }
        asm.branch(cond, squash, r1, r2, target);
        // Delay slots: safe fillers.
        asm.emit(Instr::Addi {
            rs1: Reg::new(19),
            rd: Reg::new(19),
            imm: 1,
        });
        asm.emit(Instr::Nop);
        last_load_def = None;
    }
    asm.bind(end).expect("fresh label");
    asm.emit(Instr::Halt);
    asm.finish().expect("generated program assembles")
}

/// One random body group: an `addi`; any compute but the MD steps
/// (signed `add`/`sub` included, shifts by 0–31); a whole 32-step `mstep`
/// or `dstep` chain on an accumulator (the verifier rejects a broken one),
/// between a `movtos md` and a `movfrs` of MD; one to three loads in a row
/// or a store, against the data region. Computes, `addi`s and loads may
/// write `r0`.
fn body_instrs(rng: &mut StdRng) -> Vec<Instr> {
    let reg = |rng: &mut StdRng| Reg::new(rng.gen_range(0u8..16));
    match rng.gen_range(0u32..5) {
        0 => vec![Instr::Addi {
            rs1: reg(rng),
            rd: reg(rng),
            imm: rng.gen_range(-40i32..40),
        }],
        1 => {
            // `ALL` ends in the two MD steps.
            let op = ComputeOp::ALL[rng.gen_range(0usize..12)];
            vec![Instr::Compute {
                op,
                rs1: reg(rng),
                rs2: reg(rng),
                rd: reg(rng),
                shamt: if op.uses_shamt() {
                    rng.gen_range(0u8..32)
                } else {
                    0
                },
            }]
        }
        2 => {
            let op = if rng.gen_bool(0.5) {
                ComputeOp::Mstep
            } else {
                ComputeOp::Dstep
            };
            let (rs1, acc) = (reg(rng), Reg::new(rng.gen_range(1u8..16)));
            let mut chain = vec![Instr::Movtos {
                sreg: SpecialReg::Md,
                rs: reg(rng),
            }];
            chain.extend((0..32).map(|_| Instr::Compute {
                op,
                rs1,
                rs2: acc,
                rd: acc,
                shamt: 0,
            }));
            // The `nop` keeps a `movtos md` after the group three slots
            // past the last step, whose MD write lands at WB.
            chain.push(Instr::Movfrs {
                rd: reg(rng),
                sreg: SpecialReg::Md,
            });
            chain.push(Instr::Nop);
            chain
        }
        3 => (0..rng.gen_range(1usize..4))
            .map(|_| Instr::Ld {
                rs1: Reg::new(20),
                rd: reg(rng),
                offset: rng.gen_range(0i32..SOAK_DATA_WORDS),
            })
            .collect(),
        _ => vec![Instr::St {
            rs1: Reg::new(20),
            rsrc: reg(rng),
            offset: rng.gen_range(0i32..SOAK_DATA_WORDS),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let a = random_scheduled_program(seed);
            let b = random_scheduled_program(seed);
            assert_eq!(a.words, b.words);
            assert_eq!(a.entry, b.entry);
        }
        assert_ne!(
            random_scheduled_program(1).words,
            random_scheduled_program(2).words
        );
    }

    #[test]
    fn programs_end_in_halt_and_stay_in_bounds() {
        for seed in 0..32u64 {
            let p = random_scheduled_program(seed);
            assert_eq!(*p.words.last().unwrap(), Instr::Halt.encode());
            assert!(
                (p.origin + p.words.len() as u32) < SOAK_DATA_BASE,
                "seed {seed}: text must not overlap the data region"
            );
        }
    }
}

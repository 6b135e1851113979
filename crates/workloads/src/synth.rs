//! Calibrated synthetic program generators.
//!
//! These stand in for the paper's large Pascal and Lisp benchmarks (see
//! DESIGN.md §4). A generated program is a real, terminating [`RawProgram`]:
//! nested counted loops whose bodies mix ALU work, memory traffic, an
//! in-register xorshift generator whose bits drive data-dependent forward
//! branches, optional car/cdr-style load chains, and optional leaf calls.
//! The knobs in [`SynthConfig`] map one-to-one onto the statistics in
//! [`crate::calibration`].
//!
//! Register conventions inside generated code: `r1..r15` scratch data,
//! `r16` xorshift state, `r17` data base, `r18` inner-loop counter, `r21`
//! branch scratch, `r26` outer-loop counter, `r31` link.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mipsx_isa::{ComputeOp, Cond, Instr, Reg};
use mipsx_reorg::{RawBlock, RawProgram, Terminator};

/// Base address of the scratch data region generated code touches.
pub const DATA_BASE: i32 = 4096;
/// Size of the scratch region in words.
pub const DATA_WORDS: i32 = 64;

/// A profile's name and the configuration it gives for a seed.
pub type NamedProfile = (&'static str, fn(u64) -> SynthConfig);

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// RNG seed — same seed, same program.
    pub seed: u64,
    /// Number of inner loops laid out one after another.
    pub loops: usize,
    /// Body segments per inner loop.
    pub blocks_per_loop: usize,
    /// Mean body instructions per segment.
    pub mean_block_len: usize,
    /// Inner-loop trip count.
    pub trip_count: u32,
    /// Outer-loop repetitions of the whole loop sequence (code re-visits,
    /// which is what exercises the instruction cache).
    pub outer_trips: u32,
    /// Probability a segment ends in a data-dependent forward branch
    /// (vs an unconditional jump to the next segment).
    pub p_forward_branch: f64,
    /// Probability of appending a branch-independent filler instruction
    /// after a segment's compare — this is what makes delay slots
    /// hoist-fillable (calibration: `P_FILL_SLOT1_FROM_BEFORE`).
    pub p_filler_tail: f64,
    /// Probability a body instruction pair is a load chased by its use
    /// (the Lisp car/cdr pattern that costs load-delay no-ops).
    pub load_chain_density: f64,
    /// Probability a segment ends by calling a leaf routine (Lisp's extra
    /// jumps).
    pub call_density: f64,
    /// Probability a jump-ended segment's last instruction is a load whose
    /// value crosses the block boundary — such tails block delay-slot
    /// hoisting entirely (a load may not sit in the final slot), the main
    /// source of empty jump slots in real code.
    pub p_tail_load: f64,
}

impl SynthConfig {
    /// Pascal-like workload: moderate branching, few chained loads, no
    /// leaf-call storms.
    pub fn pascal_like(seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            loops: 6,
            blocks_per_loop: 3,
            mean_block_len: 3,
            trip_count: 8,
            outer_trips: 4,
            p_forward_branch: 0.75,
            p_filler_tail: 0.70,
            load_chain_density: 0.30,
            call_density: 0.08,
            p_tail_load: 0.75,
        }
    }

    /// Lisp-like workload: *"a larger number of jumps and many load-load
    /// interlocks caused by chasing car and cdr chains."*
    pub fn lisp_like(seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            loops: 6,
            blocks_per_loop: 3,
            mean_block_len: 2,
            trip_count: 8,
            outer_trips: 4,
            p_forward_branch: 0.65,
            p_filler_tail: 0.50,
            load_chain_density: 0.55,
            call_density: 0.20,
            p_tail_load: 0.65,
        }
    }

    /// A small fast-running configuration for tests.
    pub fn tiny(seed: u64) -> SynthConfig {
        SynthConfig {
            loops: 2,
            blocks_per_loop: 2,
            mean_block_len: 3,
            trip_count: 4,
            outer_trips: 2,
            ..SynthConfig::pascal_like(seed)
        }
    }

    /// Scale the code footprint (for instruction-cache experiments): more
    /// loops → larger instruction working set.
    pub fn with_code_scale(mut self, loops: usize, outer_trips: u32) -> SynthConfig {
        self.loops = loops;
        self.outer_trips = outer_trips;
        self
    }

    /// The "large benchmark" scaling: a 14-loop, 6-pass code footprint, and
    /// short loop visits (trip count 4) that keep the instruction cache
    /// under realistic pressure — large programs revisit far more distinct
    /// code between loop repetitions than a small synthetic can.
    fn large(mut self) -> SynthConfig {
        self.trip_count = 4;
        self.with_code_scale(14, 6)
    }

    /// The named profiles a `synth:<profile>:<seed>` workload selects, in
    /// one list.
    pub const PROFILES: [NamedProfile; 5] = [
        ("pascal", SynthConfig::pascal_like),
        ("lisp", SynthConfig::lisp_like),
        ("tiny", SynthConfig::tiny),
        ("pascal-large", |seed| {
            SynthConfig::pascal_like(seed).large()
        }),
        ("lisp-large", |seed| SynthConfig::lisp_like(seed).large()),
    ];

    /// The [`SynthConfig::PROFILES`] entry `profile` at `seed`, if there
    /// is one.
    pub fn named(profile: &str, seed: u64) -> Option<SynthConfig> {
        SynthConfig::PROFILES
            .iter()
            .find(|(name, _)| *name == profile)
            .map(|(_, make)| make(seed))
    }
}

/// A generated program plus its configuration.
#[derive(Clone, Debug)]
pub struct SynthProgram {
    /// The unscheduled program, ready for the reorganizer.
    pub raw: RawProgram,
    /// The configuration that produced it.
    pub config: SynthConfig,
}

fn r(n: u8) -> Reg {
    Reg::new(n)
}

fn li(rd: u8, imm: i32) -> Instr {
    Instr::Addi {
        rs1: Reg::ZERO,
        rd: r(rd),
        imm,
    }
}

fn addi(rd: u8, rs1: u8, imm: i32) -> Instr {
    Instr::Addi {
        rs1: r(rs1),
        rd: r(rd),
        imm,
    }
}

fn alu(op: ComputeOp, rd: u8, rs1: u8, rs2: u8, shamt: u8) -> Instr {
    Instr::Compute {
        op,
        rs1: r(rs1),
        rs2: r(rs2),
        rd: r(rd),
        shamt,
    }
}

/// A random ALU-only instruction — used for delay-slot filler material,
/// which must be hoistable (loads may not sit in the final slot).
fn random_alu_instr(rng: &mut StdRng) -> Instr {
    let rd = rng.gen_range(1u8..16);
    let rs1 = rng.gen_range(1u8..16);
    let rs2 = rng.gen_range(1u8..16);
    match rng.gen_range(0u8..6) {
        0 => addi(rd, rs1, rng.gen_range(-64..64)),
        1 => alu(ComputeOp::AddU, rd, rs1, rs2, 0),
        2 => alu(ComputeOp::SubU, rd, rs1, rs2, 0),
        3 => alu(ComputeOp::Xor, rd, rs1, rs2, 0),
        4 => alu(ComputeOp::Or, rd, rs1, rs2, 0),
        _ => alu(ComputeOp::Sll, rd, rs1, 0, rng.gen_range(1..5)),
    }
}

/// One random straight-line instruction over the scratch registers.
///
/// The class mix targets the paper's memory profile — *"on average, data is
/// only fetched every third cycle"* — roughly a quarter loads and a sixth
/// stores, the rest ALU work.
fn random_instr(rng: &mut StdRng) -> Instr {
    let rd = rng.gen_range(1u8..16);
    let rs1 = rng.gen_range(1u8..16);
    let rs2 = rng.gen_range(1u8..16);
    match rng.gen_range(0u8..12) {
        0 => addi(rd, rs1, rng.gen_range(-64..64)),
        1 => alu(ComputeOp::AddU, rd, rs1, rs2, 0),
        2 => alu(ComputeOp::SubU, rd, rs1, rs2, 0),
        3 => alu(ComputeOp::Xor, rd, rs1, rs2, 0),
        4 => alu(ComputeOp::And, rd, rs1, rs2, 0),
        5 => alu(ComputeOp::Or, rd, rs1, rs2, 0),
        6 => alu(ComputeOp::Sll, rd, rs1, 0, rng.gen_range(1..5)),
        7..=9 => Instr::Ld {
            rs1: r(17),
            rd: r(rd),
            offset: rng.gen_range(0..DATA_WORDS),
        },
        _ => Instr::St {
            rs1: r(17),
            rsrc: r(rs1),
            offset: rng.gen_range(0..DATA_WORDS),
        },
    }
}

/// A load followed by a use of its value — the car/cdr chain. The
/// reorganizer has to break the pair with an independent instruction or a
/// no-op.
fn load_chain(rng: &mut StdRng) -> [Instr; 2] {
    let rd = rng.gen_range(1u8..16);
    let acc = rng.gen_range(1u8..16);
    [
        Instr::Ld {
            rs1: r(17),
            rd: r(rd),
            offset: rng.gen_range(0..DATA_WORDS),
        },
        alu(ComputeOp::AddU, acc, acc, rd, 0),
    ]
}

/// Advance the in-register generator state (`r16`) and leave a masked test
/// value in `r21` — the paper's *explicit compare* (80 % of branches need
/// one). Mask registers `r22` (1) and `r24` (3) are preloaded by the init
/// block. Returns the instructions and the probability that `r21 == 0`.
fn rng_test(rng: &mut StdRng) -> (Vec<Instr>, f64) {
    let shift = rng.gen_range(3u8..9);
    let mask_bits = rng.gen_range(1u8..3); // 1 or 2 bits
    let mask_reg = if mask_bits == 1 { 22 } else { 24 };
    let seq = vec![
        // A short mixing step plus an odd increment keeps the stream
        // aperiodic at a quarter the instruction cost of full xorshift.
        alu(ComputeOp::Sll, 20, 16, 0, shift),
        alu(ComputeOp::Xor, 16, 16, 20, 0),
        addi(16, 16, rng.gen_range(0..64) * 2 + 1),
        alu(ComputeOp::And, 21, 16, mask_reg, 0),
    ];
    let p_zero = 1.0 / f64::from(1 << mask_bits);
    (seq, p_zero)
}

/// Generate a program.
pub fn generate(config: SynthConfig) -> SynthProgram {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut blocks: Vec<RawBlock> = Vec::new();
    let mut terms: Vec<Terminator> = Vec::new();
    // Leaf routines are appended after the halt; collect call requests as
    // (call_site_block, leaf_index) and patch targets at the end.
    let mut pending_calls: Vec<(usize, usize)> = Vec::new();
    let mut leaf_count = 0usize;

    // b0: init block.
    blocks.push(RawBlock::new(vec![
        li(17, DATA_BASE),
        li(16, (config.seed as i32 & 0x3FFF) | 1),
        li(26, config.outer_trips as i32),
        li(22, 1), // quick-test mask
        li(24, 3), // wider mask
        li(23, 1), // full-compare constant
        li(1, 3),
        li(2, 5),
        li(3, 7),
    ]));
    terms.push(Terminator::Jump(1)); // falls into the first preheader

    let first_preheader = blocks.len();

    for l in 0..config.loops {
        // Preheader: set the trip counter and reposition the data window
        // (each loop works a different slice, so the data footprint scales
        // with the code footprint).
        blocks.push(RawBlock::new(vec![
            li(18, config.trip_count as i32),
            li(17, DATA_BASE + (l as i32 % 8) * DATA_WORDS),
        ]));
        terms.push(Terminator::Jump(blocks.len())); // next block
        let loop_head = blocks.len();

        // Latch position is known in advance: head + blocks_per_loop.
        let latch = loop_head + config.blocks_per_loop;

        for b in 0..config.blocks_per_loop {
            let id = blocks.len();
            let mut body: Vec<Instr> = Vec::new();
            let len = 1 + rng.gen_range(0..config.mean_block_len * 2);
            let mut i = 0;
            while i < len {
                if rng.gen_bool(config.load_chain_density) {
                    body.extend(load_chain(&mut rng));
                    i += 2;
                } else {
                    body.push(random_instr(&mut rng));
                    i += 1;
                }
            }
            let is_last = b + 1 == config.blocks_per_loop;
            if is_last {
                if rng.gen_bool(config.p_tail_load) {
                    body.push(Instr::Ld {
                        rs1: r(17),
                        rd: r(rng.gen_range(1u8..16)),
                        offset: rng.gen_range(0..DATA_WORDS),
                    });
                }
                blocks.push(RawBlock::new(body));
                terms.push(Terminator::Jump(latch));
            } else if rng.gen_bool(config.call_density) {
                // Leaf call; the target is patched once leaves exist.
                blocks.push(RawBlock::new(body));
                pending_calls.push((id, leaf_count));
                leaf_count = (leaf_count + 1) % 3; // up to three leaves
                terms.push(Terminator::Call {
                    target: usize::MAX, // patched below
                    link: Reg::LINK,
                    ret_to: id + 1,
                });
            } else if rng.gen_bool(config.p_forward_branch) {
                // Data-dependent forward branch skipping the next segment.
                let (test, p_zero) = rng_test(&mut rng);
                body.extend(test);
                // Condition mix calibrated for the quick-compare study:
                // roughly a quarter of forward branches are full magnitude
                // compares between two registers (not quick-compare-able);
                // the rest are equality or sign tests against r0.
                let (cond, rs2, p_taken) = if rng.gen_bool(0.35) {
                    // r21 in 0..=mask vs the constant 1 preloaded in r23.
                    if rng.gen_bool(0.5) {
                        (Cond::Lt, 23u8, p_zero) // r21 < 1  ⇔  r21 == 0
                    } else {
                        (Cond::Ge, 23u8, 1.0 - p_zero)
                    }
                } else if rng.gen_bool(0.65) {
                    // Biased toward taken: "in the static case most
                    // branches go."
                    (Cond::Ne, 0, 1.0 - p_zero)
                } else {
                    (Cond::Eq, 0, p_zero)
                };
                if rng.gen_bool(config.p_filler_tail) {
                    body.push(random_alu_instr(&mut rng));
                    if rng.gen_bool(0.65) {
                        body.push(random_alu_instr(&mut rng));
                    }
                }
                let taken = (id + 2).min(latch);
                blocks.push(RawBlock::new(body));
                terms.push(Terminator::Branch {
                    cond,
                    rs1: r(21),
                    rs2: r(rs2),
                    taken,
                    fall: id + 1,
                    p_taken,
                });
            } else {
                if rng.gen_bool(config.p_tail_load) {
                    body.push(Instr::Ld {
                        rs1: r(17),
                        rd: r(rng.gen_range(1u8..16)),
                        offset: rng.gen_range(0..DATA_WORDS),
                    });
                }
                blocks.push(RawBlock::new(body));
                terms.push(Terminator::Jump(id + 1));
            }
        }

        // Latch: count down, walk the data window, branch back.
        let id = blocks.len();
        debug_assert_eq!(id, latch);
        blocks.push(RawBlock::new(vec![addi(18, 18, -1), addi(17, 17, 8)]));
        terms.push(Terminator::Branch {
            cond: Cond::Gt,
            rs1: r(18),
            rs2: Reg::ZERO,
            taken: loop_head,
            fall: id + 1,
            p_taken: 1.0 - 1.0 / f64::from(config.trip_count.max(2)),
        });
        let _ = l;
    }

    // Outer latch: repeat the whole loop sequence.
    let id = blocks.len();
    blocks.push(RawBlock::new(vec![addi(26, 26, -1)]));
    terms.push(Terminator::Branch {
        cond: Cond::Gt,
        rs1: r(26),
        rs2: Reg::ZERO,
        taken: first_preheader,
        fall: id + 1,
        p_taken: 1.0 - 1.0 / f64::from(config.outer_trips.max(2)),
    });

    // Halt block.
    blocks.push(RawBlock::default());
    terms.push(Terminator::Halt);

    // Leaf routines (if any call sites exist).
    if !pending_calls.is_empty() {
        let leaves_needed = pending_calls.iter().map(|&(_, l)| l).max().unwrap_or(0) + 1;
        let mut leaf_ids = Vec::new();
        for _ in 0..leaves_needed {
            let id = blocks.len();
            let mut body: Vec<Instr> = (0..rng.gen_range(2..5))
                .map(|_| random_instr(&mut rng))
                .collect();
            // Leaves typically end producing a result from memory: the
            // return's delay slots go empty.
            body.push(Instr::Ld {
                rs1: r(17),
                rd: r(rng.gen_range(1u8..16)),
                offset: rng.gen_range(0..DATA_WORDS),
            });
            blocks.push(RawBlock::new(body));
            terms.push(Terminator::Return { link: Reg::LINK });
            leaf_ids.push(id);
        }
        for (site, leaf) in pending_calls {
            if let Terminator::Call { target, .. } = &mut terms[site] {
                *target = leaf_ids[leaf];
            }
        }
    }

    SynthProgram {
        raw: RawProgram::new(blocks, terms),
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(SynthConfig::pascal_like(42));
        let b = generate(SynthConfig::pascal_like(42));
        assert_eq!(a.raw, b.raw);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(SynthConfig::pascal_like(1));
        let b = generate(SynthConfig::pascal_like(2));
        assert_ne!(a.raw, b.raw);
    }

    #[test]
    fn programs_validate() {
        for seed in 0..8 {
            generate(SynthConfig::pascal_like(seed)).raw.validate();
            generate(SynthConfig::lisp_like(seed)).raw.validate();
            generate(SynthConfig::tiny(seed)).raw.validate();
        }
    }

    #[test]
    fn lisp_config_has_more_chains_and_calls() {
        let p = SynthConfig::pascal_like(0);
        let l = SynthConfig::lisp_like(0);
        assert!(l.load_chain_density > p.load_chain_density);
        assert!(l.call_density > p.call_density);
    }

    #[test]
    fn code_scale_grows_block_count() {
        let small = generate(SynthConfig::pascal_like(7));
        let large = generate(SynthConfig::pascal_like(7).with_code_scale(20, 2));
        assert!(large.raw.len() > small.raw.len());
    }
}

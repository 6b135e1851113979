//! Unscheduled basic-block programs — the reorganizer's input.

use mipsx_isa::{Cond, Instr, Reg};

/// Index of a basic block within a [`RawProgram`].
pub type BlockId = usize;

/// How a basic block ends.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Terminator {
    /// Stop the machine.
    Halt,
    /// Unconditional jump to a block.
    Jump(BlockId),
    /// Conditional compare-and-branch.
    Branch {
        /// The comparison.
        cond: Cond,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
        /// Block executed when the condition holds.
        taken: BlockId,
        /// Block executed otherwise — must be laid out immediately after
        /// this block.
        fall: BlockId,
        /// Profile estimate of the probability the branch takes (used by
        /// static prediction; 0.65 is the calibrated default — *"in the
        /// static case most branches go"*).
        p_taken: f64,
    },
    /// Subroutine call; execution resumes at `ret_to`, which must be laid
    /// out immediately after this block (the hardware link register points
    /// past the jump's delay slots).
    Call {
        /// Callee entry block.
        target: BlockId,
        /// Link register receiving the return address.
        link: Reg,
        /// Continuation block.
        ret_to: BlockId,
    },
    /// Indirect return through a link register.
    Return {
        /// The link register.
        link: Reg,
    },
}

impl Terminator {
    /// Successor blocks in layout-relevant order.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (a, b) = match *self {
            Terminator::Halt | Terminator::Return { .. } => (None, None),
            Terminator::Jump(t) => (Some(t), None),
            Terminator::Branch { taken, fall, .. } => (Some(taken), Some(fall)),
            Terminator::Call { target, ret_to, .. } => (Some(target), Some(ret_to)),
        };
        a.into_iter().chain(b)
    }

    /// The registers the terminator itself reads.
    pub fn uses(&self) -> impl Iterator<Item = Reg> {
        let (a, b) = match *self {
            Terminator::Branch { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Terminator::Return { link } => (Some(link), None),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// The register the terminator writes (a call's link register).
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Terminator::Call { link, .. } => Some(link),
            _ => None,
        }
    }
}

/// One basic block: straight-line instructions plus a terminator.
///
/// The body must not contain control transfers (`Instr::is_control`) or
/// `halt` — those belong in the [`Terminator`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RawBlock {
    /// Straight-line body.
    pub instrs: Vec<Instr>,
}

impl RawBlock {
    /// A block with the given body.
    pub fn new(instrs: Vec<Instr>) -> RawBlock {
        RawBlock { instrs }
    }
}

/// An unscheduled program: basic blocks in layout order.
///
/// Layout invariants (checked by [`RawProgram::validate`]):
/// - a `Branch`'s `fall` block and a `Call`'s `ret_to` block are laid out
///   immediately after their block;
/// - block bodies contain no control instructions;
/// - all referenced block ids exist.
#[derive(Clone, PartialEq, Debug)]
pub struct RawProgram {
    /// Block bodies, in layout order.
    pub blocks: Vec<RawBlock>,
    /// Terminator of each block (parallel to `blocks`).
    pub terms: Vec<Terminator>,
}

impl RawProgram {
    /// Build and validate a program.
    ///
    /// # Panics
    /// Panics if the layout invariants are violated — these are programming
    /// errors in the generator, not data errors.
    pub fn new(blocks: Vec<RawBlock>, terms: Vec<Terminator>) -> RawProgram {
        let p = RawProgram { blocks, terms };
        p.validate();
        p
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the program has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total body instructions (excluding terminators).
    pub fn body_len(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Where each block's `Return` lands: the continuation of every call
    /// whose target reaches the return. The walk steps over nested calls to
    /// their own continuations, so the set is context-insensitive but not
    /// transitive. Blocks ending otherwise land nowhere here.
    pub(crate) fn return_landings(&self) -> Vec<Vec<BlockId>> {
        let mut landings = vec![Vec::new(); self.len()];
        let mut seen = vec![usize::MAX; self.len()];
        let mut work = Vec::new();
        for (call, term) in self.terms.iter().enumerate() {
            let Terminator::Call { target, ret_to, .. } = *term else {
                continue;
            };
            work.push(target);
            while let Some(b) = work.pop() {
                if std::mem::replace(&mut seen[b], call) == call {
                    continue;
                }
                match self.terms[b] {
                    Terminator::Return { .. } => landings[b].push(ret_to),
                    Terminator::Call { ret_to, .. } => work.push(ret_to),
                    t => work.extend(t.successors()),
                }
            }
        }
        landings
    }

    /// Check the layout invariants.
    ///
    /// # Panics
    /// See [`RawProgram::new`].
    pub fn validate(&self) {
        assert_eq!(self.blocks.len(), self.terms.len(), "blocks/terms length");
        for (id, term) in self.terms.iter().enumerate() {
            for s in term.successors() {
                assert!(
                    s < self.blocks.len(),
                    "block {id}: successor {s} out of range"
                );
            }
            match *term {
                Terminator::Branch { fall, .. } => {
                    assert_eq!(fall, id + 1, "block {id}: fall-through must be next block");
                }
                Terminator::Call { ret_to, .. } => {
                    assert_eq!(
                        ret_to,
                        id + 1,
                        "block {id}: call continuation must be next block"
                    );
                }
                _ => {}
            }
        }
        for (id, block) in self.blocks.iter().enumerate() {
            for i in &block.instrs {
                assert!(
                    !i.is_control() && !matches!(i, Instr::Halt),
                    "block {id}: control instruction {i} in body"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(rd: u8, rs1: u8, rs2: u8) -> Instr {
        Instr::Compute {
            op: mipsx_isa::ComputeOp::Add,
            rs1: Reg::new(rs1),
            rs2: Reg::new(rs2),
            rd: Reg::new(rd),
            shamt: 0,
        }
    }

    #[test]
    fn valid_program_constructs() {
        let p = RawProgram::new(
            vec![RawBlock::new(vec![add(1, 2, 3)]), RawBlock::default()],
            vec![
                Terminator::Branch {
                    cond: Cond::Eq,
                    rs1: Reg::new(1),
                    rs2: Reg::ZERO,
                    taken: 1,
                    fall: 1,
                    p_taken: 0.5,
                },
                Terminator::Halt,
            ],
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p.body_len(), 1);
    }

    #[test]
    #[should_panic(expected = "fall-through must be next block")]
    fn branch_fall_must_be_adjacent() {
        let _ = RawProgram::new(
            vec![
                RawBlock::default(),
                RawBlock::default(),
                RawBlock::default(),
            ],
            vec![
                Terminator::Branch {
                    cond: Cond::Eq,
                    rs1: Reg::ZERO,
                    rs2: Reg::ZERO,
                    taken: 2,
                    fall: 2, // wrong: must be 1
                    p_taken: 0.5,
                },
                Terminator::Halt,
                Terminator::Halt,
            ],
        );
    }

    #[test]
    #[should_panic(expected = "control instruction")]
    fn body_must_be_straight_line() {
        let _ = RawProgram::new(
            vec![RawBlock::new(vec![Instr::Jpc])],
            vec![Terminator::Halt],
        );
    }

    #[test]
    fn terminator_dataflow() {
        let b = Terminator::Branch {
            cond: Cond::Lt,
            rs1: Reg::new(4),
            rs2: Reg::new(5),
            taken: 0,
            fall: 1,
            p_taken: 0.9,
        };
        assert_eq!(b.uses().collect::<Vec<_>>(), vec![Reg::new(4), Reg::new(5)]);
        assert_eq!(b.def(), None);
        let c = Terminator::Call {
            target: 0,
            link: Reg::LINK,
            ret_to: 1,
        };
        assert_eq!(c.def(), Some(Reg::LINK));
        assert_eq!(c.successors().collect::<Vec<_>>(), vec![0, 1]);
    }
}

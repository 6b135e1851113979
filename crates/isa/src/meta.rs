//! Precomputed per-instruction metadata — the decode-once side-car record.
//!
//! Every execution layer (pipeline, reference interpreter, static verifier,
//! code reorganizer) needs the same handful of per-instruction facts:
//! which registers an instruction reads and writes, whether it is a load /
//! store / branch / coprocessor op, whether a squashing branch may annul it,
//! its role in an MD step chain, and its branch displacement. Before this
//! module each layer re-derived those facts from [`Instr`] with `matches!`
//! chains on its own hot path; now they are computed exactly once, at decode
//! time, into an [`InstrMeta`] record that rides next to the decoded
//! instruction in `mipsx_asm::DecodedImage`.
//!
//! The fields are *definitions*, not caches: the equivalence test in
//! `tests/meta_equivalence.rs` proves each one agrees with the legacy
//! per-layer derivation for every generator-emittable instruction and for
//! arbitrary 32-bit words.

use crate::{ComputeOp, Instr, Reg, SpecialReg};

/// An instruction's role in a multiply/divide step chain.
///
/// The MD register threads state between consecutive `mstep`/`dstep`
/// instructions; the verifier's abstract interpretation only needs to know
/// whether an instruction steps a chain (and which kind) or clobbers MD.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MdRole {
    /// Does not touch the MD register.
    #[default]
    None,
    /// One multiply step (`mstep`).
    Mstep,
    /// One restoring-division step (`dstep`).
    Dstep,
    /// Overwrites MD directly (`movtos md`), resetting any chain.
    WritesMd,
}

/// Precomputed static facts about one instruction.
///
/// Register sets are bitmasks over the 32 general-purpose registers
/// (bit *n* = `rn`); the hardwired-zero `r0` is never set in a mask because
/// no dataflow can pass through it. The destination *specifier* is kept
/// separately in [`InstrMeta::def`] — the bypass network and the squash kill
/// bit operate on the specifier even when it names `r0`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InstrMeta {
    /// The destination register specifier ([`Instr::def`]), `r0` included.
    pub def: Option<Reg>,
    /// Registers written, as a bitmask (`r0` excluded — writes to it are
    /// architecturally discarded, so it never carries dataflow).
    pub def_mask: u32,
    /// Registers read ([`Instr::uses`]), as a bitmask (`r0` excluded).
    pub use_mask: u32,
    /// Registers read **in the ALU stage**, as a bitmask (`r0` excluded).
    ///
    /// This is the consumer set for load-delay hazards: store data (`rsrc`)
    /// and `mvtc` sources ride to the MEM stage and tolerate a distance-1
    /// producer, so they are absent here.
    pub alu_use_mask: u32,
    /// The register a load-class instruction (`ld`, `mvfc`) delivers one
    /// cycle late, if it delivers one at all (`r0` filtered out).
    pub late_def: Option<Reg>,
    /// Reads memory ([`Instr::is_load`]): `ld` or `ldf`.
    pub is_load: bool,
    /// Writes memory ([`Instr::is_store`]): `st` or `stf`.
    pub is_store: bool,
    /// Conditional branch ([`Instr::is_branch`]).
    pub is_branch: bool,
    /// Unconditional jump ([`Instr::is_jump`]): `jspci`, `jpc`, `jpcrs`.
    pub is_jump: bool,
    /// Can redirect the PC ([`Instr::is_control`]).
    pub is_control: bool,
    /// Talks to a coprocessor ([`Instr::is_coproc`]).
    pub is_coproc: bool,
    /// The explicit no-op ([`Instr::is_nop`]).
    pub is_nop: bool,
    /// Requires system mode ([`Instr::is_privileged`]).
    pub is_privileged: bool,
    /// Has effects beyond writing `def` ([`Instr::has_side_effects`]).
    pub has_side_effects: bool,
    /// One of the special PC-chain jumps (`jpc`/`jpcrs`) — the pair the
    /// pipeline must not sample interrupts between.
    pub is_special_jump: bool,
    /// A squashing branch can annul this instruction (it has a destination
    /// field for the kill line and no unkillable side effect). Mirrors
    /// `verify::squash_safe`.
    pub squash_safe: bool,
    /// The destination value arrives from the MEM stage (`ld`, `mvfc`)
    /// rather than the ALU — the bypass network's "load class".
    pub mem_result: bool,
    /// Role in an MD multiply/divide step chain.
    pub md_role: MdRole,
    /// Branch displacement in words, for conditional branches.
    pub branch_disp: Option<i32>,
}

impl InstrMeta {
    /// Compute the metadata record for one instruction.
    ///
    /// This is the single definition point; every consumer (pipeline bypass,
    /// reference model, verifier dataflow, reorganizer liveness) reads the
    /// precomputed fields instead of re-classifying the [`Instr`].
    pub fn of(instr: Instr) -> InstrMeta {
        let def = instr.def();
        let def_mask = def.map_or(0, Reg::mask_bit);
        let use_mask = instr.uses().fold(0u32, |m, r| m | r.mask_bit());
        // ALU-stage consumers: store data and `mvtc` sources are consumed a
        // stage later and tolerate a distance-1 load producer.
        let alu_use_mask = match instr {
            Instr::St { rs1, .. } => rs1.mask_bit(),
            Instr::Mvtc { .. } => 0,
            _ => use_mask,
        };
        let late_def = match instr {
            Instr::Ld { .. } | Instr::Mvfc { .. } => def.filter(|d| !d.is_zero()),
            _ => None,
        };
        let is_store = instr.is_store();
        let is_coproc = instr.is_coproc();
        let is_control = instr.is_control();
        let md_role = match instr {
            Instr::Compute {
                op: ComputeOp::Mstep,
                ..
            } => MdRole::Mstep,
            Instr::Compute {
                op: ComputeOp::Dstep,
                ..
            } => MdRole::Dstep,
            Instr::Movtos {
                sreg: SpecialReg::Md,
                ..
            } => MdRole::WritesMd,
            _ => MdRole::None,
        };
        InstrMeta {
            def,
            def_mask,
            use_mask,
            alu_use_mask,
            late_def,
            is_load: instr.is_load(),
            is_store,
            is_branch: instr.is_branch(),
            is_jump: instr.is_jump(),
            is_control,
            is_coproc,
            is_nop: instr.is_nop(),
            is_privileged: instr.is_privileged(),
            has_side_effects: instr.has_side_effects(),
            is_special_jump: matches!(instr, Instr::Jpc | Instr::Jpcrs),
            squash_safe: !(is_store
                || is_coproc
                || is_control
                || matches!(
                    instr,
                    Instr::Movtos { .. } | Instr::Halt | Instr::Illegal(_)
                )),
            mem_result: matches!(instr, Instr::Ld { .. } | Instr::Mvfc { .. }),
            md_role,
            branch_disp: match instr {
                Instr::Branch { disp, .. } => Some(disp),
                _ => None,
            },
        }
    }

    /// Whether `reg` is in the ALU-stage use set.
    #[inline]
    pub fn alu_uses(&self, reg: Reg) -> bool {
        self.alu_use_mask & reg.mask_bit() != 0
    }

    /// Whether `reg` is read at all, in any stage (`r0` is never "used" —
    /// it carries no dataflow).
    #[inline]
    pub fn uses(&self, reg: Reg) -> bool {
        self.use_mask & reg.mask_bit() != 0
    }

    /// Whether `reg` is architecturally written (`r0` writes are discarded
    /// and report `false`).
    #[inline]
    pub fn defines(&self, reg: Reg) -> bool {
        self.def_mask & reg.mask_bit() != 0
    }

    /// Every register in `mask`, ascending — for walking def/use masks
    /// without re-deriving bit positions at each call site.
    pub fn mask_regs(mask: u32) -> impl Iterator<Item = Reg> {
        // Walk the set bits only; bit 0 (`r0`) never carries dataflow.
        let mut rest = mask & !1;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros();
            rest &= rest - 1;
            Some(Reg::new(i as u8))
        })
    }
}

impl Instr {
    /// The precomputed metadata for this instruction.
    ///
    /// Prefer reading it from a `DecodedImage` entry (computed once per
    /// image word); call this directly only outside per-cycle paths.
    #[inline]
    pub fn meta(self) -> InstrMeta {
        InstrMeta::of(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_exclude_r0() {
        let i = Instr::Branch {
            cond: crate::Cond::Eq,
            squash: crate::SquashMode::NoSquash,
            rs1: Reg::ZERO,
            rs2: Reg::new(3),
            disp: 2,
        };
        let m = i.meta();
        assert_eq!(m.use_mask, 1 << 3);
        assert_eq!(m.alu_use_mask, 1 << 3);
        assert!(m.alu_uses(Reg::new(3)));
        assert!(!m.alu_uses(Reg::ZERO));
        assert_eq!(m.branch_disp, Some(2));
    }

    #[test]
    fn def_keeps_specifier_but_mask_drops_r0() {
        let i = Instr::Addi {
            rs1: Reg::new(1),
            rd: Reg::ZERO,
            imm: 4,
        };
        let m = i.meta();
        assert_eq!(m.def, Some(Reg::ZERO));
        assert_eq!(m.def_mask, 0);
    }

    #[test]
    fn load_class_and_late_def() {
        let ld = Instr::Ld {
            rs1: Reg::new(2),
            rd: Reg::new(5),
            offset: 0,
        };
        let m = ld.meta();
        assert!(m.is_load && m.mem_result);
        assert_eq!(m.late_def, Some(Reg::new(5)));
        // ldf reads memory but delivers into the FPU, not a GPR.
        let ldf = Instr::Ldf {
            rs1: Reg::new(2),
            fr: 1,
            offset: 0,
        };
        let m = ldf.meta();
        assert!(m.is_load && !m.mem_result);
        assert_eq!(m.late_def, None);
    }

    #[test]
    fn md_roles() {
        let mk = |op| Instr::Compute {
            op,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            rd: Reg::new(3),
            shamt: 0,
        };
        assert_eq!(mk(ComputeOp::Mstep).meta().md_role, MdRole::Mstep);
        assert_eq!(mk(ComputeOp::Dstep).meta().md_role, MdRole::Dstep);
        assert_eq!(mk(ComputeOp::Add).meta().md_role, MdRole::None);
        let wr = Instr::Movtos {
            sreg: SpecialReg::Md,
            rs: Reg::new(4),
        };
        assert_eq!(wr.meta().md_role, MdRole::WritesMd);
    }

    #[test]
    fn squash_safety_matches_doc() {
        assert!(Instr::Nop.meta().squash_safe);
        assert!(!Instr::Halt.meta().squash_safe);
        assert!(!Instr::Illegal(0xFFFF_FFFF).meta().squash_safe);
        let st = Instr::St {
            rs1: Reg::new(1),
            rsrc: Reg::new(2),
            offset: 0,
        };
        assert!(!st.meta().squash_safe);
    }
}

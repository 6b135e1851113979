//! Programmatic assembly builder.

use std::collections::BTreeMap;

use mipsx_isa::{to_signed_field, Cond, Instr, Reg, SquashMode};

use crate::{AsmError, Program};

/// A forward-referenceable code label issued by [`Asm::new_label`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(usize);

/// What a deferred instruction needs patched once label addresses are known.
#[derive(Clone, Copy, Debug)]
enum Fixup {
    /// Patch the 13-bit displacement of a branch at this index.
    BranchDisp(Label),
    /// Patch the 15-bit absolute immediate of a `jspci r?, imm(r0)`.
    JumpAbs(Label),
    /// Patch the 17-bit immediate of an `addi` with the label's address.
    AddrImm(Label),
    /// Replace a data word with the label's address.
    AddrWord(Label),
}

/// Incremental program builder with labels and fixups.
///
/// Used by the synthetic workload generators and the IR backend, which emit
/// large programs where string-based assembly would dominate runtime.
///
/// ```
/// use mipsx_asm::Asm;
/// use mipsx_isa::{Cond, Instr, Reg, SquashMode};
///
/// let mut a = Asm::new(0);
/// let top = a.new_label();
/// a.li(Reg::new(1), 3);
/// a.bind(top)?;
/// a.emit(Instr::Addi { rs1: Reg::new(1), rd: Reg::new(1), imm: -1 });
/// a.branch(Cond::Ne, SquashMode::NoSquash, Reg::new(1), Reg::ZERO, top);
/// a.emit(Instr::Nop);
/// a.emit(Instr::Nop);
/// a.emit(Instr::Halt);
/// let program = a.finish()?;
/// assert_eq!(program.words.len(), 6);
/// # Ok::<(), mipsx_asm::AsmError>(())
/// ```
#[derive(Debug, Default)]
pub struct Asm {
    origin: u32,
    words: Vec<u32>,
    labels: Vec<Option<u32>>,
    named: BTreeMap<String, Label>,
    fixups: Vec<(usize, Fixup)>,
    entry: Option<u32>,
}

impl Asm {
    /// Start building at the given word-address origin.
    pub fn new(origin: u32) -> Asm {
        Asm {
            origin,
            ..Asm::default()
        }
    }

    /// The address the next emitted word will occupy.
    pub fn here(&self) -> u32 {
        self.origin + self.words.len() as u32
    }

    /// Number of words emitted so far.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether nothing has been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Create a fresh unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Create (or fetch) a named label, recorded in the program's symbol
    /// table.
    pub fn named_label(&mut self, name: &str) -> Label {
        if let Some(&l) = self.named.get(name) {
            return l;
        }
        let l = self.new_label();
        self.named.insert(name.to_owned(), l);
        l
    }

    /// Bind a label to the current position.
    ///
    /// # Errors
    /// Returns [`AsmError::DuplicateLabel`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        if self.labels[label.0].is_some() {
            return Err(AsmError::DuplicateLabel {
                line: 0,
                label: format!("L{}", label.0),
            });
        }
        self.labels[label.0] = Some(self.here());
        Ok(())
    }

    /// Mark the current position as the program entry point. Defaults to the
    /// origin if never called.
    pub fn set_entry_here(&mut self) {
        self.entry = Some(self.here());
    }

    /// Emit one instruction.
    pub fn emit(&mut self, instr: Instr) {
        self.words.push(instr.encode());
    }

    /// Emit a raw data word.
    pub fn word(&mut self, value: u32) {
        self.words.push(value);
    }

    /// Emit a data word holding a label's address (patched at finish).
    pub fn addr_word(&mut self, label: Label) {
        self.fixups.push((self.words.len(), Fixup::AddrWord(label)));
        self.words.push(0);
    }

    /// Load a 17-bit-signed immediate: `addi rd, r0, imm`.
    pub fn li(&mut self, rd: Reg, imm: i32) {
        self.emit(Instr::Addi {
            rs1: Reg::ZERO,
            rd,
            imm,
        });
    }

    /// Load a label's address into a register (patched at finish;
    /// the address must fit 17 signed bits, which holds for every workload
    /// image in this repository).
    pub fn la(&mut self, rd: Reg, label: Label) {
        self.fixups.push((self.words.len(), Fixup::AddrImm(label)));
        self.emit(Instr::Addi {
            rs1: Reg::ZERO,
            rd,
            imm: 0,
        });
    }

    /// Register-to-register move: `add rd, rs, r0`.
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.emit(Instr::Compute {
            op: mipsx_isa::ComputeOp::AddU,
            rs1: rs,
            rs2: Reg::ZERO,
            rd,
            shamt: 0,
        });
    }

    /// Emit a compare-and-branch to a label (displacement patched at finish).
    pub fn branch(&mut self, cond: Cond, squash: SquashMode, rs1: Reg, rs2: Reg, target: Label) {
        self.fixups
            .push((self.words.len(), Fixup::BranchDisp(target)));
        self.emit(Instr::Branch {
            cond,
            squash,
            rs1,
            rs2,
            disp: 0,
        });
    }

    /// Emit an unconditional jump to a label: `jspci r0, addr(r0)`.
    pub fn jump(&mut self, target: Label) {
        self.fixups.push((self.words.len(), Fixup::JumpAbs(target)));
        self.emit(Instr::Jspci {
            rs1: Reg::ZERO,
            rd: Reg::ZERO,
            imm: 0,
        });
    }

    /// Emit a subroutine call: `jspci link, addr(r0)`.
    pub fn call(&mut self, target: Label, link: Reg) {
        self.fixups.push((self.words.len(), Fixup::JumpAbs(target)));
        self.emit(Instr::Jspci {
            rs1: Reg::ZERO,
            rd: link,
            imm: 0,
        });
    }

    /// Emit a subroutine return: `jspci r0, 0(link)`.
    pub fn ret(&mut self, link: Reg) {
        self.emit(Instr::Jspci {
            rs1: link,
            rd: Reg::ZERO,
            imm: 0,
        });
    }

    /// Emit `n` no-ops (delay-slot padding).
    pub fn nops(&mut self, n: usize) {
        for _ in 0..n {
            self.emit(Instr::Nop);
        }
    }

    /// Resolve all fixups and produce the program image.
    ///
    /// # Errors
    /// Returns [`AsmError::UndefinedLabel`] for labels never bound and
    /// [`AsmError::OutOfRange`] when a resolved displacement or address does
    /// not fit its field.
    pub fn finish(self) -> Result<Program, AsmError> {
        let Asm {
            origin,
            mut words,
            labels,
            named,
            fixups,
            entry,
        } = self;

        let resolve = |label: Label| -> Result<u32, AsmError> {
            labels[label.0].ok_or_else(|| AsmError::UndefinedLabel {
                line: 0,
                label: format!("L{}", label.0),
            })
        };

        for (index, fixup) in fixups {
            let here = origin + index as u32;
            match fixup {
                Fixup::BranchDisp(target) => {
                    let disp = resolve(target)? as i64 - here as i64;
                    let field = to_signed_field(disp as i32, 13).ok_or(AsmError::OutOfRange {
                        line: 0,
                        what: "branch displacement",
                        value: disp,
                        bits: 13,
                    })?;
                    words[index] = (words[index] & !0x1FFF) | field;
                }
                Fixup::JumpAbs(target) => {
                    let addr = resolve(target)? as i64;
                    let field = to_signed_field(addr as i32, 15).ok_or(AsmError::OutOfRange {
                        line: 0,
                        what: "jump target address",
                        value: addr,
                        bits: 15,
                    })?;
                    words[index] = (words[index] & !0x7FFF) | field;
                }
                Fixup::AddrImm(target) => {
                    let addr = resolve(target)? as i64;
                    let field = to_signed_field(addr as i32, 17).ok_or(AsmError::OutOfRange {
                        line: 0,
                        what: "address immediate",
                        value: addr,
                        bits: 17,
                    })?;
                    words[index] = (words[index] & !0x1FFFF) | field;
                }
                Fixup::AddrWord(target) => {
                    words[index] = resolve(target)?;
                }
            }
        }

        let symbols = named
            .into_iter()
            .map(|(name, l)| resolve(l).map(|addr| (name, addr)))
            .collect::<Result<BTreeMap<_, _>, _>>()?;

        Ok(Program {
            words,
            origin,
            entry: entry.unwrap_or(origin),
            symbols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new(0);
        let fwd = a.new_label();
        let back = a.new_label();
        a.bind(back).unwrap();
        a.branch(Cond::Eq, SquashMode::NoSquash, Reg::ZERO, Reg::ZERO, fwd);
        a.nops(2);
        a.branch(Cond::Ne, SquashMode::NoSquash, Reg::new(1), Reg::ZERO, back);
        a.nops(2);
        a.bind(fwd).unwrap();
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        match p.instr_at(0).unwrap() {
            Instr::Branch { disp, .. } => assert_eq!(disp, 6),
            other => panic!("expected branch, got {other}"),
        }
        match p.instr_at(3).unwrap() {
            Instr::Branch { disp, .. } => assert_eq!(disp, -3),
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn unbound_label_is_error() {
        let mut a = Asm::new(0);
        let l = a.new_label();
        a.jump(l);
        assert!(matches!(a.finish(), Err(AsmError::UndefinedLabel { .. })));
    }

    #[test]
    fn duplicate_bind_is_error() {
        let mut a = Asm::new(0);
        let l = a.new_label();
        a.bind(l).unwrap();
        assert!(matches!(a.bind(l), Err(AsmError::DuplicateLabel { .. })));
    }

    #[test]
    fn named_labels_land_in_symbol_table() {
        let mut a = Asm::new(0x40);
        let main = a.named_label("main");
        a.bind(main).unwrap();
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        assert_eq!(p.symbol("main"), Some(0x40));
    }

    #[test]
    fn la_patches_address() {
        let mut a = Asm::new(0);
        let data = a.new_label();
        a.la(Reg::new(1), data);
        a.emit(Instr::Halt);
        a.bind(data).unwrap();
        a.word(0xDEAD_BEEF);
        let p = a.finish().unwrap();
        match p.instr_at(0).unwrap() {
            Instr::Addi { imm, .. } => assert_eq!(imm, 2),
            other => panic!("expected addi, got {other}"),
        }
    }

    #[test]
    fn addr_word_holds_label_address() {
        let mut a = Asm::new(0x10);
        let tgt = a.new_label();
        a.addr_word(tgt);
        a.bind(tgt).unwrap();
        a.emit(Instr::Halt);
        let p = a.finish().unwrap();
        assert_eq!(p.word_at(0x10), Some(0x11));
    }

    #[test]
    fn branch_out_of_range_reports_error() {
        let mut a = Asm::new(0);
        let far = a.new_label();
        a.branch(Cond::Eq, SquashMode::NoSquash, Reg::ZERO, Reg::ZERO, far);
        for _ in 0..5000 {
            a.emit(Instr::Nop);
        }
        a.bind(far).unwrap();
        a.emit(Instr::Halt);
        assert!(matches!(a.finish(), Err(AsmError::OutOfRange { .. })));
    }

    #[test]
    fn entry_defaults_to_origin() {
        let mut a = Asm::new(7);
        a.emit(Instr::Halt);
        assert_eq!(a.finish().unwrap().entry, 7);
    }

    #[test]
    fn set_entry_here_overrides() {
        let mut a = Asm::new(0);
        a.nops(3);
        a.set_entry_here();
        a.emit(Instr::Halt);
        assert_eq!(a.finish().unwrap().entry, 3);
    }
}

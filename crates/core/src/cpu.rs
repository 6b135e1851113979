//! Architectural CPU state.

use mipsx_isa::{Psw, Reg, SpecialReg, PC_CHAIN_DEPTH};

/// One entry of the PC shift chain.
///
/// Besides the saved PC, each entry carries the **kill bit** of the
/// instruction whose PC it is — the same destination-kill bit the squash
/// machinery sets. Without it, replaying the chain after an exception would
/// resurrect delay-slot instructions that a branch had already squashed.
/// (One extra latch per entry; the paper leaves this corner unspecified, see
/// DESIGN.md §3.4.)
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PcChainEntry {
    /// Word address of the in-flight instruction.
    pub pc: u32,
    /// Whether the instruction had been squashed when the chain froze.
    pub squashed: bool,
}

impl PcChainEntry {
    /// Pack into the architectural word format read by `movfrs`: the PC in
    /// bits [30:0], the squash bit in bit 31 (PCs are word addresses, so
    /// bit 31 is free).
    pub fn to_word(self) -> u32 {
        (self.pc & 0x7FFF_FFFF) | ((self.squashed as u32) << 31)
    }

    /// Unpack from the architectural word format written by `movtos`.
    pub fn from_word(word: u32) -> PcChainEntry {
        PcChainEntry {
            pc: word & 0x7FFF_FFFF,
            squashed: word >> 31 != 0,
        }
    }
}

/// The architectural state of the processor: register file, PC, PC chain,
/// PSW/PSWold, and the MD multiply/divide register.
///
/// The register file holds *"31 general purpose registers and a hardwired
/// constant zero register"* — writes to `r0` are discarded here, so readers
/// never need a special case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cpu {
    regs: [u32; 32],
    /// Next fetch address (word address).
    pub pc: u32,
    /// The PC shift chain: index 0 is the oldest in-flight instruction
    /// (deepest in the pipe), index 2 the youngest.
    pub pc_chain: [PcChainEntry; PC_CHAIN_DEPTH],
    /// Processor status word.
    pub psw: Psw,
    /// PSW saved on exception entry.
    pub psw_old: Psw,
    /// The multiply/divide step register.
    pub md: u32,
}

impl Cpu {
    /// Reset state: PC 0, system mode, everything cleared.
    pub fn new() -> Cpu {
        Cpu {
            regs: [0; 32],
            pc: 0,
            pc_chain: [PcChainEntry::default(); PC_CHAIN_DEPTH],
            psw: Psw::reset(),
            psw_old: Psw::reset(),
            md: 0,
        }
    }

    /// Read a general-purpose register (`r0` always reads zero).
    #[inline]
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Write a general-purpose register (writes to `r0` are discarded —
    /// *"a place to write unwanted data"*).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Read a special register as `movfrs` does.
    pub fn special(&self, sreg: SpecialReg) -> u32 {
        match sreg {
            SpecialReg::Psw => self.psw.bits(),
            SpecialReg::PswOld => self.psw_old.bits(),
            SpecialReg::Md => self.md,
            SpecialReg::PcChain0 => self.pc_chain[0].to_word(),
            SpecialReg::PcChain1 => self.pc_chain[1].to_word(),
            SpecialReg::PcChain2 => self.pc_chain[2].to_word(),
        }
    }

    /// Write a special register as `movtos` does. Privilege is checked by
    /// the pipeline, not here.
    pub fn set_special(&mut self, sreg: SpecialReg, value: u32) {
        match sreg {
            SpecialReg::Psw => self.psw = Psw::from_bits(value),
            SpecialReg::PswOld => self.psw_old = Psw::from_bits(value),
            SpecialReg::Md => self.md = value,
            SpecialReg::PcChain0 => self.pc_chain[0] = PcChainEntry::from_word(value),
            SpecialReg::PcChain1 => self.pc_chain[1] = PcChainEntry::from_word(value),
            SpecialReg::PcChain2 => self.pc_chain[2] = PcChainEntry::from_word(value),
        }
    }

    /// The raw register file, for a caller that keeps `r0` at zero itself:
    /// the block engine drops every write to `r0` it can at compile time
    /// and re-zeroes `r0` after the rest, so its register operands index
    /// the array directly, with no `r0` test per write.
    #[inline]
    pub fn regs_mut(&mut self) -> &mut [u32; 32] {
        &mut self.regs
    }

    /// Snapshot the register file (verification and state-equivalence
    /// tests).
    pub fn regs_snapshot(&self) -> [u32; 32] {
        self.regs
    }
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_isa::Mode;

    #[test]
    fn r0_is_hardwired_zero() {
        let mut cpu = Cpu::new();
        cpu.set_reg(Reg::ZERO, 12345);
        assert_eq!(cpu.reg(Reg::ZERO), 0);
        cpu.set_reg(Reg::new(1), 12345);
        assert_eq!(cpu.reg(Reg::new(1)), 12345);
    }

    #[test]
    fn special_round_trip() {
        let mut cpu = Cpu::new();
        cpu.set_special(SpecialReg::Md, 0xAAAA);
        assert_eq!(cpu.special(SpecialReg::Md), 0xAAAA);
        cpu.set_special(SpecialReg::PcChain1, 0x8000_0042);
        assert_eq!(
            cpu.pc_chain[1],
            PcChainEntry {
                pc: 0x42,
                squashed: true
            }
        );
        assert_eq!(cpu.special(SpecialReg::PcChain1), 0x8000_0042);
    }

    #[test]
    fn chain_entry_word_round_trip() {
        for e in [
            PcChainEntry {
                pc: 0,
                squashed: false,
            },
            PcChainEntry {
                pc: 0x7FFF_FFFF,
                squashed: true,
            },
            PcChainEntry {
                pc: 1234,
                squashed: true,
            },
        ] {
            assert_eq!(PcChainEntry::from_word(e.to_word()), e);
        }
    }

    #[test]
    fn reset_mode_is_system() {
        assert_eq!(Cpu::new().psw.mode(), Mode::System);
    }

    #[test]
    fn psw_write_via_special() {
        let mut cpu = Cpu::new();
        let mut psw = cpu.psw;
        psw.set_mode(Mode::User);
        psw.set_interrupts_enabled(true);
        cpu.set_special(SpecialReg::Psw, psw.bits());
        assert_eq!(cpu.psw.mode(), Mode::User);
        assert!(cpu.psw.interrupts_enabled());
    }
}

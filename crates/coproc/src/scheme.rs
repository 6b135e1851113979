//! The four coprocessor interface schemes the MIPS-X team debated.

use std::fmt;

/// A coprocessor interface design, with the cost model the paper argues
/// about: pins, opcode space, cacheability, and per-operation overhead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum InterfaceScheme {
    /// One bit in every instruction marks it as a coprocessor instruction;
    /// a dedicated instruction bus carries it off chip. Burns half the
    /// opcode space and ≈20 pins; all inter-processor data moves through
    /// memory.
    CoprocBit,
    /// A 3-bit coprocessor-number field in memory and compute formats
    /// (coprocessor 0 = the CPU). Still needs the dedicated bus; data still
    /// moves through memory.
    CoprocField,
    /// Coprocessor instructions are never cached: a per-word bit in the
    /// Icache forces a miss so the coprocessor can snoop the instruction
    /// from the memory bus during the miss cycle. No bus — but *"all
    /// coprocessor operations incurred an overhead from the internal cache
    /// miss"*, which floating-point traces showed to be unacceptable.
    NonCached,
    /// The shipped design: the 17-bit offset field is driven out the
    /// address pins with one extra "memory ignore" pin; instructions are
    /// cacheable; data moves over the normal data bus; the FPU additionally
    /// gets direct-memory `ldf`/`stf`.
    #[default]
    AddressLines,
}

impl InterfaceScheme {
    /// All schemes, in design-history order.
    pub const ALL: [InterfaceScheme; 4] = [
        InterfaceScheme::CoprocBit,
        InterfaceScheme::CoprocField,
        InterfaceScheme::NonCached,
        InterfaceScheme::AddressLines,
    ];

    /// Extra package pins the scheme needs beyond the base processor.
    /// The dedicated-bus schemes devote *"approximately 20"* pins; the
    /// final scheme needs *"only one extra pin ... to tell the memory
    /// system to ignore the cycle."*
    pub fn extra_pins(self) -> u32 {
        match self {
            InterfaceScheme::CoprocBit | InterfaceScheme::CoprocField => 20,
            InterfaceScheme::NonCached => 0,
            InterfaceScheme::AddressLines => 1,
        }
    }

    /// Whether coprocessor instructions may live in the on-chip Icache.
    pub fn cacheable(self) -> bool {
        !matches!(self, InterfaceScheme::NonCached)
    }

    /// Fixed extra stall cycles every coprocessor instruction pays under
    /// this scheme, **given** an Icache with the given miss penalty.
    ///
    /// `NonCached` pays a forced internal miss per coprocessor instruction;
    /// the others pay nothing per instruction.
    pub fn per_op_stall(self, icache_miss_penalty: u32) -> u32 {
        match self {
            InterfaceScheme::NonCached => icache_miss_penalty,
            _ => 0,
        }
    }

    /// Instructions needed to move one word between coprocessor register
    /// and memory.
    ///
    /// With a dedicated bus or the address-line scheme the privileged
    /// coprocessor does it in 1 (`ldf`/`stf`); other coprocessors under the
    /// final scheme need 2 (a memory op plus `mvtc`/`mvfc` through a main
    /// register — *"all other coprocessors require one extra cycle for
    /// memory loads/stores"*). The bus-less early schemes always moved data
    /// through memory: 2 instructions.
    pub fn mem_transfer_instrs(self, privileged_coproc: bool) -> u32 {
        match self {
            InterfaceScheme::CoprocBit | InterfaceScheme::CoprocField => 1,
            InterfaceScheme::NonCached => 1,
            InterfaceScheme::AddressLines => {
                if privileged_coproc {
                    1
                } else {
                    2
                }
            }
        }
    }

    /// Whether register-to-register transfers between the main processor
    /// and a coprocessor are possible without a round trip through memory.
    ///
    /// The early schemes' flaw: *"data transfers between processors must be
    /// done through memory."*
    pub fn direct_reg_transfer(self) -> bool {
        matches!(
            self,
            InterfaceScheme::NonCached | InterfaceScheme::AddressLines
        )
    }
}

impl fmt::Display for InterfaceScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterfaceScheme::CoprocBit => f.write_str("coprocessor-bit + dedicated bus"),
            InterfaceScheme::CoprocField => f.write_str("3-bit field + dedicated bus"),
            InterfaceScheme::NonCached => f.write_str("non-cached instructions"),
            InterfaceScheme::AddressLines => f.write_str("address-line transfer (final)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_scheme_wins_on_pins() {
        let final_pins = InterfaceScheme::AddressLines.extra_pins();
        assert_eq!(final_pins, 1);
        assert!(InterfaceScheme::CoprocBit.extra_pins() >= 20);
    }

    #[test]
    fn only_noncached_is_uncacheable() {
        for s in InterfaceScheme::ALL {
            assert_eq!(s.cacheable(), s != InterfaceScheme::NonCached);
        }
    }

    #[test]
    fn noncached_pays_miss_per_op() {
        assert_eq!(InterfaceScheme::NonCached.per_op_stall(2), 2);
        assert_eq!(InterfaceScheme::AddressLines.per_op_stall(2), 0);
    }

    #[test]
    fn fpu_gets_single_instruction_transfers() {
        assert_eq!(InterfaceScheme::AddressLines.mem_transfer_instrs(true), 1);
        assert_eq!(InterfaceScheme::AddressLines.mem_transfer_instrs(false), 2);
    }

    #[test]
    fn early_schemes_lack_direct_transfer() {
        assert!(!InterfaceScheme::CoprocBit.direct_reg_transfer());
        assert!(InterfaceScheme::AddressLines.direct_reg_transfer());
    }

    #[test]
    fn display_nonempty() {
        for s in InterfaceScheme::ALL {
            assert!(!s.to_string().is_empty());
        }
    }
}

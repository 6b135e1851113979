//! General-purpose register names.

use std::fmt;

/// One of the 32 general-purpose registers.
///
/// Register 0 is a hardwired constant zero: *"It is useful to have a read-only
/// register as a place to write unwanted data. The constant zero was chosen
/// because it is used as a source value for many instructions such as loading
/// immediate values by doing an add immediate to Register 0."*
///
/// The newtype guarantees the index is always in `0..32`, so the register
/// file never needs bounds checks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// The hardwired zero register, `r0`.
    pub const ZERO: Reg = Reg(0);

    /// Conventional link register used by `jspci` for subroutine calls.
    pub const LINK: Reg = Reg(31);

    /// Conventional stack pointer used by the workload kernels.
    pub const SP: Reg = Reg(30);

    /// Create a register from an index.
    ///
    /// # Panics
    /// Panics if `index >= 32`.
    #[inline]
    pub const fn new(index: u8) -> Reg {
        assert!(index < 32, "register index out of range");
        Reg(index)
    }

    /// Create a register from an index, returning `None` if out of range.
    #[inline]
    pub const fn try_new(index: u8) -> Option<Reg> {
        if index < 32 {
            Some(Reg(index))
        } else {
            None
        }
    }

    /// The register index, in `0..32`.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw 5-bit field value used in encodings.
    #[inline]
    pub const fn field(self) -> u32 {
        self.0 as u32
    }

    /// Whether this is the hardwired zero register.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// This register's bit in a 32-register dataflow mask (bit *n* =
    /// `rn`); `r0` has none, since it carries no dataflow.
    #[inline]
    pub const fn mask_bit(self) -> u32 {
        (1 << self.0) & !1
    }

    /// Iterate over all 32 registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<Reg> for usize {
    fn from(r: Reg) -> usize {
        r.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_register_zero() {
        assert_eq!(Reg::ZERO.index(), 0);
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::new(1).is_zero());
    }

    #[test]
    fn try_new_bounds() {
        assert_eq!(Reg::try_new(31), Some(Reg::new(31)));
        assert_eq!(Reg::try_new(32), None);
        assert_eq!(Reg::try_new(255), None);
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn new_panics_out_of_range() {
        let _ = Reg::new(32);
    }

    #[test]
    fn all_yields_32_unique() {
        let regs: Vec<Reg> = Reg::all().collect();
        assert_eq!(regs.len(), 32);
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(Reg::new(17).to_string(), "r17");
        assert_eq!(format!("{:?}", Reg::ZERO), "r0");
    }
}

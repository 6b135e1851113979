//! One hasher for the caches' `u32`-keyed sets.

use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fibonacci) hasher for `u32` keys: block addresses in
/// the caches' cold/conflict histories. Those keys are small and dense,
/// and SipHash's flood resistance buys nothing here. `std`'s hash tables
/// pick buckets by the low bits, so the product's well-mixed high half is
/// folded into them.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct U32Hasher(u64);

impl Hasher for U32Hasher {
    #[inline]
    fn write_u32(&mut self, n: u32) {
        let h = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`U32Hasher`].
pub(crate) type BuildU32Hasher = BuildHasherDefault<U32Hasher>;

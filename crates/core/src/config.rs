//! Machine configuration.

use mipsx_coproc::InterfaceScheme;
use mipsx_mem::{EcacheConfig, IcacheConfig};

/// What the machine does about pipeline interlocks the software was supposed
/// to schedule around.
///
/// MIPS-X, like MIPS, leaves interlocks to the code reorganizer: the
/// hardware never stalls for a load-use hazard. `Trust` reproduces the
/// silicon — the consumer reads the stale register value, deterministically.
/// `Detect` turns a violation into [`crate::RunError::LoadUseHazard`], which
/// is how the reorganizer's output is verified.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InterlockPolicy {
    /// Model the hardware: violations silently read stale values.
    Trust,
    /// Report scheduling violations as errors (test/verification mode).
    #[default]
    Detect,
}

/// Full configuration of a simulated MIPS-X.
///
/// The struct is `Copy` (a handful of plain scalars), `Send`, and has no
/// interior mutability, so design-space sweeps can clone one base
/// configuration per grid cell and ship it to a worker thread for free.
/// Equality is field-wise and total over every simulated parameter — two
/// configs that compare equal simulate identically — which is what the
/// sweep engine's content-addressed result cache keys on.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MachineConfig {
    /// Branch delay slots: 2 (the real pipeline, condition resolved in ALU)
    /// or 1 (the *quick compare* design that was evaluated and dropped —
    /// condition resolved at the end of RF).
    pub branch_delay_slots: usize,
    /// Interlock checking policy.
    pub interlock: InterlockPolicy,
    /// On-chip instruction cache organization.
    pub icache: IcacheConfig,
    /// External cache organization.
    pub ecache: EcacheConfig,
    /// Main memory latency in cycles (per late-miss retry loop).
    pub mem_latency: u32,
    /// Coprocessor interface scheme (the final address-line design by
    /// default).
    pub coproc_scheme: InterfaceScheme,
    /// Clock frequency, used only to convert cycles to MIPS in reports.
    /// 20 MHz design target; first silicon ran at 16.
    pub clock_mhz: f64,
    /// Word address of the exception vector (*"The exception routine,
    /// located at address zero in system space"*).
    pub exception_vector: u32,
}

impl MachineConfig {
    /// The shipped MIPS-X: 2 delay slots, 512-word Icache with double
    /// fetch-back, 64K-word Ecache, address-line coprocessors, 20 MHz.
    pub fn mipsx() -> MachineConfig {
        MachineConfig {
            branch_delay_slots: 2,
            interlock: InterlockPolicy::Detect,
            icache: IcacheConfig::mipsx(),
            ecache: EcacheConfig::mipsx(),
            mem_latency: mipsx_mem::MainMemory::DEFAULT_LATENCY,
            coproc_scheme: InterfaceScheme::AddressLines,
            clock_mhz: 20.0,
            exception_vector: 0,
        }
    }

    /// An ideal-memory variant: caches disabled-cost (always hit) — used by
    /// experiments that isolate pipeline behaviour from memory behaviour.
    /// Implemented as an enormous Icache and zero-latency memory.
    pub fn ideal_memory() -> MachineConfig {
        MachineConfig {
            icache: IcacheConfig {
                rows: 1024,
                ways: 8,
                block_words: 16,
                ..IcacheConfig::mipsx()
            },
            ecache: EcacheConfig {
                size_words: 1 << 22,
                ..EcacheConfig::mipsx()
            },
            mem_latency: 0,
            ..MachineConfig::mipsx()
        }
    }

    /// A *cache-ideal* variant: every stall source priced at zero cycles, so
    /// the pipeline literally never freezes (`RunStats::frozen_cycles() == 0`
    /// on fault-free code). Unlike [`MachineConfig::ideal_memory`] — which
    /// merely makes misses rare — this zeroes the miss penalties themselves.
    /// It is the config under which the static timing analyzer's per-block
    /// predictions are *exact*, so the static-vs-dynamic differential runs
    /// here.
    pub fn cache_ideal() -> MachineConfig {
        let mut c = MachineConfig::ideal_memory();
        c.icache.miss_penalty = 0;
        c.ecache.late_miss_overhead = 0;
        c
    }

    /// Check the invariants a [`Machine`](crate::Machine) is built on: 1 or 2
    /// branch delay slots and well-formed caches
    /// ([`IcacheConfig::check`], [`EcacheConfig::check`]). The one
    /// validity rule for a configuration; [`MachineConfig::validate`]
    /// panics through it.
    pub fn check(&self) -> Result<(), String> {
        if !(1..=2).contains(&self.branch_delay_slots) {
            return Err(format!(
                "MIPS-X models 1 or 2 branch delay slots (got {})",
                self.branch_delay_slots
            ));
        }
        self.icache.check()?;
        self.ecache.check()
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics with [`MachineConfig::check`]'s message if the configuration
    /// is invalid.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::mipsx()
    }
}

/// The name the design-space exploration layer uses for a full simulation
/// configuration: one point in the grid the paper's tradeoff tables sample.
pub type SimConfig = MachineConfig;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_machine() {
        let c = MachineConfig::default();
        assert_eq!(c.branch_delay_slots, 2);
        assert_eq!(c.icache.size_words(), 512);
        assert_eq!(c.ecache.size_words, 64 * 1024);
        assert_eq!(c.clock_mhz, 20.0);
        assert_eq!(c.exception_vector, 0);
        c.validate();
    }

    #[test]
    fn config_is_send_and_cheap() {
        fn assert_send_copy<T: Send + Copy>() {}
        assert_send_copy::<MachineConfig>();
        // The sweep engine clones one of these per grid cell; keep it small.
        assert!(std::mem::size_of::<MachineConfig>() <= 128);
    }

    #[test]
    fn check_names_the_broken_rule_without_panicking() {
        assert_eq!(MachineConfig::mipsx().check(), Ok(()));
        assert_eq!(MachineConfig::cache_ideal().check(), Ok(()));
        let mut c = MachineConfig::mipsx();
        c.branch_delay_slots = 0;
        assert!(c.check().unwrap_err().contains("1 or 2 branch delay slots"));
        c = MachineConfig::mipsx();
        c.icache.rows = 3;
        let e = c.check().unwrap_err();
        assert!(e.starts_with("rows must be a power of two"), "{e}");
        c = MachineConfig::mipsx();
        c.ecache.size_words = 2;
        let e = c.check().unwrap_err();
        assert!(e.starts_with("cache smaller than one block"), "{e}");
    }

    #[test]
    #[should_panic(expected = "1 or 2 branch delay slots")]
    fn bad_slot_count_panics() {
        MachineConfig {
            branch_delay_slots: 3,
            ..MachineConfig::mipsx()
        }
        .validate();
    }
}

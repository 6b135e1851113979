//! Run statistics.

use std::fmt;

use crate::probe::StallCause;

/// Hands [`RunStats`]' one field list to [`mipsx_mem::counters!`]: the
/// struct declared here starts with every `RunStats` counter, in the order
/// the snapshot STAT section stores them, followed by the fields written in
/// its own braces. `RunStats` itself is declared this way with no fields of
/// its own, and a record that carries every `RunStats` counter (the sweep
/// engine's `JobResult`) composes the list instead of restating it.
#[macro_export]
macro_rules! with_run_stats {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident { $($own:tt)* }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $name {
                /// Total clock cycles, including all stall (frozen) cycles.
                cycles,
                /// Instructions completed (reached WB un-killed) — explicit no-ops
                /// included, squashed instructions excluded.
                instructions,
                /// Completed explicit `nop` instructions.
                nops,
                /// Instructions killed by squash or exception that drained at WB.
                squashed,
                /// Conditional branches executed.
                branches,
                /// Conditional branches that took.
                branches_taken,
                /// `nop`s observed in branch delay slots (unfillable slots).
                branch_slot_nops,
                /// Branch delay-slot instructions squashed (wrong-way penalty).
                branch_slot_squashed,
                /// Unconditional jumps executed (including the special jumps).
                jumps,
                /// Data loads completed (including `ldf` and `mvfc`).
                loads,
                /// Data stores completed (including `stf`).
                stores,
                /// Coprocessor operations issued.
                coproc_ops,
                /// Exceptions taken (traps and interrupts).
                exceptions,
                /// Cycles frozen for instruction-cache miss service.
                icache_stall_cycles,
                /// Cycles frozen in the external-cache late-miss retry loop (data side).
                ecache_stall_cycles,
                /// Cycles frozen waiting on a busy coprocessor.
                coproc_stall_cycles,
                /// Cycles charged by the non-cached coprocessor scheme's forced misses.
                coproc_forced_miss_cycles,
                /// Total cycles the qualified clock ψ1 was withheld, measured at
                /// the gate. Not always the sum of the per-cause stall counters:
                /// a stall that starts in a `halt`'s retiring cycle books its
                /// cause's counter but never freezes the clock.
                frozen_cycles,
                /// Cycles a hardware load-use interlock would freeze. MIPS-X has no
                /// such interlock — the reorganizer schedules around the hazard — so
                /// this stays zero on the shipped pipeline; interlocking variants fill
                /// it so CPI decomposes uniformly.
                interlock_stall_cycles,
                /// Maskable-interrupt pulses delivered by the fault-injection harness
                /// (delivered ≠ accepted: a masked pulse may be ignored).
                injected_interrupts,
                /// Non-maskable-interrupt pulses delivered by the harness.
                injected_nmis,
                /// Icache parity faults that actually invalidated a resident word and
                /// so forced a sub-block refetch.
                injected_parity_retries,
                /// Extra Ecache retry-loop cycles injected as latency jitter (also
                /// counted in `ecache_stall_cycles`).
                injected_jitter_cycles,
                /// Coprocessor-busy cycles injected (also counted in
                /// `coproc_stall_cycles`).
                injected_coproc_busy_cycles,
                $($own)*
            }
        }
    };
}

with_run_stats! {
    /// Everything a simulation run measures.
    ///
    /// The paper's headline numbers come straight out of this struct:
    /// [`RunStats::nop_fraction`] (15.6 % Pascal / 18.3 % Lisp),
    /// [`RunStats::cpi`] (≈1.7 with memory overhead),
    /// [`RunStats::sustained_mips`] (>11 at 20 MHz), and
    /// [`RunStats::cycles_per_branch`] (Table 1: 1.1–2.0 depending on scheme).
    pub struct RunStats {}
}

impl RunStats {
    /// The per-cause stall counter `cause` adds to.
    #[inline]
    pub(crate) fn stall_cycles_mut(&mut self, cause: StallCause) -> &mut u64 {
        match cause {
            StallCause::IcacheMiss => &mut self.icache_stall_cycles,
            StallCause::EcacheRetry => &mut self.ecache_stall_cycles,
            StallCause::CoprocBusy => &mut self.coproc_stall_cycles,
            StallCause::CoprocForcedMiss => &mut self.coproc_forced_miss_cycles,
            StallCause::Interlock => &mut self.interlock_stall_cycles,
        }
    }

    /// Dynamic instruction count as the paper counts it: completed
    /// instructions plus squashed ones — *"Squashing an instruction
    /// converts it into a no-op instruction"*, and those no-ops are part of
    /// the executed stream.
    pub fn dynamic_instructions(&self) -> u64 {
        self.instructions + self.squashed
    }

    /// Cycles per dynamic instruction (the paper's "average instruction
    /// requires about 1.7 cycles" metric). Zero when nothing completed.
    pub fn cpi(&self) -> f64 {
        if self.dynamic_instructions() == 0 {
            0.0
        } else {
            self.cycles as f64 / self.dynamic_instructions() as f64
        }
    }

    /// Sustained MIPS at the given clock: peak rate divided by CPI.
    pub fn sustained_mips(&self, clock_mhz: f64) -> f64 {
        let cpi = self.cpi();
        if cpi == 0.0 {
            0.0
        } else {
            clock_mhz / cpi
        }
    }

    /// Fraction of dynamic instructions that are no-ops — *"15.6% of all
    /// instructions are no-ops due to unused branch delays or other
    /// pipeline interlocks."* Both explicit `nop`s (unfillable slots, load
    /// delays) and squashed instructions count: squashing *converts* an
    /// instruction into a no-op.
    pub fn nop_fraction(&self) -> f64 {
        if self.dynamic_instructions() == 0 {
            0.0
        } else {
            (self.nops + self.squashed) as f64 / self.dynamic_instructions() as f64
        }
    }

    /// Average cycles per branch, charged as in the paper's Table 1
    /// footnote: *"Any no-op instructions in the branch delay slots are
    /// attributed to the cost of the branch so a branch with 2 no-ops in its
    /// two delay slots is deemed to have a cost of 3."* Squashed slot
    /// instructions are wasted cycles and charged identically.
    pub fn cycles_per_branch(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            (self.branches + self.branch_slot_nops + self.branch_slot_squashed) as f64
                / self.branches as f64
        }
    }

    /// Fraction of branches taken.
    pub fn taken_fraction(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.branches_taken as f64 / self.branches as f64
        }
    }

    /// Fraction of all cycles spent in the Ecache retry loop. Zero when no
    /// cycle ran.
    pub fn ecache_stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ecache_stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Host simulation rate: simulated guest cycles per *host* second,
    /// given the wall-clock time the run took. Zero when the wall time is
    /// zero (the run did not happen or the clock did not advance).
    pub fn host_cycles_per_sec(&self, wall: std::time::Duration) -> f64 {
        let secs = wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / secs
        }
    }

    /// Total fault-injection events and cycles delivered this run.
    pub fn injected_faults(&self) -> u64 {
        self.injected_interrupts
            + self.injected_nmis
            + self.injected_parity_retries
            + self.injected_jitter_cycles
            + self.injected_coproc_busy_cycles
    }

    /// Cycles the pipeline actually advanced (total minus frozen).
    pub fn advancing_cycles(&self) -> u64 {
        self.cycles - self.frozen_cycles
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} instructions={} (cpi {:.3})",
            self.cycles,
            self.instructions,
            self.cpi()
        )?;
        writeln!(
            f,
            "  nops={} ({:.1}%) squashed={} exceptions={}",
            self.nops,
            self.nop_fraction() * 100.0,
            self.squashed,
            self.exceptions
        )?;
        writeln!(
            f,
            "  branches={} taken={:.1}% cycles/branch={:.2} jumps={}",
            self.branches,
            self.taken_fraction() * 100.0,
            self.cycles_per_branch(),
            self.jumps
        )?;
        write!(
            f,
            "  stalls: icache={} ecache={} coproc={} forced-miss={} interlock={} (frozen {} of {} cycles)",
            self.icache_stall_cycles,
            self.ecache_stall_cycles,
            self.coproc_stall_cycles,
            self.coproc_forced_miss_cycles,
            self.interlock_stall_cycles,
            self.frozen_cycles,
            self.cycles
        )?;
        if self.injected_faults() > 0 {
            write!(
                f,
                "\n  injected: irq={} nmi={} parity-retries={} jitter-cycles={} cpbusy-cycles={}",
                self.injected_interrupts,
                self.injected_nmis,
                self.injected_parity_retries,
                self.injected_jitter_cycles,
                self.injected_coproc_busy_cycles
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = RunStats {
            cycles: 170,
            instructions: 100,
            nops: 15,
            branches: 10,
            branches_taken: 7,
            branch_slot_nops: 3,
            branch_slot_squashed: 2,
            ..RunStats::default()
        };
        assert!((s.cpi() - 1.7).abs() < 1e-12);
        assert!((s.sustained_mips(20.0) - 20.0 / 1.7).abs() < 1e-9);
        assert!((s.nop_fraction() - 0.15).abs() < 1e-12);
        assert!((s.cycles_per_branch() - 1.5).abs() < 1e-12);
        assert!((s.taken_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_all_zeroes() {
        let s = RunStats::default();
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.sustained_mips(20.0), 0.0);
        assert_eq!(s.cycles_per_branch(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RunStats {
            cycles: 10,
            instructions: 5,
            ..RunStats::default()
        };
        let b = RunStats {
            cycles: 20,
            instructions: 15,
            ..RunStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 30);
        assert_eq!(a.instructions, 20);
        assert!((a.cpi() - 1.5).abs() < 1e-12);
    }

    /// Every field set to a distinct multiple of `k`, so `merge` acting
    /// field-wise as `+` makes the whole struct linear in `k` — any dropped,
    /// duplicated or cross-wired counter breaks the linearity check below.
    fn filled(k: u64) -> RunStats {
        RunStats::from_fields(std::array::from_fn(|i| (i as u64 + 1) * k))
    }

    fn merged(a: &RunStats, b: &RunStats) -> RunStats {
        let mut m = *a;
        m.merge(b);
        m
    }

    #[test]
    fn merge_is_associative_and_lossless() {
        let (a, b, c) = (filled(1), filled(100), filled(10_000));
        // Associativity.
        assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
        // Zero is the identity (no counter invents anything).
        assert_eq!(merged(&a, &RunStats::default()), a);
        assert_eq!(merged(&RunStats::default(), &a), a);
        // Linearity: filled(1) + filled(100) must be exactly filled(101) —
        // fails if merge drops, double-counts or cross-wires any field.
        assert_eq!(merged(&a, &b), filled(101));
        assert_eq!(merged(&merged(&a, &b), &c), filled(10_101));
    }

    #[test]
    fn advancing_plus_frozen_is_total() {
        let s = RunStats {
            cycles: 170,
            frozen_cycles: 30,
            ..RunStats::default()
        };
        assert_eq!(s.advancing_cycles() + s.frozen_cycles, s.cycles);
    }

    #[test]
    fn display_mentions_cpi() {
        let s = RunStats {
            cycles: 17,
            instructions: 10,
            ..RunStats::default()
        };
        assert!(s.to_string().contains("cpi 1.700"));
    }

    #[test]
    fn display_shows_injected_counters_only_when_present() {
        let clean = RunStats::default();
        assert!(!clean.to_string().contains("injected:"));
        let faulted = RunStats {
            injected_nmis: 2,
            injected_jitter_cycles: 9,
            ..RunStats::default()
        };
        let text = faulted.to_string();
        assert!(text.contains("injected:"));
        assert!(text.contains("nmi=2"));
        assert!(text.contains("jitter-cycles=9"));
    }
}

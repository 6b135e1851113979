//! **E7 — the bottom line**: no-op fractions, cycles per instruction, and
//! sustained MIPS.
//!
//! *"Simulations of our large Pascal benchmarks show that 15.6% of all
//! instructions are no-ops due to unused branch delays or other pipeline
//! interlocks that cannot be optimized away. For Lisp, this number
//! increases slightly to 18.3% ... When the memory system overhead is
//! included (delays from Icache and Ecache misses), the average
//! instruction requires about 1.7 cycles meaning MIPS-X should have a
//! sustained throughput above 11 MIPs."*
//!
//! The experiment is a [`SweepSpec`] on the block engine over the
//! `pascal-large` and `lisp-large` synthetic profiles.

use mipsx_core::{RunStats, SimConfig};
use mipsx_explore::{
    run_sweep, EngineKind, JobResult, SimPoint, SweepOptions, SweepRow, SweepSpec,
};
use mipsx_mem::EcacheConfig;
use mipsx_reorg::BranchScheme;
use mipsx_workloads::calibration;

use crate::{Row, SEEDS};

/// The experiment's full result: each workload class's counters, summed
/// over its seeds.
#[derive(Clone, Copy, Debug)]
pub struct CpiResult {
    /// Pascal-like workload counters.
    pub pascal: RunStats,
    /// Lisp-like workload counters.
    pub lisp: RunStats,
}

impl CpiResult {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        vec![
            Row {
                label: "no-op fraction, Pascal-like".into(),
                paper: Some(calibration::PASCAL_NOP_FRACTION),
                measured: self.pascal.nop_fraction(),
            },
            Row {
                label: "no-op fraction, Lisp-like".into(),
                paper: Some(calibration::LISP_NOP_FRACTION),
                measured: self.lisp.nop_fraction(),
            },
            Row {
                label: "CPI with memory overhead".into(),
                paper: Some(calibration::OVERALL_CPI),
                measured: self.pascal.cpi(),
            },
            Row {
                label: "sustained MIPS @ 20 MHz".into(),
                paper: Some(11.0),
                measured: self.pascal.sustained_mips(calibration::CLOCK_MHZ),
            },
            Row {
                label: "cycles/branch (large benchmarks)".into(),
                paper: Some(calibration::REORG_IMPROVED_CYCLES_PER_BRANCH),
                measured: self.pascal.cycles_per_branch(),
            },
        ]
    }
}

/// The experiment as a declarative sweep: the scaled board over the large
/// Pascal-like seeds, then the large Lisp-like seeds.
pub fn sweep_spec() -> SweepSpec {
    // The paper's 1.7 CPI includes external-cache effects measured from
    // traces of 50–270 KB programs, far larger than the synthetic
    // workloads here. Per the substitution rule (DESIGN.md §4), the memory
    // system is scaled with the workload: the Ecache shrinks 64× to match
    // the ~64× smaller footprint, preserving the fits/thrashes behaviour
    // the full-size hierarchy had at full scale. The on-chip Icache is the
    // real 512-word design (code footprints here genuinely exceed it).
    let cfg = SimConfig {
        ecache: EcacheConfig {
            size_words: 1024,
            ..EcacheConfig::mipsx()
        },
        mem_latency: 9,
        ..SimConfig::mipsx()
    };
    let mut spec =
        SweepSpec::new(SimPoint::new(cfg, BranchScheme::mipsx()).with_engine(EngineKind::Block));
    spec.workloads = [
        crate::seeded("synth:pascal-large"),
        crate::seeded("synth:lisp-large"),
    ]
    .concat();
    spec
}

/// One workload class's counters, summed over its rows.
fn class(rows: &[SweepRow]) -> RunStats {
    let mut total = JobResult::default();
    for row in rows {
        total.merge(&row.result);
    }
    total.run_stats()
}

/// Run the experiment under `opts` (workers, result store, shared images).
pub fn run_with(opts: &SweepOptions) -> CpiResult {
    let outcome = run_sweep(&sweep_spec(), opts).expect("E7 sweep");
    let (pascal, lisp) = outcome.rows.split_at(SEEDS.len());
    CpiResult {
        pascal: class(pascal),
        lisp: class(lisp),
    }
}

/// Run the experiment (serial, no result cache).
pub fn run() -> CpiResult {
    run_with(&SweepOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_fractions_match_the_paper_shape() {
        let r = run();
        assert!(
            r.lisp.nop_fraction() > r.pascal.nop_fraction(),
            "Lisp must out-nop Pascal: {:?}",
            r
        );
        assert!(
            (r.pascal.nop_fraction() - calibration::PASCAL_NOP_FRACTION).abs() < 0.06,
            "Pascal no-op fraction {:.3} too far from 15.6%",
            r.pascal.nop_fraction()
        );
        assert!(
            (r.lisp.nop_fraction() - calibration::LISP_NOP_FRACTION).abs() < 0.06,
            "Lisp no-op fraction {:.3} too far from 18.3%",
            r.lisp.nop_fraction()
        );
    }

    #[test]
    fn cpi_and_mips_land_near_the_paper() {
        let r = run();
        assert!(
            (r.pascal.cpi() - calibration::OVERALL_CPI).abs() < 0.4,
            "CPI {:.3} too far from 1.7",
            r.pascal.cpi()
        );
        assert!(
            r.pascal.sustained_mips(calibration::CLOCK_MHZ)
                > calibration::SUSTAINED_MIPS_FLOOR * 0.8,
            "sustained MIPS {:.1} below the paper's floor",
            r.pascal.sustained_mips(calibration::CLOCK_MHZ)
        );
    }
}

//! **E8 — the coprocessor interface design history**: four schemes, one
//! floating-point-intensive workload.
//!
//! The debate: dedicated buses burn ~20 pins; the non-cached trick costs an
//! internal miss per coprocessor instruction (*"when we generated traces
//! from some floating point intensive code we realized a significant
//! percentage of the instructions were floating point instructions"*); the
//! shipped address-line scheme is cacheable, needs one pin, and gives the
//! FPU direct memory access while other coprocessors spend one extra
//! instruction per transfer.

use mipsx_coproc::{Fpu, InterfaceScheme};
use mipsx_core::{InterlockPolicy, Machine, MachineConfig};
use mipsx_reorg::{BranchScheme, RawProgram, Reorganizer};

use crate::fp_workload;
use crate::Row;

/// One scheme's measured outcome on the FP workload.
#[derive(Clone, Copy, Debug)]
pub struct SchemeOutcome {
    /// The interface scheme.
    pub scheme: InterfaceScheme,
    /// Extra package pins.
    pub extra_pins: u32,
    /// Whether coprocessor instructions live in the Icache.
    pub cacheable: bool,
    /// Cycles for the FP workload.
    pub cycles: u64,
    /// Relative slowdown vs the best scheme.
    pub slowdown: f64,
}

/// Full experiment result.
#[derive(Clone, Debug)]
pub struct CoprocResult {
    /// Outcomes per scheme (direct `ldf`/`stf` workload).
    pub schemes: Vec<SchemeOutcome>,
    /// Cycles when the FPU is privileged (direct `ldf`/`stf`).
    pub ldf_cycles: u64,
    /// Cycles for the identical computation through main registers
    /// (`ld`+`mvtc` / `mvfc`+`st`) — the non-privileged coprocessor path.
    pub mvtc_cycles: u64,
}

impl CoprocResult {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .schemes
            .iter()
            .map(|s| Row {
                label: format!("{} ({} pins)", s.scheme, s.extra_pins),
                paper: None,
                measured: s.slowdown,
            })
            .collect();
        rows.push(Row {
            label: "indirect/direct transfer cycle ratio".into(),
            paper: None,
            measured: self.mvtc_cycles as f64 / self.ldf_cycles as f64,
        });
        rows
    }
}

fn run_fp(raw: &RawProgram, scheme: InterfaceScheme) -> u64 {
    let reorg = Reorganizer::new(BranchScheme::mipsx());
    let (program, _) = reorg.reorganize(raw).expect("reorganize");
    let mut machine = Machine::new(MachineConfig {
        coproc_scheme: scheme,
        interlock: InterlockPolicy::Detect,
        ..MachineConfig::mipsx()
    });
    machine.attach_coprocessor(fp_workload::FPU, Box::new(Fpu::new()));
    machine.load_program(&program);
    machine.run(100_000_000).expect("run").cycles
}

/// Run the experiment.
pub fn run() -> CoprocResult {
    let n = 256;
    let ldf = fp_workload::saxpy_ldf(n);
    let mvtc = fp_workload::saxpy_mvtc(n);

    let mut schemes: Vec<SchemeOutcome> = InterfaceScheme::ALL
        .iter()
        .map(|&scheme| {
            let cycles = run_fp(&ldf, scheme);
            SchemeOutcome {
                scheme,
                extra_pins: scheme.extra_pins(),
                cacheable: scheme.cacheable(),
                cycles,
                slowdown: 0.0,
            }
        })
        .collect();
    let best = schemes.iter().map(|s| s.cycles).min().unwrap_or(1);
    for s in &mut schemes {
        s.slowdown = s.cycles as f64 / best as f64;
    }

    let ldf_cycles = schemes
        .iter()
        .find(|s| s.scheme == InterfaceScheme::AddressLines)
        .expect("ALL lists the final scheme")
        .cycles;
    let mvtc_cycles = run_fp(&mvtc, InterfaceScheme::AddressLines);

    CoprocResult {
        schemes,
        ldf_cycles,
        mvtc_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noncached_scheme_is_slow_on_fp_code() {
        let r = run();
        let get = |s: InterfaceScheme| r.schemes.iter().find(|o| o.scheme == s).unwrap();
        let noncached = get(InterfaceScheme::NonCached);
        let final_ = get(InterfaceScheme::AddressLines);
        assert!(
            noncached.cycles as f64 > final_.cycles as f64 * 1.15,
            "forced misses must hurt FP code: noncached {} vs final {}",
            noncached.cycles,
            final_.cycles
        );
    }

    #[test]
    fn final_scheme_matches_bus_performance_with_one_pin() {
        let r = run();
        let get = |s: InterfaceScheme| r.schemes.iter().find(|o| o.scheme == s).unwrap();
        let bus = get(InterfaceScheme::CoprocField);
        let final_ = get(InterfaceScheme::AddressLines);
        // Same cycle count as the dedicated bus…
        assert_eq!(final_.cycles, bus.cycles);
        // …for 19 fewer pins.
        assert!(final_.extra_pins + 19 <= bus.extra_pins);
        assert!(final_.cacheable);
    }

    #[test]
    fn direct_memory_access_saves_cycles() {
        let r = run();
        assert!(
            r.mvtc_cycles > r.ldf_cycles,
            "indirect transfers must cost more: {} vs {}",
            r.mvtc_cycles,
            r.ldf_cycles
        );
    }
}

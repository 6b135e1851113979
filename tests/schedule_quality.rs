//! The reorganizer's own output must satisfy its scheduling-quality lints:
//! for every kernel × all six Table 1 branch schemes,
//! the lowered program carries **zero** `missed-slot-fill` and zero
//! `redundant-nop` findings — the reorganizer never leaves waste on the
//! table that its own lint pass can see. No waivers: trailing-pad cleanup
//! (Pass 2.5) closed the one real gap this test originally found.

use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_verify::{quality, DiagKind, VerifyConfig};
use mipsx_workloads::all_kernels;

#[test]
fn reorganizer_output_passes_its_own_quality_lints() {
    for kernel in all_kernels() {
        for scheme in BranchScheme::table1() {
            let label = format!("{} / {scheme}", kernel.name);
            let (program, _) = Reorganizer::new(scheme)
                .reorganize(&kernel.raw)
                .unwrap_or_else(|e| panic!("{label}: reorganize failed: {e}"));

            let lint = quality(&program, &VerifyConfig::for_slots(scheme.slots));
            let offenders: Vec<String> = lint
                .diagnostics
                .iter()
                .filter(|d| matches!(d.kind, DiagKind::MissedSlotFill | DiagKind::RedundantNop))
                .map(|d| format!("{:#07x}: {} — {}", d.addr, d.kind.name(), d.detail))
                .collect();
            assert!(
                offenders.is_empty(),
                "{label}: schedule waste the reorganizer should have removed:\n  {}",
                offenders.join("\n  ")
            );
        }
    }
}

/// The two lints the reorganizer is held to are the waste lints; the
/// deeper ones (avoidable-load-stall, cross-block-hazard-at-join) are
/// advisory and may legitimately fire on dense schedules. Record the
/// current state: kernels are fully clean.
#[test]
fn kernel_schedules_are_fully_lint_clean() {
    for kernel in all_kernels() {
        for scheme in BranchScheme::table1() {
            let (program, _) = Reorganizer::new(scheme)
                .reorganize(&kernel.raw)
                .expect("schedulable");
            let lint = quality(&program, &VerifyConfig::for_slots(scheme.slots));
            assert_eq!(
                lint.diagnostics.len(),
                0,
                "{} / {scheme}: expected a fully lint-clean schedule",
                kernel.name
            );
        }
    }
}

//! Golden digests of the static analysis over every program the
//! experiments schedule.
//!
//! For every kernel × all six Table 1 schemes, and the `pascal`, `lisp`
//! and `pascal-large` synth programs at every experiment seed under the
//! same six schemes, one line pins FNV-1a digests of three reports:
//!
//! - `lint`: `verify_with_timing(..).to_json()` — the hazard verifier
//!   plus the scheduling-quality lints, the `mipsx lint --timing` path;
//! - `timing`: `TimingAnalysis::to_json()` — the block partition, loop
//!   weights, liveness and the static CPI bound;
//! - `report`: the reorganizer's `ScheduleReport`, its slot-fill and
//!   nop counts (the verdict on a schedule is the `lint` column's, not
//!   the reorganizer's);
//! - `words`: the scheduled image itself, so the reorganizer's emission
//!   stays word-for-word identical.
//!
//! Hand-assembled programs at a non-zero origin add the image edges the
//! analysis must handle without panicking: a branch below the origin, a
//! direct jump and a call past the end, a delay window running off the
//! image, a displacement that wraps below address 0, and straight-line
//! code falling off the end, and an entry point below the image. Each is
//! analyzed under both slot counts.
//!
//! Any change to what the analysis reports shows up as a changed line.
//! Regenerate intentionally with `UPDATE_GOLDEN=1`.

mod golden_programs;

use mipsx::asm::Program;
use mipsx::reorg::ScheduleReport;
use mipsx::verify::{quality, verify, verify_with_timing, TimingAnalysis, VerifyConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/analysis.digests");

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(label: &str, program: &Program, slots: usize, report: Option<&ScheduleReport>) -> String {
    let cfg = VerifyConfig::for_slots(slots);
    let lint = verify_with_timing(program, &cfg).to_json();
    let timing = TimingAnalysis::of(program, &cfg).to_json();
    let mut out = format!(
        "{label}: lint={:016x} timing={:016x}",
        fnv1a(&lint),
        fnv1a(&timing)
    );
    if let Some(r) = report {
        out.push_str(&format!(
            " report={:016x} words={:016x}",
            fnv1a(&format!("{r:?}")),
            fnv1a(&format!("{:?}", program.words))
        ));
    }
    out
}

#[test]
fn analysis_digests_match_golden() {
    let mut lines = Vec::new();
    for case in golden_programs::cases() {
        if case.report.is_none() {
            // The standalone entry points must not panic at the edges.
            let cfg = VerifyConfig::for_slots(case.slots);
            verify(&case.program, &cfg);
            quality(&case.program, &cfg);
        }
        lines.push(line(
            &case.label,
            &case.program,
            case.slots,
            case.report.as_ref(),
        ));
    }
    let got = lines.join("\n") + "\n";

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to regenerate");
    let changed: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        changed.is_empty() && got.lines().count() == want.lines().count(),
        "analysis digests changed ({} line(s) differ, {} vs {} lines); if intentional, \
         regenerate with UPDATE_GOLDEN=1:\n{}",
        changed.len(),
        got.lines().count(),
        want.lines().count(),
        changed.join("\n")
    );
}

//! Golden test for the lint listing.
//!
//! `tests/golden/broken.s` packs one violation of each major rule into a
//! short program; the expected diagnostic listing is frozen in
//! `tests/golden/broken.lint`. The listing is sorted and deterministic, so
//! any change to diagnostic text, ordering, or rule coverage shows up as a
//! diff here. `tests/golden/illegal_after_halt.s` is a probe with a listing
//! of its own. Regenerate intentionally with `UPDATE_GOLDEN=1`.

use mipsx::asm::assemble;
use mipsx::verify::{verify, verify_with_timing, LintReport, VerifyConfig};

/// Lint `tests/golden/<stem>.s` and compare its listing with
/// `tests/golden/<stem>.lint`; returns the report for further checks.
fn listing_matches_golden(stem: &str) -> LintReport {
    let golden = |ext: &str| format!("{}/tests/golden/{stem}.{ext}", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(golden("s")).expect("read the probe");
    let program = assemble(&source).expect("the probe assembles — it is broken, not invalid");

    let report = verify(&program, &VerifyConfig::default());
    let got = format!("{report}\n");

    let golden_path = golden("lint");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(&golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got, want,
        "lint listing changed; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
    report
}

#[test]
fn broken_program_lint_listing_matches_golden() {
    let report = listing_matches_golden("broken");
    // The program is broken on purpose; make sure it stays broken in the
    // ways the listing documents.
    assert!(!report.is_clean(), "broken.s unexpectedly lints clean");
}

/// The `--json` report (correctness + scheduling-quality diagnostics) is
/// byte-stable: diagnostics are sorted on `(addr, kind, detail)` and
/// deduplicated, and the serializer emits keys in a fixed order, so the
/// same program produces the same bytes on every run. The golden file
/// locks the exact bytes; any ordering or formatting drift fails here.
#[test]
fn broken_program_json_report_matches_golden_byte_for_byte() {
    let source_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/broken.s");
    let source = std::fs::read_to_string(source_path).expect("read broken.s");
    let program = assemble(&source).expect("broken.s still assembles — it is broken, not invalid");

    let report = verify_with_timing(&program, &VerifyConfig::default());
    assert!(!report.is_clean(), "broken.s unexpectedly lints clean");
    assert!(
        report.warning_count() > 0,
        "broken.s should trip at least one scheduling-quality warning"
    );
    let got = format!("{}\n", report.to_json());

    // Determinism: a second independent analysis of the same image must
    // produce identical bytes, not just equivalent content.
    let again = format!(
        "{}\n",
        verify_with_timing(&program, &VerifyConfig::default()).to_json()
    );
    assert_eq!(got, again, "JSON report is not run-to-run deterministic");

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/broken.lint.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to regenerate");
    assert_eq!(
        got, want,
        "JSON lint report changed; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// An illegal word in a `halt`'s fetch shadow faults the run, so the lint
/// reports it: the probe's listing is one `illegal-instr` error on the word
/// behind the `halt`.
#[test]
fn illegal_word_in_the_halt_shadow_lint_listing_matches_golden() {
    let report = listing_matches_golden("illegal_after_halt");
    assert_eq!(report.error_count(), 1, "{report}");
}

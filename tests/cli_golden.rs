//! Golden test for the `mipsx` command line.
//!
//! Each row runs the built binary and pins what a user sees: the exit
//! code, stdout and stderr (or, for rows whose stderr carries host
//! timings, stdout alone; for `profile`, whose whole report is timings,
//! the exit code alone). The expected transcripts live one per row under
//! `tests/golden/cli/`. Regenerate intentionally with `UPDATE_GOLDEN=1`.
//!
//! Rows run in order in one scratch directory, written as `$TMP` in both
//! the arguments and the transcripts, so the `snapshot save` row leaves
//! the file that the `snapshot info`/`restore` rows read back.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mipsx::core::{Machine, MachineConfig};
use mipsx::reorg::{BranchScheme, Reorganizer, SquashPolicy};
use mipsx::workloads::find_kernel;

/// What a row pins beyond its exit code.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pin {
    /// Exit code, stdout and stderr.
    All,
    /// Exit code and stdout.
    Stdout,
    /// Exit code only.
    Exit,
}

struct Row {
    name: &'static str,
    args: &'static [&'static str],
    pin: Pin,
}

const fn row(name: &'static str, args: &'static [&'static str]) -> Row {
    Row {
        name,
        args,
        pin: Pin::All,
    }
}

const FIB: &str = "examples/asm/fib.s";

const ROWS: &[Row] = &[
    row("info", &["info"]),
    row("asm_fib", &["asm", FIB]),
    row("dis_fib", &["dis", FIB]),
    row("run_block", &["run", FIB, "--engine", "block"]),
    row(
        "run_ideal_block_regs",
        &["run", FIB, "--ideal", "--engine", "block", "--regs"],
    ),
    row("run_trust", &["run", FIB, "--trust"]),
    row(
        "trace_fib_recursive",
        &["trace", "fib_recursive", "--diagram", "20"],
    ),
    row(
        "trace_file_from_cycle",
        &["trace", FIB, "--from-cycle", "50", "--diagram", "10"],
    ),
    row("lint_fib_recursive", &["lint", "fib_recursive"]),
    row("lint_kernels_json", &["lint", "--kernels", "--json"]),
    row(
        "lint_kernels_timing_json",
        &["lint", "--kernels", "--timing", "--json"],
    ),
    row("analyze_fib_recursive", &["analyze", "fib_recursive"]),
    row(
        "analyze_kernels_differential",
        &["analyze", "--kernels", "--differential"],
    ),
    row(
        "snapshot_save",
        &[
            "snapshot",
            "save",
            "fib_recursive",
            "--cycles",
            "500",
            "--out",
            "$TMP/fib.msnap",
        ],
    ),
    row("snapshot_info", &["snapshot", "info", "$TMP/fib.msnap"]),
    row(
        "snapshot_restore",
        &["snapshot", "restore", "$TMP/fib.msnap"],
    ),
    row("soak", &["soak", "--runs", "3", "--seed", "1"]),
    // A budget below the programs' fault-free length: every run ends at
    // the budget as a success, the random plans sized to it.
    row(
        "soak_short_budget",
        &["soak", "--runs", "3", "--seed", "1", "--cycles", "100"],
    ),
    Row {
        name: "sweep_json",
        args: &[
            "sweep",
            "--no-cache",
            "--json",
            "--grid",
            "mem_latency=3,5",
            "--workload",
            "kernel:sum_to_n",
            "--threads",
            "1",
        ],
        pin: Pin::Stdout,
    },
    Row {
        name: "profile",
        args: &["profile", "sum_to_n"],
        pin: Pin::Exit,
    },
    // Error paths.
    row("err_no_args", &[]),
    row("err_unknown_subcommand", &["frob"]),
    row("err_run_missing_path", &["run"]),
    row("err_run_unreadable", &["run", "no/such/file.s"]),
    row("err_asm_unreadable", &["asm", "no/such/file.s"]),
    row("err_asm_bad_source", &["asm", "$TMP/bad.s"]),
    row("err_run_bad_source", &["run", "$TMP/bad.s"]),
    row("err_trace_bad_source", &["trace", "$TMP/bad.s"]),
    row("err_trace_unknown_kernel", &["trace", "no_such_kernel"]),
    row("err_lint_unknown_kernel", &["lint", "no_such_kernel"]),
    row("err_run_bogus_flag", &["run", FIB, "--bogus"]),
    row("err_run_flag_without_value", &["run", FIB, "--cycles"]),
    row("err_run_bad_cycles", &["run", FIB, "--cycles", "lots"]),
    row("err_run_bad_engine", &["run", FIB, "--engine", "warp"]),
    row(
        "err_trace_from_cycle_past_budget",
        &[
            "trace",
            "sum_to_n",
            "--cycles",
            "100",
            "--from-cycle",
            "100",
        ],
    ),
    row("err_lint_bad_slots", &["lint", "sum_to_n", "--slots", "3"]),
    row("err_snapshot_no_action", &["snapshot"]),
    row("err_snapshot_bad_action", &["snapshot", "frob"]),
    row(
        "err_snapshot_save_no_out",
        &["snapshot", "save", "fib_recursive"],
    ),
    row(
        "err_snapshot_info_unreadable",
        &["snapshot", "info", "no/such.msnap"],
    ),
    row(
        "err_sweep_snapshot_every_without_journal",
        &[
            "sweep",
            "--snapshot-every",
            "100",
            "--workload",
            "kernel:sum_to_n",
        ],
    ),
    row(
        "err_sweep_bad_base",
        &["sweep", "--base", "moon", "--workload", "kernel:sum_to_n"],
    ),
    row("err_profile_no_target", &["profile"]),
];

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mipsx-cli-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `mipsx args...` from the repository root, `$TMP` standing for `tmp`.
fn mipsx(args: &[&str], tmp: &Path) -> Output {
    let tmp = tmp.to_str().expect("utf-8 temp path");
    Command::new(env!("CARGO_BIN_EXE_mipsx"))
        .args(args.iter().map(|a| a.replace("$TMP", tmp)))
        .current_dir(repo())
        .env_remove("MIPSX_SWEEP_DIR")
        .output()
        .expect("spawn mipsx")
}

/// The transcript a row pins, with the scratch path folded back to `$TMP`.
fn transcript(row: &Row, out: &Output, tmp: &Path) -> String {
    let text = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes).replace(tmp.to_str().expect("utf-8 temp path"), "$TMP")
    };
    let mut t = format!(
        "$ mipsx {}\nexit: {:?}\n",
        row.args.join(" "),
        out.status.code()
    );
    if row.pin != Pin::Exit {
        t += &format!("--- stdout\n{}", text(&out.stdout));
    }
    if row.pin == Pin::All {
        t += &format!("--- stderr\n{}", text(&out.stderr));
    }
    t
}

#[test]
fn cli_transcripts_match_golden() {
    let tmp = scratch("golden");
    std::fs::write(tmp.join("bad.s"), "main: frobnicate r1, r2\nhalt\n").expect("write bad.s");
    let golden_dir = repo().join("tests/golden/cli");
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        std::fs::create_dir_all(&golden_dir).expect("create golden dir");
    }
    let mut mismatched = Vec::new();
    for row in ROWS {
        let got = transcript(row, &mipsx(row.args, &tmp), &tmp);
        let path = golden_dir.join(format!("{}.txt", row.name));
        if update {
            std::fs::write(&path, &got).expect("write golden");
        }
        let want = std::fs::read_to_string(&path).unwrap_or_default();
        if got != want {
            eprintln!(
                "--- {} (want)\n{want}--- {} (got)\n{got}",
                path.display(),
                row.name
            );
            mismatched.push(row.name);
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(
        mismatched.is_empty(),
        "CLI transcripts changed: {mismatched:?}; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// `--slots` outside 1..=2 is a usage error on every subcommand that takes
/// it — never a panic from the machine's configuration check.
#[test]
fn out_of_range_slots_is_an_error_not_a_panic() {
    let tmp = scratch("slots");
    let out_path = tmp.join("x.msnap");
    let out_path = out_path.to_str().expect("utf-8 temp path");
    let cases: [&[&str]; 6] = [
        &["run", FIB, "--slots", "3"],
        &["trace", "sum_to_n", "--slots", "3"],
        &["profile", "sum_to_n", "--slots", "3"],
        &[
            "snapshot", "save", "sum_to_n", "--out", out_path, "--slots", "3",
        ],
        &["lint", "sum_to_n", "--slots", "0"],
        &["analyze", "sum_to_n", "--slots", "3"],
    ];
    for args in cases {
        let out = mipsx(args, &tmp);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, "mipsx: --slots must be 1 or 2\n", "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert!(!Path::new(out_path).exists(), "refused save wrote a file");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `--slots 1` schedules a built-in kernel for one delay slot, so it halts
/// on the one-slot pipeline it runs on, in every subcommand that runs one,
/// and books exactly what the reorganizer's 1-slot schedule books on a
/// 1-slot board.
#[test]
fn one_slot_runs_code_scheduled_for_one_slot() {
    let scheme = BranchScheme {
        slots: 1,
        squash: SquashPolicy::SquashOptional,
    };
    let kernel = find_kernel("sum_to_n").expect("kernel");
    let (program, _) = Reorganizer::new(scheme)
        .reorganize(&kernel.raw)
        .expect("schedule");
    let mut machine = Machine::new(MachineConfig {
        branch_delay_slots: 1,
        ..MachineConfig::mipsx()
    });
    machine.load_program(&program);
    let books = machine.run(10_000_000).expect("1-slot schedule halts");

    let tmp = scratch("one-slot");
    let snap = tmp.join("s.msnap");
    let snap = snap.to_str().expect("utf-8 temp path");
    for (args, prints_books) in [
        (
            &["trace", "sum_to_n", "--slots", "1", "--diagram", "0"][..],
            true,
        ),
        (&["profile", "sum_to_n", "--slots", "1"], true),
        (
            &[
                "snapshot", "save", "sum_to_n", "--slots", "1", "--out", snap,
            ],
            false,
        ),
        (&["snapshot", "restore", snap], true),
    ] {
        let out = mipsx(args, &tmp);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !prints_books || stdout.contains(&format!("{books}\n")),
            "{args:?}: {stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

/// A journaled sweep renders every row uncached whatever the store served,
/// so its report is the same on a cold store and a warm one; the stderr
/// summary still counts the jobs the store served.
#[test]
fn journaled_sweep_summary_counts_store_hits() {
    let tmp = scratch("journal-hits");
    let args = [
        "sweep",
        "--json",
        "--grid",
        "mem_latency=3,5",
        "--workload",
        "kernel:sum_to_n",
        "--threads",
        "1",
        "--store",
        "$TMP/store",
        "--journal",
        "$TMP/journal",
    ];
    let cold = mipsx(&args, &tmp);
    let warm = mipsx(&args, &tmp);
    for (out, hits) in [(&cold, 0), (&warm, 2)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        assert!(
            stderr.contains(&format!("({hits} from cache, 0 quarantined)")),
            "{stderr}"
        );
    }
    let report = String::from_utf8_lossy(&warm.stdout);
    assert!(
        report.starts_with("{\"jobs\":2,\"cache_hits\":0,"),
        "{report}"
    );
    assert_eq!(cold.stdout, warm.stdout);
    let _ = std::fs::remove_dir_all(&tmp);
}

/// `--threads 0` runs on one worker, and the summary says so: a sweep's on
/// stderr, a profile's on stdout.
#[test]
fn zero_threads_runs_and_reports_one() {
    let tmp = scratch("zero-threads");
    let grid = ["--workload", "kernel:sum_to_n", "--threads", "0"];
    let sweep = mipsx(
        &[&["sweep", "--no-cache", "--json"][..], &grid].concat(),
        &tmp,
    );
    let profile = mipsx(&[&["profile"][..], &grid].concat(), &tmp);
    for (out, summary) in [(&sweep, &sweep.stderr), (&profile, &profile.stdout)] {
        let summary = String::from_utf8_lossy(summary);
        assert_eq!(out.status.code(), Some(0), "{summary}");
        assert!(summary.contains(" jobs on 1 thread(s) in "), "{summary}");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

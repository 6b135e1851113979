//! Golden test for the paper's tables.
//!
//! `mipsx reproduce --json`, with each experiment's `"wall_ms":N,` removed,
//! must equal `perfbench/pinned/paper_tables.jsonl` (one experiment per
//! line, in `reproduce all` order) wrapped as `{"experiments":[...]}`, byte
//! for byte. The benchmark checks its passes against the same file; when a
//! change to a table is intended, re-pin it with the benchmark's
//! `UPDATE_PINS=1`.

use std::process::{Command, Output};

const PINNED: &str = include_str!("../perfbench/pinned/paper_tables.jsonl");

fn mipsx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mipsx"))
        .args(args)
        .output()
        .expect("run mipsx")
}

/// Standard output of a successful run, with every `"wall_ms":N,` removed.
fn untimed_stdout(args: &[&str]) -> String {
    let out = mipsx(args);
    assert!(out.status.success(), "mipsx {args:?} failed: {out:?}");
    let doc = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let mut stripped = String::new();
    let mut rest = doc.trim_end();
    while let Some(at) = rest.find("\"wall_ms\":") {
        stripped.push_str(&rest[..at]);
        rest = rest[at..]
            .trim_start_matches("\"wall_ms\":")
            .trim_start_matches(|c: char| c.is_ascii_digit())
            .strip_prefix(',')
            .expect("wall_ms is followed by another field");
    }
    stripped.push_str(rest);
    stripped
}

/// The pinned document, restricted to the lines `keep` accepts.
fn pinned(keep: impl Fn(&str) -> bool) -> String {
    let lines: Vec<&str> = PINNED.lines().filter(|&l| keep(l)).collect();
    format!("{{\"experiments\":[{}]}}", lines.join(","))
}

#[test]
fn every_table_matches_the_pinned_reference() {
    for threads in ["1", "2"] {
        assert_eq!(
            untimed_stdout(&["reproduce", "--json", "--threads", threads]),
            pinned(|_| true),
            "a paper table changed at --threads {threads}; if intended, \
             re-pin perfbench/pinned/paper_tables.jsonl"
        );
    }
}

#[test]
fn named_experiments_run_in_table_order_on_any_thread_count() {
    let got = untimed_stdout(&["reproduce", "fsm", "table1", "--threads", "2", "--json"]);
    let want =
        pinned(|l| l.starts_with(r#"{"name":"table1","#) || l.starts_with(r#"{"name":"fsm","#));
    assert_eq!(got, want);
}

#[test]
fn unknown_experiment_exits_1_and_lists_the_known_ones() {
    let out = mipsx(&["reproduce", "table1", "foo"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment \"foo\""), "{stderr}");
    assert!(
        stderr.contains(
            "table1, icache, orgs, quickcmp, reorg, fsm, cpi, coproc, vax, btb, ecache, subblock, all"
        ),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing may run before every name is checked"
    );
}

#[test]
fn unparsable_thread_count_is_an_argument_error() {
    let out = mipsx(&["reproduce", "quickcmp", "--threads", "abc"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("option --threads: bad value \"abc\""),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

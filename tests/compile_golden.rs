//! Golden digests of the block engine's compiled images.
//!
//! Every program of the analysis golden's set (`tests/golden_programs`),
//! plus three board-size `with_code_scale(40, 16)` synth programs under the
//! six Table 1 schemes, is compiled by `BlockEngine::from_program` on the
//! ideal and the board configuration. One line per program pins an FNV-1a
//! digest of each engine's `listing()`: per block its start, length, exit,
//! fallback cause, body and window ops, per-outcome deltas, cost bound and
//! chained successors. The analysis digests pin what the verifier reports;
//! these pin what the engine compiles from it, so a refactor of either side
//! must leave both files unedited.
//!
//! Regenerate intentionally with `UPDATE_GOLDEN=1`.

mod golden_programs;

use mipsx::core::{InterlockPolicy, MachineConfig};
use mipsx::engine::BlockEngine;
use mipsx::workloads::{synth, SynthConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/compile.digests");

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn compiled_engines_match_golden() {
    let mut cases = golden_programs::cases();
    for (profile, config) in [
        ("pascal", SynthConfig::pascal_like(11)),
        ("lisp", SynthConfig::lisp_like(11)),
        ("pascal", SynthConfig::pascal_like(47)),
    ] {
        let config = config.with_code_scale(40, 16);
        cases.extend(golden_programs::scheduled(
            &format!("synth:{profile}:{}x40", config.seed),
            &synth::generate(config).raw,
        ));
    }
    let mut lines = Vec::new();
    for case in cases {
        let mut line = case.label.clone() + ":";
        for (name, base) in [
            ("ideal", MachineConfig::cache_ideal()),
            ("board", MachineConfig::mipsx()),
        ] {
            let cfg = MachineConfig {
                branch_delay_slots: case.slots,
                interlock: InterlockPolicy::Detect,
                ..base
            };
            let listing = BlockEngine::from_program(&case.program, &cfg).listing();
            line.push_str(&format!(" {name}={:016x}", fnv1a(&listing)));
        }
        lines.push(line);
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
        "compile digests changed ({} line(s) differ, {} vs {} lines); if intentional, \
         regenerate with UPDATE_GOLDEN=1:\n{}",
        changed.len(),
        got.lines().count(),
        want.lines().count(),
        changed.join("\n")
    );
}

//! E1 and E11 run on the block engine. Their sweeps must book exactly what
//! the cycle-accurate stepper books, row for row, and must really take the
//! fast path: a silent demotion to the stepper or a one-counter drift fails
//! here, not only in the reproduce golden.

use mipsx_bench::experiments::{e11_ecache, e1_branch_schemes};
use mipsx_explore::{run_sweep, EngineKind, SweepOptions, SweepSpec, Telemetry};

fn assert_block_matches_interp(name: &str, spec: SweepSpec) {
    let mut interp = spec.clone();
    interp.base.engine = EngineKind::Interp;
    let mut block = spec;
    block.base.engine = EngineKind::Block;
    let threads = 2;
    let interp = run_sweep(
        &interp,
        &SweepOptions {
            threads,
            ..SweepOptions::default()
        },
    )
    .expect("interp sweep");
    let opts = SweepOptions {
        threads,
        telemetry: Telemetry::enabled(),
        ..SweepOptions::default()
    };
    let block = run_sweep(&block, &opts).expect("block sweep");

    assert_eq!(interp.rows.len(), block.rows.len(), "{name}: row count");
    for (a, b) in interp.rows.iter().zip(&block.rows) {
        assert_eq!(a.workload, b.workload, "{name}: row order");
        assert_eq!(
            a.result, b.result,
            "{name}: {} | {} books differently on the block engine",
            a.point_label, a.workload
        );
    }
    assert!(
        opts.telemetry.snapshot().counter("engine.fast_cycles") > 0,
        "{name}: block rows booked no fast cycles"
    );
}

#[test]
fn e1_block_rows_equal_interp_rows() {
    assert_block_matches_interp("E1", e1_branch_schemes::sweep_spec());
}

#[test]
fn e11_block_rows_equal_interp_rows() {
    assert_block_matches_interp("E11", e11_ecache::sweep_spec());
}

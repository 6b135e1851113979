//! The engine's two headline guarantees, end to end:
//!
//! 1. **Order-independent aggregation** — a sweep run on one thread and on
//!    many renders byte-identical reports.
//! 2. **Content-addressed caching** — an unchanged spec re-run against a
//!    warm store is served entirely from cache, with identical results;
//!    and cache keys are invariant under how a configuration was built but
//!    distinct across semantically different configurations.

use mipsx_explore::{
    canonical_point, job_key, run_sweep, Axis, EngineKind, Grid, ImageCache, ResultStore, SimPoint,
    SweepOptions, SweepSpec, Telemetry, Workload,
};
use proptest::prelude::*;

/// A small but non-trivial sweep: 4 grid points × 2 kernels = 8 jobs.
fn small_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(SimPoint::mipsx());
    spec.grid = Grid::Axes(vec![
        Axis::parse_flag("mem_latency=3,5").unwrap(),
        Axis::parse_flag("icache.rows=4,8").unwrap(),
    ]);
    spec.workloads = vec![
        Workload::parse("kernel:sum_to_n").unwrap(),
        Workload::parse("kernel:memcpy").unwrap(),
    ];
    spec.run_cycles = 5_000_000;
    spec
}

fn opts(threads: usize, store: ResultStore) -> SweepOptions {
    SweepOptions {
        threads,
        store,
        ..SweepOptions::default()
    }
}

#[test]
fn serial_and_parallel_reports_are_byte_identical() {
    let spec = small_spec();
    let serial = run_sweep(&spec, &opts(1, ResultStore::disabled())).unwrap();
    let parallel = run_sweep(&spec, &opts(4, ResultStore::disabled())).unwrap();
    assert_eq!(serial.rows.len(), 8);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.to_markdown(), parallel.to_markdown());
}

#[test]
fn deterministic_metrics_are_thread_count_invariant() {
    // The deterministic telemetry section (counters + histograms) must
    // total identically — byte for byte — whether the sweep ran serial or
    // on four workers, even though the jobs interleave arbitrarily.
    let spec = small_spec();
    let run = |threads: usize| {
        let o = SweepOptions {
            threads,
            store: ResultStore::disabled(),
            telemetry: Telemetry::enabled(),
            ..SweepOptions::default()
        };
        run_sweep(&spec, &o).unwrap();
        o.telemetry.snapshot()
    };
    let serial = run(1);
    let threaded = run(4);
    assert_eq!(
        serial.deterministic_json(),
        threaded.deterministic_json(),
        "deterministic sections diverged"
    );
    assert_eq!(serial.counter("sweep.jobs"), 8);
    assert!(serial.counter("guest.cycles") > 0);
    // The timing section exists in both but is *expected* to differ; the
    // exporters must still emit it with stable key order (checked by the
    // telemetry crate's merge-order proptests).
    assert!(threaded.span_total_ns("job/run") > 0);
}

#[test]
fn warm_rerun_is_fully_served_from_cache() {
    let spec = small_spec();
    let store = mipsx_explore::temp_store("determinism");
    let cold = run_sweep(&spec, &opts(4, store.clone())).unwrap();
    assert_eq!(cold.cache_hits, 0, "fresh store must not hit");
    let warm = run_sweep(&spec, &opts(4, store)).unwrap();
    assert_eq!(
        warm.cache_hits,
        warm.rows.len(),
        "warm re-run must fully hit"
    );
    for (a, b) in cold.rows.iter().zip(&warm.rows) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.key, b.key);
    }
}

#[test]
fn cached_and_fresh_runs_agree_with_serial_baseline() {
    // A parallel run over a half-warm store still renders the serial
    // (cold, storeless) counters.
    let spec = small_spec();
    let baseline = run_sweep(&spec, &opts(1, ResultStore::disabled())).unwrap();
    let store = mipsx_explore::temp_store("halfwarm");
    let mut first = spec.clone();
    first.workloads.truncate(1); // warm only half the cells
    run_sweep(&first, &opts(2, store.clone())).unwrap();
    let mixed = run_sweep(&spec, &opts(4, store)).unwrap();
    assert_eq!(mixed.cache_hits, 4);
    for (a, b) in baseline.rows.iter().zip(&mixed.rows) {
        assert_eq!(a.result, b.result, "{}/{}", a.point_label, a.workload);
    }
}

#[test]
fn warm_image_cache_reports_are_byte_identical_to_cold() {
    // Same spec, same shared ImageCache: the second sweep prepares nothing
    // (every job hits the image cache) yet renders the exact bytes of the
    // first — preparation sharing must be invisible in the results.
    let spec = small_spec();
    let images = ImageCache::new();
    let run = |images: ImageCache| {
        let o = SweepOptions {
            threads: 4,
            store: ResultStore::disabled(),
            telemetry: Telemetry::enabled(),
            images,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&spec, &o).unwrap();
        (outcome, o.telemetry.snapshot())
    };
    let (cold, cold_snap) = run(images.clone());
    // 2 kernels × 1 scheme: two distinct images serve all 8 jobs.
    assert_eq!(cold_snap.counter("image.misses"), 2);
    assert_eq!(cold_snap.counter("image.hits"), 6);
    let (warm, warm_snap) = run(images);
    assert_eq!(warm_snap.counter("image.misses"), 0, "warm run re-prepared");
    assert_eq!(warm_snap.counter("image.hits"), 8);
    assert_eq!(cold.to_json(), warm.to_json());
    assert_eq!(cold.to_csv(), warm.to_csv());
}

#[test]
fn engine_axis_sweeps_are_thread_count_invariant() {
    // The determinism guarantees extend over the engine axis: interp and
    // block jobs interleaved across 4 workers render the serial bytes,
    // and the deterministic telemetry section (which now carries image
    // and block-engine counters) totals identically.
    let mut spec = small_spec();
    let Grid::Axes(axes) = &mut spec.grid else {
        panic!("small_spec uses axes")
    };
    axes.push(Axis::parse_flag("engine=interp,block").unwrap());
    let run = |threads: usize| {
        let o = SweepOptions {
            threads,
            store: ResultStore::disabled(),
            telemetry: Telemetry::enabled(),
            ..SweepOptions::default()
        };
        (run_sweep(&spec, &o).unwrap(), o.telemetry.snapshot())
    };
    let (serial, serial_snap) = run(1);
    let (parallel, parallel_snap) = run(4);
    assert_eq!(serial.rows.len(), 16);
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(
        serial_snap.deterministic_json(),
        parallel_snap.deterministic_json(),
        "deterministic sections diverged over the engine axis"
    );
}

#[test]
fn block_rows_match_interp_rows_on_pipeline_counters() {
    // Same grid twice — once per engine — over every kernel × all six
    // Table 1 schemes on the cache-ideal base (zero miss penalties, so
    // the block fast path actually engages instead of demoting whole).
    // Every RunStats counter must agree; the cache counters may not (the
    // fast path skips the cache models), which is exactly why the engine
    // is part of the job key.
    let base = SimPoint::new(
        mipsx_core::SimConfig::cache_ideal(),
        mipsx_reorg::BranchScheme::mipsx(),
    );
    let mut spec = SweepSpec::new(base);
    spec.grid = Grid::Axes(vec![
        Axis::parse_flag("branch.slots=2,1").unwrap(),
        Axis::parse_flag("branch.squash=none,always,optional").unwrap(),
    ]);
    spec.workloads = mipsx_workloads::kernel_names()
        .iter()
        .map(|name| Workload::parse(&format!("kernel:{name}")).unwrap())
        .collect();
    spec.run_cycles = 5_000_000;
    let interp = run_sweep(&spec, &opts(4, ResultStore::disabled())).unwrap();
    let mut block_spec = spec.clone();
    block_spec.base = block_spec.base.with_engine(EngineKind::Block);
    let block_opts = SweepOptions {
        threads: 4,
        store: ResultStore::disabled(),
        telemetry: Telemetry::enabled(),
        ..SweepOptions::default()
    };
    let block = run_sweep(&block_spec, &block_opts).unwrap();
    assert!(
        block_opts
            .telemetry
            .snapshot()
            .counter("engine.fast_cycles")
            > 0,
        "block sweeps on the cache-ideal base must exercise the fast path"
    );
    assert_eq!(interp.rows.len(), block.rows.len());
    for (a, b) in interp.rows.iter().zip(&block.rows) {
        let tag = format!("{} | {}", a.point_label, a.workload);
        assert_ne!(a.key, b.key, "{tag}: engines must key differently");
        let (ra, rb) = (&a.result, &b.result);
        assert_eq!(ra.run_stats(), rb.run_stats(), "{tag}: RunStats counters");
        // Scheduling counters come from the shared prepared image.
        assert_eq!(ra.sched_branches, rb.sched_branches, "{tag}: sched");
        assert_eq!(ra.sched_slot_nops, rb.sched_slot_nops, "{tag}: sched nops");
    }
}

#[test]
fn checked_engine_agrees_with_interp_and_validates() {
    // engine=checked runs the stepper under the reference-model oracle;
    // its rows must equal plain interp rows bit for bit (same machine,
    // same books — the oracle only watches).
    let mut spec = small_spec();
    spec.workloads.truncate(1);
    let interp = run_sweep(&spec, &opts(2, ResultStore::disabled())).unwrap();
    let mut checked_spec = spec.clone();
    checked_spec.base = checked_spec.base.with_engine(EngineKind::Checked);
    let checked = run_sweep(&checked_spec, &opts(2, ResultStore::disabled())).unwrap();
    for (a, b) in interp.rows.iter().zip(&checked.rows) {
        assert_eq!(a.result, b.result, "{}", a.point_label);
        assert_ne!(a.key, b.key);
        assert!(b.failed.is_none());
    }
    // And the checked engine refuses the 1-slot pipeline at spec level.
    let mut bad = checked_spec;
    bad.grid = Grid::Axes(vec![Axis::parse_flag("branch.slots=1").unwrap()]);
    assert!(bad.expand().is_err());
}

/// Build one point by applying three single-valued axes in the given
/// order.
fn point_from(lat: u32, rows_exp: u32, late: u32, order: [usize; 3]) -> SimPoint {
    let flags = [
        format!("mem_latency={lat}"),
        format!("icache.rows={}", 1u32 << rows_exp),
        format!("ecache.late_miss={late}"),
    ];
    let mut spec = SweepSpec::new(SimPoint::mipsx());
    spec.grid = Grid::Axes(
        order
            .iter()
            .map(|&i| Axis::parse_flag(&flags[i]).unwrap())
            .collect(),
    );
    spec.workloads = vec![Workload::parse("kernel:sum_to_n").unwrap()];
    spec.expand().unwrap()[0].point
}

proptest! {
    /// The canonical form (hence the cache key) does not depend on the
    /// order configuration fields were applied in.
    #[test]
    fn canonical_form_is_application_order_invariant(
        lat in 1u32..16,
        rows_exp in 0u32..4,
        late in 0u32..4,
    ) {
        let reference = canonical_point(&point_from(lat, rows_exp, late, [0, 1, 2]));
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            prop_assert_eq!(
                canonical_point(&point_from(lat, rows_exp, late, order)),
                reference.clone()
            );
        }
    }

    /// Keys are equal exactly when the configurations are semantically
    /// equal.
    #[test]
    fn keys_separate_exactly_the_distinct_configs(
        a in (1u32..16, 0u32..4, 0u32..4),
        b in (1u32..16, 0u32..4, 0u32..4),
    ) {
        let pa = point_from(a.0, a.1, a.2, [0, 1, 2]);
        let pb = point_from(b.0, b.1, b.2, [2, 1, 0]);
        let ka = job_key(&pa, "kernel:sum_to_n", 1, None, 1000);
        let kb = job_key(&pb, "kernel:sum_to_n", 1, None, 1000);
        prop_assert_eq!(ka == kb, a == b, "a={:?} b={:?}", a, b);
    }
}

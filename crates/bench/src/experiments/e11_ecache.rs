//! **E11 — the external cache and the late-miss retry loop**.
//!
//! *"Our benchmark programs have static code sizes in the range of 50
//! KBytes to 270 KBytes so we cannot get exact numbers for the effects of
//! the external cache because most of the benchmarks fit entirely."* The
//! Ecache's residual contribution flows through the late-miss protocol:
//! every data miss costs `1 + memory latency` frozen MEM-retry cycles.
//! This experiment sweeps the data working set across the 64K-word cache
//! boundary and the main-memory latency, isolating that contribution.
//!
//! The sweep is a [`SweepSpec`]: a `mem_latency` axis crossed with
//! parameterized `stream:<words>x<reps>` workloads (the data-streaming
//! loop lives in `mipsx_workloads::streaming`).

use mipsx_core::SimConfig;
use mipsx_explore::{
    run_sweep, Axis, EngineKind, Grid, SimPoint, SweepOptions, SweepSpec, Workload,
};
use mipsx_mem::EcacheConfig;
use mipsx_reorg::BranchScheme;

use crate::Row;

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct EcachePoint {
    /// Data working set in words.
    pub working_set: u32,
    /// Main-memory latency (cycles).
    pub mem_latency: u32,
    /// Fraction of all cycles spent in the Ecache retry loop.
    pub stall_fraction: f64,
    /// Overall CPI at this point.
    pub cpi: f64,
    /// Ecache miss ratio (data side).
    pub miss_ratio: f64,
}

/// Full result.
#[derive(Clone, Debug)]
pub struct EcacheResult {
    /// All sweep points.
    pub points: Vec<EcachePoint>,
}

impl EcacheResult {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        self.points
            .iter()
            .map(|p| Row {
                label: format!(
                    "{:6}-word set, {}-cycle memory: stall fraction",
                    p.working_set, p.mem_latency
                ),
                paper: None,
                measured: p.stall_fraction,
            })
            .collect()
    }
}

/// The swept working sets (words) and memory latencies (cycles).
const WORKING_SETS: [u32; 4] = [1024, 2048, 8192, 16384];
const MEM_LATENCIES: [u32; 3] = [3, 5, 10];

/// The experiment as a declarative sweep. A small Ecache (4K words) keeps
/// the sweep fast while preserving the fits/doesn't-fit boundary; the full
/// 64K configuration behaves identically in shape, just needs
/// proportionally larger sets. Jobs run on the block engine, which drives
/// the same cache models and books the stepper's cycles exactly.
pub fn sweep_spec() -> SweepSpec {
    let cfg = SimConfig {
        ecache: EcacheConfig {
            size_words: 4 * 1024,
            ..EcacheConfig::mipsx()
        },
        ..SimConfig::mipsx()
    };
    let mut spec =
        SweepSpec::new(SimPoint::new(cfg, BranchScheme::mipsx()).with_engine(EngineKind::Block));
    spec.grid = Grid::Axes(vec![
        Axis::parse_flag("mem_latency=3,5,10").expect("static axis")
    ]);
    spec.workloads = WORKING_SETS
        .iter()
        .map(|ws| Workload::parse(&format!("stream:{ws}x4")).expect("static workload"))
        .collect();
    spec.run_cycles = 200_000_000;
    spec
}

/// Run the sweep under `opts` (workers, result store, shared images).
pub fn run_with(opts: &SweepOptions) -> EcacheResult {
    let outcome = run_sweep(&sweep_spec(), opts).expect("E11 sweep");
    // Rows are (latency point × working-set workload); report them in the
    // historical working-set-major order.
    let mut points = Vec::with_capacity(outcome.rows.len());
    for (w, &working_set) in WORKING_SETS.iter().enumerate() {
        for (l, &mem_latency) in MEM_LATENCIES.iter().enumerate() {
            let r = outcome.rows[l * WORKING_SETS.len() + w].result;
            let stats = r.run_stats();
            points.push(EcachePoint {
                working_set,
                mem_latency,
                stall_fraction: stats.ecache_stall_fraction(),
                cpi: stats.cpi(),
                miss_ratio: r.ecache().miss_ratio(),
            });
        }
    }
    EcacheResult { points }
}

/// Run the sweep (serial, no result cache).
pub fn run() -> EcacheResult {
    run_with(&SweepOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(r: &EcacheResult, ws: u32, lat: u32) -> EcachePoint {
        *r.points
            .iter()
            .find(|p| p.working_set == ws && p.mem_latency == lat)
            .unwrap()
    }

    #[test]
    fn fitting_working_sets_barely_stall() {
        let r = run();
        let fits = point(&r, 1024, 5);
        let thrashes = point(&r, 16384, 5);
        assert!(
            fits.stall_fraction < 0.08,
            "in-cache set stalls too much: {fits:?}"
        );
        assert!(
            thrashes.stall_fraction > fits.stall_fraction * 3.0,
            "beyond-cache set must stall hard: {thrashes:?} vs {fits:?}"
        );
    }

    #[test]
    fn memory_latency_scales_the_retry_loop() {
        let r = run();
        let fast = point(&r, 16384, 3);
        let slow = point(&r, 16384, 10);
        assert!(
            slow.stall_fraction > fast.stall_fraction,
            "slower memory, longer retry loop: {slow:?} vs {fast:?}"
        );
        assert!(slow.cpi > fast.cpi);
    }

    #[test]
    fn miss_ratio_jumps_at_the_cache_boundary() {
        let r = run();
        let fits = point(&r, 2048, 5);
        let over = point(&r, 8192, 5);
        assert!(over.miss_ratio > fits.miss_ratio, "{over:?} vs {fits:?}");
    }
}

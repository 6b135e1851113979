//! **E12 — ablation: why the 512 valid bits exist.**
//!
//! The paper's Icache carries one valid bit per *word* — sub-block
//! placement — so a miss can be serviced in 2 cycles by fetching just the
//! needed word (plus its successor). The obvious alternative the valid
//! bits buy out of is whole-block fill: stream all 16 words in before
//! resuming, at the external path's one word per cycle. This ablation
//! quantifies the choice on the same traces as E2 — and shows the paper's
//! bandwidth argument: *"Fetching back more words would not be
//! advantageous because the bandwidth of the cache is fully used."* The
//! big block amortizes misses almost to nothing, but each service freezes
//! the pipe for a whole line time; the 2-cycle sub-block design still
//! edges it on average fetch cost while keeping worst-case stalls 8×
//! shorter.
//!
//! The ablation is a [`SweepSpec`]: one boolean axis
//! (`icache.whole_block_fill`) × the five medium traces, merged per
//! policy.

use mipsx_explore::{run_sweep, Axis, Grid, SimPoint, SweepOptions, SweepSpec};

use crate::Row;

/// One fill policy's outcome.
#[derive(Clone, Copy, Debug)]
pub struct FillRow {
    /// Whether the whole block streams in on a miss.
    pub whole_block: bool,
    /// Measured miss ratio.
    pub miss_ratio: f64,
    /// Average fetch cost in cycles.
    pub fetch_cost: f64,
}

/// Ablation result.
#[derive(Clone, Copy, Debug)]
pub struct SubBlockAblation {
    /// The shipped sub-block design (2-cycle miss, double fetch-back).
    pub sub_block: FillRow,
    /// Whole-block fill (16-cycle miss, full line).
    pub whole_block: FillRow,
}

impl SubBlockAblation {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        vec![
            Row {
                label: "sub-block fill: miss ratio".into(),
                paper: None,
                measured: self.sub_block.miss_ratio,
            },
            Row {
                label: "sub-block fill: fetch cost".into(),
                paper: Some(1.24),
                measured: self.sub_block.fetch_cost,
            },
            Row {
                label: "whole-block fill: miss ratio".into(),
                paper: None,
                measured: self.whole_block.miss_ratio,
            },
            Row {
                label: "whole-block fill: fetch cost".into(),
                paper: None,
                measured: self.whole_block.fetch_cost,
            },
        ]
    }
}

/// The ablation as a declarative sweep: sub-block fill first (point 0),
/// whole-block fill second (point 1).
pub fn sweep_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(SimPoint::mipsx());
    spec.grid = Grid::Axes(vec![
        Axis::parse_flag("icache.whole_block_fill=false,true").expect("static axis")
    ]);
    spec.workloads = crate::seeded("trace:medium");
    spec
}

/// Run the ablation under `opts` (workers, result store, shared images).
pub fn run_with(opts: &SweepOptions) -> SubBlockAblation {
    let outcome = run_sweep(&sweep_spec(), opts).expect("E12 sweep");
    let row = |point_index: usize, whole_block: bool| {
        let m = outcome.merged_point(point_index);
        FillRow {
            whole_block,
            miss_ratio: m.icache_miss_ratio(),
            fetch_cost: m.icache_fetch_cost(),
        }
    };
    SubBlockAblation {
        sub_block: row(0, false),
        whole_block: row(1, true),
    }
}

/// Run the ablation (serial, no result cache).
pub fn run() -> SubBlockAblation {
    run_with(&SweepOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_block_fill_lowers_misses_but_costs_more() {
        let r = run();
        // Streaming a whole line in cuts the miss count dramatically…
        assert!(
            r.whole_block.miss_ratio < r.sub_block.miss_ratio / 2.0,
            "{r:?}"
        );
        // …but the 16-cycle line time makes each miss so expensive that
        // the sub-block design still wins on average fetch cost (narrowly —
        // the real clincher is the 8× shorter worst-case stall and the
        // fully-used cache bandwidth the paper cites).
        assert!(
            r.sub_block.fetch_cost < r.whole_block.fetch_cost,
            "sub-block must win on cost: {r:?}"
        );
    }
}

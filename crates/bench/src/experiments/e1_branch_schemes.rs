//! **E1 — Table 1**: average cycles per branch for the six branch schemes.
//!
//! For each scheme the calibrated Pascal-like workload is reorganized under
//! that scheme and executed on a pipeline with the matching delay-slot
//! count; the measured cost uses the paper's charging rule (branch + slot
//! no-ops + squashed slots). The paper's row values are carried along for
//! the report.
//!
//! The grid is a [`SweepSpec`] over the sweep engine: two axes
//! (`branch.slots` × `branch.squash`, reproducing the Table 1 row order)
//! crossed with the five calibrated seeds, merged per scheme.

use mipsx_explore::{run_sweep, EngineKind, Grid, SimPoint, SweepOptions, SweepSpec};
use mipsx_reorg::BranchScheme;

use crate::Row;

/// One Table 1 row.
#[derive(Clone, Copy, Debug)]
pub struct SchemeRow {
    /// The scheme.
    pub scheme: BranchScheme,
    /// Measured average cycles per branch.
    pub cycles_per_branch: f64,
    /// The paper's Table 1 value.
    pub paper: f64,
    /// Fraction of branches emitted squashing under this scheme.
    pub squashing_fraction: f64,
    /// Dynamic taken fraction observed.
    pub taken_fraction: f64,
}

/// Full Table 1 result.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// The six rows, in the paper's order.
    pub rows: Vec<SchemeRow>,
}

impl Table1 {
    /// Rows formatted for the report.
    pub fn report_rows(&self) -> Vec<Row> {
        self.rows
            .iter()
            .map(|r| Row {
                label: r.scheme.to_string(),
                paper: Some(r.paper),
                measured: r.cycles_per_branch,
            })
            .collect()
    }
}

/// The experiment as a declarative sweep. The axis order reproduces
/// [`BranchScheme::table1`]: slots vary slowest (2 then 1), squash policy
/// fastest (none, always, optional). Jobs run on the block engine, which
/// books the stepper's cycles exactly.
pub fn sweep_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(SimPoint::ideal_memory().with_engine(EngineKind::Block));
    spec.grid = Grid::Axes(vec![
        mipsx_explore::Axis::parse_flag("branch.slots=2,1").expect("static axis"),
        mipsx_explore::Axis::parse_flag("branch.squash=none,always,optional").expect("static axis"),
    ]);
    spec.workloads = crate::seeded("synth:pascal");
    spec
}

/// Run the experiment under `opts` (workers, result store, shared images).
pub fn run_with(opts: &SweepOptions) -> Table1 {
    let outcome = run_sweep(&sweep_spec(), opts).expect("E1 sweep");
    let rows = BranchScheme::table1()
        .into_iter()
        .enumerate()
        .map(|(i, scheme)| {
            let m = outcome.merged_point(i);
            let stats = m.run_stats();
            SchemeRow {
                scheme,
                cycles_per_branch: stats.cycles_per_branch(),
                paper: scheme.paper_cycles_per_branch(),
                squashing_fraction: m.sched_squashing as f64 / m.sched_branches.max(1) as f64,
                taken_fraction: stats.taken_fraction(),
            }
        })
        .collect();
    Table1 { rows }
}

/// Run the experiment (serial, no result cache).
pub fn run() -> Table1 {
    run_with(&SweepOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEEDS;
    use mipsx_reorg::SquashPolicy;

    #[test]
    fn table1_shape_holds() {
        let t = run();
        assert_eq!(t.rows.len(), 6);
        let get = |slots: usize, squash: SquashPolicy| {
            t.rows
                .iter()
                .find(|r| r.scheme.slots == slots && r.scheme.squash == squash)
                .unwrap()
                .cycles_per_branch
        };
        // The paper's orderings must reproduce:
        // squashing strictly beats no-squash at a given slot count…
        assert!(get(2, SquashPolicy::SquashOptional) < get(2, SquashPolicy::NoSquash));
        assert!(get(1, SquashPolicy::SquashOptional) < get(1, SquashPolicy::NoSquash));
        // …squash-optional is at least as good as always-squash…
        assert!(get(2, SquashPolicy::SquashOptional) <= get(2, SquashPolicy::AlwaysSquash) + 1e-9);
        assert!(get(1, SquashPolicy::SquashOptional) <= get(1, SquashPolicy::AlwaysSquash) + 1e-9);
        // …and one slot beats two under the same policy.
        assert!(get(1, SquashPolicy::NoSquash) < get(2, SquashPolicy::NoSquash));
        assert!(get(1, SquashPolicy::SquashOptional) < get(2, SquashPolicy::SquashOptional));
    }

    #[test]
    fn values_land_near_the_paper() {
        // Generous band: the workload is a substitute, the shape is the
        // claim — but each row should still land within ~25 % of Table 1.
        // The squashing rows get a wider band: the static verifier's
        // squash-unsafe rule keeps stores and coprocessor ops out of
        // annulled slots, so target heads that begin with a store cannot
        // be copied and squashing schemes lose fill that the paper's hand
        // analysis assumed (measured ~1.97 vs 1.5 for 2-slot always-squash,
        // ~1.69 vs 1.3 for 2-slot squash-optional).
        for row in run().rows {
            let band = if row.scheme.squash == SquashPolicy::NoSquash {
                0.25
            } else {
                0.35
            };
            let dev = (row.cycles_per_branch - row.paper).abs() / row.paper;
            assert!(
                dev < band,
                "{}: measured {:.3} vs paper {:.3}",
                row.scheme,
                row.cycles_per_branch,
                row.paper
            );
        }
    }

    #[test]
    fn most_branches_take() {
        let t = run();
        let taken = t.rows[0].taken_fraction;
        assert!(
            taken > 0.5 && taken < 0.85,
            "taken fraction {taken} out of calibration"
        );
    }

    #[test]
    fn grid_matches_table1_order() {
        let jobs = sweep_spec().expand().unwrap();
        assert_eq!(jobs.len(), 6 * SEEDS.len());
        for (i, scheme) in BranchScheme::table1().into_iter().enumerate() {
            let job = &jobs[i * SEEDS.len()];
            assert_eq!(job.point.scheme, scheme, "point {i}");
            assert_eq!(job.point.cfg.branch_delay_slots, scheme.slots);
        }
    }
}

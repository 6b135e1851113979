//! **E6 — Figures 3 & 4**: the squash FSM and cache-miss FSM in action.
//!
//! *"The control was nicely divided among the 4 main datapath sections,
//! with the only two finite state machines (FSMs) residing in the PC unit.
//! These FSMs handle instruction cache misses and instruction squashing
//! during exceptions and squashed branches."* This experiment drives a
//! workload that exercises both machines and reports their event counts,
//! plus the paper's headline structural claim: handling two squashed
//! branch slots costs the exception FSM exactly one extra input — here,
//! literally one extra method on the same struct. It runs as a
//! [`SweepSpec`] on the block engine; `crates/bench/tests/fsm_reference.rs`
//! proves its counts equal what the stepper's two FSMs book.

use mipsx_explore::{run_sweep, EngineKind, JobResult, SimPoint, SweepOptions, SweepSpec};

use crate::Row;

/// FSM instrumentation over the calibrated Pascal-like seeds.
#[derive(Clone, Copy, Debug)]
pub struct FsmActivity {
    /// Wrong-way squashing branches (Squash line assertions).
    pub branch_squashes: u64,
    /// Instructions killed by the Squash/Exception lines.
    pub instructions_killed: u64,
    /// Cache-miss FSM activations (ψ1 withheld events).
    pub misses_serviced: u64,
    /// Total frozen cycles.
    pub frozen_cycles: u64,
    /// Total cycles, for scale.
    pub cycles: u64,
}

impl FsmActivity {
    /// The activity one job's (or merged jobs') counters record, for
    /// branches with `slots` delay slots: a wrong-way squashing branch
    /// kills all its slots, and the miss FSM's activations and frozen
    /// cycles ride in the result as `stall_events` and `frozen_cycles`.
    pub fn from_result(r: &JobResult, slots: usize) -> FsmActivity {
        FsmActivity {
            branch_squashes: r.branch_slot_squashed / slots as u64,
            instructions_killed: r.squashed,
            misses_serviced: r.stall_events,
            frozen_cycles: r.frozen_cycles,
            cycles: r.cycles,
        }
    }

    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        let frozen_fraction = self.frozen_cycles as f64 / self.cycles.max(1) as f64;
        [
            ("branch squash events", self.branch_squashes as f64),
            ("instructions killed", self.instructions_killed as f64),
            ("cache-miss FSM activations", self.misses_serviced as f64),
            ("frozen-cycle fraction", frozen_fraction),
        ]
        .into_iter()
        .map(|(label, measured)| Row {
            label: label.into(),
            paper: None,
            measured,
        })
        .collect()
    }
}

/// The experiment as a declarative sweep: the shipped machine and branch
/// scheme over the Pascal-like seeds, on the block engine.
pub fn sweep_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(SimPoint::mipsx().with_engine(EngineKind::Block));
    spec.workloads = crate::seeded("synth:pascal");
    spec
}

/// Run the experiment under `opts` (workers, result store, shared images).
pub fn run_with(opts: &SweepOptions) -> FsmActivity {
    let spec = sweep_spec();
    let outcome = run_sweep(&spec, opts).expect("E6 sweep");
    FsmActivity::from_result(&outcome.merged_point(0), spec.base.scheme.slots)
}

/// Run the experiment (serial, no result cache).
pub fn run() -> FsmActivity {
    run_with(&SweepOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_fsms_fire_on_real_workloads() {
        let a = run();
        assert!(a.branch_squashes > 0, "squash FSM never fired");
        assert!(a.misses_serviced > 0, "miss FSM never fired");
        assert!(a.frozen_cycles > 0);
        assert!(a.frozen_cycles < a.cycles, "machine can't be all stall");
    }

    #[test]
    fn killed_instructions_match_squash_events() {
        let a = run();
        // Each branch squash kills exactly the two delay slots.
        assert_eq!(a.instructions_killed, 2 * a.branch_squashes);
    }
}

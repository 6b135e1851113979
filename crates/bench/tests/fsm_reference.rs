//! The stepper's two control FSMs stay the reference for E6. E6 reads its
//! counts off block-engine sweep rows; here every seed also runs on the
//! stepper, as a bare `Machine`, and the squash FSM's and cache-miss FSM's
//! own counters must equal what E6 derives from that seed's row.

use mipsx_bench::experiments::e6_fsms::{self, FsmActivity};
use mipsx_bench::SEEDS;
use mipsx_core::{Machine, MachineConfig};
use mipsx_explore::{run_sweep, SweepOptions};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::synth::{generate, SynthConfig};

#[test]
fn e6_rows_equal_the_stepper_fsms_seed_by_seed() {
    let spec = e6_fsms::sweep_spec();
    let outcome = run_sweep(&spec, &SweepOptions::default()).expect("E6 sweep");
    assert_eq!(outcome.rows.len(), SEEDS.len());
    for (row, &seed) in outcome.rows.iter().zip(&SEEDS) {
        assert_eq!(row.workload, format!("synth:pascal:{seed}"));
        let derived = FsmActivity::from_result(&row.result, spec.base.scheme.slots);

        let raw = generate(SynthConfig::pascal_like(seed)).raw;
        let (program, _) = Reorganizer::new(BranchScheme::mipsx())
            .reorganize(&raw)
            .expect("reorganize");
        let mut machine = Machine::new(MachineConfig::default());
        machine.load_program(&program);
        let stats = machine.run(100_000_000).expect("run");
        let (squash, miss) = (machine.squash_fsm(), machine.miss_fsm());

        assert!(
            squash.branch_squashes > 0 && miss.misses_serviced > 0,
            "seed {seed}"
        );
        assert_eq!(
            derived.branch_squashes, squash.branch_squashes,
            "seed {seed}"
        );
        assert_eq!(
            derived.instructions_killed, squash.instructions_killed,
            "seed {seed}"
        );
        assert_eq!(derived.misses_serviced, miss.misses_serviced, "seed {seed}");
        // Carried, not summed: a stall that starts in a `halt`'s retiring
        // cycle books its stall counter but never freezes (seed 11: 1186
        // Icache+Ecache stall cycles booked, 1180 frozen).
        assert_eq!(derived.frozen_cycles, miss.frozen_cycles, "seed {seed}");
        assert_eq!(derived.cycles, stats.cycles, "seed {seed}");
    }
}

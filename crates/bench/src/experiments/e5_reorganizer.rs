//! **E5 — reorganizer quality**: traditional vs improved optimization.
//!
//! *"Where we predicted the average branch would take 1.3 cycles, results
//! using the actual reorganizer showed that the average branch took about
//! 1.5 cycles for small benchmarks using traditional optimization.
//! However, we have since developed better optimization techniques and our
//! most recent results show that even with large Pascal and Lisp
//! benchmarks the average branch takes 1.27 cycles."*
//!
//! "Traditional" is modeled as profile-blind scheduling: every branch is
//! assumed taken with the static prior, so predict-taken squashing is
//! chosen even for branches that mostly fall through. "Improved" gives the
//! scheduler the real per-branch probabilities (the profile-guided
//! technique of McFarling & Hennessy).

use mipsx_asm::Program;
use mipsx_core::{Machine, MachineConfig, RunStats};
use mipsx_engine::BlockEngine;
use mipsx_reorg::{BranchScheme, RawProgram, Reorganizer, Terminator};
use mipsx_workloads::synth::{generate, SynthConfig};

use crate::{Row, SEEDS};

/// Result of the comparison.
#[derive(Clone, Copy, Debug)]
pub struct ReorgQuality {
    /// Cycles/branch with profile-blind scheduling.
    pub traditional: f64,
    /// Cycles/branch with profile-guided scheduling.
    pub improved: f64,
    /// Cycles/branch with no filling at all (every slot a no-op).
    pub unscheduled: f64,
}

impl ReorgQuality {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        vec![
            Row {
                label: "unscheduled (all slots empty)".into(),
                paper: Some(3.0),
                measured: self.unscheduled,
            },
            Row {
                label: "traditional optimization".into(),
                paper: Some(1.5),
                measured: self.traditional,
            },
            Row {
                label: "improved (profile-guided)".into(),
                paper: Some(1.27),
                measured: self.improved,
            },
        ]
    }
}

/// Erase profile information: every branch looks like the static prior.
fn profile_blind(raw: &RawProgram) -> RawProgram {
    let mut blind = raw.clone();
    for term in &mut blind.terms {
        if let Terminator::Branch { p_taken, .. } = term {
            *p_taken = 0.65;
        }
    }
    blind
}

/// Lower `raw` for the shipped branch scheme — scheduled, or with every
/// slot a no-op when `naive`.
fn lower(raw: &RawProgram, naive: bool) -> Program {
    let reorg = Reorganizer::new(BranchScheme::mipsx());
    let lowered = if naive {
        reorg.lower_naive(raw)
    } else {
        reorg.reorganize(raw)
    };
    lowered.expect("lower").0
}

/// Run `program` to halt on the ideal-memory machine, on the block engine,
/// which books what the cycle-accurate stepper books.
fn run_on_engine(program: &Program) -> RunStats {
    // Two delay slots and interlock detection, as the scheme requires.
    let cfg = MachineConfig::ideal_memory();
    let mut machine = Machine::new(cfg);
    machine.load_program(program);
    BlockEngine::from_program(program, &cfg)
        .run(&mut machine, 500_000_000)
        .expect("run to halt")
}

/// The three lowerings of each seed's program, in report order: no
/// filling, profile-blind scheduling, profile-guided scheduling.
fn programs() -> Vec<[Program; 3]> {
    SEEDS
        .iter()
        .map(|&seed| {
            let synth = generate(SynthConfig::pascal_like(seed));
            [
                lower(&synth.raw, true),
                lower(&profile_blind(&synth.raw), false),
                lower(&synth.raw, false),
            ]
        })
        .collect()
}

/// Run the experiment.
pub fn run() -> ReorgQuality {
    let mut totals = [RunStats::default(); 3];
    for lowered in programs() {
        for (total, program) in totals.iter_mut().zip(&lowered) {
            total.merge(&run_on_engine(program));
        }
    }
    let [unscheduled, traditional, improved] = totals.map(|t| t.cycles_per_branch());
    ReorgQuality {
        unscheduled,
        traditional,
        improved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_the_paper() {
        let r = run();
        assert!(
            r.improved < r.traditional,
            "profile guidance must help: {r:?}"
        );
        assert!(
            r.traditional < r.unscheduled,
            "any filling beats none: {r:?}"
        );
        // An unscheduled branch costs exactly 1 + 2 empty slots.
        assert!((r.unscheduled - 3.0).abs() < 1e-9);
    }

    #[test]
    fn the_block_engine_books_what_the_stepper_books() {
        let cfg = MachineConfig::ideal_memory();
        let mut checked = 0;
        for program in programs().iter().flatten() {
            let mut stepped = Machine::new(cfg);
            stepped.load_program(program);
            let want = stepped.run(500_000_000).expect("run to halt");
            let mut machine = Machine::new(cfg);
            machine.load_program(program);
            let mut engine = BlockEngine::from_program(program, &cfg);
            let got = engine.run(&mut machine, 500_000_000).expect("run to halt");
            assert_eq!(got, want, "program {checked}");
            assert!(
                engine.stats().fast_cycles > 0,
                "program {checked} never took the fast path"
            );
            checked += 1;
        }
        assert_eq!(checked, 3 * SEEDS.len());
    }

    #[test]
    fn improved_lands_near_1_27() {
        let r = run();
        // The exact figure depends on the synthetic-workload RNG stream;
        // the in-repo `rand` shim (xoshiro256**) lands around 1.69 where
        // the paper reports 1.27 (it was ~1.58 before the verifier's
        // squash-unsafe rule barred stores from annulled delay slots,
        // which the paper's hand analysis did not model). The ordering
        // test above carries the qualitative claim; here we only pin the
        // magnitude loosely.
        assert!(
            (r.improved - 1.27).abs() < 0.5,
            "improved cycles/branch {:.3} too far from 1.27",
            r.improved
        );
    }
}

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

use mipsx_core::{Machine, MachineConfig, RunStats};
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
/// slot a no-op when `naive` — and run it on the ideal-memory machine.
fn run_lowered(raw: &RawProgram, naive: bool) -> RunStats {
    let reorg = Reorganizer::new(BranchScheme::mipsx());
    let lowered = if naive {
        reorg.lower_naive(raw)
    } else {
        reorg.reorganize(raw)
    };
    let (program, _) = lowered.expect("lower");
    // Two delay slots and interlock detection, as the scheme requires.
    let mut machine = Machine::new(MachineConfig::ideal_memory());
    machine.load_program(&program);
    machine.run(500_000_000).expect("run to halt")
}

/// Run the experiment.
pub fn run() -> ReorgQuality {
    let mut totals = [RunStats::default(); 3];
    for &seed in &SEEDS {
        let synth = generate(SynthConfig::pascal_like(seed));
        let blind = profile_blind(&synth.raw);
        let runs = [
            run_lowered(&synth.raw, true),
            run_lowered(&blind, false),
            run_lowered(&synth.raw, false),
        ];
        for (total, stats) in totals.iter_mut().zip(&runs) {
            total.merge(stats);
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

//! The paper's experiments, one module each (DESIGN.md §5).

pub mod e10_btb;
pub mod e11_ecache;
pub mod e12_subblock;
pub mod e1_branch_schemes;
pub mod e2_icache_fetch;
pub mod e3_icache_orgs;
pub mod e4_quick_compare;
pub mod e5_reorganizer;
pub mod e6_fsms;
pub mod e7_cpi;
pub mod e8_coproc;
pub mod e9_vax;

use mipsx_explore::SweepOptions;

use crate::Row;

/// An experiment's table rows and an optional note printed under the text
/// table.
pub type Table = (Vec<Row>, Option<String>);

/// One experiment as `mipsx reproduce` runs it.
pub struct Experiment {
    /// Its name on the command line.
    pub name: &'static str,
    /// Its table title.
    pub title: &'static str,
    /// Run it under the pass's sweep options (experiments that do not
    /// sweep ignore them).
    pub run: fn(&SweepOptions) -> Table,
}

/// Every experiment, in `reproduce all` order.
pub const ALL: [Experiment; 12] = [
    Experiment {
        name: "table1",
        title: "E1 / Table 1 — average cycles per branch",
        run: |opts| (e1_branch_schemes::run_with(opts).report_rows(), None),
    },
    Experiment {
        name: "icache",
        title: "E2 — Icache fetch-back (single vs double word)",
        run: |_| (e2_icache_fetch::run().report_rows(), None),
    },
    Experiment {
        name: "orgs",
        title: "E3 — Icache organization sweep (miss service vs miss ratio)",
        run: |opts| {
            let r = e3_icache_orgs::run_with(opts);
            let note = format!("  -> best block size: {} words", r.best_block_words);
            (r.report_rows(), Some(note))
        },
    },
    Experiment {
        name: "quickcmp",
        title: "E4 — quick-compare coverage",
        run: |_| (e4_quick_compare::run().report_rows(), None),
    },
    Experiment {
        name: "reorg",
        title: "E5 — reorganizer quality (cycles per branch)",
        run: |_| (e5_reorganizer::run().report_rows(), None),
    },
    Experiment {
        name: "fsm",
        title: "E6 / Figures 3 & 4 — control FSM activity",
        run: |opts| (e6_fsms::run_with(opts).report_rows(), None),
    },
    Experiment {
        name: "cpi",
        title: "E7 — no-ops, CPI and sustained MIPS",
        run: |opts| (e7_cpi::run_with(opts).report_rows(), None),
    },
    Experiment {
        name: "coproc",
        title: "E8 — coprocessor interface schemes (slowdown vs best)",
        run: |_| (e8_coproc::run().report_rows(), None),
    },
    Experiment {
        name: "vax",
        title: "E9 — VAX 11/780 comparison",
        run: |_| (e9_vax::run().report_rows(), None),
    },
    Experiment {
        name: "btb",
        title: "E10 — branch cache vs static prediction",
        run: |_| {
            let r = e10_btb::run();
            let note = format!("  -> branch working set: {} sites", r.working_set);
            (r.report_rows(), Some(note))
        },
    },
    Experiment {
        name: "ecache",
        title: "E11 — Ecache late-miss contribution",
        run: |opts| (e11_ecache::run_with(opts).report_rows(), None),
    },
    Experiment {
        name: "subblock",
        title: "E12 — ablation: sub-block valid bits vs whole-block fill",
        run: |opts| (e12_subblock::run_with(opts).report_rows(), None),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_explore::Telemetry;

    #[test]
    fn one_options_value_shares_prepared_images_across_experiments() {
        let opts = SweepOptions {
            telemetry: Telemetry::enabled(),
            ..SweepOptions::default()
        };
        (ALL[0].run)(&opts);
        let after_e1 = opts.telemetry.snapshot().counter("image.misses");
        assert_eq!(
            after_e1,
            6 * crate::SEEDS.len() as u64,
            "six schemes per seed"
        );
        // E6 runs the shipped scheme over E1's seeds: every image is a hit.
        (ALL.iter().find(|x| x.name == "fsm").unwrap().run)(&opts);
        let snap = opts.telemetry.snapshot();
        assert_eq!(snap.counter("image.misses"), after_e1);
        assert_eq!(snap.counter("image.hits"), crate::SEEDS.len() as u64);
    }
}

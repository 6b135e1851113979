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

use mipsx_core::{InterlockPolicy, Machine, MachineConfig, RunStats};
use mipsx_explore::ResultStore;
use mipsx_reorg::{BranchScheme, RawProgram, Reorganizer, ScheduleReport};

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
    /// Run it with the sweep thread count and result store (experiments
    /// that do not sweep ignore both).
    pub run: fn(usize, &ResultStore) -> Table,
}

/// Every experiment, in `reproduce all` order.
pub const ALL: [Experiment; 12] = [
    Experiment {
        name: "table1",
        title: "E1 / Table 1 — average cycles per branch",
        run: |threads, store| {
            let t = e1_branch_schemes::run_with(threads, store);
            (t.report_rows(), None)
        },
    },
    Experiment {
        name: "icache",
        title: "E2 — Icache fetch-back (single vs double word)",
        run: |_, _| (e2_icache_fetch::run().report_rows(), None),
    },
    Experiment {
        name: "orgs",
        title: "E3 — Icache organization sweep (miss service vs miss ratio)",
        run: |threads, store| {
            let r = e3_icache_orgs::run_with(threads, store);
            let note = format!("  -> best block size: {} words", r.best_block_words);
            (r.report_rows(), Some(note))
        },
    },
    Experiment {
        name: "quickcmp",
        title: "E4 — quick-compare coverage",
        run: |_, _| (e4_quick_compare::run().report_rows(), None),
    },
    Experiment {
        name: "reorg",
        title: "E5 — reorganizer quality (cycles per branch)",
        run: |_, _| (e5_reorganizer::run().report_rows(), None),
    },
    Experiment {
        name: "fsm",
        title: "E6 / Figures 3 & 4 — control FSM activity",
        run: |_, _| (e6_fsms::run().report_rows(), None),
    },
    Experiment {
        name: "cpi",
        title: "E7 — no-ops, CPI and sustained MIPS",
        run: |_, _| (e7_cpi::run().report_rows(), None),
    },
    Experiment {
        name: "coproc",
        title: "E8 — coprocessor interface schemes (slowdown vs best)",
        run: |_, _| (e8_coproc::run().report_rows(), None),
    },
    Experiment {
        name: "vax",
        title: "E9 — VAX 11/780 comparison",
        run: |_, _| (e9_vax::run().report_rows(), None),
    },
    Experiment {
        name: "btb",
        title: "E10 — branch cache vs static prediction",
        run: |_, _| {
            let r = e10_btb::run();
            let note = format!("  -> branch working set: {} sites", r.working_set);
            (r.report_rows(), Some(note))
        },
    },
    Experiment {
        name: "ecache",
        title: "E11 — Ecache late-miss contribution",
        run: |threads, store| (e11_ecache::run_with(threads, store).report_rows(), None),
    },
    Experiment {
        name: "subblock",
        title: "E12 — ablation: sub-block valid bits vs whole-block fill",
        run: |threads, store| (e12_subblock::run_with(threads, store).report_rows(), None),
    },
];

/// Reorganize `raw` under `scheme` and run it on a machine configured to
/// match; returns run statistics and the schedule report.
pub(crate) fn run_scheduled(
    raw: &RawProgram,
    scheme: BranchScheme,
    base: MachineConfig,
) -> (RunStats, ScheduleReport) {
    let reorg = Reorganizer::new(scheme);
    let (program, report) = reorg.reorganize(raw).expect("reorganize");
    let mut machine = Machine::new(MachineConfig {
        branch_delay_slots: scheme.slots,
        interlock: InterlockPolicy::Detect,
        ..base
    });
    machine.load_program(&program);
    let stats = machine.run(500_000_000).expect("run to halt");
    (stats, report)
}

/// Run the naive (all-nops) lowering for baseline comparisons.
pub(crate) fn run_naive(
    raw: &RawProgram,
    scheme: BranchScheme,
    base: MachineConfig,
) -> (RunStats, ScheduleReport) {
    let reorg = Reorganizer::new(scheme);
    let (program, report) = reorg.lower_naive(raw).expect("naive lowering");
    let mut machine = Machine::new(MachineConfig {
        branch_delay_slots: scheme.slots,
        interlock: InterlockPolicy::Detect,
        ..base
    });
    machine.load_program(&program);
    let stats = machine.run(500_000_000).expect("run to halt");
    (stats, report)
}

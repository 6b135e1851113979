//! The `paper_tables` workload: the twelve experiments' public `run()`
//! functions, serially, in `reproduce all` order, with the result store
//! disabled (each `run()` uses a disabled store and one thread).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mipsx_bench::experiments as e;
use mipsx_bench::{rows_to_json, Row};

use crate::measure::{span, Gate, Spans};

/// One experiment: its `reproduce` name and title, and its table.
pub struct Experiment {
    pub name: &'static str,
    pub title: &'static str,
    pub run: fn() -> Vec<Row>,
}

/// The experiments in `reproduce all` order, titled as `reproduce --json`
/// titles them, so the pinned reference is that document without `wall_ms`.
pub const EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "table1",
        title: "E1 / Table 1 — average cycles per branch",
        run: || e::e1_branch_schemes::run().report_rows(),
    },
    Experiment {
        name: "icache",
        title: "E2 — Icache fetch-back (single vs double word)",
        run: || e::e2_icache_fetch::run().report_rows(),
    },
    Experiment {
        name: "orgs",
        title: "E3 — Icache organization sweep (miss service vs miss ratio)",
        run: || e::e3_icache_orgs::run().report_rows(),
    },
    Experiment {
        name: "quickcmp",
        title: "E4 — quick-compare coverage",
        run: || e::e4_quick_compare::run().report_rows(),
    },
    Experiment {
        name: "reorg",
        title: "E5 — reorganizer quality (cycles per branch)",
        run: || e::e5_reorganizer::run().report_rows(),
    },
    Experiment {
        name: "fsm",
        title: "E6 / Figures 3 & 4 — control FSM activity",
        run: || e::e6_fsms::run().report_rows(),
    },
    Experiment {
        name: "cpi",
        title: "E7 — no-ops, CPI and sustained MIPS",
        run: || e::e7_cpi::run().report_rows(),
    },
    Experiment {
        name: "coproc",
        title: "E8 — coprocessor interface schemes (slowdown vs best)",
        run: || e::e8_coproc::run().report_rows(),
    },
    Experiment {
        name: "vax",
        title: "E9 — VAX 11/780 comparison",
        run: || e::e9_vax::run().report_rows(),
    },
    Experiment {
        name: "btb",
        title: "E10 — branch cache vs static prediction",
        run: || e::e10_btb::run().report_rows(),
    },
    Experiment {
        name: "ecache",
        title: "E11 — Ecache late-miss contribution",
        run: || e::e11_ecache::run().report_rows(),
    },
    Experiment {
        name: "subblock",
        title: "E12 — ablation: sub-block valid bits vs whole-block fill",
        run: || e::e12_subblock::run().report_rows(),
    },
];

/// The two experiments that step the pipeline through the sweep engine
/// (E1 on `ideal_memory`, E11 on the board with a 4K-word Ecache); their
/// guest cycles are the numerator of `guest_mcycles_per_s` here.
pub const PIPELINE_EXPERIMENTS: [&str; 2] = ["table1", "ecache"];

/// One pass over the twelve experiments.
pub struct Pass {
    /// Time spent inside each experiment's `run()`, in table order.
    pub times: Vec<Duration>,
    /// Each experiment's rows, as `rows_to_json` renders them (`None` when
    /// it panicked).
    pub json: Vec<Option<String>>,
    /// Each experiment's rows (empty when it panicked).
    pub rows: Vec<Vec<Row>>,
}

impl Pass {
    /// Wall time of the pass: the sum of the experiments' times.
    pub fn wall(&self) -> Duration {
        self.times.iter().sum()
    }

    /// Time of the named experiments.
    pub fn time_of(&self, names: &[&str]) -> Duration {
        EXPERIMENTS
            .iter()
            .zip(&self.times)
            .filter(|(x, _)| names.contains(&x.name))
            .map(|(_, t)| *t)
            .sum()
    }
}

/// Run every experiment once, serially. With `spans`, each experiment's
/// time is also recorded under its name.
pub fn pass(mut spans: Option<&mut Spans>) -> Pass {
    let mut out = Pass {
        times: Vec::new(),
        json: Vec::new(),
        rows: Vec::new(),
    };
    for x in &EXPERIMENTS {
        let start = Instant::now();
        let rows = catch_unwind(AssertUnwindSafe(x.run)).ok();
        out.times.push(start.elapsed());
        span(&mut spans, x.name, start);
        out.json.push(
            rows.as_ref()
                .map(|rows| rows_to_json(x.name, x.title, rows)),
        );
        out.rows.push(rows.unwrap_or_default());
    }
    out
}

/// Check every table of `pass` against the pinned reference lines.
pub fn check(pass: &Pass, pinned: &[String], gate: &mut Gate) {
    for (i, x) in EXPERIMENTS.iter().enumerate() {
        gate.check(match (&pass.json[i], pinned.get(i)) {
            (None, _) => Some(format!("{}: panicked", x.name)),
            (Some(_), None) => Some(format!("{}: no pinned reference", x.name)),
            (Some(got), Some(want)) if got != want => {
                Some(format!("{}: rows differ from the pinned reference", x.name))
            }
            _ => None,
        });
    }
}

/// Mean of |measured − paper| / |paper| over the rows with a paper value,
/// and how many rows that is.
pub fn paper_rel_err<'a>(rows: impl IntoIterator<Item = &'a Row>) -> (f64, usize) {
    let errs: Vec<f64> = rows
        .into_iter()
        .filter_map(|r| r.paper.map(|p| ((r.measured - p) / p).abs()))
        .collect();
    (errs.iter().sum::<f64>() / errs.len() as f64, errs.len())
}

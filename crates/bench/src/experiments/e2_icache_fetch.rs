//! **E2 — the double-word fetch-back**: single-word miss service vs the
//! shipped two-word fetch.
//!
//! *"Using a set of medium size programs we achieved miss rates that
//! averaged over 20%. ... Fetching back 2 words almost halves the miss
//! ratio, driving down the cost of an instruction fetch to that of a
//! single-cycle miss."* Final design on large benchmarks: *"an average
//! miss rate of 12% resulting in an average instruction executing in 1.24
//! cycles."*

use mipsx_mem::{Icache, IcacheConfig};
use mipsx_workloads::traces::{instruction_runs, TraceConfig};

use crate::{Row, SEEDS};

/// Result of the fetch-back comparison.
#[derive(Clone, Copy, Debug)]
pub struct FetchBack {
    /// Miss ratio with single-word fetch on the medium workload.
    pub single_miss_medium: f64,
    /// Miss ratio with double-word fetch on the medium workload.
    pub double_miss_medium: f64,
    /// Miss ratio with double-word fetch on the large workload.
    pub double_miss_large: f64,
    /// Average instruction-fetch cost (cycles) of the final design on the
    /// large workload.
    pub fetch_cost_large: f64,
}

impl FetchBack {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        vec![
            Row {
                label: "single-fetch miss, medium programs".into(),
                paper: Some(0.20),
                measured: self.single_miss_medium,
            },
            Row {
                label: "double-fetch miss, medium programs".into(),
                paper: None,
                measured: self.double_miss_medium,
            },
            Row {
                label: "double-fetch miss, large programs".into(),
                paper: Some(0.12),
                measured: self.double_miss_large,
            },
            Row {
                label: "fetch cost (cycles), final design".into(),
                paper: Some(1.24),
                measured: self.fetch_cost_large,
            },
        ]
    }
}

/// Run the experiment. Each cache sees its traces in seed order, and only
/// one seed's medium and large traces are alive at a time.
pub fn run() -> FetchBack {
    let single = IcacheConfig {
        fetch_words: 1,
        ..IcacheConfig::mipsx()
    };
    let double = IcacheConfig::mipsx();
    let mut single_medium = Icache::new(single);
    let mut double_medium = Icache::new(double);
    let mut double_large = Icache::new(double);
    for &seed in SEEDS.iter() {
        let medium = instruction_runs(TraceConfig::medium(seed));
        let _ = single_medium.simulate_runs(&medium);
        let _ = double_medium.simulate_runs(&medium);
        let _ = double_large.simulate_runs(&instruction_runs(TraceConfig::large(seed)));
    }

    FetchBack {
        single_miss_medium: single_medium.stats().miss_ratio(),
        double_miss_medium: double_medium.stats().miss_ratio(),
        double_miss_large: double_large.stats().miss_ratio(),
        fetch_cost_large: double_large.stats().avg_access_cycles(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_fetch_nearly_halves_the_miss_ratio() {
        let r = run();
        let ratio = r.double_miss_medium / r.single_miss_medium;
        assert!(
            ratio > 0.4 && ratio < 0.75,
            "halving shape violated: {ratio:.2} (single {:.3}, double {:.3})",
            r.single_miss_medium,
            r.double_miss_medium
        );
    }

    #[test]
    fn medium_single_fetch_lands_above_twenty_percent() {
        let r = run();
        assert!(
            r.single_miss_medium > 0.17 && r.single_miss_medium < 0.35,
            "single-fetch miss {:.3} outside the paper's regime",
            r.single_miss_medium
        );
    }

    #[test]
    fn final_design_lands_near_twelve_percent() {
        let r = run();
        assert!(
            (r.double_miss_large - 0.12).abs() < 0.05,
            "final miss ratio {:.3} too far from 12%",
            r.double_miss_large
        );
        assert!(
            (r.fetch_cost_large - 1.24).abs() < 0.10,
            "fetch cost {:.3} too far from 1.24",
            r.fetch_cost_large
        );
    }
}

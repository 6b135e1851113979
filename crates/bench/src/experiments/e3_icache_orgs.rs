//! **E3 — miss service time beats miss ratio**: the Icache organization
//! sweep.
//!
//! *"We found that the performance of the cache was more sensitive to the
//! miss service time than the miss ratio. ... By placing the tag and
//! valid-bit stores in the datapath close to the PC unit a 2-cycle miss
//! could be realized. This lengthened the datapath by the number of cache
//! tags and meant that we could not have smaller block sizes ... the
//! benefits of having fewer cache miss cycles far outweighed the slightly
//! lower miss rates achievable by having smaller blocks."*
//!
//! The sweep holds capacity at 512 words and trades block size (hence tag
//! count, hence miss penalty) against miss ratio, reporting the average
//! fetch cost for every combination. Because block size *couples* to tag
//! count and tag count to miss penalty (the floorplan rule), the grid is
//! an explicit [`Grid::Points`] list rather than independent axes.

use mipsx_core::SimConfig;
use mipsx_explore::{run_sweep, Grid, SimPoint, SweepOptions, SweepSpec};
use mipsx_mem::IcacheConfig;
use mipsx_reorg::BranchScheme;

use crate::Row;

/// One organization's outcome.
#[derive(Clone, Copy, Debug)]
pub struct OrgRow {
    /// Words per block.
    pub block_words: u32,
    /// Number of tags (blocks) this organization needs — what stretches
    /// the datapath.
    pub tags: u32,
    /// Miss penalty in cycles (2 when the tags fit by the PC unit, 3 when
    /// the tag store is too long for the fast compare).
    pub miss_penalty: u32,
    /// Measured miss ratio.
    pub miss_ratio: f64,
    /// Average fetch cost in cycles — the paper's figure of merit.
    pub fetch_cost: f64,
}

/// Sweep result.
#[derive(Clone, Debug)]
pub struct OrgSweep {
    /// All organizations tried.
    pub rows: Vec<OrgRow>,
    /// The winning organization's block size.
    pub best_block_words: u32,
}

impl OrgSweep {
    /// Report rows.
    pub fn report_rows(&self) -> Vec<Row> {
        self.rows
            .iter()
            .map(|r| Row {
                label: format!(
                    "{:2}-word blocks, {:3} tags, {}-cycle miss",
                    r.block_words, r.tags, r.miss_penalty
                ),
                paper: None,
                measured: r.fetch_cost,
            })
            .collect()
    }
}

/// The MIPS-X floorplan rule: 32 tags fit next to the PC unit (2-cycle
/// miss); more tags push the compare off the critical path (3-cycle miss).
fn penalty_for_tags(tags: u32) -> u32 {
    if tags <= 32 {
        2
    } else {
        3
    }
}

/// The fixed-capacity organizations: 512 words, 4 rows; block size varies,
/// ways absorb the rest.
const BLOCK_SIZES: [u32; 4] = [4, 8, 16, 32];

fn organization(block_words: u32) -> (u32, u32, IcacheConfig) {
    let ways = 512 / (4 * block_words);
    let tags = 4 * ways;
    let cfg = IcacheConfig {
        rows: 4,
        ways,
        block_words,
        miss_penalty: penalty_for_tags(tags),
        ..IcacheConfig::mipsx()
    };
    (tags, cfg.miss_penalty, cfg)
}

/// The experiment as a declarative sweep: four coupled grid points × the
/// five medium traces.
pub fn sweep_spec() -> SweepSpec {
    let mut spec = SweepSpec::new(SimPoint::mipsx());
    spec.grid = Grid::Points(
        BLOCK_SIZES
            .iter()
            .map(|&block_words| {
                let (tags, penalty, icache) = organization(block_words);
                let cfg = SimConfig {
                    icache,
                    ..SimConfig::mipsx()
                };
                (
                    format!("{block_words}-word blocks, {tags} tags, {penalty}-cycle miss"),
                    SimPoint::new(cfg, BranchScheme::mipsx()),
                )
            })
            .collect(),
    );
    spec.workloads = crate::seeded("trace:medium");
    spec
}

/// Run the sweep under `opts` (workers, result store, shared images).
pub fn run_with(opts: &SweepOptions) -> OrgSweep {
    let outcome = run_sweep(&sweep_spec(), opts).expect("E3 sweep");
    let rows: Vec<OrgRow> = BLOCK_SIZES
        .iter()
        .enumerate()
        .map(|(i, &block_words)| {
            let (tags, miss_penalty, _) = organization(block_words);
            let icache = outcome.merged_point(i).icache();
            OrgRow {
                block_words,
                tags,
                miss_penalty,
                miss_ratio: icache.miss_ratio(),
                fetch_cost: icache.avg_access_cycles(),
            }
        })
        .collect();
    let best_block_words = rows
        .iter()
        .min_by(|a, b| a.fetch_cost.total_cmp(&b.fetch_cost))
        .map(|r| r.block_words)
        .unwrap_or(16);
    OrgSweep {
        rows,
        best_block_words,
    }
}

/// Run the sweep (serial, no result cache).
pub fn run() -> OrgSweep {
    run_with(&SweepOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_blocks_lower_miss_ratio_but_not_cost() {
        let sweep = run();
        let by_block = |b: u32| sweep.rows.iter().find(|r| r.block_words == b).unwrap();
        // Smaller blocks: more tags, (weakly) lower miss ratio…
        assert!(by_block(4).miss_ratio <= by_block(16).miss_ratio + 0.02);
        // …but a longer miss service — and the service time wins:
        assert_eq!(by_block(4).miss_penalty, 3);
        assert_eq!(by_block(16).miss_penalty, 2);
        assert!(
            by_block(16).fetch_cost < by_block(4).fetch_cost,
            "16-word blocks must win on fetch cost: {:?} vs {:?}",
            by_block(16),
            by_block(4)
        );
    }

    #[test]
    fn the_shipped_block_size_wins() {
        let sweep = run();
        assert!(
            sweep.best_block_words >= 16,
            "large blocks (2-cycle miss) should win, got {}",
            sweep.best_block_words
        );
    }
}

//! Whole-program static timing analysis.
//!
//! Builds on the block [`Partition`] and its per-block [`BlockSummary`]
//! records: reconstructs the block-level CFG, solves backward liveness
//! (filling `live_in`/`live_out`), finds natural loops via dominators and
//! weights each block by its loop nesting depth, and from that emits a
//! per-block cost table and a **static CPI lower bound**.
//!
//! ## What the static bound does and does not cover
//!
//! Per visit, a basic block occupies exactly `len` advancing cycles — the
//! pipeline issues one instruction per unfrozen cycle, and squashed delay
//! slots still issue. What varies per path is how many of those issue
//! slots do *useful* (architectural, non-nop) work. The bound is therefore
//! cycles per useful instruction under the best-case branch outcome in
//! every block, with visit mix approximated by loop-nesting weights
//! (`10^depth`):
//!
//! ```text
//! bound = Σ weight·len / Σ weight·(len − best-case wasted slots)
//! ```
//!
//! **Cache misses and faults are explicitly outside the bound** — they
//! freeze the pipeline for a data-dependent number of cycles the analyzer
//! cannot know. On the cache-ideal configuration
//! (`MachineConfig::cache_ideal`), fault-free, the static model is not a
//! bound but an identity: the differential in [`crate::attrib`] checks it
//! *exactly* per block.

use crate::summary::{BlockExit, Partition, ALL_REGS};
use crate::VerifyConfig;
use mipsx_asm::Program;
use mipsx_isa::InstrMeta;
use std::ops::Deref;

/// One row of the per-block cost table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCost {
    /// Block index into [`Partition::blocks`].
    pub index: usize,
    /// Word address of the block head.
    pub start: u32,
    /// Advancing cycles per visit (== instruction count).
    pub cycles_per_visit: u32,
    /// Loop nesting depth (0 = not in any natural loop).
    pub depth: u32,
    /// Static visit weight, `10^depth` (saturating).
    pub weight: u64,
    /// Wasted issue slots per visit on the cheaper branch outcome.
    pub best_wasted: u32,
    /// Wasted issue slots per visit on the costlier outcome.
    pub worst_wasted: u32,
}

/// The whole-program static timing analysis of one scheduled image. It
/// dereferences to its block [`Partition`] (`blocks`, with liveness solved
/// here, `irregular`, `image()`, `block_at`).
#[derive(Clone, Debug)]
pub struct TimingAnalysis {
    /// Program entry address.
    pub entry: u32,
    /// Branch delay slots the image was scheduled for.
    pub slots: u32,
    /// Loop nesting depth per block.
    pub loop_depth: Vec<u32>,
    /// Static visit weight per block (`10^depth`).
    pub weights: Vec<u64>,
    /// CFG successor block indices per block.
    succs: Adjacency,
    /// CFG predecessor block indices per block, without repeats, ascending.
    preds: Adjacency,
    /// The blocks, their per-word analysis and the decoded image.
    partition: Partition,
}

impl Deref for TimingAnalysis {
    type Target = Partition;

    fn deref(&self) -> &Partition {
        &self.partition
    }
}

impl TimingAnalysis {
    /// Analyze a program scheduled for `config.branch_delay_slots`.
    pub fn of(program: &Program, config: &VerifyConfig) -> TimingAnalysis {
        let partition = Partition::of(program, config);
        let mut succs = Adjacency::default();
        for b in &partition.blocks {
            succs.push(b.exit.successors().filter_map(|a| partition.block_at(a)));
        }
        let preds = succs.reversed();
        let mut ta = TimingAnalysis {
            entry: partition.analysis.entry,
            slots: partition.analysis.slots,
            loop_depth: Vec::new(),
            weights: Vec::new(),
            succs,
            preds,
            partition,
        };
        ta.solve_liveness();
        ta.loop_depth = ta.loop_depths();
        ta.weights = ta
            .loop_depth
            .iter()
            .map(|&d| 10u64.saturating_pow(d.min(12)))
            .collect();
        ta
    }

    /// CFG successor block indices (successor addresses that are not block
    /// heads — possible only in irregular programs — are dropped).
    pub fn successors(&self, i: usize) -> &[usize] {
        self.succs.of(i)
    }

    /// CFG predecessor block indices of block `i`, without repeats,
    /// ascending.
    pub fn predecessors(&self, i: usize) -> &[usize] {
        self.preds.of(i)
    }

    /// Backward liveness fixpoint over the block graph. Unknowable exits
    /// (indirect jumps, calls — the callee/continuation dataflow is not
    /// tracked interprocedurally) are conservatively all-live.
    fn solve_liveness(&mut self) {
        let blocks = &mut self.partition.blocks;
        loop {
            let mut changed = false;
            for i in (0..blocks.len()).rev() {
                let live_out = match blocks[i].exit {
                    BlockExit::Halt => 0,
                    BlockExit::Jump { target, link, .. } if link || target.is_none() => ALL_REGS,
                    _ => self
                        .succs
                        .of(i)
                        .iter()
                        .fold(0u32, |m, &s| m | blocks[s].live_in),
                };
                let b = &mut blocks[i];
                let live_in = b.use_mask | (live_out & !b.def_mask);
                if live_out != b.live_out || live_in != b.live_in {
                    b.live_out = live_out;
                    b.live_in = live_in;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Natural-loop detection: iterative dominators, back edges
    /// (`u → h` with `h` dominating `u`), loop bodies by reverse reach,
    /// depth = number of distinct loop headers containing the block.
    fn loop_depths(&self) -> Vec<u32> {
        let n = self.blocks.len();
        let mut depth = vec![0; n];
        let Some(entry) = self.block_at(self.entry) else {
            return depth;
        };
        let (succs, preds) = (&self.succs, &self.preds);

        // dom[b] as a bitset over blocks: row `b` is `dom[b * words..][..words]`.
        let words = n.div_ceil(64);
        let mut dom = vec![u64::MAX; n * words];
        let row = |b: usize| b * words..(b + 1) * words;
        dom[row(entry)].fill(0);
        dom[entry * words + entry / 64] |= 1 << (entry % 64);
        let mut new = vec![0u64; words];
        loop {
            let mut changed = false;
            for b in 0..n {
                if b == entry || preds.of(b).is_empty() {
                    // Unreachable from entry through the CFG: leave ⊤.
                    continue;
                }
                new.fill(u64::MAX);
                for &p in preds.of(b) {
                    for (w, &d) in new.iter_mut().zip(&dom[row(p)]) {
                        *w &= d;
                    }
                }
                new[b / 64] |= 1 << (b % 64);
                if dom[row(b)] != new[..] {
                    dom[row(b)].copy_from_slice(&new);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let dominates = |h: usize, b: usize| dom[b * words + h / 64] & (1 << (h % 64)) != 0;

        // Blocks actually reachable from the entry through CFG edges —
        // unreachable blocks kept ⊤ dominator sets above and must not
        // contribute back edges.
        let mut reached = vec![false; n];
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            if !reached[b] {
                reached[b] = true;
                stack.extend(succs.of(b));
            }
        }

        // Natural loop bodies, one header at a time, merged over its back
        // edges: `mark[b] == h` once `b` is in the loop headed by `h`.
        let mut mark = vec![usize::MAX; n];
        for h in 0..n {
            // The tails of the back edges into `h`.
            for &u in preds.of(h) {
                if reached[u] && dominates(h, u) {
                    stack.push(u);
                }
            }
            if stack.is_empty() {
                continue;
            }
            mark[h] = h;
            depth[h] += 1;
            while let Some(b) = stack.pop() {
                if mark[b] != h {
                    mark[b] = h;
                    depth[b] += 1;
                    stack.extend(preds.of(b));
                }
            }
        }
        depth
    }

    /// The per-block cost table, block order.
    pub fn cost_table(&self) -> Vec<BlockCost> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let (w0, w1) = (b.delta(false).wasted(), b.delta(true).wasted());
                BlockCost {
                    index: i,
                    start: b.start,
                    cycles_per_visit: b.len,
                    depth: self.loop_depth[i],
                    weight: self.weights[i],
                    best_wasted: w0.min(w1),
                    worst_wasted: w0.max(w1),
                }
            })
            .collect()
    }

    /// Loop-weighted total advancing cycles and best-case useful
    /// instructions — the two sides of the static CPI bound.
    pub fn weighted_totals(&self) -> (u64, u64) {
        let mut cycles = 0u64;
        let mut useful = 0u64;
        for c in self.cost_table() {
            cycles += c.weight * u64::from(c.cycles_per_visit);
            useful += c.weight * u64::from(c.cycles_per_visit - c.best_wasted);
        }
        (cycles, useful)
    }

    /// Static lower bound on cycles per useful (architectural, non-nop)
    /// instruction: cache-ideal, fault-free, best-case branch outcomes.
    /// Per visit the per-block ratio is a true bound — actual wasted
    /// slots can only exceed the best case, and every memory or fault
    /// freeze adds cycles without adding useful work. The whole-program
    /// figure mixes blocks by the `10^depth` loop-nest weights, so it is
    /// exact only when execution frequencies follow that model; an
    /// early-exit loop that iterates less than the model assumes can
    /// measure slightly below it (see DESIGN.md).
    pub fn static_cpi_bound(&self) -> f64 {
        let (cycles, useful) = self.weighted_totals();
        if useful == 0 {
            return f64::INFINITY;
        }
        cycles as f64 / useful as f64
    }

    /// Machine-readable analysis (hand-rolled JSON, stable key order).
    pub fn to_json(&self) -> String {
        let costs = self.cost_table();
        let (wc, wu) = self.weighted_totals();
        let mut out = format!(
            "{{\"entry\":{},\"slots\":{},\"irregular\":{},\"static_cpi_bound\":{:.4},\
             \"weighted_cycles\":{wc},\"weighted_useful\":{wu},\"blocks\":[",
            self.entry,
            self.slots,
            self.irregular,
            self.static_cpi_bound()
        );
        for (b, c) in self.blocks.iter().zip(&costs) {
            if c.index > 0 {
                out.push(',');
            }
            let exit = match b.exit {
                BlockExit::FallThrough { .. } => "fallthrough",
                BlockExit::Branch { .. } => "branch",
                BlockExit::Jump { link: true, .. } => "call",
                BlockExit::Jump { .. } => "jump",
                BlockExit::Halt => "halt",
            };
            let st = b.static_stall_events();
            out.push_str(&format!(
                "{{\"start\":{},\"len\":{},\"exit\":\"{exit}\",\"depth\":{},\"weight\":{},\
                 \"slots\":{},\"slot_filled\":{},\"slot_nops\":{},\"body_nops\":{},\
                 \"load_pad_nops\":{},\"best_wasted\":{},\"worst_wasted\":{},\
                 \"live_in\":{},\"live_out\":{},\"md_steps\":{},\"bypasses\":{},\
                 \"stalls\":{{\"coproc-busy\":{},\"coproc-forced-miss\":{},\"interlock\":{}}},\
                 \"irregular\":{}}}",
                b.start,
                b.len,
                c.depth,
                c.weight,
                b.slots,
                b.slot_filled,
                b.slot_nops,
                b.body_nops,
                b.load_pad_nops,
                c.best_wasted,
                c.worst_wasted,
                b.live_in,
                b.live_out,
                b.md_steps,
                b.bypasses,
                st[2],
                st[3],
                st[4],
                b.irregular,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Human-readable cost table plus the whole-program bound.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("block      len slot fill  nop depth   weight wasted  live-in -> live-out\n");
        for c in self.cost_table() {
            let b = &self.blocks[c.index];
            out.push_str(&format!(
                "{:#08x} {:4} {:4} {:4} {:4} {:5} {:8} {:>6} {} -> {}{}\n",
                b.start,
                b.len,
                b.slots,
                b.slot_filled,
                b.slot_nops + b.body_nops,
                c.depth,
                c.weight,
                format!("{}/{}", c.best_wasted, c.worst_wasted),
                regs(b.live_in),
                regs(b.live_out),
                if b.irregular { "  (irregular)" } else { "" },
            ));
        }
        let (wc, wu) = self.weighted_totals();
        out.push_str(&format!(
            "{} block(s), {} delay slot(s) per transfer\n\
             static CPI bound (cache-ideal, best-path, loop-weighted): {:.4} \
             ({wc} weighted cycles / {wu} useful)\n",
            self.blocks.len(),
            self.slots,
            self.static_cpi_bound()
        ));
        out
    }
}

/// Per-block neighbour lists in one array: block `i`'s neighbours are
/// `list[start[i]..start[i + 1]]`.
#[derive(Clone, Debug)]
struct Adjacency {
    start: Vec<usize>,
    list: Vec<usize>,
}

impl Default for Adjacency {
    fn default() -> Adjacency {
        Adjacency {
            start: vec![0],
            list: Vec::new(),
        }
    }
}

impl Adjacency {
    /// Append the next block's neighbours.
    fn push(&mut self, neighbours: impl Iterator<Item = usize>) {
        self.list.extend(neighbours);
        self.start.push(self.list.len());
    }

    /// The neighbours of block `i`.
    fn of(&self, i: usize) -> &[usize] {
        &self.list[self.start[i]..self.start[i + 1]]
    }

    /// The reverse graph, each list without repeats and ascending.
    fn reversed(&self) -> Adjacency {
        let n = self.start.len() - 1;
        let mut count = vec![0usize; n + 1];
        let mut mark = vec![usize::MAX; n];
        for i in 0..n {
            for &s in self.of(i) {
                if std::mem::replace(&mut mark[s], i) != i {
                    count[s + 1] += 1;
                }
            }
        }
        for k in 0..n {
            count[k + 1] += count[k];
        }
        let mut list = vec![0; count[n]];
        let mut next = count.clone();
        mark.fill(usize::MAX);
        for i in 0..n {
            for &s in self.of(i) {
                if std::mem::replace(&mut mark[s], i) != i {
                    list[next[s]] = i;
                    next[s] += 1;
                }
            }
        }
        Adjacency { start: count, list }
    }
}

/// Compact register-set rendering for reports: `r1,r2`, `-` when empty,
/// or a count when the set is large.
fn regs(mask: u32) -> String {
    let list: Vec<String> = InstrMeta::mask_regs(mask).map(|r| r.to_string()).collect();
    match list.len() {
        0 => "-".to_string(),
        1..=4 => list.join(","),
        n => format!("{n} regs"),
    }
}

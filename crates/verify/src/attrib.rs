//! Dynamic per-block CPI attribution and the static-vs-dynamic
//! differential.
//!
//! [`BlockAttribution`] is a [`TraceSink`] that buckets every WB drain,
//! branch resolution, and stall event into the static analyzer's basic
//! blocks. On the cache-ideal configuration
//! (`MachineConfig::cache_ideal`), fault-free, the static model predicts
//! the dynamic counters **exactly** — not approximately — as linear
//! functions of the measured visit and branch-outcome counts, through the
//! same per-outcome [`Delta`] record the block engine books:
//!
//! ```text
//! booked(b)   = nottaken(b) · delta(false) + taken(b) · delta(true)
//! drains(b)   = visits(b) · len(b)
//! squashed(b) = booked(b).squashed      nops(b) = booked(b).nops
//! retires(b)  = booked(b).instructions  branch probe = booked(b).branch_slot_*
//! stalls(b)   = 0 for every cause
//! cycles      = Σ drains + PIPE_FILL
//! ```
//!
//! [`differential`] checks every one of those identities per block, and
//! the booked sum against `RunStats` on the write-back counters
//! (`instructions`, `nops`, `squashed`, `loads`, `stores`). The
//! resolve-stage counters are not global identities: the stepper books a
//! control word that resolves in a `halt`'s fetch shadow in `RunStats`,
//! but never drains it and reports no probe event for it. The branch
//! counters are per-block identities against the branch probe instead,
//! and globally `jumps` may exceed the booked sum by the shadow's
//! resolutions. Any mismatch is a bug in either the analyzer or the
//! pipeline model — the check cuts both ways, which is why CI runs it over
//! every kernel × all six Table 1 schemes.
//!
//! [`Delta`]: crate::Delta
//! [`TraceSink`]: mipsx_core::probe::TraceSink

use crate::timing::TimingAnalysis;
use mipsx_core::probe::{StallCause, TraceSink};
use mipsx_core::RunStats;
use mipsx_isa::Instr;

/// Cycles on the clock before the first WB drain: the instruction fetched
/// on cycle 1 occupies IF/RF/ALU/MEM on cycles 1–4 and drains from WB on
/// cycle 5, so the ramp costs 5 cycles and every later stall-free cycle
/// drains exactly one instruction: `cycles == total drains + PIPE_FILL`.
/// (Confirmed empirically by the static/dynamic differential over every
/// kernel × scheme.)
pub const PIPE_FILL: u64 = mipsx_core::Machine::PIPE_FILL_CYCLES;

/// Dynamic counters for one basic block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynBlock {
    /// WB drains of the block head — the visit count.
    pub visits: u64,
    /// All WB drains attributed to the block (killed included).
    pub drains: u64,
    /// Architectural completions (un-killed drains).
    pub arch_retires: u64,
    /// Killed (squashed) drains.
    pub squashed: u64,
    /// Un-killed explicit-nop drains.
    pub nop_retires: u64,
    /// Branch resolutions with the condition true.
    pub taken: u64,
    /// Branch resolutions with the condition false.
    pub not_taken: u64,
    /// Delay-slot kills reported by the branch probe (cross-check against
    /// the killed-drain count).
    pub squashed_from_branch: u64,
    /// Surviving delay-slot nops reported by the branch probe.
    pub slot_nops_live: u64,
    /// Stall events per [`StallCause::index`].
    pub stall_events: [u64; 5],
    /// Frozen cycles per cause.
    pub stall_cycles: [u64; 5],
}

/// A [`TraceSink`] that attributes retire/branch/stall events to the
/// static analyzer's basic blocks.
#[derive(Clone, Debug)]
pub struct BlockAttribution {
    origin: u32,
    /// Dense `addr - origin` → block index map (`u32::MAX` = no block).
    map: Vec<u32>,
    /// Head addresses, indexed like `blocks`.
    heads: Vec<u32>,
    /// Per-block dynamic counters.
    pub blocks: Vec<DynBlock>,
    /// Events whose PC maps to no block (exception paths, runoff fetches).
    pub outside: DynBlock,
}

impl BlockAttribution {
    /// An attribution sink matching `ta`'s block partition.
    pub fn new(ta: &TimingAnalysis) -> BlockAttribution {
        let origin = ta.blocks.first().map_or(0, |b| b.start);
        let end = ta
            .blocks
            .iter()
            .map(|b| b.start + b.len)
            .max()
            .unwrap_or(origin);
        let mut map = vec![u32::MAX; (end - origin) as usize];
        let mut heads = Vec::with_capacity(ta.blocks.len());
        for (i, b) in ta.blocks.iter().enumerate() {
            heads.push(b.start);
            for a in b.start..b.start + b.len {
                map[(a - origin) as usize] = i as u32;
            }
        }
        BlockAttribution {
            origin,
            map,
            heads,
            blocks: vec![DynBlock::default(); ta.blocks.len()],
            outside: DynBlock::default(),
        }
    }

    fn slot(&mut self, pc: u32) -> (&mut DynBlock, bool) {
        let idx = pc
            .checked_sub(self.origin)
            .and_then(|o| self.map.get(o as usize))
            .copied()
            .unwrap_or(u32::MAX);
        if idx == u32::MAX {
            (&mut self.outside, false)
        } else {
            let head = self.heads[idx as usize] == pc;
            (&mut self.blocks[idx as usize], head)
        }
    }
}

impl TraceSink for BlockAttribution {
    fn retire(&mut self, _cycle: u64, pc: u32, instr: Instr, killed: bool) {
        let (b, head) = self.slot(pc);
        b.drains += 1;
        if head {
            b.visits += 1;
        }
        if killed {
            b.squashed += 1;
        } else {
            b.arch_retires += 1;
            if matches!(instr, Instr::Nop) {
                b.nop_retires += 1;
            }
        }
    }

    fn branch(&mut self, _cycle: u64, pc: u32, taken: bool, squashed_slots: u32, nop_slots: u32) {
        let (b, _) = self.slot(pc);
        if taken {
            b.taken += 1;
        } else {
            b.not_taken += 1;
        }
        b.squashed_from_branch += u64::from(squashed_slots);
        b.slot_nops_live += u64::from(nop_slots);
    }

    fn stall(&mut self, _cycle: u64, cause: StallCause, cycles: u32, pc: u32) {
        let (b, _) = self.slot(pc);
        b.stall_events[cause.index()] += 1;
        b.stall_cycles[cause.index()] += u64::from(cycles);
    }
}

/// Check the static prediction against one fault-free cache-ideal run.
/// Returns every violated identity as a human-readable line; an empty
/// vector means the match was *exact*.
pub fn differential(ta: &TimingAnalysis, dy: &BlockAttribution, stats: &RunStats) -> Vec<String> {
    let mut errs = Vec::new();
    let mut check = |what: String, expected: u64, got: u64| {
        if expected != got {
            errs.push(format!("{what}: static {expected} != dynamic {got}"));
        }
    };
    let mut total_drains = 0u64;
    // What the blocks' deltas book for the measured visits.
    let mut booked = RunStats::default();

    for (b, d) in ta.blocks.iter().zip(&dy.blocks) {
        let at = format!("block {:#07x}", b.start);
        if b.irregular {
            // No static per-visit claim holds; the kernels never produce
            // irregular blocks (asserted by the callers' tests).
            continue;
        }
        let v = d.visits;
        total_drains += d.drains;

        // Every visit fetches — and fault-free, drains — the whole block.
        check(format!("{at} drains"), v * u64::from(b.len), d.drains);
        // Every visit to a branch block resolves its branch once.
        check(
            format!("{at} branch resolutions"),
            v * u64::from(b.delta(false).branches),
            d.taken + d.not_taken,
        );
        // The branch probe splits the visits by outcome; a block that
        // does not end in a branch takes outcome `false` on every visit.
        let mut p = RunStats::default();
        b.delta(false).book(v.saturating_sub(d.taken), &mut p);
        b.delta(true).book(d.taken, &mut p);
        check(format!("{at} squashed drains"), p.squashed, d.squashed);
        check(format!("{at} nop retires"), p.nops, d.nop_retires);
        check(
            format!("{at} architectural retires"),
            p.instructions,
            d.arch_retires,
        );
        // Independent measurements from the branch-resolve probe.
        check(
            format!("{at} squashed (branch probe)"),
            p.branch_slot_squashed,
            d.squashed_from_branch,
        );
        check(
            format!("{at} live slot nops (branch probe)"),
            p.branch_slot_nops,
            d.slot_nops_live,
        );
        booked.merge(&p);
        // Cache-ideal, fault-free, no attached coprocessors: every stall
        // bucket is statically zero — and dynamically must be too.
        for cause in StallCause::ALL {
            check(
                format!("{at} {cause} stall events"),
                0,
                d.stall_events[cause.index()],
            );
            check(
                format!("{at} {cause} stall cycles"),
                0,
                d.stall_cycles[cause.index()],
            );
        }
    }

    check("outside-image drains".to_string(), 0, dy.outside.drains);
    check(
        "outside-image stall events".to_string(),
        0,
        dy.outside.stall_events.iter().sum(),
    );
    // Global identities against the machine's own books.
    check(
        "total cycles (drains + pipe fill)".to_string(),
        total_drains + PIPE_FILL,
        stats.cycles,
    );
    check("frozen cycles".to_string(), 0, stats.frozen_cycles);
    for (name, expected, got) in [
        ("instructions", booked.instructions, stats.instructions),
        ("nops", booked.nops, stats.nops),
        ("squashed", booked.squashed, stats.squashed),
        ("loads", booked.loads, stats.loads),
        ("stores", booked.stores, stats.stores),
    ] {
        check(format!("{name} (RunStats)"), expected, got);
    }
    // A jump in the `halt`'s fetch shadow resolves, booking in `RunStats`,
    // before the halt retires; it never drains, so no block books it. At
    // most `4 - slots` shadow words resolve.
    let shadow = u64::from(4 - ta.slots);
    if !(booked.jumps..=booked.jumps + shadow).contains(&stats.jumps) {
        errs.push(format!(
            "jumps (RunStats): static {} (+ up to {shadow} in the halt shadow) != dynamic {}",
            booked.jumps, stats.jumps
        ));
    }
    errs
}

//! Cycle-level observability: typed trace probes for the pipeline.
//!
//! The paper's entire evaluation is built on *watching* the machine —
//! trace-driven simulation, the FSM diagrams of Figures 3 and 4, and the
//! CPI decomposition (1.24 average fetch cycles growing to ≈1.7 total CPI).
//! This module gives the simulator the same visibility: [`Machine`]
//! (via [`Machine::step`]/[`Machine::run_with`]) drives a
//! [`TraceSink`] with typed per-cycle events — stage occupancy, bypass
//! activations, squash/exception FSM transitions, cache-miss-FSM freezes,
//! and stall events tagged with a [`StallCause`].
//!
//! The sink is a *generic* parameter, so the default [`NullSink`]
//! monomorphises to nothing: the hot path pays zero cost when nobody is
//! watching (verified by the `zero_cost` A/B bench in `crates/bench`;
//! `perfbench` times the stepper itself as `core.ns_per_cycle`).
//!
//! Three real sinks ship here:
//!
//! - [`CpiAttribution`] — per-cause cycle accounting plus a per-PC hot-spot
//!   histogram; decomposes CPI the way the paper's Status section does,
//!   with an exact identity: advancing cycles + per-cause frozen cycles
//!   = total cycles.
//! - [`PipeDiagram`] — a deterministic ASCII pipeline (Konata-style)
//!   renderer, used by the directed tests of the Figure 3/4 FSMs.
//! - [`JsonlSink`] — one JSON event per line, for external tooling.
//!
//! [`Machine`]: crate::Machine
//! [`Machine::step`]: crate::Machine::step
//! [`Machine::run_with`]: crate::Machine::run_with

use std::collections::BTreeMap;
use std::io::Write;

use mipsx_isa::{ExceptionCause, Instr, Reg};
pub use mipsx_telemetry::export::json_escape;

use crate::fsm::SquashLines;
use crate::inject::FaultKind;

/// A pipeline stage, in machine order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Stage {
    /// Instruction fetch.
    If,
    /// Register fetch / decode.
    Rf,
    /// Execute (and branch resolve in the two-slot pipeline).
    Alu,
    /// Data memory / coprocessor interface.
    Mem,
    /// Delayed write-back.
    Wb,
}

impl Stage {
    /// All stages, pipeline order.
    pub const ALL: [Stage; 5] = [Stage::If, Stage::Rf, Stage::Alu, Stage::Mem, Stage::Wb];

    /// Stage from its pipeline index (0 = IF … 4 = WB).
    ///
    /// # Panics
    /// Panics if `index > 4`.
    pub fn from_index(index: usize) -> Stage {
        Stage::ALL[index]
    }

    /// Pipeline index (0 = IF … 4 = WB).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The single-letter mark used in pipe diagrams.
    pub fn letter(self) -> char {
        match self {
            Stage::If => 'F',
            Stage::Rf => 'R',
            Stage::Alu => 'A',
            Stage::Mem => 'M',
            Stage::Wb => 'W',
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::If => "IF",
            Stage::Rf => "RF",
            Stage::Alu => "ALU",
            Stage::Mem => "MEM",
            Stage::Wb => "WB",
        })
    }
}

/// Why the qualified clock ψ1 was withheld.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum StallCause {
    /// Instruction-cache miss service (Figure 4's two-cycle fetch-back).
    IcacheMiss,
    /// External-cache late-miss retry loop on the data side.
    EcacheRetry,
    /// Issuing to a busy coprocessor.
    CoprocBusy,
    /// The non-cached coprocessor scheme's forced per-operation miss.
    CoprocForcedMiss,
    /// A hardware load-use interlock. MIPS-X deliberately has none — the
    /// reorganizer schedules around the hazard — so this bucket stays zero
    /// on the shipped pipeline; it exists so interlocking variants
    /// decompose in the same report.
    Interlock,
}

impl StallCause {
    /// Every cause, report order.
    pub const ALL: [StallCause; 5] = [
        StallCause::IcacheMiss,
        StallCause::EcacheRetry,
        StallCause::CoprocBusy,
        StallCause::CoprocForcedMiss,
        StallCause::Interlock,
    ];

    /// Dense index for per-cause arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StallCause::IcacheMiss => "icache-miss",
            StallCause::EcacheRetry => "ecache-retry",
            StallCause::CoprocBusy => "coproc-busy",
            StallCause::CoprocForcedMiss => "coproc-forced-miss",
            StallCause::Interlock => "interlock",
        })
    }
}

/// Why the squash FSM asserted its kill lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SquashReason {
    /// A branch went against its squash sense; the delay slots die.
    BranchWrongWay,
    /// An exception halted the pipeline; nothing in flight completes.
    Exception,
}

impl std::fmt::Display for SquashReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SquashReason::BranchWrongWay => "branch-wrong-way",
            SquashReason::Exception => "exception",
        })
    }
}

/// Receiver of per-cycle pipeline events.
///
/// Every method has an empty default body, so a sink implements only what
/// it needs. [`crate::Machine::step`] is generic over the sink and the
/// no-op [`NullSink`] monomorphises away entirely; event-argument
/// construction that cannot be proven dead is additionally gated on
/// [`TraceSink::ENABLED`].
pub trait TraceSink {
    /// `false` only for sinks that ignore everything; lets the machine skip
    /// event-argument construction wholesale.
    const ENABLED: bool = true;

    /// A new cycle began (fires for frozen cycles too, before
    /// [`TraceSink::frozen`]).
    #[inline]
    fn cycle(&mut self, _cycle: u64) {}

    /// ψ1 was withheld this cycle: the whole pipeline is frozen in place.
    #[inline]
    fn frozen(&mut self, _cycle: u64) {}

    /// Stage occupancy: `instr` (fetched at `pc`) sat in `stage` this
    /// advancing cycle; `killed` is its destination-kill bit.
    #[inline]
    fn stage(&mut self, _cycle: u64, _stage: Stage, _pc: u32, _instr: Instr, _killed: bool) {}

    /// The bypass network forwarded `reg` from the instruction in `from`
    /// to the consumer in `to` (instead of reading the register file).
    #[inline]
    fn bypass(&mut self, _cycle: u64, _reg: Reg, _from: Stage, _to: Stage) {}

    /// The cache-miss FSM started (or extended) a freeze of `cycles`
    /// cycles, charged to `cause`; `pc` is the instruction responsible.
    #[inline]
    fn stall(&mut self, _cycle: u64, _cause: StallCause, _cycles: u32, _pc: u32) {}

    /// The squash FSM asserted `lines`; `pc` is the branch (or the
    /// exception vector for [`SquashReason::Exception`]).
    #[inline]
    fn squash(&mut self, _cycle: u64, _reason: SquashReason, _lines: SquashLines, _pc: u32) {}

    /// An exception was accepted.
    #[inline]
    fn exception(&mut self, _cycle: u64, _cause: ExceptionCause) {}

    /// An instruction drained at WB. `killed` distinguishes a squashed
    /// drain from an architectural completion.
    #[inline]
    fn retire(&mut self, _cycle: u64, _pc: u32, _instr: Instr, _killed: bool) {}

    /// A branch at `pc` resolved: `taken` is the condition outcome,
    /// `squashed_slots` counts delay-slot instructions whose destination-kill
    /// line was asserted this resolution, and `nop_slots` counts surviving
    /// delay-slot instructions that are explicit nops (wasted issue slots the
    /// reorganizer failed to fill). Fires once per dynamic branch, from the
    /// resolve stage.
    #[inline]
    fn branch(
        &mut self,
        _cycle: u64,
        _pc: u32,
        _taken: bool,
        _squashed_slots: u32,
        _nop_slots: u32,
    ) {
    }

    /// The fault-injection harness delivered `kind` this cycle; `pc` is the
    /// fetch PC at delivery. Interrupt-class faults show up again as
    /// [`TraceSink::exception`] events if and when the pins are accepted.
    #[inline]
    fn fault(&mut self, _cycle: u64, _kind: FaultKind, _pc: u32) {}
}

/// The default sink: observes nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;
}

/// Forward through a mutable reference, so a sink can be borrowed into a
/// tuple composition and inspected afterwards.
impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline]
    fn cycle(&mut self, cycle: u64) {
        (**self).cycle(cycle);
    }

    #[inline]
    fn frozen(&mut self, cycle: u64) {
        (**self).frozen(cycle);
    }

    #[inline]
    fn stage(&mut self, cycle: u64, stage: Stage, pc: u32, instr: Instr, killed: bool) {
        (**self).stage(cycle, stage, pc, instr, killed);
    }

    #[inline]
    fn bypass(&mut self, cycle: u64, reg: Reg, from: Stage, to: Stage) {
        (**self).bypass(cycle, reg, from, to);
    }

    #[inline]
    fn stall(&mut self, cycle: u64, cause: StallCause, cycles: u32, pc: u32) {
        (**self).stall(cycle, cause, cycles, pc);
    }

    #[inline]
    fn squash(&mut self, cycle: u64, reason: SquashReason, lines: SquashLines, pc: u32) {
        (**self).squash(cycle, reason, lines, pc);
    }

    #[inline]
    fn exception(&mut self, cycle: u64, cause: ExceptionCause) {
        (**self).exception(cycle, cause);
    }

    #[inline]
    fn retire(&mut self, cycle: u64, pc: u32, instr: Instr, killed: bool) {
        (**self).retire(cycle, pc, instr, killed);
    }

    #[inline]
    fn branch(&mut self, cycle: u64, pc: u32, taken: bool, squashed_slots: u32, nop_slots: u32) {
        (**self).branch(cycle, pc, taken, squashed_slots, nop_slots);
    }

    #[inline]
    fn fault(&mut self, cycle: u64, kind: FaultKind, pc: u32) {
        (**self).fault(cycle, kind, pc);
    }
}

/// Fan-out: drive two sinks from one run (`(a, b)`; nest for more).
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn cycle(&mut self, cycle: u64) {
        self.0.cycle(cycle);
        self.1.cycle(cycle);
    }

    #[inline]
    fn frozen(&mut self, cycle: u64) {
        self.0.frozen(cycle);
        self.1.frozen(cycle);
    }

    #[inline]
    fn stage(&mut self, cycle: u64, stage: Stage, pc: u32, instr: Instr, killed: bool) {
        self.0.stage(cycle, stage, pc, instr, killed);
        self.1.stage(cycle, stage, pc, instr, killed);
    }

    #[inline]
    fn bypass(&mut self, cycle: u64, reg: Reg, from: Stage, to: Stage) {
        self.0.bypass(cycle, reg, from, to);
        self.1.bypass(cycle, reg, from, to);
    }

    #[inline]
    fn stall(&mut self, cycle: u64, cause: StallCause, cycles: u32, pc: u32) {
        self.0.stall(cycle, cause, cycles, pc);
        self.1.stall(cycle, cause, cycles, pc);
    }

    #[inline]
    fn squash(&mut self, cycle: u64, reason: SquashReason, lines: SquashLines, pc: u32) {
        self.0.squash(cycle, reason, lines, pc);
        self.1.squash(cycle, reason, lines, pc);
    }

    #[inline]
    fn exception(&mut self, cycle: u64, cause: ExceptionCause) {
        self.0.exception(cycle, cause);
        self.1.exception(cycle, cause);
    }

    #[inline]
    fn retire(&mut self, cycle: u64, pc: u32, instr: Instr, killed: bool) {
        self.0.retire(cycle, pc, instr, killed);
        self.1.retire(cycle, pc, instr, killed);
    }

    #[inline]
    fn branch(&mut self, cycle: u64, pc: u32, taken: bool, squashed_slots: u32, nop_slots: u32) {
        self.0.branch(cycle, pc, taken, squashed_slots, nop_slots);
        self.1.branch(cycle, pc, taken, squashed_slots, nop_slots);
    }

    #[inline]
    fn fault(&mut self, cycle: u64, kind: FaultKind, pc: u32) {
        self.0.fault(cycle, kind, pc);
        self.1.fault(cycle, kind, pc);
    }
}

// ---------------------------------------------------------------------------
// CpiAttribution
// ---------------------------------------------------------------------------

/// Per-PC accounting for the hot-spot histogram.
#[derive(Clone, Copy, Debug, Default)]
struct PcAccount {
    stall_cycles: u64,
    retires: u64,
}

/// Decomposes CPI by stall cause, exactly: every cycle is either an
/// *advancing* cycle or a frozen cycle charged to one [`StallCause`], so
/// the per-cause cycle counts sum to the total — the invariant
/// [`CpiAttribution::identity_holds`] checks and the `mipsx trace` tool
/// asserts.
#[derive(Clone, Debug, Default)]
pub struct CpiAttribution {
    /// Total cycles observed.
    pub total_cycles: u64,
    /// Cycles the pipeline advanced (ψ1 rose).
    pub advancing_cycles: u64,
    /// Frozen cycles attributed per cause (index by [`StallCause::index`]).
    pub stall_cycles: [u64; 5],
    /// Stall *events* per cause (one `start` may freeze many cycles).
    pub stall_events: [u64; 5],
    /// Frozen cycles per cause still pending attribution.
    pending: [u64; 5],
    /// Bypass activations per (from, to) stage pair.
    pub bypasses: BTreeMap<(Stage, Stage), u64>,
    /// Instructions completed at WB.
    pub retired: u64,
    /// Killed instructions drained at WB.
    pub squashed: u64,
    /// Squash-FSM assertions by reason (branch, exception).
    pub branch_squashes: u64,
    /// Exception squashes.
    pub exception_squashes: u64,
    /// Per-PC stall cycles and retire counts.
    per_pc: BTreeMap<u32, PcAccount>,
}

impl CpiAttribution {
    /// A fresh, zeroed attribution sink.
    pub fn new() -> CpiAttribution {
        CpiAttribution::default()
    }

    /// Dynamic instructions, the paper's way (completed + squashed).
    pub fn dynamic_instructions(&self) -> u64 {
        self.retired + self.squashed
    }

    /// Total frozen cycles attributed across all causes.
    pub fn frozen_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// The books balance: advancing + per-cause frozen = total.
    pub fn identity_holds(&self) -> bool {
        self.advancing_cycles + self.frozen_cycles() == self.total_cycles
    }

    /// CPI over everything observed.
    pub fn cpi(&self) -> f64 {
        if self.dynamic_instructions() == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.dynamic_instructions() as f64
        }
    }

    /// CPI with all freezes removed — the paper's "base" pipeline rate the
    /// 1.24-cycle average fetch then inflates.
    pub fn base_cpi(&self) -> f64 {
        if self.dynamic_instructions() == 0 {
            0.0
        } else {
            self.advancing_cycles as f64 / self.dynamic_instructions() as f64
        }
    }

    /// The `n` hottest PCs by stall cycles (ties broken by PC), with their
    /// stall-cycle and retire counts.
    pub fn hot_pcs(&self, n: usize) -> Vec<(u32, u64, u64)> {
        let mut entries: Vec<(u32, u64, u64)> = self
            .per_pc
            .iter()
            .filter(|(_, a)| a.stall_cycles > 0)
            .map(|(&pc, a)| (pc, a.stall_cycles, a.retires))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(n);
        entries
    }

    /// Render the attribution table (deterministic).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let pct = |cycles: u64| {
            if self.total_cycles == 0 {
                0.0
            } else {
                cycles as f64 * 100.0 / self.total_cycles as f64
            }
        };
        out.push_str(&format!(
            "CPI attribution — {} cycles, {} dynamic instructions, CPI {:.3} (base {:.3})\n",
            self.total_cycles,
            self.dynamic_instructions(),
            self.cpi(),
            self.base_cpi()
        ));
        out.push_str(&format!(
            "  {:<20} {:>10} {:>7} {:>8}\n",
            "cause", "cycles", "%total", "events"
        ));
        out.push_str(&format!(
            "  {:<20} {:>10} {:>6.1}% {:>8}\n",
            "advancing",
            self.advancing_cycles,
            pct(self.advancing_cycles),
            ""
        ));
        for cause in StallCause::ALL {
            let i = cause.index();
            out.push_str(&format!(
                "  {:<20} {:>10} {:>6.1}% {:>8}\n",
                cause.to_string(),
                self.stall_cycles[i],
                pct(self.stall_cycles[i]),
                self.stall_events[i]
            ));
        }
        out.push_str(&format!(
            "  {:<20} {:>10} {:>6.1}%\n",
            "total",
            self.advancing_cycles + self.frozen_cycles(),
            pct(self.advancing_cycles + self.frozen_cycles())
        ));
        out.push_str(&format!(
            "  identity: {} advancing + {} frozen = {} total ({})\n",
            self.advancing_cycles,
            self.frozen_cycles(),
            self.total_cycles,
            if self.identity_holds() {
                "exact"
            } else {
                "BROKEN"
            }
        ));
        let hot = self.hot_pcs(8);
        if !hot.is_empty() {
            out.push_str("  hottest PCs by stall cycles:\n");
            for (pc, stalls, retires) in hot {
                out.push_str(&format!(
                    "    {pc:#07x}  {stalls:>8} stall cycles  {retires:>8} retires\n"
                ));
            }
        }
        if !self.bypasses.is_empty() {
            out.push_str("  bypass activations:\n");
            for (&(from, to), &count) in &self.bypasses {
                out.push_str(&format!("    {from:>3} -> {to:<3} {count:>10}\n"));
            }
        }
        out
    }
}

impl TraceSink for CpiAttribution {
    fn cycle(&mut self, _cycle: u64) {
        self.total_cycles += 1;
        self.advancing_cycles += 1;
    }

    fn frozen(&mut self, _cycle: u64) {
        // cycle() already counted this cycle as advancing; reclassify it to
        // the oldest pending cause (report order breaks ties — freezes from
        // different causes never overlap in the shipped FSM anyway, they
        // accumulate).
        self.advancing_cycles -= 1;
        for cause in StallCause::ALL {
            let i = cause.index();
            if self.pending[i] > 0 {
                self.pending[i] -= 1;
                self.stall_cycles[i] += 1;
                return;
            }
        }
        // A freeze with no recorded start: charge the interlock bucket so
        // the identity still balances (cannot happen with the shipped
        // machine).
        self.stall_cycles[StallCause::Interlock.index()] += 1;
    }

    fn stall(&mut self, _cycle: u64, cause: StallCause, cycles: u32, pc: u32) {
        let i = cause.index();
        self.stall_events[i] += 1;
        self.pending[i] += cycles as u64;
        self.per_pc.entry(pc).or_default().stall_cycles += cycles as u64;
    }

    fn bypass(&mut self, _cycle: u64, _reg: Reg, from: Stage, to: Stage) {
        *self.bypasses.entry((from, to)).or_insert(0) += 1;
    }

    fn squash(&mut self, _cycle: u64, reason: SquashReason, _lines: SquashLines, _pc: u32) {
        match reason {
            SquashReason::BranchWrongWay => self.branch_squashes += 1,
            SquashReason::Exception => self.exception_squashes += 1,
        }
    }

    fn retire(&mut self, _cycle: u64, pc: u32, _instr: Instr, killed: bool) {
        if killed {
            self.squashed += 1;
        } else {
            self.retired += 1;
            self.per_pc.entry(pc).or_default().retires += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// PipeDiagram
// ---------------------------------------------------------------------------

/// One instruction's row in the diagram.
#[derive(Clone, Debug)]
struct DiagramRow {
    pc: u32,
    text: String,
    /// `(cycle, mark)` pairs, in increasing cycle order.
    marks: Vec<(u64, char)>,
}

/// Deterministic ASCII pipeline diagram (Konata-style).
///
/// One row per fetched instruction, one column per cycle. Marks: `F R A M
/// W` for the stage occupied that cycle (lowercase once the instruction's
/// kill bit is set — a squashed instruction keeps draining), `*` for
/// frozen cycles. Injected faults get their own `faults` lane under the
/// instruction rows, marked with the fault's letter (`I N P J C`, see
/// [`FaultKind::letter`]).
///
/// Recording stops after `max_cycles` observed cycles so tracing a long
/// run cannot exhaust memory; rendering is byte-stable for a given event
/// stream (golden-file tested).
#[derive(Clone, Debug)]
pub struct PipeDiagram {
    rows: Vec<DiagramRow>,
    /// Shadow pipeline: row index per stage (IF..WB).
    inflight: [Option<usize>; 5],
    current_cycle: u64,
    first_cycle: Option<u64>,
    /// Cycle of the most recent `stage` event, for shift detection.
    last_stage_cycle: Option<u64>,
    max_cycles: u64,
    cycles_seen: u64,
    /// Injected-fault marks: `(cycle, letter)` in delivery order.
    faults: Vec<(u64, char)>,
}

impl Default for PipeDiagram {
    fn default() -> PipeDiagram {
        PipeDiagram::new()
    }
}

impl PipeDiagram {
    /// A diagram recording up to 1000 cycles.
    pub fn new() -> PipeDiagram {
        PipeDiagram::with_limit(1000)
    }

    /// A diagram recording up to `max_cycles` cycles.
    pub fn with_limit(max_cycles: u64) -> PipeDiagram {
        PipeDiagram {
            rows: Vec::new(),
            inflight: [None; 5],
            current_cycle: 0,
            first_cycle: None,
            last_stage_cycle: None,
            max_cycles,
            cycles_seen: 0,
            faults: Vec::new(),
        }
    }

    fn recording(&self) -> bool {
        self.cycles_seen <= self.max_cycles
    }

    fn mark(&mut self, row: usize, cycle: u64, mark: char) {
        self.rows[row].marks.push((cycle, mark));
    }

    /// Render the diagram. Columns are cycles (numbered from the first
    /// observed cycle), rows are instructions in fetch order.
    pub fn render(&self) -> String {
        let Some(first) = self.first_cycle else {
            return String::from("(no cycles recorded)\n");
        };
        let last = self.current_cycle;
        let span = (last - first + 1) as usize;
        let label_width = self
            .rows
            .iter()
            .map(|r| r.text.len())
            .max()
            .unwrap_or(0)
            .clamp(8, 28);
        let mut out = String::new();
        // Cycle ruler: a tick every 5 columns with the cycle number.
        let mut ruler = String::new();
        let mut col = 0;
        while col < span {
            let label = format!("{}", first + col as u64);
            if col % 5 == 0 && col + label.len() <= span {
                ruler.push_str(&label);
                col += label.len().max(1);
                while col % 5 != 0 {
                    ruler.push(' ');
                    col += 1;
                }
            } else {
                ruler.push(' ');
                col += 1;
            }
        }
        out.push_str(&format!(
            "{:>9}  {:<label_width$}  {ruler}\n",
            "pc", "instr"
        ));
        for row in &self.rows {
            let mut lane = vec![' '; span];
            for &(cycle, mark) in &row.marks {
                lane[(cycle - first) as usize] = mark;
            }
            let lane: String = lane.into_iter().collect();
            let lane = lane.trim_end();
            out.push_str(&format!(
                "{:#09x}  {:<label_width$}  {lane}\n",
                row.pc, row.text
            ));
        }
        if !self.faults.is_empty() {
            let mut lane = vec![' '; span];
            for &(cycle, mark) in &self.faults {
                lane[(cycle - first) as usize] = mark;
            }
            let lane: String = lane.into_iter().collect();
            let lane = lane.trim_end();
            out.push_str(&format!("{:>9}  {:<label_width$}  {lane}\n", "", "faults"));
        }
        out
    }
}

impl TraceSink for PipeDiagram {
    fn cycle(&mut self, cycle: u64) {
        self.cycles_seen += 1;
        if !self.recording() {
            return;
        }
        self.first_cycle.get_or_insert(cycle);
        self.current_cycle = cycle;
    }

    fn frozen(&mut self, cycle: u64) {
        if !self.recording() {
            return;
        }
        for stage in 0..5 {
            if let Some(row) = self.inflight[stage] {
                self.mark(row, cycle, '*');
            }
        }
    }

    fn stage(&mut self, cycle: u64, stage: Stage, pc: u32, instr: Instr, killed: bool) {
        if !self.recording() {
            return;
        }
        // First stage event of an advancing cycle: shift the shadow pipe.
        if self.inflight_cycle_boundary(cycle) {
            self.inflight = [
                None,
                self.inflight[0],
                self.inflight[1],
                self.inflight[2],
                self.inflight[3],
            ];
        }
        let index = stage.index();
        let row = match self.inflight[index] {
            Some(row) => row,
            None => {
                // Newly visible instruction (fetched at the end of the
                // previous advancing cycle, or mid-pipe at attach time).
                let row = self.rows.len();
                self.rows.push(DiagramRow {
                    pc,
                    text: instr.to_string(),
                    marks: Vec::new(),
                });
                self.inflight[index] = Some(row);
                row
            }
        };
        let mark = if killed {
            stage.letter().to_ascii_lowercase()
        } else {
            stage.letter()
        };
        self.mark(row, cycle, mark);
    }

    fn fault(&mut self, cycle: u64, kind: FaultKind, _pc: u32) {
        if !self.recording() {
            return;
        }
        self.faults.push((cycle, kind.letter()));
    }
}

impl PipeDiagram {
    /// Whether this `stage` event is the first of a new advancing cycle.
    fn inflight_cycle_boundary(&mut self, cycle: u64) -> bool {
        if self.last_stage_cycle == Some(cycle) {
            false
        } else {
            self.last_stage_cycle = Some(cycle);
            true
        }
    }
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

/// Writes one JSON object per event, one per line.
///
/// The encoder is hand-rolled (the workspace has no serialization
/// dependency); strings are escaped per RFC 8259. Write errors are sticky
/// and surfaced by [`JsonlSink::finish`].
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    error: Option<std::io::Error>,
    /// Event-count written, for consumers that want a quick total.
    pub events: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            error: None,
            events: 0,
        }
    }

    fn emit(&mut self, line: String) {
        if self.error.is_some() {
            return;
        }
        self.events += 1;
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
    }

    /// Flush and return the writer, or the first write error.
    ///
    /// # Errors
    /// The first sticky write/flush error, if any occurred.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn frozen(&mut self, cycle: u64) {
        self.emit(format!("{{\"t\":\"frozen\",\"c\":{cycle}}}"));
    }

    fn stage(&mut self, cycle: u64, stage: Stage, pc: u32, instr: Instr, killed: bool) {
        self.emit(format!(
            "{{\"t\":\"stage\",\"c\":{cycle},\"stage\":\"{stage}\",\"pc\":{pc},\"instr\":\"{}\",\"killed\":{killed}}}",
            json_escape(&instr.to_string())
        ));
    }

    fn bypass(&mut self, cycle: u64, reg: Reg, from: Stage, to: Stage) {
        self.emit(format!(
            "{{\"t\":\"bypass\",\"c\":{cycle},\"reg\":\"{reg}\",\"from\":\"{from}\",\"to\":\"{to}\"}}"
        ));
    }

    fn stall(&mut self, cycle: u64, cause: StallCause, cycles: u32, pc: u32) {
        self.emit(format!(
            "{{\"t\":\"stall\",\"c\":{cycle},\"cause\":\"{cause}\",\"cycles\":{cycles},\"pc\":{pc}}}"
        ));
    }

    fn squash(&mut self, cycle: u64, reason: SquashReason, lines: SquashLines, pc: u32) {
        self.emit(format!(
            "{{\"t\":\"squash\",\"c\":{cycle},\"reason\":\"{reason}\",\"kills\":{},\"pc\":{pc}}}",
            lines.count()
        ));
    }

    fn exception(&mut self, cycle: u64, cause: ExceptionCause) {
        self.emit(format!(
            "{{\"t\":\"exception\",\"c\":{cycle},\"cause\":\"{}\"}}",
            json_escape(&format!("{cause:?}"))
        ));
    }

    fn retire(&mut self, cycle: u64, pc: u32, instr: Instr, killed: bool) {
        self.emit(format!(
            "{{\"t\":\"retire\",\"c\":{cycle},\"pc\":{pc},\"instr\":\"{}\",\"killed\":{killed}}}",
            json_escape(&instr.to_string())
        ));
    }

    fn branch(&mut self, cycle: u64, pc: u32, taken: bool, squashed_slots: u32, nop_slots: u32) {
        self.emit(format!(
            "{{\"t\":\"branch\",\"c\":{cycle},\"pc\":{pc},\"taken\":{taken},\"squashed\":{squashed_slots},\"nops\":{nop_slots}}}"
        ));
    }

    fn fault(&mut self, cycle: u64, kind: FaultKind, pc: u32) {
        self.emit(format!(
            "{{\"t\":\"fault\",\"c\":{cycle},\"kind\":\"{}\",\"pc\":{pc}}}",
            json_escape(&kind.to_string())
        ));
    }
}

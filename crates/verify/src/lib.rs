//! # mipsx-verify — static hazard verifier for scheduled MIPS-X code
//!
//! MIPS-X has **no hardware interlocks**: *"the resulting pipeline
//! interlocks are handled by the supporting software system"*. The
//! reorganizer (or a hand assembler) must emit code in which every load
//! delay slot, branch delay slot and squash sense is legal, because the
//! hardware will happily execute an illegal schedule and compute garbage.
//!
//! This crate is the static checker that the original Stanford toolchain
//! implicitly relied on: it decodes a finished [`Program`] image, rebuilds
//! the control-flow graph from branch displacements, and proves (or
//! refutes) the software-visible pipeline contract *before the program
//! ever runs*:
//!
//! - **load delays** — a `ld`/`mvfc` result must not be ALU-consumed by
//!   the very next instruction to execute, on *any* dynamic path,
//!   including the path from a branch's final delay slot into its target;
//! - **squashed slots** — a squashing branch annuls its slots by killing
//!   the destination-register write; instructions without a destination
//!   field (stores, coprocessor ops, control transfers) cannot be annulled
//!   and are illegal in squashed slots ([`squash_safe`]);
//! - **delay-slot shape** — control transfers inside another transfer's
//!   delay window, and windows that run off the end of the image;
//! - **MD step chains** — `mstep`/`dstep` sequences broken by an
//!   intervening write to the MD special register, and MD writes issued
//!   so soon after a step that its write-back overwrites them;
//! - plus lints for reachable illegal encodings, writes to the hardwired
//!   `r0`, and coprocessor results read back while the unit may be busy.
//!
//! Diagnostics are typed ([`DiagKind`]), carry the faulting address and
//! disassembly, and come back sorted in a deterministic order so listings
//! are stable across runs — suitable for golden-file tests and CI.
//!
//! On top of the legality checks sits a **static timing analyzer**:
//! [`TimingAnalysis`] partitions the image into basic blocks
//! ([`BlockSummary`]: live-in/live-out, per-cause static stall counts,
//! fillable-vs-wasted delay-slot accounting, pre-resolved hazard edges),
//! discovers natural loops, and derives a whole-program **static CPI
//! lower bound**. Four scheduling-*quality* lints
//! ([`verify_with_timing`]) flag legal-but-slow schedules, and
//! [`BlockAttribution`] + [`differential`] prove the static model exact
//! against a fault-free cache-ideal dynamic run.
//!
//! ```
//! use mipsx_asm::assemble;
//! use mipsx_verify::{verify, DiagKind, VerifyConfig};
//!
//! let p = assemble("ld r1, 0(r2)\nadd r3, r1, r1\nhalt").unwrap();
//! let report = verify(&p, &VerifyConfig::default());
//! assert_eq!(report.diagnostics[0].kind, DiagKind::LoadDelay);
//! assert!(!report.is_clean());
//! ```

mod analysis;
mod attrib;
mod quality;
mod summary;
mod timing;

pub use attrib::{differential, BlockAttribution, DynBlock, PIPE_FILL};
pub use quality::{quality, verify_with_timing};
pub use summary::{BlockExit, BlockSummary, Delta, Partition, ALL_REGS};
pub use timing::{BlockCost, TimingAnalysis};

use mipsx_asm::Program;
use mipsx_core::probe::json_escape;
use mipsx_isa::{Instr, MdRole};
use std::fmt;

/// Parameters the verifier needs from the active
/// [`BranchScheme`](https://docs.rs/mipsx-reorg): how many delay slots a
/// control transfer owns. (Kept as a plain count so this crate does not
/// depend on the reorganizer.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyConfig {
    /// Delay slots after every branch/jump (1 or 2; MIPS-X hardware has 2).
    pub branch_delay_slots: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            branch_delay_slots: 2,
        }
    }
}

impl VerifyConfig {
    /// Config for a scheme with `slots` branch delay slots.
    pub fn for_slots(slots: usize) -> Self {
        assert!(
            (1..=2).contains(&slots),
            "MIPS-X branch schemes use 1 or 2 delay slots"
        );
        VerifyConfig {
            branch_delay_slots: slots,
        }
    }
}

/// How bad a diagnostic is. `Error` means the program violates the
/// pipeline contract and will misbehave on the real machine; `Warning`
/// means it is legal but suspicious or slow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

/// The `mstep`/`dstep` write-back shadow along a fetch stream. A step
/// writes MD at WB, two stages after its ALU, while `movtos` commits at
/// ALU, so a `movtos md` fetched one or two fetches behind an executed
/// step is overwritten by it ([`DiagKind::MdWriteAfterStep`]).
///
/// This is the one definition of the rule. The verifier, the block
/// summaries ([`BlockSummary::md_shadow_writes`]), the block engine's
/// entry-hazard marks and the reorganizer each fold their own fetch stream
/// through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MdShadow {
    /// Fetches since the last executed step, saturating at [`Self::REACH`].
    since: u8,
}

impl MdShadow {
    /// Fetches after which a step's write-back can no longer land on a
    /// later `movtos md`.
    const REACH: u8 = 3;

    /// No step in reach: the start of a run, or far enough past a step.
    pub const CLEAR: MdShadow = MdShadow { since: Self::REACH };

    /// Fold one fetch. `role` is the fetched instruction's MD role if it
    /// executes, and [`MdRole::None`] for an annulled slot, which still
    /// takes a fetch but writes nothing back. Returns how many fetches
    /// behind a step this fetch is, if it is a `movtos md` that the step's
    /// write-back clobbers.
    pub fn fetch(&mut self, role: MdRole) -> Option<u8> {
        let since = self.since;
        self.since = match role {
            MdRole::Mstep | MdRole::Dstep => 1,
            _ => (since + 1).min(Self::REACH),
        };
        (role == MdRole::WritesMd && since < Self::REACH).then_some(since)
    }

    /// Two paths join: the nearer step counts.
    pub fn merge(self, other: MdShadow) -> MdShadow {
        MdShadow {
            since: self.since.min(other.since),
        }
    }

    /// Whether no step's write-back is still in reach.
    pub fn is_clear(self) -> bool {
        self.since == Self::REACH
    }
}

/// The typed rule a diagnostic comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagKind {
    /// A `ld`/`mvfc` destination is ALU-consumed by the next instruction
    /// to execute (the machine has exactly one load delay slot and no
    /// interlock — the consumer would read the stale value).
    LoadDelay,
    /// A control transfer sits inside another transfer's delay window
    /// (legal only for the `jpc`/`jpcrs` exception-restart chain).
    ControlInSlot,
    /// A delay window extends past the end of the program image.
    SlotRunoff,
    /// A squashing branch's delay slot holds an instruction the squash
    /// mechanism cannot annul (no destination-register field to kill).
    SquashUnsafe,
    /// An `mstep`/`dstep` chain is broken by an intervening MD write
    /// before its 32 steps complete.
    MdChainBroken,
    /// A reachable word does not decode; executing it traps.
    IllegalInstr,
    /// An instruction writes the hardwired zero register (the result is
    /// silently discarded — almost always a compiler or generator bug).
    WriteToR0,
    /// A coprocessor result is read back the cycle after the operation
    /// launches; the unit may still be busy and the processor will stall.
    CoprocResultTiming,
    /// A delay slot that always executes holds a nop while the
    /// instruction just before the transfer could legally fill it.
    MissedSlotFill,
    /// A nop outside every delay window that pads no hazard; deleting it
    /// is free.
    RedundantNop,
    /// A needed load-delay pad nop that an independent instruction from
    /// later in the same block could replace with real work.
    AvoidableLoadStall,
    /// A join head ALU-consumes a value loaded at issue distance exactly
    /// 2 along one incoming edge — legal, but with zero scheduling slack.
    CrossBlockHazardAtJoin,
    /// A `movtos md` issues one or two fetches after an `mstep`/`dstep`:
    /// the step writes MD back two stages after `movtos` commits, so the
    /// written value is lost (and a following step reads the old chain's
    /// MD over the bypass).
    MdWriteAfterStep,
}

impl DiagKind {
    /// Severity class of this rule.
    pub fn severity(self) -> Severity {
        match self {
            DiagKind::WriteToR0
            | DiagKind::CoprocResultTiming
            | DiagKind::MissedSlotFill
            | DiagKind::RedundantNop
            | DiagKind::AvoidableLoadStall
            | DiagKind::CrossBlockHazardAtJoin => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// Stable kebab-case name used in listings and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DiagKind::LoadDelay => "load-delay",
            DiagKind::ControlInSlot => "control-in-slot",
            DiagKind::SlotRunoff => "slot-runoff",
            DiagKind::SquashUnsafe => "squash-unsafe",
            DiagKind::MdChainBroken => "md-chain-broken",
            DiagKind::IllegalInstr => "illegal-instr",
            DiagKind::WriteToR0 => "write-to-r0",
            DiagKind::CoprocResultTiming => "coproc-result-timing",
            DiagKind::MissedSlotFill => "missed-slot-fill",
            DiagKind::RedundantNop => "redundant-nop",
            DiagKind::AvoidableLoadStall => "avoidable-load-stall",
            DiagKind::CrossBlockHazardAtJoin => "cross-block-hazard-at-join",
            DiagKind::MdWriteAfterStep => "md-write-after-step",
        }
    }
}

/// One finding: the rule, where, the decoded instruction, and a
/// human-readable explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub kind: DiagKind,
    /// Word address of the faulting instruction.
    pub addr: u32,
    /// The decoded instruction at `addr` (its `Display` is the disassembly).
    pub instr: Instr,
    pub detail: String,
}

impl Diagnostic {
    /// Severity, derived from the kind.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{:#07x}: {}[{}] `{}` — {}",
            self.addr,
            sev,
            self.kind.name(),
            self.instr,
            self.detail
        )
    }
}

/// The full result of a [`verify`] run: all diagnostics, sorted by
/// `(addr, kind, detail)` and deduplicated, so the listing is stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub(crate) fn from_raw(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| (a.addr, a.kind, &a.detail).cmp(&(b.addr, b.kind, &b.detail)));
        diagnostics.dedup();
        LintReport { diagnostics }
    }

    /// Error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Warning-severity diagnostics only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// A program is *clean* when it has no error-severity diagnostics
    /// (warnings do not make a schedule illegal).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// Machine-readable report (hand-rolled JSON; stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count()
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"severity\":\"{}\",\"kind\":\"{}\",\"addr\":{},\"instr\":\"{}\",\"detail\":\"{}\"}}",
                match d.severity() {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                d.kind.name(),
                d.addr,
                json_escape(&d.instr.to_string()),
                json_escape(&d.detail)
            ));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

/// Can this instruction legally sit in a **squashed** delay slot?
///
/// The squash mechanism annuls a slot by asserting a kill line on the
/// destination-register specifier field, so only instructions whose
/// entire architectural effect is a register write can be squashed.
/// Stores, coprocessor operations, control transfers, special-register
/// writes, `halt` and undecodable words have effects the kill line cannot
/// reach — the reorganizer must never place them in squashing slots, and
/// the verifier reports [`DiagKind::SquashUnsafe`] when something does.
pub fn squash_safe(instr: &Instr) -> bool {
    instr.meta().squash_safe
}

/// Statically verify a program image against the MIPS-X pipeline
/// contract. See the crate docs for the rule set.
pub fn verify(program: &Program, config: &VerifyConfig) -> LintReport {
    let analysis = analysis::Analysis::new(program.decoded(), program.entry, config);
    LintReport::from_raw(analysis.diagnostics())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_asm::assemble;

    fn lint(src: &str) -> LintReport {
        verify(&assemble(src).unwrap(), &VerifyConfig::default())
    }

    fn kinds(report: &LintReport) -> Vec<(DiagKind, u32)> {
        report
            .diagnostics
            .iter()
            .map(|d| (d.kind, d.addr))
            .collect()
    }

    #[test]
    fn legal_program_is_clean() {
        let r = lint(
            "start: addi r1, r0, 10\n\
             loop:  add r2, r2, r1\n\
                    addi r1, r1, -1\n\
                    bne r1, r0, loop\n\
                    nop\n\
                    nop\n\
                    halt",
        );
        assert!(r.is_clean(), "{r}");
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn load_use_in_delay_slot() {
        let r = lint("ld r1, 0(r2)\nadd r3, r1, r1\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::LoadDelay, 1)]);
    }

    #[test]
    fn mvfc_is_load_class() {
        let r = lint("mvfc r1, c2, 7\nadd r3, r1, r1\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::LoadDelay, 1)]);
    }

    #[test]
    fn store_data_rides_to_mem_but_address_does_not() {
        // rsrc resolves at MEM: distance 1 from the load is fine.
        assert!(lint("ld r1, 0(r2)\nst r1, 0(r5)\nhalt").is_clean());
        // The address register is ALU-consumed: distance 1 is a hazard.
        let r = lint("ld r1, 0(r2)\nst r5, 0(r1)\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::LoadDelay, 1)]);
    }

    #[test]
    fn branch_sources_resolve_early() {
        let r = lint("t: ld r1, 0(r2)\nbne r1, r0, t\nnop\nnop\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::LoadDelay, 1)]);
    }

    #[test]
    fn one_interposed_instruction_clears_the_hazard() {
        assert!(lint("ld r1, 0(r2)\nnop\nadd r3, r1, r1\nhalt").is_clean());
        assert!(lint("ld r1, 0(r2)\nadd r4, r5, r5\nadd r3, r1, r1\nhalt").is_clean());
    }

    #[test]
    fn final_slot_load_feeding_branch_target() {
        // Slots execute when taken (sq): the target head consumes the
        // load issued in the final slot -> hazard on the taken path.
        let r = lint(
            "       beqsq r9, r9, t\n\
                    nop\n\
                    ld r1, 0(r2)\n\
                    halt\n\
             t:     add r3, r1, r1\n\
                    halt",
        );
        assert_eq!(kinds(&r), vec![(DiagKind::LoadDelay, 4)]);
        // Same shape but the target head does not consume r1: clean.
        let r = lint(
            "       beqsq r9, r9, t\n\
                    nop\n\
                    ld r1, 0(r2)\n\
                    halt\n\
             t:     add r3, r4, r4\n\
                    halt",
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn squashed_fallthrough_pair_is_dead() {
        // sq slots are annulled on the not-taken path, so a final-slot
        // load cannot collide with the fall-through head.
        let r = lint(
            "       beqsq r9, r9, t\n\
                    nop\n\
                    ld r1, 0(r2)\n\
                    add r3, r1, r1\n\
             t:     halt",
        );
        assert!(r.is_clean(), "{r}");
        // With no squash the slots execute on both paths: hazard.
        let r = lint(
            "       beq r9, r9, t\n\
                    nop\n\
                    ld r1, 0(r2)\n\
                    add r3, r1, r1\n\
             t:     halt",
        );
        assert_eq!(kinds(&r), vec![(DiagKind::LoadDelay, 3)]);
    }

    #[test]
    fn store_in_squashing_slot_is_unsafe() {
        let r = lint("t: beqsq r1, r2, t\nst r3, 0(r4)\nnop\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::SquashUnsafe, 1)]);
        let r = lint("t: beqsqg r1, r2, t\nnop\nst r3, 0(r4)\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::SquashUnsafe, 2)]);
        // No squash: the slot always executes, a store is fine.
        assert!(lint("t: beq r1, r2, t\nst r3, 0(r4)\nnop\nhalt").is_clean());
    }

    #[test]
    fn coproc_ops_cannot_be_annulled() {
        let r = lint("t: beqsq r1, r2, t\ncpop c1, 9(r0)\nnop\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::SquashUnsafe, 1)]);
    }

    #[test]
    fn control_in_delay_slot() {
        let r = lint(
            "t:     beq r1, r2, t\n\
                    jump t\n\
                    nop\n\
                    nop\n\
                    nop\n\
                    halt",
        );
        assert!(kinds(&r).contains(&(DiagKind::ControlInSlot, 1)), "{r}");
    }

    #[test]
    fn jpc_chain_is_exempt() {
        // The canonical exception-restart sequence.
        let r = lint("jpc\njpc\njpcrs\nnop\nnop\nhalt");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn window_running_off_the_image() {
        let r = lint("t: beq r1, r2, t\nnop");
        assert_eq!(kinds(&r), vec![(DiagKind::SlotRunoff, 0)]);
    }

    #[test]
    fn md_chain_rules() {
        let full = "movtos md, r1\n".to_string() + &"mstep r4, r5, r4\n".repeat(32) + "halt";
        assert!(lint(&full).is_clean());

        // An MD write 2 steps in clobbers the partial product.
        let broken = "movtos md, r1\n".to_string()
            + &"mstep r4, r5, r4\n".repeat(2)
            + "movtos md, r6\n"
            + &"mstep r4, r5, r4\n".repeat(30)
            + "halt";
        let r = lint(&broken);
        assert_eq!(kinds(&r), vec![(DiagKind::MdChainBroken, 3)]);

        // Interleaving a dstep into an mstep chain is also a break.
        let mixed = "mstep r4, r5, r4\nmstep r4, r5, r4\ndstep r4, r5, r4\nhalt";
        let r = lint(mixed);
        assert_eq!(kinds(&r), vec![(DiagKind::MdChainBroken, 2)]);
    }

    #[test]
    fn md_write_in_a_steps_shadow() {
        let chain = "movtos md, r1\n".to_string() + &"mstep r4, r5, r4\n".repeat(32);
        // One or two fetches after the 32nd step (at 32), the step's MD
        // write-back still lands after the `movtos`; three is clear.
        for (gap, flagged) in [(0, true), (1, true), (2, false)] {
            let src = chain.clone() + &"add r9, r1, r1\n".repeat(gap) + "movtos md, r6\nhalt";
            let want = if flagged {
                vec![(DiagKind::MdWriteAfterStep, 33 + gap as u32)]
            } else {
                vec![]
            };
            assert_eq!(kinds(&lint(&src)), want, "gap {gap}");
        }

        // Carried through the CFG: the chain ends in the branch's last
        // delay slot and the target's head writes MD two fetches later.
        let src = "movtos md, r1\n".to_string()
            + &"mstep r4, r5, r4\n".repeat(30)
            + "beq r1, r2, t\nmstep r4, r5, r4\nmstep r4, r5, r4\n\
               t: movtos md, r6\nhalt";
        assert_eq!(kinds(&lint(&src)), vec![(DiagKind::MdWriteAfterStep, 34)]);

        // An annulled step writes nothing back. Squashing when not taken,
        // the taken path runs the step in the window two fetches before
        // the target; squashing when taken, the taken path annuls it and
        // the fall-through is clear by three fetches.
        let squashing = |mnemonic: &str| {
            "movtos md, r1\n".to_string()
                + &"mstep r4, r5, r4\n".repeat(31)
                + mnemonic
                + " r1, r2, t\nmstep r4, r5, r4\nnop\nadd r9, r1, r1\n\
                   t: movtos md, r6\nhalt"
        };
        assert_eq!(
            kinds(&lint(&squashing("beqsq"))),
            vec![(DiagKind::MdWriteAfterStep, 36)]
        );
        assert!(lint(&squashing("beqsqg")).is_clean());
    }

    #[test]
    fn md_state_merges_across_joins() {
        // Both arms run a full 32-step chain; the join sees Idle either
        // way and the trailing chain is legal.
        let src = "       beq r1, r2, a\n\
                          nop\n\
                          nop\n"
            .to_string()
            + &"mstep r4, r5, r4\n".repeat(32)
            + "a:     halt";
        assert!(lint(&src).is_clean());
    }

    #[test]
    fn md_shadow_follows_returns_to_every_call_continuation() {
        // `f` is called from two sites and has two return paths; only the
        // first ends its chain in the return's delay slots. The return
        // edges are context-insensitive, so both continuations' MD writes
        // are one fetch behind that step.
        let callee = |tail: &str| {
            "       call f\n\
                    nop\n\
                    nop\n\
                    movtos md, r6\n\
                    call f\n\
                    nop\n\
                    nop\n\
                    movtos md, r7\n\
                    halt\n\
             f:     beq r1, r2, plain\n\
                    nop\n\
                    nop\n\
                    movtos md, r1\n"
                .to_string()
                + &"mstep r4, r5, r4\n".repeat(30)
                + tail
                + "plain: ret\nnop\nnop"
        };
        let r = lint(&callee("ret\nmstep r4, r5, r4\nmstep r4, r5, r4\n"));
        assert_eq!(
            kinds(&r),
            vec![
                (DiagKind::MdWriteAfterStep, 3),
                (DiagKind::MdWriteAfterStep, 7)
            ],
            "{r}"
        );
        // The chain done before the return leaves both landings clear.
        let r = lint(&callee(
            "mstep r4, r5, r4\nmstep r4, r5, r4\nret\nnop\nnop\n",
        ));
        assert!(r.diagnostics.is_empty(), "{r}");
    }

    #[test]
    fn reachable_illegal_word_is_flagged_unreachable_is_not() {
        let r = lint(".word 0xffffffff\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::IllegalInstr, 0)]);
        // Data after the halt never executes.
        assert!(lint("halt\n.word 0xffffffff").is_clean());
    }

    #[test]
    fn write_to_r0_is_a_warning() {
        let r = lint("addi r0, r1, 5\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::WriteToR0, 0)]);
        assert!(r.is_clean(), "warnings must not make a program illegal");
        // `ret`-style jspci with rd = r0 is the jump idiom, not a write.
        assert!(lint("jump t\nnop\nnop\nt: halt").is_clean());
    }

    #[test]
    fn coproc_result_readback_warns() {
        let r = lint("cpop c1, 9(r0)\nmvfc r3, c1, 0\nnop\nadd r4, r3, r3\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::CoprocResultTiming, 1)]);
        assert!(r.is_clean());
        // A different coprocessor is unrelated.
        assert!(
            lint("cpop c1, 9(r0)\nmvfc r3, c2, 0\nnop\nadd r4, r3, r3\nhalt")
                .diagnostics
                .is_empty()
        );
    }

    #[test]
    fn one_slot_config() {
        let p = assemble("t: beq r1, r2, t\nnop\nhalt").unwrap();
        assert!(verify(&p, &VerifyConfig::for_slots(1)).is_clean());
        // Under the 2-slot contract the same image runs the halt as a
        // live delay slot; under 1 slot it is the fall-through. Verify a
        // 2-slot-illegal shape: control in what slot 2 would be.
        let p = assemble("t: beq r1, r2, t\nnop\njump t\nnop\nnop\nhalt").unwrap();
        assert!(verify(&p, &VerifyConfig::for_slots(1)).is_clean());
        assert!(!verify(&p, &VerifyConfig::default()).is_clean());
    }

    #[test]
    fn indirect_transfer_final_slot_load_is_conservative() {
        let r = lint("jspci r31, 0(r9)\nnop\nld r1, 0(r2)\nhalt");
        assert_eq!(kinds(&r), vec![(DiagKind::LoadDelay, 2)]);
    }

    #[test]
    fn squash_safe_predicate() {
        use mipsx_isa::{Cond, SpecialReg};
        let reg = |i| mipsx_isa::Reg::new(i);
        assert!(squash_safe(&Instr::Addi {
            rs1: reg(1),
            rd: reg(2),
            imm: 3
        }));
        assert!(squash_safe(&Instr::Ld {
            rs1: reg(1),
            rd: reg(2),
            offset: 0
        }));
        assert!(squash_safe(&Instr::Nop));
        assert!(!squash_safe(&Instr::St {
            rs1: reg(1),
            rsrc: reg(2),
            offset: 0
        }));
        assert!(!squash_safe(&Instr::Cpop {
            rs1: reg(0),
            cop: 1,
            op: 2
        }));
        assert!(!squash_safe(&Instr::Movtos {
            sreg: SpecialReg::Md,
            rs: reg(1)
        }));
        assert!(!squash_safe(&Instr::Halt));
        assert!(!squash_safe(&Instr::Branch {
            cond: Cond::Eq,
            squash: mipsx_isa::SquashMode::NoSquash,
            rs1: reg(1),
            rs2: reg(2),
            disp: -1
        }));
    }

    #[test]
    fn listing_is_sorted_and_json_is_valid_shape() {
        let r = lint(
            "t:     beqsq r1, r2, t\n\
                    st r3, 0(r4)\n\
                    addi r0, r5, 1\n\
                    ld r6, 0(r7)\n\
                    add r8, r6, r6\n\
                    halt",
        );
        let addrs: Vec<u32> = r.diagnostics.iter().map(|d| d.addr).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted);
        let json = r.to_json();
        assert!(json.starts_with("{\"errors\":"));
        assert!(json.contains("\"kind\":\"squash-unsafe\""));
        assert!(json.ends_with("]}"));
    }
}

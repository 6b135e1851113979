//! The actual analysis: CFG reconstruction from a decoded image, the
//! adjacent-pair load-delay dataflow, delay-window shape rules, and the
//! MD step-chain abstract interpretation.
//!
//! The central object is the **execution-adjacency relation**: the set of
//! ordered pairs `(p, c)` such that instruction `c` can issue on the
//! cycle after instruction `p` on some dynamic path where both survive
//! squashing. Every load-delay hazard is a property of exactly one such
//! pair, because the machine's only load interlock gap is one cycle wide.
//! The relation is built from decoded branch displacements (the same
//! arithmetic the hardware does in the RF stage) plus the squash mode's
//! `slots_execute` truth table, so it includes the tricky pairs: final
//! delay slot → branch target, final slot → fall-through, and the unknown
//! successor of an indirect `jspci`/`jpc`.
//!
//! The program is decoded exactly once (`Program::decoded`) and every
//! per-instruction fact — late defs, ALU-stage use sets, squash safety,
//! MD roles — is read from the canonical `InstrMeta` record rather than
//! re-derived locally. Every per-word fact the analysis derives
//! (reachability, delay-slot membership, MD states) lives in a dense table
//! indexed like the image, by `addr - origin`; an address outside the
//! image is simply in no set.

use crate::{DiagKind, Diagnostic, VerifyConfig, MD_STEP_SHADOW};
use mipsx_asm::{DecodedEntry, DecodedImage};
use mipsx_isa::{Instr, MdRole, SquashMode};

/// Abstract MD-register state for the step-chain rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Md {
    /// No chain in progress (initial state; also after 32 steps retire).
    Idle,
    /// `count` same-kind steps done, `count < 32`. `mul` distinguishes
    /// `mstep` chains from `dstep` chains.
    Chain { mul: bool, count: u8 },
    /// Paths disagree — give up silently rather than guess.
    Top,
}

impl Md {
    fn merge(self, other: Md) -> Md {
        if self == other {
            self
        } else {
            Md::Top
        }
    }
}

/// The abstract MD state at one instruction: the chain in progress, and
/// how many fetches ago the last executed step issued (saturating at
/// [`MD_STEP_SHADOW`], "long enough").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MdState {
    chain: Md,
    since_step: u8,
}

impl MdState {
    const START: MdState = MdState {
        chain: Md::Idle,
        since_step: MD_STEP_SHADOW,
    };

    /// Paths join: the chains merge, and the nearest step counts.
    fn merge(self, other: MdState) -> MdState {
        MdState {
            chain: self.chain.merge(other.chain),
            since_step: self.since_step.min(other.since_step),
        }
    }

    /// The state `n` fetches later with no step among them (annulled slots
    /// are still fetched).
    fn after_fetches(self, n: u32) -> MdState {
        MdState {
            since_step: (u32::from(self.since_step) + n).min(u32::from(MD_STEP_SHADOW)) as u8,
            ..self
        }
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Analysis {
    pub(crate) entry: u32,
    /// Decoded entry (instruction + precomputed metadata) at every word
    /// address of the image — decoded once, up front.
    pub(crate) code: DecodedImage,
    /// Per image word: reachable from the entry point (data words that
    /// the program never flows into are not linted).
    pub(crate) reachable: Vec<bool>,
    pub(crate) slots: u32,
}

impl Analysis {
    /// Analyze the decoded image `code`, entered at `entry`.
    pub(crate) fn new(code: DecodedImage, entry: u32, config: &VerifyConfig) -> Analysis {
        let slots = config.branch_delay_slots as u32;

        // Reachability walk. Successors mirror the hardware: a control
        // transfer always fetches its delay slots; where it goes next
        // depends on the decoded displacement (or is unknowable for
        // indirect jumps, which simply end the walk on that path).
        let mut reachable = vec![false; code.len()];
        let mut work = vec![entry];
        while let Some(mut addr) = work.pop() {
            // Walk the straight-line run from `addr` up to its transfer.
            while let Some(i) = code.index(addr) {
                if std::mem::replace(&mut reachable[i], true) {
                    break;
                }
                let e = &code.entries()[i];
                if !e.meta.is_control && !e.is_halt() {
                    addr += 1;
                    continue;
                }
                match e.instr {
                    Instr::Branch { disp, .. } => {
                        work.extend((1..=slots).map(|k| addr + k));
                        work.push(addr.wrapping_add(disp as u32));
                        work.push(addr + slots + 1);
                    }
                    Instr::Jspci { rs1, rd, imm } => {
                        work.extend((1..=slots).map(|k| addr + k));
                        if rs1.is_zero() {
                            // Absolute jump/call: target is the immediate.
                            work.push(imm as u32);
                        }
                        if !rd.is_zero() {
                            // A call: the callee returns to the saved link,
                            // which points just past the delay slots.
                            work.push(addr + slots + 1);
                        }
                    }
                    Instr::Jpc | Instr::Jpcrs => {
                        work.extend((1..=slots).map(|k| addr + k));
                    }
                    _ => {} // `halt`
                }
                break;
            }
        }

        Analysis {
            entry,
            code,
            reachable,
            slots,
        }
    }

    /// Per image word: a delay slot of some reachable control transfer.
    fn in_slot(&self) -> Vec<bool> {
        let code = &self.code;
        let mut in_slot = vec![false; code.len()];
        for ((addr, entry), &live) in code.iter().zip(&self.reachable) {
            if live && entry.meta.is_control {
                for k in 1..=self.slots {
                    if let Some(s) = code.index(addr + k) {
                        in_slot[s] = true;
                    }
                }
            }
        }
        in_slot
    }

    /// Every hazard-verifier diagnostic, unsorted.
    pub(crate) fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        self.check_windows_and_pairs(&mut diags);
        self.check_straight_lints(&mut diags);
        self.check_md_chains(&mut diags);
        diags
    }

    /// The image index of `addr` if it is reachable from the entry.
    pub(crate) fn reachable_index(&self, addr: u32) -> Option<usize> {
        self.code.index(addr).filter(|&i| self.reachable[i])
    }

    /// Every reachable address, ascending.
    pub(crate) fn reachable(&self) -> impl Iterator<Item = u32> + '_ {
        let origin = self.code.origin();
        (0..self.reachable.len())
            .filter(|&i| self.reachable[i])
            .map(move |i| origin + i as u32)
    }

    /// The entry at an address the analysis knows is inside the image.
    pub(crate) fn at(&self, addr: u32) -> &DecodedEntry {
        self.code
            .get(addr)
            .unwrap_or_else(|| panic!("{addr:#07x} is outside the image"))
    }

    /// The entries of the `len` words from `start`, a run the analysis
    /// knows is inside the image (a basic block).
    pub(crate) fn run(&self, start: u32, len: u32) -> &[DecodedEntry] {
        let i = self.code.index(start).expect("blocks lie inside the image");
        &self.code.entries()[i..i + len as usize]
    }

    fn entry_at(&self, addr: u32) -> Option<&DecodedEntry> {
        self.code.get(addr)
    }

    /// Report a load-delay hazard if `c_addr` can issue right after
    /// `p_addr` and ALU-consumes `p_addr`'s late-arriving load result.
    fn check_pair(&self, p_addr: u32, c_addr: u32, diags: &mut Vec<Diagnostic>) {
        let (Some(p), Some(c)) = (self.entry_at(p_addr), self.entry_at(c_addr)) else {
            return;
        };
        let Some(d) = p.meta.late_def else { return };
        if c.meta.alu_uses(d) {
            diags.push(Diagnostic {
                kind: DiagKind::LoadDelay,
                addr: c_addr,
                instr: c.instr,
                detail: format!(
                    "consumes {d} one cycle after the load at {p_addr:#07x} — the value is not yet available"
                ),
            });
        }
    }

    /// Delay-window shape rules plus every execution-adjacent pair check.
    fn check_windows_and_pairs(&self, diags: &mut Vec<Diagnostic>) {
        let in_slot = self.in_slot();
        for addr in self.reachable() {
            let entry = *self.at(addr);
            if !entry.meta.is_control {
                // Plain straight-line adjacency. Pairs inside delay
                // windows are handled by the owning transfer below, and
                // `halt` has no successor.
                let in_slot = in_slot[(addr - self.code.origin()) as usize];
                if !in_slot && !matches!(entry.instr, Instr::Halt) {
                    self.check_pair(addr, addr + 1, diags);
                }
                continue;
            }

            // Window shape: all slots must exist in the image.
            let window = addr + 1..=addr + self.slots;
            if self.code.get(*window.end()).is_none() {
                diags.push(Diagnostic {
                    kind: DiagKind::SlotRunoff,
                    addr,
                    instr: entry.instr,
                    detail: format!(
                        "delay window ({} slot(s)) runs off the end of the image",
                        self.slots
                    ),
                });
                continue;
            }

            // Control transfers inside the window. The three-instruction
            // exception-restart sequence `jpc; jpc; jpcrs` is the one
            // architecturally sanctioned overlap.
            let pc_chain = entry.meta.is_special_jump;
            for s in window.clone() {
                let si = self.at(s);
                if si.meta.is_control && !(pc_chain && si.meta.is_special_jump) {
                    diags.push(Diagnostic {
                        kind: DiagKind::ControlInSlot,
                        addr: s,
                        instr: si.instr,
                        detail: format!(
                            "control transfer inside the delay window of the transfer at {addr:#07x}"
                        ),
                    });
                }
            }

            // Squashed slots must be annullable.
            if let Instr::Branch { squash, .. } = entry.instr {
                if squash != SquashMode::NoSquash {
                    for s in window.clone() {
                        let si = self.at(s);
                        if !si.meta.squash_safe
                            && !si.meta.is_control
                            && !matches!(si.instr, Instr::Illegal(_))
                        {
                            diags.push(Diagnostic {
                                kind: DiagKind::SquashUnsafe,
                                addr: s,
                                instr: si.instr,
                                detail: format!(
                                    "cannot be annulled by the squashing branch at {addr:#07x} — no destination field for the kill line"
                                ),
                            });
                        }
                    }
                }
            }

            // Adjacent pairs: transfer → slot 1, slot k → slot k+1.
            for s in window.clone() {
                self.check_pair(s - 1, s, diags);
            }

            // Pairs out of the final slot, per surviving outcome.
            let final_slot = *window.end();
            match entry.instr {
                Instr::Branch { squash, disp, .. } => {
                    if squash.slots_execute(true) {
                        self.check_pair(final_slot, addr.wrapping_add(disp as u32), diags);
                    }
                    if squash.slots_execute(false) {
                        self.check_pair(final_slot, addr + self.slots + 1, diags);
                    }
                }
                Instr::Jspci { rs1, imm, .. } if rs1.is_zero() => {
                    self.check_pair(final_slot, imm as u32, diags);
                }
                _ => {
                    // Indirect transfer (`jspci` through a register,
                    // `jpc`, `jpcrs`): the successor is unknowable, so a
                    // late def in the final slot is conservatively wrong.
                    if let Some(d) = self.entry_at(final_slot).and_then(|e| e.meta.late_def) {
                        diags.push(Diagnostic {
                            kind: DiagKind::LoadDelay,
                            addr: final_slot,
                            instr: self.at(final_slot).instr,
                            detail: format!(
                                "loads {d} in the final delay slot of an indirect transfer — the target head is unknown and may consume it"
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Per-instruction lints that need no flow information.
    fn check_straight_lints(&self, diags: &mut Vec<Diagnostic>) {
        for addr in self.reachable() {
            let instr = self.at(addr).instr;
            match instr {
                Instr::Illegal(word) => diags.push(Diagnostic {
                    kind: DiagKind::IllegalInstr,
                    addr,
                    instr,
                    detail: format!("word {word:#010x} does not decode; executing it traps"),
                }),
                Instr::Ld { rd, .. }
                | Instr::Mvfc { rd, .. }
                | Instr::Movfrs { rd, .. }
                | Instr::Compute { rd, .. }
                | Instr::Addi { rd, .. }
                    if rd.is_zero() =>
                {
                    diags.push(Diagnostic {
                        kind: DiagKind::WriteToR0,
                        addr,
                        instr,
                        detail: "writes the hardwired zero register; the result is discarded"
                            .to_string(),
                    });
                }
                Instr::Cpop { cop, .. } => {
                    if let Some(Instr::Mvfc { cop: c2, .. }) =
                        self.entry_at(addr + 1).map(|e| e.instr)
                    {
                        if c2 == cop {
                            diags.push(Diagnostic {
                                kind: DiagKind::CoprocResultTiming,
                                addr: addr + 1,
                                instr: self.at(addr + 1).instr,
                                detail: format!(
                                    "reads coprocessor {cop} the cycle after `cpop` issues; the unit may still be busy and will stall the pipe"
                                ),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Forward abstract interpretation of the MD register: `mstep`/`dstep`
    /// chains must run 32 same-kind steps to completion without an
    /// intervening `movtos md`, and no `movtos md` may issue within the
    /// [`MD_STEP_SHADOW`] of a step (the step's later write-back would clobber
    /// it). Delay windows are folded at their owning transfer so a squashed
    /// outcome skips the annulled slots.
    fn check_md_chains(&self, diags: &mut Vec<Diagnostic>) {
        // Fixpoint over node states. Nodes are reachable addresses that
        // are not delay slots (slots are folded through their window).
        if self.reachable_index(self.entry).is_none() {
            return;
        }
        let origin = self.code.origin();
        let mut states: Vec<Option<MdState>> = vec![None; self.reachable.len()];
        let mut work: Vec<u32> = vec![self.entry];
        let mut succs = Vec::new();
        states[(self.entry - origin) as usize] = Some(MdState::START);

        while let Some(addr) = work.pop() {
            let state = states[(addr - origin) as usize].expect("queued nodes have a state");
            self.md_successors(addr, state, None, &mut succs);
            for &(succ, out) in &succs {
                let Some(i) = self.reachable_index(succ) else {
                    continue;
                };
                let merged = states[i].map_or(out, |s| s.merge(out));
                if states[i] != Some(merged) {
                    states[i] = Some(merged);
                    work.push(succ);
                }
            }
        }

        // Deterministic reporting pass over the converged states.
        for (i, state) in states.into_iter().enumerate() {
            if let Some(state) = state {
                self.md_successors(origin + i as u32, state, Some(diags), &mut succs);
            }
        }
    }

    /// Apply the MD transfer function at `addr` (folding the delay window
    /// if `addr` is a control transfer) and replace `out` with the
    /// `(successor, state)` pairs. When `diags` is given, chain-break
    /// errors are recorded.
    fn md_successors(
        &self,
        addr: u32,
        state: MdState,
        mut diags: Option<&mut Vec<Diagnostic>>,
        out: &mut Vec<(u32, MdState)>,
    ) {
        out.clear();
        let Some(&entry) = self.entry_at(addr) else {
            return;
        };
        if !entry.meta.is_control {
            if !matches!(entry.instr, Instr::Halt) {
                let next = self.md_transfer(state, addr, diags.as_deref_mut());
                out.push((addr + 1, next));
            }
            return;
        }

        // Fold the window once; outcomes that squash the slots keep the
        // pre-window chain, the slots only counting as fetches.
        let mut folded = state.after_fetches(1);
        for s in (1..=self.slots).map(|k| addr + k) {
            folded = if self.code.get(s).is_some() {
                self.md_transfer(folded, s, diags.as_deref_mut())
            } else {
                folded.after_fetches(1)
            };
        }
        let squashed = state.after_fetches(1 + self.slots);
        match entry.instr {
            Instr::Branch { squash, disp, .. } => {
                let target = addr.wrapping_add(disp as u32);
                out.push((
                    target,
                    if squash.slots_execute(true) {
                        folded
                    } else {
                        squashed
                    },
                ));
                out.push((
                    addr + self.slots + 1,
                    if squash.slots_execute(false) {
                        folded
                    } else {
                        squashed
                    },
                ));
            }
            Instr::Jspci { rs1, rd, imm } => {
                if rs1.is_zero() {
                    out.push((imm as u32, folded));
                }
                if !rd.is_zero() {
                    // Whatever the callee did to MD is out of scope for a
                    // per-image analysis; resume conservatively.
                    out.push((
                        addr + self.slots + 1,
                        MdState {
                            chain: Md::Top,
                            since_step: MD_STEP_SHADOW,
                        },
                    ));
                }
            }
            _ => {}
        }
    }

    /// MD transfer for the single instruction at `addr` (which decodes).
    fn md_transfer(
        &self,
        state: MdState,
        addr: u32,
        diags: Option<&mut Vec<Diagnostic>>,
    ) -> MdState {
        let entry = self.at(addr);
        let chain = match entry.meta.md_role {
            MdRole::Mstep | MdRole::Dstep => {
                let mul = entry.meta.md_role == MdRole::Mstep;
                let chain = match state.chain {
                    Md::Idle => Md::Chain { mul, count: 1 },
                    Md::Chain { mul: m, count } if m == mul => {
                        if count + 1 == 32 {
                            Md::Idle
                        } else {
                            Md::Chain {
                                mul,
                                count: count + 1,
                            }
                        }
                    }
                    Md::Chain { mul: m, count } => {
                        if let Some(diags) = diags {
                            diags.push(Diagnostic {
                                kind: DiagKind::MdChainBroken,
                                addr,
                                instr: entry.instr,
                                detail: format!(
                                    "{} interrupts a {} chain {count} step(s) in — the partial product/remainder in MD is clobbered",
                                    if mul { "mstep" } else { "dstep" },
                                    if m { "mstep" } else { "dstep" },
                                ),
                            });
                        }
                        Md::Chain { mul, count: 1 }
                    }
                    Md::Top => Md::Top,
                };
                return MdState {
                    chain,
                    since_step: 1,
                };
            }
            MdRole::WritesMd => {
                if let Some(diags) = diags {
                    // A write inside a chain is a chain break; the shadow
                    // rule covers the writes the chain rule accepts (right
                    // after a completed chain, or where paths disagree).
                    if let Md::Chain { mul, count } = state.chain {
                        diags.push(Diagnostic {
                            kind: DiagKind::MdChainBroken,
                            addr,
                            instr: entry.instr,
                            detail: format!(
                                "writes MD in the middle of a {} chain ({count} of 32 steps done)",
                                if mul { "mstep" } else { "dstep" },
                            ),
                        });
                    } else if state.since_step < MD_STEP_SHADOW {
                        diags.push(Diagnostic {
                            kind: DiagKind::MdWriteAfterStep,
                            addr,
                            instr: entry.instr,
                            detail: format!(
                                "writes MD {} fetch(es) after an mstep/dstep — the step's MD write-back lands later and overwrites this value",
                                state.since_step
                            ),
                        });
                    }
                }
                Md::Idle
            }
            MdRole::None => state.chain,
        };
        MdState { chain, ..state }.after_fetches(1)
    }
}

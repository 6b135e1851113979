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

use crate::{BlockExit, DiagKind, Diagnostic, MdShadow, VerifyConfig};
use mipsx_asm::{DecodedEntry, DecodedImage};
use mipsx_isa::{Instr, MdRole, SquashMode};

/// Whether `c`, issued right after `p`, reads back the result of the
/// coprocessor operation `p` launches on the same unit, which may still be
/// busy.
pub(crate) fn reads_back(p: Instr, c: Instr) -> bool {
    matches!((p, c), (Instr::Cpop { cop, .. }, Instr::Mvfc { cop: c2, .. }) if cop == c2)
}

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
/// the step shadow it is fetched in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MdState {
    chain: Md,
    shadow: MdShadow,
}

impl MdState {
    const START: MdState = MdState {
        chain: Md::Idle,
        shadow: MdShadow::CLEAR,
    };

    /// Paths join: the chains merge, and so do the shadows.
    fn merge(self, other: MdState) -> MdState {
        MdState {
            chain: self.chain.merge(other.chain),
            shadow: self.shadow.merge(other.shadow),
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
                let Some(exit) = BlockExit::of(code.entries()[i].instr, addr, slots) else {
                    addr += 1;
                    continue;
                };
                if exit != BlockExit::Halt {
                    work.extend((1..=slots).map(|k| addr + k));
                }
                // A call's callee returns to the saved link, which points
                // just past the delay slots.
                work.extend(exit.successors());
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

    /// Report a load-delay hazard if `c_addr` can issue right after
    /// `p_addr` and ALU-consumes `p_addr`'s late-arriving load result.
    fn check_pair(&self, p_addr: u32, c_addr: u32, diags: &mut Vec<Diagnostic>) {
        let (Some(p), Some(c)) = (self.code.get(p_addr), self.code.get(c_addr)) else {
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

    /// Report an illegal word in the fetch shadow of the `halt` at
    /// `halt`: the two words behind it are fetched before it retires and
    /// reach ALU, which traps on a word that does not decode, although the
    /// program never flows into them. (A reachable word is reported as
    /// such.)
    fn check_halt_shadow(&self, halt: u32, diags: &mut Vec<Diagnostic>) {
        for addr in halt + 1..=halt + 2 {
            let Some(entry) = self.code.get(addr) else {
                return;
            };
            if let (Instr::Illegal(word), None) = (entry.instr, self.reachable_index(addr)) {
                diags.push(Diagnostic {
                    kind: DiagKind::IllegalInstr,
                    addr,
                    instr: entry.instr,
                    detail: format!(
                        "word {word:#010x} in the fetch shadow of the halt at {halt:#07x} does not decode; it reaches ALU before the halt retires and traps"
                    ),
                });
            }
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
                if in_slot {
                    // A slot's halt fetches the rest of the window and the
                    // successor next, all reachable and linted as such.
                } else if matches!(entry.instr, Instr::Halt) {
                    self.check_halt_shadow(addr, diags);
                } else {
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
                    if let Some(d) = self.code.get(final_slot).and_then(|e| e.meta.late_def) {
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
                    if let Some(next) = self.code.get(addr + 1) {
                        if reads_back(instr, next.instr) {
                            diags.push(Diagnostic {
                                kind: DiagKind::CoprocResultTiming,
                                addr: addr + 1,
                                instr: next.instr,
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
    /// intervening `movtos md`, and no `movtos md` may issue in a step's
    /// [`MdShadow`] (the step's later write-back would clobber it). Delay
    /// windows are folded at their owning transfer so a squashed outcome
    /// skips the annulled slots, and a return carries its shadow to the
    /// continuation of every call that reaches it.
    fn check_md_chains(&self, diags: &mut Vec<Diagnostic>) {
        // Fixpoint over node states. Nodes are reachable addresses that
        // are not delay slots (slots are folded through their window).
        if self.reachable_index(self.entry).is_none() {
            return;
        }
        let origin = self.code.origin();
        let returns = self.return_edges();
        let mut states: Vec<Option<MdState>> = vec![None; self.reachable.len()];
        let mut work: Vec<u32> = vec![self.entry];
        let mut succs = Vec::new();
        states[(self.entry - origin) as usize] = Some(MdState::START);

        while let Some(addr) = work.pop() {
            let state = states[(addr - origin) as usize].expect("queued nodes have a state");
            self.md_successors(addr, state, &returns, None, &mut succs);
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
                let addr = origin + i as u32;
                self.md_successors(addr, state, &returns, Some(diags), &mut succs);
            }
        }
    }

    /// The return edges, as sorted `(return, continuation)` pairs: every
    /// return (an indirect jump that links nothing) reachable from a direct
    /// call's target reaches that call's continuation. The walk steps over
    /// nested calls to their own continuations, so the set is
    /// context-insensitive but not transitive.
    fn return_edges(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        let mut seen = vec![u32::MAX; self.code.len()];
        let mut work = Vec::new();
        for call in self.reachable() {
            let Some(BlockExit::Jump {
                target: Some(target),
                link: true,
                ret,
            }) = BlockExit::of(self.at(call).instr, call, self.slots)
            else {
                continue;
            };
            work.push(target);
            while let Some(addr) = work.pop() {
                let Some(i) = self.reachable_index(addr) else {
                    continue;
                };
                if std::mem::replace(&mut seen[i], call) == call {
                    continue;
                }
                match BlockExit::of(self.at(addr).instr, addr, self.slots) {
                    None => work.push(addr + 1),
                    Some(BlockExit::Jump {
                        link: true, ret, ..
                    }) => work.push(ret),
                    Some(BlockExit::Jump { target: None, .. }) => edges.push((addr, ret)),
                    Some(exit) => work.extend(exit.successors()),
                }
            }
        }
        edges.sort_unstable();
        edges
    }

    /// Apply the MD transfer function at `addr` (folding the delay window
    /// if `addr` is a control transfer) and replace `out` with the
    /// `(successor, state)` pairs. When `diags` is given, chain-break
    /// errors are recorded.
    fn md_successors(
        &self,
        addr: u32,
        state: MdState,
        returns: &[(u32, u32)],
        mut diags: Option<&mut Vec<Diagnostic>>,
        out: &mut Vec<(u32, MdState)>,
    ) {
        out.clear();
        let Some(&entry) = self.code.get(addr) else {
            return;
        };
        let exit = match BlockExit::of(entry.instr, addr, self.slots) {
            None => return out.push((addr + 1, self.md_transfer(state, addr, diags))),
            Some(BlockExit::Halt) => return,
            Some(exit) => exit,
        };

        // Fold the window once; outcomes that squash the slots keep the
        // pre-window chain, the slots only counting as fetches.
        let issued = self.md_transfer(state, addr, None);
        let (mut folded, mut squashed) = (issued, issued);
        for s in (1..=self.slots).map(|k| addr + k) {
            squashed.shadow.fetch(MdRole::None);
            if self.code.get(s).is_some() {
                folded = self.md_transfer(folded, s, diags.as_deref_mut());
            } else {
                folded.shadow.fetch(MdRole::None);
            }
        }
        // Whatever a callee does to the chain is out of scope for a
        // per-image analysis; its returns bring their shadows.
        let resumed = |shadow| MdState {
            chain: Md::Top,
            shadow,
        };
        match exit {
            BlockExit::Branch {
                squash,
                target,
                fall,
            } => {
                let outcome = |taken| {
                    if squash.slots_execute(taken) {
                        folded
                    } else {
                        squashed
                    }
                };
                out.extend([(target, outcome(true)), (fall, outcome(false))]);
            }
            BlockExit::Jump {
                link: true,
                ret,
                target,
            } => {
                out.extend(target.map(|t| (t, folded)));
                out.push((ret, resumed(MdShadow::CLEAR)));
            }
            BlockExit::Jump {
                target: Some(t), ..
            } => out.push((t, folded)),
            _ => {
                let from = returns.partition_point(|&(r, _)| r < addr);
                let landings = returns[from..].iter().take_while(|&&(r, _)| r == addr);
                out.extend(landings.map(|&(_, cont)| (cont, resumed(folded.shadow))));
            }
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
        let role = entry.meta.md_role;
        let mut shadow = state.shadow;
        let clobbered = shadow.fetch(role);
        let mul = role == MdRole::Mstep;
        let name = |mul| if mul { "mstep" } else { "dstep" };
        let (chain, finding) = match (role, state.chain) {
            (MdRole::None, chain) => (chain, None),
            // A write inside a chain is a chain break; the shadow rule
            // covers the writes the chain rule accepts (right after a
            // completed chain, or where paths disagree).
            (MdRole::WritesMd, Md::Chain { mul, count }) => (
                Md::Idle,
                Some((
                    DiagKind::MdChainBroken,
                    format!(
                        "writes MD in the middle of a {} chain ({count} of 32 steps done)",
                        name(mul)
                    ),
                )),
            ),
            (MdRole::WritesMd, _) => (
                Md::Idle,
                clobbered.map(|since| {
                    (
                        DiagKind::MdWriteAfterStep,
                        format!(
                            "writes MD {since} fetch(es) after an mstep/dstep — the step's MD write-back lands later and overwrites this value"
                        ),
                    )
                }),
            ),
            (_, Md::Top) => (Md::Top, None),
            (_, Md::Idle) => (Md::Chain { mul, count: 1 }, None),
            (_, Md::Chain { mul: m, count }) if m != mul => (
                Md::Chain { mul, count: 1 },
                Some((
                    DiagKind::MdChainBroken,
                    format!(
                        "{} interrupts a {} chain {count} step(s) in — the partial product/remainder in MD is clobbered",
                        name(mul),
                        name(m),
                    ),
                )),
            ),
            (_, Md::Chain { count: 31, .. }) => (Md::Idle, None),
            (_, Md::Chain { count, .. }) => (
                Md::Chain {
                    mul,
                    count: count + 1,
                },
                None,
            ),
        };
        if let (Some(diags), Some((kind, detail))) = (diags, finding) {
            diags.push(Diagnostic {
                kind,
                addr,
                instr: entry.instr,
                detail,
            });
        }
        MdState { chain, shadow }
    }
}

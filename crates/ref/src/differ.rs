//! The lockstep differ.
//!
//! [`Shadow`] follows the cycle-accurate pipeline with the functional
//! reference model over the *same* program and the *same* fault plan, and
//! compares architectural state at every retirement:
//!
//! - every drained instruction's `(pc, killed)` pair — the reference
//!   model predicts not just what commits but what the pipeline squashes;
//! - the full register file after every committed instruction;
//! - registers, PSW, PSWold, MD and memory at halt: every word the
//!   reference model stored to and every word of the pipeline's resident
//!   pages.
//!
//! Exceptions are synchronized by *event*, not by cycle count: when the
//! pipeline reports one through its trace probe, the same cause is
//! delivered to the reference model at the same retirement boundary. The
//! pipeline decides **when** a fault lands (that depends on cache misses
//! and stalls); the models must then agree on **everything that follows**
//! — which is precisely the paper's restartability claim, *"all
//! instructions are restartable"*.
//!
//! The first disagreement is reported as a [`Divergence`] with the cycle,
//! both PCs, and the most recent injected fault — the context needed to
//! debug a broken restart path.

use std::fmt;

use mipsx_asm::Program;
use mipsx_core::{FaultEvent, FaultPlan, Machine, MachineConfig, TraceSink};
use mipsx_isa::{ExceptionCause, Instr};

use crate::interp::RefMachine;

/// The minimal exception handler: restart immediately via the three
/// special jumps through the PC chain.
pub const NULL_HANDLER: &str = "jpc\njpc\njpcrs";

/// The first point where pipeline and reference model disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Pipeline cycle of the disagreeing retirement.
    pub cycle: u64,
    /// Committed instructions before the disagreement.
    pub committed: u64,
    /// What disagreed, human-readable.
    pub what: String,
    /// Pipeline fetch PC at the time.
    pub machine_pc: u32,
    /// Reference-model stream position at the time.
    pub oracle_pc: u32,
    /// The most recent injected fault, if any — usually the trigger.
    pub pending_fault: Option<FaultEvent>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lockstep divergence at cycle {} (after {} committed instructions)",
            self.cycle, self.committed
        )?;
        writeln!(f, "  {}", self.what)?;
        write!(
            f,
            "  pipeline pc {:#x}, reference pc {:#x}, last injected fault: ",
            self.machine_pc, self.oracle_pc
        )?;
        match &self.pending_fault {
            Some(ev) => write!(f, "{ev}"),
            None => write!(f, "none"),
        }
    }
}

/// A reference-model oracle shadowing a pipeline it does **not** own.
///
/// [`Shadow`] holds only the functional model. It is a [`TraceSink`]: the
/// caller steps its own [`Machine`] with the shadow attached, and
/// [`Shadow::compare`] then mirrors the cycle's retirements and
/// exceptions into the oracle and compares. The `checked` execution
/// backend in `mipsx-exec` drives it to verify a caller-owned machine in
/// place.
pub struct Shadow {
    oracle: RefMachine,
    /// This cycle's drained `(pc, instr, killed)` triples, in order.
    retires: Vec<(u32, Instr, bool)>,
    /// This cycle's exceptions.
    exceptions: Vec<ExceptionCause>,
}

impl TraceSink for Shadow {
    fn exception(&mut self, _cycle: u64, cause: ExceptionCause) {
        self.exceptions.push(cause);
    }

    fn retire(&mut self, _cycle: u64, pc: u32, instr: Instr, killed: bool) {
        self.retires.push((pc, instr, killed));
    }
}

impl Shadow {
    /// Build the oracle over `program`.
    ///
    /// # Panics
    /// Panics unless `cfg` uses the shipped two-delay-slot pipeline — the
    /// reference model hard-codes that ISA.
    pub fn new(cfg: &MachineConfig, program: &Program) -> Shadow {
        assert_eq!(
            cfg.branch_delay_slots, 2,
            "the reference model encodes the 2-delay-slot ISA"
        );
        let mut oracle = RefMachine::new(cfg.exception_vector);
        oracle.load_program(program);
        Shadow {
            oracle,
            retires: Vec::new(),
            exceptions: Vec::new(),
        }
    }

    /// Load an image (e.g. an exception handler) on the oracle side.
    pub fn load_image(&mut self, origin: u32, words: &[u32]) {
        self.oracle.load_image(origin, words);
    }

    /// Enable maskable interrupts on the oracle side.
    pub fn enable_interrupts(&mut self) {
        self.oracle.psw_mut().set_interrupts_enabled(true);
    }

    /// The reference side.
    pub fn oracle(&self) -> &RefMachine {
        &self.oracle
    }

    /// Mirror the retirements and exceptions recorded since the last call
    /// (one cycle of `machine`, stepped with this shadow as its sink) into
    /// the oracle, comparing each retirement. `plan` supplies the last
    /// injected fault for a divergence report.
    pub fn compare(&mut self, machine: &Machine, plan: &FaultPlan) -> Result<(), Box<Divergence>> {
        let mut retires = std::mem::take(&mut self.retires);
        let checked = retires
            .drain(..)
            .try_for_each(|(pc, instr, killed)| self.retire_one(machine, plan, pc, instr, killed));
        self.retires = retires;
        checked?;
        for cause in self.exceptions.drain(..) {
            self.oracle.take_exception(cause);
        }
        Ok(())
    }

    /// Retire the oracle's next stream position and compare it with the
    /// pipeline's drained `(pc, instr, killed)`.
    fn retire_one(
        &mut self,
        machine: &Machine,
        plan: &FaultPlan,
        pc: u32,
        instr: Instr,
        killed: bool,
    ) -> Result<(), Box<Divergence>> {
        let step = self.oracle.step_retire();
        if step.pc != pc {
            return Err(self.diverge(
                machine,
                plan,
                format!("retired pc: pipeline {:#x}, reference {:#x}", pc, step.pc),
            ));
        }
        if step.killed != killed {
            return Err(self.diverge(
                machine,
                plan,
                format!(
                    "kill bit at {pc:#x} ({instr}): pipeline {killed}, reference {}",
                    step.killed
                ),
            ));
        }
        if killed {
            return Ok(());
        }
        if step.instr != Some(instr) {
            return Err(self.diverge(
                machine,
                plan,
                format!(
                    "instruction at {pc:#x}: pipeline {instr}, reference {}",
                    step.instr
                        .map_or_else(|| "<drain>".into(), |i| i.to_string())
                ),
            ));
        }
        let m = machine.cpu().regs_snapshot();
        let o = self.oracle.regs_snapshot();
        if m != o {
            let r = (0..32).find(|&i| m[i] != o[i]).unwrap_or(0);
            return Err(self.diverge(
                machine,
                plan,
                format!(
                    "r{r} after {instr} at {pc:#x}: pipeline {:#x}, reference {:#x}",
                    m[r], o[r]
                ),
            ));
        }
        Ok(())
    }

    /// The final architectural comparison at halt: registers, PSW, PSWold,
    /// MD and memory — every word the reference model stored to, and every
    /// word of the pipeline's resident pages, so that a store only one
    /// side made shows whichever side made it.
    pub fn final_check(&self, machine: &Machine, plan: &FaultPlan) -> Result<(), Box<Divergence>> {
        if !self.oracle.halted() {
            return Err(self.diverge(
                machine,
                plan,
                "pipeline halted, reference model did not".into(),
            ));
        }
        let m = machine.cpu().regs_snapshot();
        let o = self.oracle.regs_snapshot();
        if m != o {
            let r = (0..32).find(|&i| m[i] != o[i]).unwrap_or(0);
            return Err(self.diverge(
                machine,
                plan,
                format!("r{r} at halt: pipeline {:#x}, reference {:#x}", m[r], o[r]),
            ));
        }
        let cpu = machine.cpu();
        if cpu.psw.bits() != self.oracle.psw().bits() {
            return Err(self.diverge(
                machine,
                plan,
                format!(
                    "psw at halt: pipeline {:#010x}, reference {:#010x}",
                    cpu.psw.bits(),
                    self.oracle.psw().bits()
                ),
            ));
        }
        if cpu.psw_old.bits() != self.oracle.psw_old().bits() {
            return Err(self.diverge(
                machine,
                plan,
                format!(
                    "pswold at halt: pipeline {:#010x}, reference {:#010x}",
                    cpu.psw_old.bits(),
                    self.oracle.psw_old().bits()
                ),
            ));
        }
        if cpu.md != self.oracle.md() {
            return Err(self.diverge(
                machine,
                plan,
                format!(
                    "md at halt: pipeline {:#x}, reference {:#x}",
                    cpu.md,
                    self.oracle.md()
                ),
            ));
        }
        let written = self
            .oracle
            .written_addrs()
            .map(|addr| (addr, machine.read_word(addr)));
        for (addr, mv) in written.chain(machine.main_memory().resident_words()) {
            let ov = self.oracle.mem_word(addr);
            if mv != ov {
                return Err(self.diverge(
                    machine,
                    plan,
                    format!("memory word {addr:#x} at halt: pipeline {mv:#x}, reference {ov:#x}"),
                ));
            }
        }
        Ok(())
    }

    fn diverge(&self, machine: &Machine, plan: &FaultPlan, what: String) -> Box<Divergence> {
        Box::new(Divergence {
            cycle: machine.stats().cycles,
            committed: machine.stats().instructions,
            what,
            machine_pc: machine.cpu().pc,
            oracle_pc: self.oracle.pc(),
            pending_fault: plan.last_fired(),
        })
    }
}

//! Pluggable execution backends for the MIPS-X model.
//!
//! "How to run cycles" is a value, not a decision made at every call site:
//! `mipsx run`/`profile`/`soak`, the sweep engine and the differ tests all
//! pick an [`ExecBackend`]:
//!
//! - [`Stepper`] — the cycle-accurate five-stage pipeline, unchanged;
//! - [`BlockBackend`] — the basic-block superop engine from
//!   `mipsx-engine`, demoting to the stepper wherever its closed forms
//!   don't apply;
//! - [`CheckedBackend`] — the stepper shadowed by the functional
//!   reference model, comparing architectural state at every retirement
//!   (the `mipsx soak` differ, also available as an engine).
//!
//! All three run a **caller-owned** [`Machine`] — construction, program
//! loading, and machine pooling stay with the caller — and all three are
//! cycle-identical on the books: `run(m, budget)` leaves `m` in the same
//! architectural state and `RunStats` no matter which backend ran it (the
//! block engine by the cycle-splice contract, the checked backend because
//! observation doesn't perturb the pipeline).
//!
//! [`TraceSink`] carries a `const ENABLED` flag, so the trait's run
//! methods are generic and the trait is not object-safe; [`AnyBackend`]
//! provides enum dispatch for runtime engine selection (CLI flags, sweep
//! axes).

use std::fmt;

use mipsx_asm::Program;
use mipsx_core::{FaultPlan, Machine, NullSink, RunError, RunStats, TraceSink};
use mipsx_engine::{BlockEngine, EngineStats};
use mipsx_ref::{Divergence, Shadow};

/// Which execution backend to run cycles on. The engine is a *host-side*
/// choice: every kind retires the same instructions and books the same
/// cycles, so results are comparable across kinds (and the sweep engine
/// keys its result cache on the engine only to keep cache-counter
/// bookkeeping separate — see `mipsx-explore`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The cycle-accurate pipeline stepper.
    #[default]
    Interp,
    /// The basic-block superop engine (falls back to the stepper).
    Block,
    /// The stepper shadowed by the functional reference model.
    Checked,
}

impl EngineKind {
    /// Every kind, in display order.
    pub const ALL: [EngineKind; 3] = [EngineKind::Interp, EngineKind::Block, EngineKind::Checked];

    /// Stable lowercase label (CLI flag values, sweep axis values).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Block => "block",
            EngineKind::Checked => "checked",
        }
    }

    /// Parse a CLI/spec value. Accepts the stable labels plus `stepper`
    /// as an alias for `interp`.
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s {
            "interp" | "stepper" => Ok(EngineKind::Interp),
            "block" => Ok(EngineKind::Block),
            "checked" => Ok(EngineKind::Checked),
            other => Err(format!(
                "unknown engine {other} (known: interp, block, checked)"
            )),
        }
    }
}

impl EngineKind {
    /// Whether this engine can run a pipeline with `slots` branch delay
    /// slots: `checked` needs the 2-slot pipeline, because the reference
    /// model hard-codes that ISA.
    pub fn check_slots(self, slots: usize) -> Result<(), String> {
        if self == EngineKind::Checked && slots != 2 {
            return Err(format!(
                "engine=checked needs the 2-delay-slot pipeline (the reference model \
                 hard-codes that ISA); got {slots} slots"
            ));
        }
        Ok(())
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a backend stopped without a clean result.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// A simulator-level error from the machine (budget expiry included).
    Run(RunError),
    /// The checked backend's reference model disagreed with the pipeline.
    Diverged(Box<Divergence>),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Run(e) => e.fmt(f),
            ExecError::Diverged(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<RunError> for ExecError {
    fn from(e: RunError) -> ExecError {
        ExecError::Run(e)
    }
}

impl From<Box<Divergence>> for ExecError {
    fn from(d: Box<Divergence>) -> ExecError {
        ExecError::Diverged(d)
    }
}

/// A way to run cycles on a caller-owned [`Machine`].
///
/// The budget is relative, exactly as in [`Machine::run`]: `max_cycles`
/// counts cycles consumed by *this call*, and expiry reports
/// [`RunError::CycleLimit`] with the machine stopped at a resumable
/// boundary — calling again continues the run, which is what
/// [`ExecBackend::run_to`], the one checkpointed run (sweep jobs and
/// `mipsx soak`), relies on.
pub trait ExecBackend {
    /// Which engine this is, for labels and telemetry.
    fn kind(&self) -> EngineKind;

    /// Run until halt or budget expiry, tracing to `sink` and injecting
    /// faults from `plan`.
    fn run_with_faults<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, ExecError>;

    /// Run until halt or budget expiry, no tracing, no fault injection.
    fn run(&mut self, m: &mut Machine, max_cycles: u64) -> Result<RunStats, ExecError> {
        self.run_with_faults(m, max_cycles, &mut NullSink, &mut FaultPlan::none())
    }

    /// The checkpointed run: run until halt or until `m.stats().cycles`
    /// reaches the absolute mark `until`, injecting faults from `plan`, in
    /// chunks of at most `every` cycles (0: one chunk). At each chunk
    /// boundary short of the mark, `checkpoint` sees the machine and the
    /// plan — the plan's cursor belongs in any snapshot taken there. The
    /// mark is absolute, so a machine restored from such a snapshot runs
    /// only what it has not yet spent, and budget expiry reports
    /// [`RunError::CycleLimit`] with `limit: until`, however the run was
    /// chunked or resumed.
    fn run_to(
        &mut self,
        m: &mut Machine,
        until: u64,
        every: u64,
        plan: &mut FaultPlan,
        mut checkpoint: impl FnMut(&Machine, &FaultPlan),
    ) -> Result<RunStats, ExecError> {
        loop {
            let left = until.saturating_sub(m.stats().cycles);
            let chunk = if every == 0 { left } else { left.min(every) };
            match self.run_with_faults(m, chunk, &mut NullSink, plan) {
                Err(ExecError::Run(RunError::CycleLimit { .. })) if m.stats().cycles < until => {
                    checkpoint(m, plan)
                }
                Err(ExecError::Run(RunError::CycleLimit { .. })) => {
                    return Err(RunError::CycleLimit { limit: until }.into())
                }
                done => return done,
            }
        }
    }

    /// Post-halt validation. The checked backend compares the full
    /// architectural state against the reference model here; the others
    /// have nothing to add.
    fn final_check(&self, _m: &Machine) -> Result<(), ExecError> {
        Ok(())
    }

    /// The block engine's side counters, when this backend keeps them.
    fn engine_stats(&self) -> Option<&EngineStats> {
        None
    }
}

/// The cycle-accurate pipeline stepper as a backend. Stateless — the
/// machine *is* the state.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stepper;

impl ExecBackend for Stepper {
    fn kind(&self) -> EngineKind {
        EngineKind::Interp
    }

    fn run_with_faults<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, ExecError> {
        m.run_with_faults(max_cycles, sink, plan)
            .map_err(Into::into)
    }
}

/// The basic-block superop engine as a backend.
pub struct BlockBackend {
    engine: BlockEngine,
}

impl BlockBackend {
    /// Compile `program`'s image as currently held in `machine`'s memory.
    pub fn new(program: &Program, machine: &Machine) -> BlockBackend {
        BlockBackend {
            engine: BlockEngine::new(program, machine),
        }
    }

    /// Wrap an already-compiled engine — e.g. a prepared-image template
    /// cloned via [`BlockEngine::clone_template`].
    pub fn from_engine(engine: BlockEngine) -> BlockBackend {
        BlockBackend { engine }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &BlockEngine {
        &self.engine
    }
}

impl ExecBackend for BlockBackend {
    fn kind(&self) -> EngineKind {
        EngineKind::Block
    }

    fn run_with_faults<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, ExecError> {
        self.engine
            .run_with_faults(m, max_cycles, sink, plan)
            .map_err(Into::into)
    }

    fn engine_stats(&self) -> Option<&EngineStats> {
        Some(self.engine.stats())
    }
}

/// The stepper shadowed by the functional reference model.
///
/// Every retirement is mirrored into a [`Shadow`] oracle and compared —
/// `(pc, killed)`, the committed instruction, the full register file —
/// and [`ExecBackend::final_check`] makes the halt-state comparison
/// (registers, PSW, PSWold, MD, every stored-to word). The oracle joins
/// at program start, so the machine handed to the first `run` call must
/// be freshly loaded; resuming a mid-run snapshot under this backend
/// diverges by construction.
pub struct CheckedBackend {
    shadow: Shadow,
}

impl CheckedBackend {
    /// Build the oracle over `program` for a machine running `cfg`.
    ///
    /// # Panics
    /// Panics unless `cfg` uses the shipped two-delay-slot pipeline — the
    /// reference model hard-codes that ISA.
    pub fn new(machine: &Machine, program: &Program) -> CheckedBackend {
        CheckedBackend {
            shadow: Shadow::new(machine.config(), program),
        }
    }

    /// The shadow oracle (tests peek at its architectural state).
    pub fn shadow(&self) -> &Shadow {
        &self.shadow
    }

    /// Load an exception handler image at its origin on both sides.
    pub fn install_handler(&mut self, m: &mut Machine, handler: &Program) {
        m.load_at(handler.origin, &handler.words);
        self.shadow.load_image(handler.origin, &handler.words);
    }

    /// Enable maskable interrupts on both sides (boot software would).
    pub fn enable_interrupts(&mut self, m: &mut Machine) {
        m.cpu_mut().psw.set_interrupts_enabled(true);
        self.shadow.enable_interrupts();
    }
}

impl ExecBackend for CheckedBackend {
    fn kind(&self) -> EngineKind {
        EngineKind::Checked
    }

    fn run_with_faults<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, ExecError> {
        if m.halted() {
            return Err(RunError::AlreadyHalted.into());
        }
        // `Machine::run_with_faults`'s loop, plus a compare after every
        // cycle: the oracle must see machine state between cycles.
        let start = m.stats().cycles;
        while !m.halted() {
            if m.stats().cycles - start >= max_cycles {
                return Err(RunError::CycleLimit { limit: max_cycles }.into());
            }
            m.step(&mut (&mut self.shadow, &mut *sink), plan)?;
            self.shadow.compare(m, plan)?;
        }
        Ok(*m.stats())
    }

    fn final_check(&self, m: &Machine) -> Result<(), ExecError> {
        self.shadow
            .final_check(m, &FaultPlan::none())
            .map_err(Into::into)
    }
}

/// Runtime-selected backend (CLI `--engine`, sweep `engine=` axis).
/// Dispatches by enum because [`ExecBackend`] is not object-safe.
pub enum AnyBackend {
    /// The cycle-accurate stepper.
    Interp(Stepper),
    /// The basic-block superop engine.
    Block(BlockBackend),
    /// The reference-checked stepper.
    Checked(CheckedBackend),
}

impl AnyBackend {
    /// Build the backend of `kind` for a machine about to run `program`.
    /// `machine` must already hold the loaded image (the block engine
    /// compiles from its memory; the checked oracle loads the program).
    pub fn new(kind: EngineKind, program: &Program, machine: &Machine) -> AnyBackend {
        match kind {
            EngineKind::Interp => AnyBackend::Interp(Stepper),
            EngineKind::Block => AnyBackend::Block(BlockBackend::new(program, machine)),
            EngineKind::Checked => AnyBackend::Checked(CheckedBackend::new(machine, program)),
        }
    }
}

impl ExecBackend for AnyBackend {
    fn kind(&self) -> EngineKind {
        match self {
            AnyBackend::Interp(b) => b.kind(),
            AnyBackend::Block(b) => b.kind(),
            AnyBackend::Checked(b) => b.kind(),
        }
    }

    fn run_with_faults<S: TraceSink>(
        &mut self,
        m: &mut Machine,
        max_cycles: u64,
        sink: &mut S,
        plan: &mut FaultPlan,
    ) -> Result<RunStats, ExecError> {
        match self {
            AnyBackend::Interp(b) => b.run_with_faults(m, max_cycles, sink, plan),
            AnyBackend::Block(b) => b.run_with_faults(m, max_cycles, sink, plan),
            AnyBackend::Checked(b) => b.run_with_faults(m, max_cycles, sink, plan),
        }
    }

    fn final_check(&self, m: &Machine) -> Result<(), ExecError> {
        match self {
            AnyBackend::Interp(b) => b.final_check(m),
            AnyBackend::Block(b) => b.final_check(m),
            AnyBackend::Checked(b) => b.final_check(m),
        }
    }

    fn engine_stats(&self) -> Option<&EngineStats> {
        match self {
            AnyBackend::Interp(b) => b.engine_stats(),
            AnyBackend::Block(b) => b.engine_stats(),
            AnyBackend::Checked(b) => b.engine_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_core::MachineConfig;
    use mipsx_reorg::{BranchScheme, Reorganizer};
    use mipsx_workloads::find_kernel;

    fn prepared(scheme: BranchScheme) -> Program {
        let raw = find_kernel("sum_to_n").expect("kernel").raw;
        Reorganizer::new(scheme).reorganize(&raw).expect("reorg").0
    }

    fn fresh(cfg: MachineConfig, program: &Program) -> Machine {
        let mut m = Machine::new(cfg);
        m.load_program(program);
        m
    }

    /// Every backend kind leaves the machine in the same architectural
    /// state with the same books.
    #[test]
    fn backends_are_cycle_identical() {
        let program = prepared(BranchScheme::mipsx());
        let cfg = MachineConfig::cache_ideal();
        let mut reference = None;
        for kind in EngineKind::ALL {
            let mut m = fresh(cfg, &program);
            let mut backend = AnyBackend::new(kind, &program, &m);
            let stats = backend.run(&mut m, 1_000_000).expect("run");
            backend.final_check(&m).expect("final check");
            let snap = (stats, m.cpu().regs_snapshot());
            match &reference {
                None => reference = Some(snap),
                Some(r) => assert_eq!(*r, snap, "{kind} differs from interp"),
            }
        }
    }

    /// Budget expiry is resumable and reported identically by all kinds,
    /// in one call or in chunks: on `cache_ideal()` fault-free, and on the
    /// board under a timing-only fault plan in chunks of 7, 40 and 1,000
    /// cycles, every kind expires at a mark reporting the mark, then
    /// finishes with the books and registers (and, where the caches are
    /// driven, cache statistics) of one unchunked call; and every boundary
    /// checkpoint, plan included, restores to those same final books.
    #[test]
    fn budget_expiry_matches_across_backends() {
        let program = prepared(BranchScheme::mipsx());
        let faulted =
            FaultPlan::parse("30:parity,60:jitter3,150:parity,240:jitter6").expect("plan");
        let inputs = [
            (MachineConfig::cache_ideal(), FaultPlan::none(), 40, 0),
            (MachineConfig::mipsx(), faulted.clone(), 100, 7),
            (MachineConfig::mipsx(), faulted.clone(), 100, 40),
            (MachineConfig::mipsx(), faulted, 100, 1_000),
        ];
        for (cfg, plan, mark, every) in inputs {
            let books = |m: &Machine| {
                let caches = mipsx_engine::drives_caches(&cfg)
                    .then(|| (*m.icache().stats(), *m.ecache().stats()));
                (*m.stats(), m.cpu().regs_snapshot(), caches)
            };
            let mut m = fresh(cfg, &program);
            Stepper
                .run_with_faults(&mut m, 1_000_000, &mut NullSink, &mut plan.clone())
                .expect("one call");
            let expected = books(&m);
            let total = expected.0.cycles;
            assert!(total > mark, "the mark must fall inside the run");
            // Boundaries strictly inside `from..to`, where checkpoints fall.
            let boundaries = |from: u64, to: u64| (to - from - 1).checked_div(every).unwrap_or(0);
            for kind in EngineKind::ALL {
                let mut m = fresh(cfg, &program);
                let mut backend = AnyBackend::new(kind, &program, &m);
                let mut plan = plan.clone();
                let mut checkpoints = Vec::new();
                let mut save = |m: &Machine, plan: &FaultPlan| {
                    checkpoints.push(m.save_snapshot(Some(plan)).expect("save"));
                };
                match backend.run_to(&mut m, mark, every, &mut plan, &mut save) {
                    Err(ExecError::Run(RunError::CycleLimit { limit })) if limit == mark => {}
                    other => panic!("{kind} every {every}: expected the mark, got {other:?}"),
                }
                assert_eq!(m.stats().cycles, mark, "{kind} every {every}");
                // Resume to completion.
                backend
                    .run_to(&mut m, 1_000_000, every, &mut plan, &mut save)
                    .expect("resume");
                backend.final_check(&m).expect("final check");
                assert_eq!(books(&m), expected, "{kind} every {every}");
                assert_eq!(
                    checkpoints.len() as u64,
                    boundaries(0, mark) + boundaries(mark, total),
                    "{kind} every {every}"
                );
                for bytes in &checkpoints {
                    let (mut r, saved) = Machine::restore_snapshot(bytes).expect("restore");
                    let mut saved = saved.expect("a checkpoint carries the plan");
                    // The oracle joins at program start: a restored machine
                    // resumes on the stepper under the checked kind.
                    let mut resumed = match kind {
                        EngineKind::Checked => AnyBackend::Interp(Stepper),
                        _ => AnyBackend::new(kind, &program, &r),
                    };
                    resumed
                        .run_to(&mut r, 1_000_000, 0, &mut saved, |_, _| {})
                        .expect("resume");
                    assert_eq!(books(&r), expected, "{kind} every {every}: restored");
                }
            }
        }
    }

    /// The checked backend notices a corrupted register at retirement.
    #[test]
    fn checked_backend_reports_divergence() {
        let program = prepared(BranchScheme::mipsx());
        let mut m = fresh(MachineConfig::cache_ideal(), &program);
        let mut backend = CheckedBackend::new(&m, &program);
        // Run a little, corrupt state behind the oracle's back, continue.
        // Use a register the kernel never writes back, so the pipeline's
        // own writebacks can't erase the corruption before a compare.
        let _ = backend.run(&mut m, 20);
        let r25 = mipsx_isa::Reg::new(25);
        let v = m.cpu().reg(r25);
        m.cpu_mut().set_reg(r25, v.wrapping_add(0x1234));
        match backend.run(&mut m, 1_000_000) {
            Err(ExecError::Diverged(_)) => {}
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn engine_kind_round_trips() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(kind.label()), Ok(kind));
        }
        assert_eq!(EngineKind::parse("stepper"), Ok(EngineKind::Interp));
        assert!(EngineKind::parse("warp").is_err());
    }
}

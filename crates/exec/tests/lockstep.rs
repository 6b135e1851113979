//! Lockstep validation: the cycle-accurate pipeline against the
//! functional reference model, through the `checked` backend, over every
//! workload kernel and over unpadded MD step chains, with and without
//! injected faults — plus the mutation check proving a broken restart path
//! is actually caught.

use mipsx_asm::{assemble, assemble_at, Program};
use mipsx_core::{FaultPlan, Machine, MachineConfig, NullSink, RunError, RunStats};
use mipsx_exec::{AnyBackend, CheckedBackend, EngineKind, ExecBackend, ExecError};
use mipsx_isa::SpecialReg;
use mipsx_ref::NULL_HANDLER;
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::{all_kernels, Kernel};

/// Exception vector well clear of kernel text and data.
const VECTOR: u32 = 0x8000;

/// A freshly loaded machine with the null handler installed and
/// interrupts enabled, and the checked backend shadowing it.
fn checked_for(kernel: &Kernel) -> (Machine, CheckedBackend) {
    let (program, _) = Reorganizer::new(BranchScheme::mipsx())
        .reorganize(&kernel.raw)
        .expect("kernel schedules");
    let mut m = Machine::new(MachineConfig {
        exception_vector: VECTOR,
        ..MachineConfig::default()
    });
    m.load_program(&program);
    let mut checked = CheckedBackend::new(&m, &program);
    let handler = assemble_at(NULL_HANDLER, VECTOR).expect("handler assembles");
    checked.install_handler(&mut m, &handler);
    checked.enable_interrupts(&mut m);
    (m, checked)
}

fn run(kernel: &Kernel, mut plan: FaultPlan, label: &str) -> RunStats {
    let (mut m, mut checked) = checked_for(kernel);
    checked
        .run_with_faults(&mut m, 5_000_000, &mut NullSink, &mut plan)
        .and_then(|stats| checked.final_check(&m).map(|()| stats))
        .unwrap_or_else(|e| panic!("{} [{label}]: {e}", kernel.name))
}

/// Advance one cycle; `true` once the pipeline has halted.
fn step(
    m: &mut Machine,
    checked: &mut CheckedBackend,
    plan: &mut FaultPlan,
) -> Result<bool, ExecError> {
    match checked.run_with_faults(m, 1, &mut NullSink, plan) {
        Ok(_) => Ok(true),
        Err(ExecError::Run(RunError::CycleLimit { .. })) => Ok(false),
        Err(e) => Err(e),
    }
}

#[test]
fn kernels_agree_without_faults() {
    for k in all_kernels() {
        let stats = run(&k, FaultPlan::none(), "no faults");
        assert_eq!(stats.exceptions, 0, "{}", k.name);
        assert!(stats.instructions > 0, "{}", k.name);
    }
}

#[test]
fn kernels_agree_under_random_fault_plans() {
    let mut exceptions = 0;
    let mut faults = 0;
    for (i, k) in all_kernels().iter().enumerate() {
        // Size each plan's horizon to the kernel's own fault-free run so
        // every fault actually lands.
        let horizon = run(k, FaultPlan::none(), "baseline").cycles;
        for seed in 0..3u64 {
            let plan = FaultPlan::random(0xC0FFEE ^ ((i as u64) << 8) ^ seed, horizon, 8);
            let stats = run(k, plan, &format!("seed {seed}"));
            exceptions += stats.exceptions;
            faults += stats.injected_faults();
        }
    }
    assert!(faults > 0, "no faults were injected");
    assert!(exceptions > 0, "no plan ever took an exception");
}

#[test]
fn parsed_fault_spec_agrees() {
    // The same spec syntax `mipsx soak --faults` takes on the command
    // line: one of every fault kind, early in the run. The interrupt
    // line is held for 20 cycles so the pulse outlasts any cold-cache
    // freeze (a short pulse inside a frozen stretch is missed — the
    // pipeline only samples on advancing cycles).
    let plan = FaultPlan::parse("12:irq20,25:parity,40:jitter4,60:nmi,80:cpbusy3").expect("parses");
    for k in all_kernels() {
        let stats = run(&k, plan.clone(), "fixed spec");
        assert!(
            stats.exceptions >= 2,
            "{}: irq + nmi must both land",
            k.name
        );
        assert!(stats.injected_faults() > 0, "{}", k.name);
    }
}

#[test]
fn corrupted_restart_path_is_caught() {
    // Mutation check: take an exception, then corrupt the saved restart
    // PC (chain entry 0) before the handler's first `jpc` consumes it.
    // The replay resumes one word off, and the differ must notice at the
    // first wrong retirement.
    let kernel = &all_kernels()[0]; // sum_to_n: pure arithmetic loop
    let (mut m, mut checked) = checked_for(kernel);
    let mut plan = FaultPlan::parse("30:nmi").expect("parses");
    while m.stats().exceptions < 1 {
        match step(&mut m, &mut checked, &mut plan) {
            Err(e) => panic!("diverged before corruption: {e}"),
            Ok(true) => panic!("halted before the injected NMI landed"),
            Ok(false) => {}
        }
    }
    let cpu = m.cpu_mut();
    let entry = cpu.special(SpecialReg::PcChain0);
    cpu.set_special(SpecialReg::PcChain0, entry.wrapping_add(1));
    let err = loop {
        match step(&mut m, &mut checked, &mut plan) {
            Err(e) => break e,
            Ok(true) => panic!("halted cleanly despite the corrupted restart PC"),
            Ok(false) => {}
        }
    };
    match err {
        ExecError::Diverged(d) => {
            assert!(
                d.what.contains("retired pc"),
                "expected a retired-pc divergence, got: {d}"
            );
            assert!(d.pending_fault.is_some(), "report must carry the fault");
        }
        other => panic!("expected a divergence report, got: {other}"),
    }
}

/// Programs whose 32-step `mstep` chain runs straight into an MD access
/// with no padding: a `movtos md` zero to two fetches behind the last step
/// (and a `movfrs md` and a next chain's step reading MD after it), a bare
/// `movfrs md`, the chain's last steps in a branch window or in a return's
/// delay slots with the landing writing MD, a squashing branch that
/// annuls the last step, and words fetched behind the `halt` that act
/// before it retires: `movtos` to MD (over the bypass, and against a step
/// in flight), the PSWs, a `jpcrs`, and stores (only the first shadow
/// word reaches MEM).
fn unpadded_md_programs() -> Vec<(String, Program)> {
    let chain = |n: usize| {
        "li r1, 21\nli r2, 2\nmovtos md, r2\nli r3, 0\n".to_string()
            + &"mstep r3, r1, r3\n".repeat(n)
    };
    let after = "movfrs r4, md\nli r5, 5\nmstep r6, r5, r0\nmovfrs r7, md\nhalt";
    let mut sources = Vec::new();
    for gap in 0..3 {
        let pad = "add r9, r1, r1\n".repeat(gap);
        sources.push((
            format!("movtos gap {gap}"),
            chain(32) + &pad + "movtos md, r1\n" + after,
        ));
        sources.push((format!("movfrs gap {gap}"), chain(32) + &pad + after));
    }
    for branch in ["beq", "beqsq", "beqsqg"] {
        sources.push((
            format!("{branch} window"),
            chain(30)
                + branch
                + " r0, r0, t\nmstep r3, r1, r3\nmstep r3, r1, r3\nt: movtos md, r1\n"
                + after,
        ));
    }
    sources.push((
        "return".into(),
        include_str!("../../../tests/golden/md_after_return.s").into(),
    ));
    sources.push((
        "halt shadow".into(),
        include_str!("../../../tests/golden/md_after_halt.s").into(),
    ));
    for (label, shadow) in [
        ("bypass", "addi r1, r0, 9\nmovtos md, r1"),
        ("step", "mstep r3, r1, r3\nmovtos md, r1"),
        ("psw", "nop\nmovtos pswold, r20"),
        ("jpcrs", "jpcrs"),
        ("stores", "stf f1, 0(r20)\nst r20, 1(r20)"),
    ] {
        sources.push((
            format!("halt shadow {label}"),
            "li r20, 3000\nli r1, 7\nst r1, 0(r20)\nst r1, 1(r20)\nmovtos pswold, r1\nhalt\n"
                .to_string()
                + shadow,
        ));
    }
    sources
        .into_iter()
        .map(|(label, src)| {
            let program = assemble(&src).unwrap_or_else(|e| panic!("{label}: {e}"));
            (label, program)
        })
        .collect()
}

/// The reference model follows the step and halt shadows as the pipeline
/// does: the unpadded programs run clean under the checked backend,
/// fault-free and under random fault plans, and the block engine matches
/// the stepper on them, on the ideal configuration and on the board.
#[test]
fn unpadded_md_chains_agree_across_engines() {
    let mut exceptions = 0;
    for (name, base) in [
        ("cache_ideal", MachineConfig::cache_ideal()),
        ("board", MachineConfig::mipsx()),
    ] {
        let cfg = MachineConfig {
            exception_vector: VECTOR,
            ..base
        };
        let handler = assemble_at(NULL_HANDLER, VECTOR).expect("handler assembles");
        for (label, program) in unpadded_md_programs() {
            let label = format!("{name} {label}");
            for seed in 0..4u64 {
                let mut m = Machine::new(cfg);
                m.load_program(&program);
                let mut checked = CheckedBackend::new(&m, &program);
                checked.install_handler(&mut m, &handler);
                checked.enable_interrupts(&mut m);
                let mut plan = match seed {
                    0 => FaultPlan::none(),
                    _ => FaultPlan::random(seed, 60, 3),
                };
                exceptions += checked
                    .run_with_faults(&mut m, 100_000, &mut NullSink, &mut plan)
                    .and_then(|stats| checked.final_check(&m).map(|()| stats.exceptions))
                    .unwrap_or_else(|e| panic!("{label} [seed {seed}]: {e}"));
            }
            let run = |kind| {
                let mut m = Machine::new(cfg);
                m.load_program(&program);
                AnyBackend::new(kind, &program, &m)
                    .run(&mut m, 100_000)
                    .unwrap_or_else(|e| panic!("{label}: {kind} engine: {e}"));
                (*m.stats(), m.cpu().regs_snapshot(), m.cpu().md)
            };
            assert_eq!(run(EngineKind::Interp), run(EngineKind::Block), "{label}");
        }
    }
    assert!(exceptions > 0, "no plan ever took an exception");
}

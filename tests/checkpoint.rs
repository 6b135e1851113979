//! End-to-end checkpoint/restore guarantees.
//!
//! The snapshot format's unit tests (crates/core) prove save → restore →
//! save is byte-stable on one machine. These tests prove the property the
//! robustness story actually needs: across **kernels × the six Table 1
//! branch schemes × fault plans on/off**, a machine snapshotted at an
//! arbitrary mid-run cycle and restored finishes with cycle-identical
//! statistics, a byte-identical trace, and a byte-identical final state —
//! and a restored machine is indistinguishable to the lockstep differ,
//! which compares every retirement against the reference model.

use mipsx_core::probe::JsonlSink;
use mipsx_core::{FaultPlan, Machine, MachineConfig, RunError};
use mipsx_exec::{CheckedBackend, ExecBackend, ExecError};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::find_kernel;

const BUDGET: u64 = 5_000_000;

/// Deterministic per-case "random" interruption point: FNV-1a over the
/// case label, folded into the run's interior. Different for every
/// (kernel, scheme, fault) combination, stable across runs.
fn interruption_cycle(label: &str, total_cycles: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    1 + h % (total_cycles - 1)
}

/// One matrix cell: full traced run, then interrupt, snapshot, restore,
/// and finish — asserting stats, trace bytes, and final snapshot bytes
/// all match the uninterrupted run.
fn save_restore_is_invisible(kernel: &str, scheme: BranchScheme, fault: Option<&str>) {
    let label = format!(
        "{kernel} slots={} {:?} {fault:?}",
        scheme.slots, scheme.squash
    );
    let raw = find_kernel(kernel).expect("known kernel").raw;
    let (program, _) = Reorganizer::new(scheme)
        .reorganize(&raw)
        .expect("schedulable");
    let cfg = MachineConfig {
        branch_delay_slots: scheme.slots,
        ..MachineConfig::default()
    };
    let plan = match fault {
        Some(spec) => FaultPlan::parse(spec).expect("valid fault spec"),
        None => FaultPlan::none(),
    };

    // The uninterrupted reference, traced.
    let mut machine = Machine::new(cfg);
    machine.load_program(&program);
    let mut sink = JsonlSink::new(Vec::new());
    let mut full_plan = plan.clone();
    let full_stats = machine
        .run_with_faults(BUDGET, &mut sink, &mut full_plan)
        .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));
    let full_trace = String::from_utf8(sink.finish().unwrap()).unwrap();
    let full_final = machine.save_snapshot(Some(&full_plan)).unwrap();
    assert!(full_stats.cycles > 10, "{label}: too short to interrupt");

    // Interrupt at a case-specific cycle, snapshot with the plan cursor.
    let k = interruption_cycle(&label, full_stats.cycles);
    let mut machine = Machine::new(cfg);
    machine.load_program(&program);
    let mut head_sink = JsonlSink::new(Vec::new());
    let mut head_plan = plan.clone();
    match machine.run_with_faults(k, &mut head_sink, &mut head_plan) {
        Err(RunError::CycleLimit { .. }) => {}
        other => panic!("{label}: expected interruption at cycle {k}, got {other:?}"),
    }
    let snapshot = machine.save_snapshot(Some(&head_plan)).unwrap();
    drop((machine, head_plan)); // from here on, `snapshot` is all there is

    // Restore and finish: the tail must splice seamlessly onto the head.
    let (mut restored, tail_plan) = Machine::restore_snapshot(&snapshot).unwrap();
    let mut tail_plan = tail_plan.expect("plan rides in the snapshot");
    let mut tail_sink = JsonlSink::new(Vec::new());
    let tail_stats = restored
        .run_with_faults(BUDGET, &mut tail_sink, &mut tail_plan)
        .unwrap_or_else(|e| panic!("{label}: resumed run failed: {e}"));

    assert_eq!(
        tail_stats, full_stats,
        "{label}: stats diverge after restore"
    );
    let head = String::from_utf8(head_sink.finish().unwrap()).unwrap();
    let tail = String::from_utf8(tail_sink.finish().unwrap()).unwrap();
    assert_eq!(
        format!("{head}{tail}"),
        full_trace,
        "{label}: JSONL trace not byte-identical across restore at cycle {k}"
    );
    let resumed_final = restored.save_snapshot(Some(&tail_plan)).unwrap();
    assert_eq!(
        resumed_final, full_final,
        "{label}: final machine state not byte-identical"
    );
}

/// Timing-only fault plan (Icache parity retries + Ecache jitter): rich
/// interaction with the miss FSM, no dependence on an exception handler.
const FAULTS: &str = "23:parity,97:jitter2,151:parity,400:jitter5";

#[test]
fn restore_is_invisible_across_kernels_schemes_and_faults() {
    for kernel in ["sum_to_n", "fib_recursive", "memcpy"] {
        for scheme in BranchScheme::table1() {
            for fault in [None, Some(FAULTS)] {
                save_restore_is_invisible(kernel, scheme, fault);
            }
        }
    }
}

#[test]
fn lockstep_differ_accepts_a_restored_machine_mid_run() {
    let raw = find_kernel("fib_recursive").expect("known kernel").raw;
    let (program, _) = Reorganizer::new(BranchScheme::mipsx())
        .reorganize(&raw)
        .expect("schedulable");
    let mut machine = Machine::new(MachineConfig::default());
    machine.load_program(&program);
    let mut checked = CheckedBackend::new(&machine, &program);
    match checked.run(&mut machine, 800) {
        Err(ExecError::Run(RunError::CycleLimit { .. })) => {}
        other => panic!("expected 800 clean cycles before the swap, got {other:?}"),
    }

    // Swap the pipeline out from under the differ for its own
    // save/restore image. If restore dropped or invented any in-flight
    // state, the very next retirement comparison would diverge.
    let bytes = machine.save_snapshot(None).expect("snapshottable");
    machine = Machine::restore_snapshot(&bytes).expect("restorable").0;
    let stats = checked
        .run(&mut machine, BUDGET)
        .and_then(|stats| checked.final_check(&machine).map(|()| stats))
        .expect("restored machine stays in lockstep");
    assert!(stats.instructions > 0);
}

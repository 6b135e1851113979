//! Integration tests: programs through the full pipeline.

use mipsx_asm::assemble;
use mipsx_core::{InterlockPolicy, Machine, MachineConfig, RunError, RunStats};
use mipsx_isa::{Instr, Reg};

fn run_program(src: &str) -> (Machine, RunStats) {
    run_with(src, MachineConfig::default())
}

fn run_with(src: &str, cfg: MachineConfig) -> (Machine, RunStats) {
    let program = assemble(src).expect("assembles");
    let mut m = Machine::new(cfg);
    m.load_program(&program);
    let stats = m.run(1_000_000).expect("runs to halt");
    (m, stats)
}

fn reg(m: &Machine, n: u8) -> u32 {
    m.cpu().reg(Reg::new(n))
}

#[test]
fn arithmetic_and_immediates() {
    let (m, _) = run_program(
        "li r1, 20\nli r2, 22\nadd r3, r1, r2\nsub r4, r3, r1\n\
         and r5, r3, r2\nor r6, r1, r2\nxor r7, r1, r1\nhalt",
    );
    assert_eq!(reg(&m, 3), 42);
    assert_eq!(reg(&m, 4), 22);
    assert_eq!(reg(&m, 5), 42 & 22);
    assert_eq!(reg(&m, 6), 20 | 22);
    assert_eq!(reg(&m, 7), 0);
}

#[test]
fn back_to_back_bypass() {
    // Each add consumes the previous result one cycle later: pure level-1
    // bypass, no nops needed.
    let (m, _) = run_program("li r1, 1\nadd r1, r1, r1\nadd r1, r1, r1\nadd r1, r1, r1\nhalt");
    assert_eq!(reg(&m, 1), 8);
}

#[test]
fn two_level_bypass_distance_two() {
    let (m, _) = run_program("li r1, 7\nli r9, 0\nadd r2, r1, r1\nhalt");
    // r1 produced at distance 2 from its consumer: level-2 bypass.
    assert_eq!(reg(&m, 2), 14);
}

#[test]
fn shifts_and_funnel() {
    let (m, _) = run_program(
        "li r1, 1\nsll r2, r1, 5\nsrl r3, r2, 2\nli r4, -8\nsra r5, r4, 1\n\
         li r6, 4\nshf r7, r6, r0, 2\nhalt",
    );
    assert_eq!(reg(&m, 2), 32);
    assert_eq!(reg(&m, 3), 8);
    assert_eq!(reg(&m, 5) as i32, -4);
    // funnel: (4 ++ 0) >> 2 low word = 0 | (4 << 30)
    assert_eq!(reg(&m, 7), 4u32 << 30);
}

#[test]
fn loads_and_stores() {
    let (m, stats) = run_program(
        "li r1, 1000\nli r2, 77\nst r2, 0(r1)\nst r2, 5(r1)\n\
         ld r3, 0(r1)\nnop\nadd r4, r3, r3\nhalt",
    );
    assert_eq!(m.read_word(1000), 77);
    assert_eq!(m.read_word(1005), 77);
    assert_eq!(reg(&m, 3), 77);
    assert_eq!(reg(&m, 4), 154);
    assert_eq!(stats.loads, 1);
    assert_eq!(stats.stores, 2);
}

#[test]
fn load_use_distance_one_is_detected() {
    let program = assemble("li r1, 1000\nld r2, 0(r1)\nadd r3, r2, r2\nhalt").unwrap();
    let mut m = Machine::new(MachineConfig::default());
    m.load_program(&program);
    match m.run(10_000) {
        Err(RunError::LoadUseHazard { reg, .. }) => assert_eq!(reg, Reg::new(2)),
        other => panic!("expected load-use hazard, got {other:?}"),
    }
}

#[test]
fn load_use_trust_reads_stale_value() {
    // Same violation under Trust: the consumer sees the OLD r2, like the
    // silicon would.
    let (m, _) = run_with(
        "li r2, 5\nli r1, 1000\nli r9, 88\nst r9, 0(r1)\nld r2, 0(r1)\nadd r3, r2, r2\nhalt",
        MachineConfig {
            interlock: InterlockPolicy::Trust,
            ..MachineConfig::default()
        },
    );
    assert_eq!(reg(&m, 3), 10); // stale r2 == 5
    assert_eq!(reg(&m, 2), 88); // the load did complete
}

#[test]
fn store_can_consume_load_result_immediately() {
    // ld then st of the same register one apart is legal: the store needs
    // its datum a cycle later than an ALU consumer would.
    let (m, _) =
        run_program("li r1, 1000\nli r2, 31\nst r2, 0(r1)\nld r3, 0(r1)\nst r3, 1(r1)\nhalt");
    assert_eq!(m.read_word(1001), 31);
}

#[test]
fn branch_taken_with_nop_slots() {
    let (m, stats) = run_program(
        "li r1, 1\nbeq r1, r1, target\nnop\nnop\nli r2, 111\nhalt\n\
         target: li r2, 222\nhalt",
    );
    assert_eq!(reg(&m, 2), 222);
    assert_eq!(stats.branches, 1);
    assert_eq!(stats.branches_taken, 1);
    assert_eq!(stats.branch_slot_nops, 2);
    // Cost: 1 + 2 empty slots = 3 cycles for this branch.
    assert!((stats.cycles_per_branch() - 3.0).abs() < 1e-12);
}

#[test]
fn branch_not_taken_falls_through() {
    let (m, stats) = run_program(
        "li r1, 1\nli r2, 2\nbeq r1, r2, target\nnop\nnop\nli r3, 111\nhalt\n\
         target: li r3, 222\nhalt",
    );
    assert_eq!(reg(&m, 3), 111);
    assert_eq!(stats.branches_taken, 0);
}

#[test]
fn delay_slots_execute_on_no_squash_branch() {
    // The slot instructions execute whether or not the branch takes.
    let (m, _) = run_program(
        "li r1, 1\nbeq r1, r1, target\nli r4, 10\nli r5, 20\nhalt\n\
         target: add r6, r4, r5\nhalt",
    );
    assert_eq!(reg(&m, 4), 10);
    assert_eq!(reg(&m, 5), 20);
    assert_eq!(reg(&m, 6), 30);
}

#[test]
fn squashing_branch_kills_slots_when_not_taken() {
    // beqsq: squash-if-don't-go. Branch not taken -> slot instructions die.
    let (m, stats) = run_program(
        "li r1, 1\nli r2, 2\nbeqsq r1, r2, target\nli r4, 10\nli r5, 20\n\
         li r3, 111\nhalt\ntarget: li r3, 222\nhalt",
    );
    assert_eq!(reg(&m, 3), 111);
    assert_eq!(reg(&m, 4), 0, "slot 1 must be squashed");
    assert_eq!(reg(&m, 5), 0, "slot 2 must be squashed");
    assert_eq!(stats.branch_slot_squashed, 2);
    assert_eq!(stats.squashed, 2);
}

#[test]
fn squashing_branch_keeps_slots_when_taken() {
    let (m, stats) = run_program(
        "li r1, 1\nbeqsq r1, r1, target\nli r4, 10\nli r5, 20\nhalt\n\
         target: add r6, r4, r5\nhalt",
    );
    assert_eq!(reg(&m, 6), 30);
    assert_eq!(stats.branch_slot_squashed, 0);
    // Both slots held useful instructions: the ideal 1-cycle branch.
    assert!((stats.cycles_per_branch() - 1.0).abs() < 1e-12);
}

#[test]
fn squash_if_go_kills_slots_when_taken() {
    let (m, _) = run_program(
        "li r1, 1\nbeqsqg r1, r1, target\nli r4, 10\nli r5, 20\nhalt\n\
         target: li r3, 222\nhalt",
    );
    assert_eq!(reg(&m, 3), 222);
    assert_eq!(reg(&m, 4), 0);
    assert_eq!(reg(&m, 5), 0);
}

#[test]
fn loop_sums_correctly() {
    let (m, stats) = run_program(
        "li r1, 10\nli r2, 0\n\
         loop: add r2, r2, r1\naddi r1, r1, -1\nbne r1, r0, loop\nnop\nnop\nhalt",
    );
    assert_eq!(reg(&m, 2), 55);
    assert_eq!(stats.branches, 10);
    assert_eq!(stats.branches_taken, 9);
}

#[test]
fn call_and_return() {
    let (m, _) = run_program(
        "main: li r1, 5\ncall double\nnop\nnop\nmv r3, r2\nhalt\n\
         double: add r2, r1, r1\nret\nnop\nnop",
    );
    assert_eq!(reg(&m, 2), 10);
    assert_eq!(reg(&m, 3), 10);
}

#[test]
fn jspci_link_register_points_after_slots() {
    let (m, _) = run_program("main: call fn\nnop\nnop\nhalt\nfn: mv r4, r31\nret\nnop\nnop");
    // call at 0, slots at 1-2, return point = 3.
    assert_eq!(reg(&m, 4), 3);
}

#[test]
fn jump_delay_slots_execute() {
    let (m, _) = run_program(
        "jump target\nli r1, 1\nli r2, 2\nli r9, 99\nhalt\n\
         target: add r3, r1, r2\nhalt",
    );
    assert_eq!(reg(&m, 3), 3);
    assert_eq!(reg(&m, 9), 0, "jump must skip past its slots");
}

#[test]
fn software_multiply_with_msteps() {
    // Full 32-step multiply routine: md = multiplier, r1 = multiplicand,
    // accumulator in r2.
    let mut src = String::from("li r1, 1234\nli r3, 5678\nmovtos md, r3\nli r2, 0\n");
    for _ in 0..32 {
        src.push_str("mstep r2, r1, r2\n");
    }
    src.push_str("halt");
    let (m, _) = run_program(&src);
    assert_eq!(reg(&m, 2), 1234 * 5678);
}

#[test]
fn software_divide_with_dsteps() {
    // 32-step unsigned divide: md = dividend, r1 = divisor; remainder
    // accumulates in r2, quotient lands in md.
    let mut src = String::from("li r1, 7\nli r3, 100\nmovtos md, r3\nli r2, 0\n");
    for _ in 0..32 {
        src.push_str("dstep r2, r1, r2\n");
    }
    src.push_str("movfrs r4, md\nhalt");
    let (m, _) = run_program(&src);
    assert_eq!(reg(&m, 2), 100 % 7, "remainder");
    assert_eq!(reg(&m, 4), 100 / 7, "quotient");
}

#[test]
fn r0_stays_zero() {
    let (m, _) = run_program("li r0, 55\naddi r0, r0, 9\nadd r1, r0, r0\nhalt");
    assert_eq!(reg(&m, 0), 0);
    assert_eq!(reg(&m, 1), 0);
}

#[test]
fn cpi_includes_icache_cold_misses() {
    let (_, stats) = run_program("li r1, 1\nnop\nnop\nnop\nhalt");
    // Cold start: at least one Icache miss must have cost cycles.
    assert!(stats.icache_stall_cycles > 0);
    assert!(stats.cpi() > 1.0);
}

#[test]
fn warm_loop_approaches_single_cycle_execution() {
    // A long-running tight loop fits the Icache: steady state is 1
    // instruction per cycle plus the branch no-op overhead.
    let (_, stats) = run_program(
        "li r1, 2000\nloop: addi r1, r1, -1\nadd r2, r2, r1\nadd r3, r3, r1\n\
         add r4, r4, r1\nbne r1, r0, loop\nnop\nnop\nhalt",
    );
    let cpi = stats.cpi();
    assert!(cpi < 1.1, "warm loop CPI should be near 1, got {cpi}");
}

#[test]
fn one_slot_pipeline_has_single_delay_slot() {
    let cfg = MachineConfig {
        branch_delay_slots: 1,
        ..MachineConfig::default()
    };
    // With one slot only ONE instruction after the branch executes.
    let (m, stats) = run_with(
        "li r1, 1\nbeq r1, r1, target\nli r4, 10\nli r5, 20\nhalt\n\
         target: halt",
        cfg,
    );
    assert_eq!(reg(&m, 4), 10, "single delay slot executes");
    assert_eq!(reg(&m, 5), 0, "second instruction is never reached");
    assert_eq!(stats.branches, 1);
}

#[test]
fn one_slot_squash() {
    let cfg = MachineConfig {
        branch_delay_slots: 1,
        ..MachineConfig::default()
    };
    let (m, stats) = run_with(
        "li r1, 1\nli r2, 2\nbeqsq r1, r2, target\nli r4, 10\nli r3, 111\nhalt\n\
         target: li r3, 222\nhalt",
        cfg,
    );
    assert_eq!(reg(&m, 3), 111);
    assert_eq!(reg(&m, 4), 0, "slot squashed on fall-through");
    assert_eq!(stats.branch_slot_squashed, 1);
}

#[test]
fn cycle_limit_reported() {
    let program = assemble("loop: jump loop\nnop\nnop").unwrap();
    let mut m = Machine::new(MachineConfig::default());
    m.load_program(&program);
    assert!(matches!(
        m.run(500),
        Err(RunError::CycleLimit { limit: 500 })
    ));
}

#[test]
fn illegal_instruction_is_reported() {
    let mut m = Machine::new(MachineConfig::default());
    m.write_word(0, 0xC000_0000); // undefined major opcode
    m.write_word(1, mipsx_isa::Instr::Halt.encode());
    match m.run(1_000) {
        Err(RunError::IllegalInstruction { pc: 0, word }) => assert_eq!(word, 0xC000_0000),
        other => panic!("expected illegal instruction, got {other:?}"),
    }
}

#[test]
fn already_halted_is_an_error() {
    let program = assemble("halt").unwrap();
    let mut m = Machine::new(MachineConfig::default());
    m.load_program(&program);
    m.run(1_000).unwrap();
    assert!(matches!(m.run(1), Err(RunError::AlreadyHalted)));
}

#[test]
fn nop_statistics_counted() {
    let (_, stats) = run_program("nop\nnop\nnop\nli r1, 1\nhalt");
    assert_eq!(stats.nops, 3);
    assert_eq!(stats.instructions, 5);
    assert!((stats.nop_fraction() - 0.6).abs() < 1e-12);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (_, s) =
            run_program("li r1, 50\nloop: addi r1, r1, -1\nbne r1, r0, loop\nnop\nnop\nhalt");
        s
    };
    assert_eq!(run(), run());
}

/// The PC wraps at the top of the address space, and so do the addresses
/// derived from it: the Icache's fetch-back partner of `u32::MAX` is word
/// 0, and a `jspci` in the last word links past the wrap.
#[test]
fn board_machine_wraps_at_the_top_of_the_address_space() {
    let mut m = Machine::new(MachineConfig::mipsx());
    m.write_word(
        u32::MAX,
        Instr::Jspci {
            rs1: Reg::ZERO,
            rd: Reg::new(5),
            imm: 0,
        }
        .encode(),
    );
    m.set_pc(u32::MAX);
    let _ = m.run(1);
    assert_eq!(m.icache().stats().misses, 1);
    assert!(m.icache().probe(u32::MAX));
    assert!(
        m.icache().probe(0),
        "the first miss fills word 0 as its partner"
    );
    match m.run(2_000) {
        Err(RunError::CycleLimit { .. }) => {}
        other => panic!("expected to run out the budget, got {other:?}"),
    }
    // Link: the word after the two delay slots, past the wrap.
    assert_eq!(reg(&m, 5), 2);
}

//! Lockstep equivalence: the block engine must be *invisible* — identical
//! `RunStats`, registers, PC, and memory effects to the cycle-accurate
//! stepper, on every kernel, under every Table 1 scheme, with and without
//! fault plans, at every cycle budget. On configurations that price
//! stalls the engine drives the cache models, so their state must match
//! too.

use mipsx_asm::{assemble, Program};
use mipsx_core::{
    FaultPlan, InterlockPolicy, JsonlSink, Machine, MachineConfig, NullSink, RunError, RunStats,
};
use mipsx_engine::{drives_caches, BlockEngine, FallbackCause};
use mipsx_isa::{Cond, Instr, Reg, SquashMode};
use mipsx_mem::{EcacheConfig, Replacement};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::kernels::{all_kernels, Check};
use mipsx_workloads::synth::{generate, SynthConfig};

const BUDGET: u64 = 5_000_000;
/// The least share of cycles the fast path must account on every row of
/// the kernel matrix (measured: 0.995 on each configuration).
const FAST_SHARE_FLOOR: f64 = 0.95;

/// The lockstep matrix: `cache_ideal` (where the fast path skips the cache
/// models), the board, `ideal_memory`, and E11's small-Ecache board at
/// each of its memory latencies.
fn configs() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("cache_ideal", MachineConfig::cache_ideal()),
        ("board", MachineConfig::mipsx()),
        ("ideal_memory", MachineConfig::ideal_memory()),
        ("e11 mem_latency=3", e11(3)),
        ("e11 mem_latency=5", e11(5)),
        ("e11 mem_latency=10", e11(10)),
    ]
}

/// E11's board: a 4K-word Ecache in front of memory `mem_latency` cycles
/// away.
fn e11(mem_latency: u32) -> MachineConfig {
    MachineConfig {
        ecache: EcacheConfig {
            size_words: 4 * 1024,
            ..EcacheConfig::mipsx()
        },
        mem_latency,
        ..MachineConfig::mipsx()
    }
}

fn machine_on(base: MachineConfig, scheme: &BranchScheme) -> Machine {
    Machine::new(MachineConfig {
        branch_delay_slots: scheme.slots,
        interlock: InterlockPolicy::Detect,
        ..base
    })
}

fn machine_for(scheme: &BranchScheme) -> Machine {
    machine_on(MachineConfig::cache_ideal(), scheme)
}

/// Assert that two machines hold the same run: books, architectural
/// state and — where the engine drives them — both caches and the miss
/// FSM.
fn assert_same_run(interp: &Machine, fast: &Machine, label: &str) {
    assert_eq!(interp.stats(), fast.stats(), "{label}: RunStats diverged");
    assert_eq!(
        interp.cpu().regs_snapshot(),
        fast.cpu().regs_snapshot(),
        "{label}: registers diverged"
    );
    assert_eq!(interp.cpu().pc, fast.cpu().pc, "{label}: PC diverged");
    assert_eq!(interp.cpu().md, fast.cpu().md, "{label}: MD diverged");
    assert_eq!(
        interp.halted(),
        fast.halted(),
        "{label}: halt state diverged"
    );
    if drives_caches(interp.config()) {
        assert_eq!(
            interp.icache().snapshot_state(),
            fast.icache().snapshot_state(),
            "{label}: Icache diverged"
        );
        assert_eq!(
            interp.ecache().snapshot_state(),
            fast.ecache().snapshot_state(),
            "{label}: Ecache diverged"
        );
        assert_eq!(
            format!("{:?}", interp.miss_fsm()),
            format!("{:?}", fast.miss_fsm()),
            "{label}: miss FSM diverged"
        );
    }
}

fn check_state(m: &Machine, checks: &[Check], label: &str) {
    for check in checks {
        match *check {
            Check::Reg { reg, value } => {
                assert_eq!(m.cpu().reg(Reg::new(reg)), value, "{label}: r{reg}");
            }
            Check::MemWord { addr, value } => {
                assert_eq!(m.read_word(addr), value, "{label}: mem[{addr:#x}]");
            }
            Check::MemSortedAscending { base, len } => {
                let words: Vec<u32> = (base..base + len).map(|a| m.read_word(a)).collect();
                let mut sorted = words.clone();
                sorted.sort_unstable();
                assert_eq!(words, sorted, "{label}: region not sorted");
            }
        }
    }
}

/// Run `program` through both paths on `base` (with `scheme`'s slot
/// count) and assert full architectural and accounting equivalence.
/// Returns the engine's machine and the engine for fast-path inspection.
fn lockstep_on(
    base: MachineConfig,
    program: &Program,
    scheme: &BranchScheme,
    label: &str,
) -> (Machine, BlockEngine) {
    let mut interp = machine_on(base, scheme);
    interp.load_program(program);
    let interp_stats = interp
        .run(BUDGET)
        .unwrap_or_else(|e| panic!("{label}: interpreter failed: {e}"));

    let mut fast = machine_on(base, scheme);
    fast.load_program(program);
    let mut engine = BlockEngine::new(program, &fast);
    let fast_stats = engine
        .run(&mut fast, BUDGET)
        .unwrap_or_else(|e| panic!("{label}: engine failed: {e}"));

    assert_eq!(
        interp_stats, fast_stats,
        "{label}: returned RunStats diverged"
    );
    assert_same_run(&interp, &fast, label);
    (fast, engine)
}

#[test]
fn kernels_lockstep_under_all_schemes() {
    for (name, base) in configs() {
        let (mut fast_cycles, mut cycles) = (0u64, 0u64);
        for kernel in all_kernels() {
            for scheme in BranchScheme::table1() {
                let r = Reorganizer::new(scheme);
                let (naive, _) = r.lower_naive(&kernel.raw).expect("naive lowering");
                let (opt, _) = r.reorganize(&kernel.raw).expect("reorganization");
                for (program, how) in [(&naive, "naive"), (&opt, "reorg")] {
                    let label = format!("{name}: {} {how} {scheme}", kernel.name);
                    let (m, engine) = lockstep_on(base, program, &scheme, &label);
                    check_state(&m, &kernel.checks, &label);
                    fast_cycles += engine.stats().fast_cycles;
                    cycles += m.stats().cycles;
                    assert_eq!(
                        engine.stats().fallback_exits[FallbackCause::NonIdealConfig.index()],
                        0,
                        "{label}: no configuration demotes a whole run"
                    );
                }
            }
        }
        // The matrix must actually exercise the fast path, or the
        // equivalence above proves nothing about it: the kernels' halt
        // shadows and fallback ops leave a few percent to the stepper.
        let share = fast_cycles as f64 / cycles as f64;
        assert!(
            share > FAST_SHARE_FLOOR,
            "{name}: fast path covers {share:.3} of {cycles} cycles"
        );
    }
}

/// The fast path drives whatever cache organization the machine has:
/// whole-block fills (with and without penalties), single-word fetch-back, LRU and random replacement,
/// a direct-mapped Icache, and either cache disabled.
#[test]
fn kernels_lockstep_under_cache_organizations() {
    let board = MachineConfig::mipsx();
    let mut orgs: Vec<(&str, MachineConfig)> = Vec::new();
    let mut org = |name, edit: fn(&mut MachineConfig)| {
        let mut cfg = board;
        edit(&mut cfg);
        orgs.push((name, cfg));
    };
    org("whole-block fill", |c| c.icache.whole_block_fill = true);
    // Whole-block fills stall even with every penalty at zero.
    org("whole-block fill, zero penalties", |c| {
        *c = MachineConfig::cache_ideal();
        c.icache.whole_block_fill = true;
    });
    org("one-word fetch-back", |c| c.icache.fetch_words = 1);
    org("LRU", |c| c.icache.replacement = Replacement::Lru);
    org("random", |c| c.icache.replacement = Replacement::Random);
    org("direct-mapped", |c| {
        c.icache.ways = 1;
        c.icache.rows = 32;
    });
    // Tiny lines: about one visit in eight books a hit prefix and then
    // misses inside a line, ten times the share on the board.
    org("1 row x 1 way x 4-word blocks", |c| {
        c.icache.rows = 1;
        c.icache.ways = 1;
        c.icache.block_words = 4;
    });
    org("2 ways x 2-word blocks", |c| {
        c.icache.ways = 2;
        c.icache.block_words = 2;
    });
    org("Icache off", |c| c.icache.enabled = false);
    org("Ecache off", |c| c.ecache.enabled = false);
    for (name, base) in orgs {
        assert!(
            drives_caches(&base),
            "{name}: the engine must drive the caches"
        );
        for scheme in BranchScheme::table1() {
            let r = Reorganizer::new(scheme);
            for kernel in all_kernels() {
                let (opt, _) = r.reorganize(&kernel.raw).expect("reorganization");
                let label = format!("{name}: {} {scheme}", kernel.name);
                let (m, engine) = lockstep_on(base, &opt, &scheme, &label);
                check_state(&m, &kernel.checks, &label);
                assert!(engine.stats().fast_cycles > 0, "{label}: never ran fast");
            }
        }
    }
}

#[test]
fn synthetics_lockstep_under_all_schemes() {
    // The code-scaled programs outgrow the 512-word Icache, so visits keep
    // missing and the fast path replays their fetches.
    let mut programs = Vec::new();
    for seed in [1u64, 9, 31] {
        programs.push((seed, SynthConfig::tiny(seed)));
        programs.push((seed, SynthConfig::pascal_like(seed)));
    }
    programs.push((5, SynthConfig::pascal_like(5).with_code_scale(40, 2)));
    programs.push((6, SynthConfig::lisp_like(6).with_code_scale(40, 2)));
    for (seed, synth_cfg) in programs {
        let synth = generate(synth_cfg);
        for scheme in BranchScheme::table1() {
            let r = Reorganizer::new(scheme);
            let (opt, _) = r.reorganize(&synth.raw).expect("reorg");
            for (name, base) in configs() {
                lockstep_on(
                    base,
                    &opt,
                    &scheme,
                    &format!("{name}: synth seed {seed} {scheme}"),
                );
            }
        }
    }
}

/// The sweep's shared-template path — `from_program` (no machine) plus an
/// O(1) `clone_template` per job — must behave exactly like an engine
/// compiled against a loaded machine.
#[test]
fn template_clones_run_identically_to_machine_compiled_engines() {
    for (scheme, base) in [
        (BranchScheme::mipsx(), MachineConfig::cache_ideal()),
        (BranchScheme::table1()[3], MachineConfig::cache_ideal()),
        (BranchScheme::mipsx(), MachineConfig::mipsx()),
    ] {
        for kernel in all_kernels() {
            let label = format!("{} {scheme}", kernel.name);
            let (program, _) = Reorganizer::new(scheme)
                .reorganize(&kernel.raw)
                .expect("reorg");

            let mut direct_machine = machine_on(base, &scheme);
            direct_machine.load_program(&program);
            let mut direct = BlockEngine::new(&program, &direct_machine);
            let direct_stats = direct
                .run(&mut direct_machine, BUDGET)
                .unwrap_or_else(|e| panic!("{label}: direct engine failed: {e}"));

            let template = BlockEngine::from_program(&program, direct_machine.config());
            assert_eq!(
                template.stats().blocks_compiled,
                direct.stats().blocks_compiled,
                "{label}: template compiled a different block set"
            );
            let mut clone_machine = machine_on(base, &scheme);
            clone_machine.load_program(&program);
            let mut clone = template.clone_template();
            let clone_stats = clone
                .run(&mut clone_machine, BUDGET)
                .unwrap_or_else(|e| panic!("{label}: template clone failed: {e}"));

            assert_eq!(direct_stats, clone_stats, "{label}: RunStats diverged");
            assert_same_run(&direct_machine, &clone_machine, &label);
            assert_eq!(
                direct.stats().block_visits,
                clone.stats().block_visits,
                "{label}: fast-path coverage diverged"
            );
            check_state(&clone_machine, &kernel.checks, &label);
            // Clones are independent: a fresh one starts with zeroed run
            // counters while sharing the compiled code.
            assert_eq!(template.clone_template().stats().block_visits, 0);
        }
    }
}

/// A live fault plan demotes the whole run, so results — and even the JSONL
/// event stream — are byte-identical to the stepper's.
#[test]
fn fault_plans_demote_to_identical_runs() {
    let scheme = BranchScheme::mipsx();
    let r = Reorganizer::new(scheme);
    for kernel in all_kernels().into_iter().take(3) {
        let (opt, _) = r.reorganize(&kernel.raw).expect("reorg");
        for seed in [7u64, 1234] {
            let plan = FaultPlan::random(seed, 2_000, 6);

            let mut interp = machine_for(&scheme);
            interp.load_program(&opt);
            let mut p1 = plan.clone();
            let r1 = interp.run_with_faults(BUDGET, &mut NullSink, &mut p1);

            let mut fast = machine_for(&scheme);
            fast.load_program(&opt);
            let mut engine = BlockEngine::new(&opt, &fast);
            let mut p2 = plan.clone();
            let r2 = engine.run_with_faults(&mut fast, BUDGET, &mut NullSink, &mut p2);

            let label = format!("{} faults seed {seed}", kernel.name);
            match (r1, r2) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: stats"),
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}: error"),
                (a, b) => panic!("{label}: outcome diverged: {a:?} vs {b:?}"),
            }
            assert_eq!(
                interp.cpu().regs_snapshot(),
                fast.cpu().regs_snapshot(),
                "{label}: registers"
            );
            assert_eq!(engine.stats().fast_cycles, 0, "{label}: must not fast-path");
        }
    }
}

#[test]
fn traced_runs_emit_byte_identical_jsonl() {
    let scheme = BranchScheme::mipsx();
    let r = Reorganizer::new(scheme);
    let kernel = &all_kernels()[0];
    let (opt, _) = r.reorganize(&kernel.raw).expect("reorg");

    let mut buf_a = Vec::new();
    let mut interp = machine_for(&scheme);
    interp.load_program(&opt);
    interp
        .run_with(BUDGET, &mut JsonlSink::new(&mut buf_a))
        .expect("interpreter");

    let mut buf_b = Vec::new();
    let mut fast = machine_for(&scheme);
    fast.load_program(&opt);
    let mut engine = BlockEngine::new(&opt, &fast);
    engine
        .run_with_faults(
            &mut fast,
            BUDGET,
            &mut JsonlSink::new(&mut buf_b),
            &mut FaultPlan::none(),
        )
        .expect("engine");

    assert!(!buf_a.is_empty(), "trace must not be empty");
    assert_eq!(buf_a, buf_b, "JSONL traces must be byte-identical");
}

/// The cycle-splice contract at every budget: for each cap N, the engine's
/// outcome (halt or `CycleLimit`) and its whole state — books, caches,
/// miss FSM and (on a driven configuration) the full machine snapshot —
/// match a contiguous stepper run given the same cap, and resuming both
/// to the end agrees too. A block's cost includes its stalls, so on a
/// driven configuration every cap near a block boundary, mid-stall or
/// mid-refill is a probe; `sum_to_n` and the aliasing loop (whose window
/// loads are owed across block boundaries) are short enough to try every
/// cap. With both caches off every fetch and read costs its most, so
/// `cost_bound` is tight there: a cap that just admits a block leaves
/// only what its predecessor and successor terms reserve for the drain
/// and for the refill that reaches the block's owed reads, and dropping
/// either term fails this test.
#[test]
fn cycle_budgets_splice_exactly() {
    let scheme = BranchScheme::mipsx();
    let r = Reorganizer::new(scheme);
    let kernel = &all_kernels()[0]; // sum_to_n
    let (opt, _) = r.reorganize(&kernel.raw).expect("reorg");
    let aliasing = aliasing_program("", "nop");
    let mut caches_off = e11(10);
    caches_off.icache.enabled = false;
    caches_off.ecache.enabled = false;

    for (program, name, base) in [
        (&opt, "cache_ideal", MachineConfig::cache_ideal()),
        (&opt, "board", MachineConfig::mipsx()),
        (&aliasing, "board aliasing", MachineConfig::mipsx()),
        (&aliasing, "e11 mem_latency=10 aliasing", e11(10)),
        (&aliasing, "caches off aliasing", caches_off),
    ] {
        let full = {
            let mut m = machine_on(base, &scheme);
            m.load_program(program);
            m.run(BUDGET).expect("baseline").cycles
        };
        let probes: Vec<u64> = if drives_caches(&base) {
            (0..=full + 1).collect()
        } else {
            vec![0, 1, 4, 5, 6, full - 1, full, full + 1]
        };
        for cap in probes {
            let label = format!("{name} cap {cap}");
            let mut interp = machine_on(base, &scheme);
            interp.load_program(program);
            let r1 = interp.run(cap);

            let mut fast = machine_on(base, &scheme);
            fast.load_program(program);
            let mut engine = BlockEngine::new(program, &fast);
            let r2 = engine.run(&mut fast, cap);

            match (&r1, &r2) {
                (Ok(a), Ok(b)) => assert_eq!(a.cycles, b.cycles, "{label}: halt cycles"),
                (
                    Err(RunError::CycleLimit { limit: a }),
                    Err(RunError::CycleLimit { limit: b }),
                ) => assert_eq!(a, b, "{label}: limit"),
                _ => panic!("{label}: outcome diverged: {r1:?} vs {r2:?}"),
            }
            assert_same_run(&interp, &fast, &label);
            if drives_caches(&base) && r1.is_err() {
                assert_eq!(
                    interp.save_snapshot(None).expect("snapshot"),
                    fast.save_snapshot(None).expect("snapshot"),
                    "{label}: machine snapshots diverged"
                );
            }
            if r1.is_err() {
                interp.run(BUDGET).expect("interp resume");
                engine.run(&mut fast, BUDGET).expect("engine resume");
                assert_same_run(&interp, &fast, &format!("{label} resumed"));
            }
        }
    }
}

/// Self-modifying code must recompile, not execute stale superops: the
/// program overwrites an instruction ahead of control flow, and the engine
/// must observe the new instruction exactly as the stepper does.
#[test]
fn self_modifying_store_triggers_recompile() {
    // r1 := encoding of `addi r3, r0, 99`; store it over the instruction at
    // `target` (originally `addi r3, r0, 1`); jump there; expect r3 == 99.
    let patch = Instr::Addi {
        rs1: Reg::ZERO,
        rd: Reg::new(3),
        imm: 99,
    }
    .encode();
    let origin = 0x1000;
    // Layout (word addresses from origin):
    //   0: addi r2, r0, imm_lo(patch)  -- build the patch word in r2
    //   ... build via two adds since imm is 17-bit signed; patch fits.
    let target = 8u32; // index of the patched instruction
    let words: Vec<u32> = vec![
        // r2 := patch (fits in 17-bit signed? ensure below), r4 := origin+target
        Instr::Addi {
            rs1: Reg::ZERO,
            rd: Reg::new(4),
            imm: (origin + target) as i32,
        }
        .encode(),
        Instr::St {
            rs1: Reg::new(4),
            rsrc: Reg::new(2),
            offset: 0,
        }
        .encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        Instr::Branch {
            cond: Cond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            // The PC bus adds the displacement to the branch's own address
            // (word 5), so disp = target - 5.
            disp: target as i32 - 5,
            squash: SquashMode::NoSquash,
        }
        .encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        // target:
        Instr::Addi {
            rs1: Reg::ZERO,
            rd: Reg::new(3),
            imm: 1,
        }
        .encode(),
        Instr::Halt.encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
        Instr::Nop.encode(),
    ];
    let mut program = Program::from_words(origin, words);
    program.entry = origin;

    let run = |engine_path: bool| -> (u32, u64, u64) {
        let mut m = Machine::new(MachineConfig::cache_ideal());
        m.load_program(&program);
        // Seed r2 with the patch word directly (building an arbitrary
        // 32-bit constant needs more scaffolding than this test wants).
        m.cpu_mut().set_reg(Reg::new(2), patch);
        if engine_path {
            let mut engine = BlockEngine::new(&program, &m);
            let stats = engine.run(&mut m, 100_000).expect("engine run");
            (
                m.cpu().reg(Reg::new(3)),
                stats.cycles,
                engine.stats().recompiles,
            )
        } else {
            let stats = m.run(100_000).expect("interp run");
            (m.cpu().reg(Reg::new(3)), stats.cycles, 0)
        }
    };

    let (r3_interp, cycles_interp, _) = run(false);
    let (r3_engine, cycles_engine, recompiles) = run(true);
    assert_eq!(
        r3_interp, 99,
        "interpreter must see the patched instruction"
    );
    assert_eq!(r3_engine, 99, "engine must see the patched instruction");
    assert_eq!(cycles_interp, cycles_engine, "cycle books diverged");
    assert!(
        recompiles >= 1,
        "the watched store must force a recompile, got {recompiles}"
    );
}

/// A three-trip loop whose branch windows load from the addresses one
/// Ecache span above the code of `far`, the taken successor on the middle
/// trip: the loads share Ecache frames with `far`'s Icache miss fills, and
/// their reads fall between `far`'s first fetches, so the order of the two
/// decides hits, misses and stalls. By the middle trip the loop's own
/// code is resident (its visit books in bulk) while `far` is still cold.
/// The prologue ends in three loads, the most a block can owe its
/// successor.
/// `far_head` opens `far`; `shadow` follows the final `halt`.
fn aliasing_program(far_head: &str, shadow: &str) -> Program {
    assemble(&format!(
        "
        .entry main
main:   li r20, 0x4000
        add r20, r20, r20
        add r20, r20, r20       ; r20 = 0x10000, the board Ecache's span
        li r1, 3
        li r9, 1
        ld r10, 0x300(r20)      ; three tail loads owe their reads to loop
        ld r11, 0x301(r20)
        ld r12, 0x302(r20)
loop:   addi r1, r1, -1
        nop
        beq r1, r9, far
        ld r5, 0x200(r20)       ; window loads alias far's Ecache frames
        ld r6, 0x202(r20)
        bne r1, r0, loop
        ld r7, 0x204(r20)
        ld r8, 0x206(r20)
        halt
        {shadow}
        nop
        nop
        nop
        nop
        .org 0x200
far:    {far_head}
        addi r2, r2, 1
        addi r3, r3, 1
        beq r0, r0, loop
        nop
        nop
"
    ))
    .expect("assembles")
}

/// Run an aliasing program in lockstep on every configuration that drives
/// the caches, with two delay slots and with one; returns the outcome and
/// the engine of the two-slot board run.
fn aliasing_lockstep(far_head: &str, shadow: &str) -> (Result<RunStats, String>, BlockEngine) {
    let program = aliasing_program(far_head, shadow);
    let mut board = None;
    for slots in [2, 1] {
        let scheme = BranchScheme::table1()
            .into_iter()
            .find(|s| s.slots == slots)
            .expect("Table 1 has both slot counts");
        for (name, base) in configs().into_iter().filter(|(_, c)| drives_caches(c)) {
            let label = format!("{name}, {slots} slots: far `{far_head}`, shadow `{shadow}`");
            let mut interp = machine_on(base, &scheme);
            interp.load_program(&program);
            let r1 = interp.run(BUDGET).map_err(|e| e.to_string());
            let mut fast = machine_on(base, &scheme);
            fast.load_program(&program);
            let mut engine = BlockEngine::new(&program, &fast);
            let r2 = engine.run(&mut fast, BUDGET).map_err(|e| e.to_string());
            assert_eq!(r1, r2, "{label}: outcome diverged");
            if r1.is_ok() {
                assert_same_run(&interp, &fast, &label);
            } else {
                // A run error is final, and the engine has already retired
                // the instructions still draining when the stepper faults;
                // the clock and the caches must agree all the same.
                assert_eq!(interp.stats().cycles, fast.stats().cycles, "{label}");
                assert_eq!(interp.stats().frozen_cycles, fast.stats().frozen_cycles);
                assert_eq!(
                    interp.ecache().snapshot_state(),
                    fast.ecache().snapshot_state(),
                    "{label}: Ecache diverged"
                );
                assert_eq!(
                    interp.icache().snapshot_state(),
                    fast.icache().snapshot_state(),
                    "{label}: Icache diverged"
                );
            }
            assert!(engine.stats().block_visits > 0, "{label}: never ran fast");
            if name == "board" && slots == 2 {
                assert!(
                    fast.ecache().stats().conflict_misses > 0,
                    "{label}: the window loads must evict far's code frames"
                );
                board = Some((r2, engine));
            }
        }
    }
    board.expect("board row")
}

#[test]
fn window_loads_aliasing_the_successor_fill_stay_in_order() {
    let (r, engine) = aliasing_lockstep("", "nop");
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(
        engine.stats().total_fallbacks(),
        0,
        "the whole run is fast: {:?}",
        engine.stats().fallback_breakdown()
    );
}

/// A demotion right after a block whose window loads still owe the Ecache
/// their reads: the stepper's refill must take them at their own cycles.
#[test]
fn demotions_after_tail_loads_replay_the_owed_reads() {
    let cause = |e: &BlockEngine, c: FallbackCause| e.stats().fallback_exits[c.index()];

    // The successor holds a fallback op (a PC-chain read).
    let (r, engine) = aliasing_lockstep("movfrs r7, pc0", "nop");
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(cause(&engine, FallbackCause::FallbackOp), 1);

    // The final `halt` has a store in its shadow.
    let (r, engine) = aliasing_lockstep("", "st r0, 0(r0)");
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(cause(&engine, FallbackCause::HaltShadow), 1);

    // The successor's head is an illegal word: it faults in ALU before
    // the last owed load reaches MEM.
    let (r, engine) = aliasing_lockstep(".word 0xffffffff", "nop");
    assert!(r.as_ref().is_err_and(|e| e.contains("illegal")), "{r:?}");
    assert_eq!(cause(&engine, FallbackCause::FallbackOp), 1);
}

/// Loads deep in one long block, past fetch offsets 255 and 65,535 with
/// nops (which compile to nothing) around them, owe their Ecache reads at
/// their own fetch offsets. Each reads the code word four fetches past it
/// on the board, in the cycle before that word's Icache miss fills it: the
/// read misses and the fill hits. A read one position late would turn it
/// round, and the two stalls are booked to different causes.
#[test]
fn loads_deep_in_a_long_block_owe_their_reads_at_their_own_fetch_offsets() {
    const BASE: i32 = 65_535;
    let loads = [4u32, 300, 70_000];
    let mut words = vec![Instr::Nop.encode(); 70_010];
    words[0] = Instr::Addi {
        rs1: Reg::ZERO,
        rd: Reg::new(20),
        imm: BASE,
    }
    .encode();
    for (k, &at) in loads.iter().enumerate() {
        words[at as usize] = Instr::Ld {
            rs1: Reg::new(20),
            rd: Reg::new(k as u8 + 1),
            offset: (at + 4) as i32 - BASE,
        }
        .encode();
    }
    words.push(Instr::Halt.encode());
    words.extend([Instr::Nop.encode(); 5]);
    let program = Program::from_words(0, words);
    let scheme = BranchScheme::table1()[0];
    let (fast, engine) = lockstep_on(MachineConfig::mipsx(), &program, &scheme, "long block");
    assert_eq!(engine.stats().total_fallbacks(), 0, "the block runs fast");
    assert_eq!(engine.stats().block_visits, 1);
    for (k, &at) in loads.iter().enumerate() {
        assert_eq!(
            fast.cpu().reg(Reg::new(k as u8 + 1)),
            Instr::Nop.encode(),
            "the load at {at} reads the code word four past it"
        );
    }
}

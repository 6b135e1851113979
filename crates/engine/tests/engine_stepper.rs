//! Engine ≡ stepper as a property: on random synthetic programs under a
//! random Table 1 scheme, and on random soak programs (every compute, MD
//! step chains, `r0` destinations), on a random board organization with
//! either cache possibly disabled, and at random cycle budgets, a
//! block-engine run leaves the machine exactly as a stepper run does —
//! books, registers and the state of both caches.

use mipsx_asm::{assemble, Program};
use mipsx_core::{InterlockPolicy, Machine, MachineConfig, RunError, RunStats};
use mipsx_engine::{drives_caches, BlockEngine};
use mipsx_isa::{Instr, Reg};
use mipsx_mem::{EcacheConfig, IcacheConfig, Replacement};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_verify::{TimingAnalysis, VerifyConfig};
use mipsx_workloads::random_scheduled_program;
use mipsx_workloads::synth::{generate, SynthConfig};

/// Cases the property runs; each derives everything from its own seed.
const CASES: u64 = 2_000;
/// A case with both caches off and a block that ends in three loads also
/// runs to every cap up to its end if its whole run takes at most this many
/// cycles.
const SWEEP_CYCLES: u64 = 1_000;
/// The budget of an unbounded run, and of every resumed one.
const BUDGET: u64 = 5_000_000;

/// SplitMix64: one case's knobs from its seed.
struct Knobs(u64);

impl Knobs {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.next() as usize % from.len()]
    }

    /// A probability in hundredths.
    fn chance(&mut self) -> f64 {
        self.range(0, 100) as f64 / 100.0
    }
}

/// One case: a program, a board organization and a budget (30 % of cases
/// cap the run at 50 to 5,000 cycles), with a label that rebuilds it. The
/// program is a synthetic one reorganized under a random Table 1 scheme,
/// or, in one case of four, a soak program, scheduled for two slots. One
/// case in ten disables the Icache, one the Ecache, one both.
fn case(seed: u64) -> (Program, MachineConfig, u64, String) {
    let mut k = Knobs(seed);
    let synth = SynthConfig {
        seed: k.next(),
        loops: k.range(1, 6) as usize,
        blocks_per_loop: k.range(1, 4) as usize,
        mean_block_len: k.range(1, 5) as usize,
        trip_count: k.range(1, 8) as u32,
        outer_trips: k.range(1, 3) as u32,
        p_forward_branch: k.chance(),
        p_filler_tail: k.chance(),
        load_chain_density: k.chance(),
        call_density: k.chance(),
        p_tail_load: k.chance(),
    };
    let scheme = k.pick(&BranchScheme::table1());
    let icache = IcacheConfig {
        rows: k.pick(&[1, 2, 4, 8]),
        ways: k.range(1, 8) as u32,
        block_words: k.pick(&[2, 4, 8, 16, 32]),
        fetch_words: k.range(1, 2) as u32,
        miss_penalty: k.range(1, 4) as u32,
        replacement: k.pick(&[Replacement::Fifo, Replacement::Lru, Replacement::Random]),
        enabled: true,
        whole_block_fill: k.range(0, 3) == 0,
    };
    let ecache = EcacheConfig {
        size_words: 64 << k.range(0, 10),
        block_words: k.pick(&[1, 2, 4]),
        late_miss_overhead: k.range(0, 2) as u32,
        enabled: true,
    };
    let mut cfg = MachineConfig {
        icache,
        ecache,
        mem_latency: k.range(1, 11) as u32,
        branch_delay_slots: scheme.slots,
        interlock: InterlockPolicy::Detect,
        ..MachineConfig::mipsx()
    };
    let budget = if k.range(0, 9) < 3 {
        k.range(50, 5_000)
    } else {
        BUDGET
    };
    // Later axes are drawn last, so a case's earlier knobs do not depend
    // on them.
    match k.range(0, 9) {
        0 => cfg.icache.enabled = false,
        1 => cfg.ecache.enabled = false,
        2 => (cfg.icache.enabled, cfg.ecache.enabled) = (false, false),
        _ => {}
    }
    let soak_seed = (k.range(0, 3) == 0).then(|| k.next());
    let (program, source) = match soak_seed {
        Some(mut soak) => {
            cfg.branch_delay_slots = 2;
            // With both caches off, a soak program with a block that owes
            // its successor three reads, for the every-cap sweep.
            while !cfg.icache.enabled
                && !cfg.ecache.enabled
                && !owes_three_reads(&random_scheduled_program(soak), &cfg)
            {
                soak = soak.wrapping_add(1);
            }
            (
                random_scheduled_program(soak),
                format!("soak program {soak}"),
            )
        }
        None => {
            let label = format!("{synth:?}, {scheme}");
            let program = Reorganizer::new(scheme)
                .reorganize(&generate(synth).raw)
                .unwrap_or_else(|e| panic!("{label}: reorganization failed: {e:?}"))
                .0;
            (program, label)
        }
    };
    let label = format!("case seed {seed:#x} ({source}, {cfg:?}, budget {budget})");
    (program, cfg, budget, label)
}

/// Whether a block of `program` ends in three loads, whose Ecache reads
/// its successor's visit owes.
fn owes_three_reads(program: &Program, cfg: &MachineConfig) -> bool {
    let vcfg = VerifyConfig {
        branch_delay_slots: cfg.branch_delay_slots,
    };
    let ta = TimingAnalysis::of(program, &vcfg);
    ta.blocks.iter().any(|b| {
        b.len >= 3
            && (1..=3).all(|k| {
                ta.image()
                    .instr_at(b.start + b.len - k)
                    .is_some_and(|i| i.is_load())
            })
    })
}

/// The run's outcome, with a budget stop as its limit.
fn outcome(r: Result<RunStats, RunError>) -> Result<RunStats, String> {
    r.map_err(|e| e.to_string())
}

/// Both machines hold the same run: books, registers, PC, MD, halt
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
    assert_eq!(interp.halted(), fast.halted(), "{label}: halt diverged");
    if !drives_caches(interp.config()) {
        return;
    }
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

/// The block engine books what the stepper books on random boards. A
/// case that stops at its budget resumes both machines to the end and
/// compares again. A case with both caches off, where every fetch and read
/// costs the most it can, and a block that owes its successor three reads
/// also stops at every cap up to its end: there the engine's cost bound
/// for a visit is tight. A failing case names its seed; `case(seed)`
/// rebuilds it alone.
#[test]
fn block_engine_books_what_the_stepper_books_on_random_boards() {
    let (mut fast_cycles, mut capped, mut swept) = (0u64, 0u64, 0u64);
    // Fast cycles on soak programs and with a cache disabled.
    let (mut soak_fast, mut disabled_fast) = (0u64, 0u64);
    for n in 0..CASES {
        let seed = Knobs(n).next();
        let (program, cfg, budget, label) = case(seed);

        let mut interp = Machine::new(cfg);
        interp.load_program(&program);
        let mut fast = Machine::new(cfg);
        fast.load_program(&program);
        let mut engine = BlockEngine::new(&program, &fast);

        let r1 = outcome(interp.run(budget));
        let r2 = outcome(engine.run(&mut fast, budget));
        assert_eq!(r1, r2, "{label}: outcome diverged");
        assert_same_run(&interp, &fast, &label);
        if r1.is_err() {
            capped += 1;
            let r1 = outcome(interp.run(BUDGET));
            let r2 = outcome(engine.run(&mut fast, BUDGET));
            assert_eq!(r1, r2, "{label}: resumed outcome diverged");
            assert_same_run(&interp, &fast, &format!("{label}, resumed"));
        }
        let full = interp.stats().cycles;
        let caches_off = !cfg.icache.enabled && !cfg.ecache.enabled;
        if caches_off && interp.halted() && full <= SWEEP_CYCLES && owes_three_reads(&program, &cfg)
        {
            swept += 1;
            // The stepper one cycle at a time, the engine from reset to
            // each cap.
            let mut stepper = Machine::new(cfg);
            stepper.load_program(&program);
            for cap in 1..=full {
                let label = format!("{label}, cap {cap}");
                let r1 = stepper.run(1);
                let mut fast = Machine::new(cfg);
                fast.load_program(&program);
                let r2 = engine.clone_template().run(&mut fast, cap);
                assert_eq!(r1.is_ok(), r2.is_ok(), "{label}: outcome diverged");
                assert_same_run(&stepper, &fast, &label);
            }
        }
        let fast = engine.stats().fast_cycles;
        fast_cycles += fast;
        if label.contains("soak program") {
            soak_fast += fast;
        }
        if !cfg.icache.enabled || !cfg.ecache.enabled {
            disabled_fast += fast;
        }
    }
    // The property proves nothing about the fast path unless it runs, on
    // each program source and with a cache disabled, and nothing about
    // budgets unless some stop at theirs.
    assert!(fast_cycles > 0, "the fast path never ran");
    assert!(soak_fast > 0, "the fast path never ran a soak program");
    assert!(
        disabled_fast > 0,
        "the fast path never ran with a cache off"
    );
    assert!(
        capped > CASES / 10,
        "only {capped} cases stopped at their budget"
    );
    assert!(swept >= 5, "only {swept} cases ran to every cap");
}

/// A self-modifying store that renumbers the blocks: `main` overwrites
/// the branch in `mid` with a nop before `mid` first runs, so the
/// recompiled image merges `mid` with the `halt` after it and `next`, the
/// statically known successor of `main`, moves from index 3 to 2 (where
/// `tail` was). The engine must book `main`'s visit before the recompile
/// drops the counts of the old blocks, and look `next` up by PC after it,
/// not run the old index; both machines must end as the stepper's does,
/// on a configuration that skips the caches and on the board.
#[test]
fn a_recompile_that_renumbers_blocks_books_and_dispatches_exactly() {
    let program = assemble(
        "
        .entry main
main:   li r4, site
        st r2, 0(r4)            ; r2 holds a nop: `site` becomes a nop
        nop
        nop
        beq r0, r0, next
        nop
        nop
mid:    addi r5, r5, 1
site:   beq r5, r0, mid
        nop
        nop
        halt
next:   addi r3, r3, 1
        beq r0, r0, tail
        nop
        nop
tail:   addi r6, r6, 1
        beq r0, r0, mid
        nop
        nop
",
    )
    .expect("assembles");
    for cfg in [MachineConfig::cache_ideal(), MachineConfig::mipsx()] {
        let load = || {
            let mut m = Machine::new(cfg);
            m.load_program(&program);
            m.cpu_mut().set_reg(Reg::new(2), Instr::Nop.encode());
            m
        };
        let mut interp = load();
        let r1 = outcome(interp.run(BUDGET));
        let mut fast = load();
        let mut engine = BlockEngine::new(&program, &fast);
        let r2 = outcome(engine.run(&mut fast, BUDGET));
        let label = format!("{cfg:?}");
        assert_eq!(r1, r2, "{label}: outcome diverged");
        assert_same_run(&interp, &fast, &label);
        assert_eq!(fast.cpu().reg(Reg::new(3)), 1, "{label}: `next` ran once");
        assert_eq!(engine.stats().recompiles, 1, "{label}");
        assert!(engine.stats().block_visits > 1, "{label}: ran fast");
    }
}

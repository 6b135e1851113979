//! Headline correctness for the static timing analyzer: for fault-free
//! execution on the cache-ideal configuration, the per-block dynamic stall
//! attributor must match the static prediction **exactly** — drains,
//! squashes, nop retires, branch outcomes, stall buckets, and total
//! cycles, per block, and the books of the per-outcome deltas the block
//! engine books against `RunStats`. It holds for every kernel × all six
//! Table 1 branch schemes, for random scheduled programs, and for synth
//! programs under all six schemes. Any drift in the analyzer, the shared
//! booking rule or the pipeline model fails this test.

use mipsx_asm::Program;
use mipsx_core::probe::NullSink;
use mipsx_core::{Machine, MachineConfig};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_verify::{differential, BlockAttribution, TimingAnalysis, VerifyConfig};
use mipsx_workloads::{all_kernels, random_scheduled_program, synth, SynthConfig};

const BUDGET: u64 = 5_000_000;

/// Run `program`, scheduled for `slots`, on the cache-ideal machine and
/// hold it to the differential. Returns `false`, having checked nothing,
/// when the partition is irregular (no static per-visit claim holds).
fn check_differential(label: &str, program: &Program, slots: usize) -> bool {
    let ta = TimingAnalysis::of(program, &VerifyConfig::for_slots(slots));
    if ta.irregular || ta.blocks.iter().any(|b| b.irregular) {
        return false;
    }
    let cfg = MachineConfig {
        branch_delay_slots: slots,
        ..MachineConfig::cache_ideal()
    };
    let mut machine = Machine::new(cfg);
    machine.load_program(program);
    let mut attrib = BlockAttribution::new(&ta);
    let stats = machine
        .run_with(BUDGET, &mut attrib)
        .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));

    let errs = differential(&ta, &attrib, &stats);
    assert!(
        errs.is_empty(),
        "{label}: static/dynamic mismatch:\n  {}",
        errs.join("\n  ")
    );

    // The per-block cost model is a true per-visit lower bound: plugging
    // the *measured* visit counts into the static formula (best-case
    // outcomes) can never exceed the measured cycles-per-useful
    // instruction, because actual wasted slots >= best-case wasted slots
    // on every visit. (The headline `static_cpi_bound()` uses loop-nest
    // weights instead of visit counts, so it is an estimate, not an
    // inequality — see DESIGN.md.)
    let costs = ta.cost_table();
    let (mut cyc, mut useful) = (0u64, 0u64);
    for (c, d) in costs.iter().zip(&attrib.blocks) {
        let b = &ta.blocks[c.index];
        cyc += d.visits * u64::from(b.len);
        useful += d.visits * u64::from(b.len - c.best_wasted);
    }
    let visit_bound = cyc as f64 / useful.max(1) as f64;
    let measured_useful = stats.cycles as f64 / (stats.instructions - stats.nops).max(1) as f64;
    assert!(
        visit_bound <= measured_useful + 1e-9,
        "{label}: visit-weighted bound {visit_bound:.4} exceeds measured useful CPI \
         {measured_useful:.4}"
    );
    assert!(
        ta.static_cpi_bound() >= 1.0,
        "{label}: static CPI bound below 1.0"
    );
    true
}

/// `raw` scheduled under `scheme`, with its label.
fn schedule(name: &str, raw: &mipsx_reorg::RawProgram, scheme: BranchScheme) -> (String, Program) {
    let label = format!("{name} / {scheme}");
    let (program, _) = Reorganizer::new(scheme)
        .reorganize(raw)
        .unwrap_or_else(|e| panic!("{label}: reorganize failed: {e}"));
    (label, program)
}

#[test]
fn static_model_matches_dynamic_exactly_for_all_kernels_and_schemes() {
    for kernel in all_kernels() {
        for scheme in BranchScheme::table1() {
            let (label, program) = schedule(kernel.name, &kernel.raw, scheme);
            assert!(
                check_differential(&label, &program, scheme.slots),
                "{label}: kernel produced an irregular partition — exact model unavailable"
            );
        }
    }
}

/// The same identities beyond the kernels: random scheduled programs
/// (2-slot), whose blocks the block engine demotes for their own reasons,
/// and synth programs under all six schemes.
#[test]
fn static_model_matches_dynamic_exactly_beyond_the_kernels() {
    let mut regular = 0;
    for seed in 0..200 {
        let program = random_scheduled_program(seed);
        regular += usize::from(check_differential(&format!("random {seed}"), &program, 2));
    }
    for (profile, config) in [
        ("pascal", SynthConfig::pascal_like as fn(u64) -> SynthConfig),
        ("lisp", SynthConfig::lisp_like),
        ("tiny", SynthConfig::tiny),
    ] {
        for seed in 1..=8 {
            let raw = synth::generate(config(seed)).raw;
            for scheme in BranchScheme::table1() {
                let (label, program) = schedule(&format!("synth:{profile}:{seed}"), &raw, scheme);
                regular += usize::from(check_differential(&label, &program, scheme.slots));
            }
        }
    }
    assert!(regular >= 300, "only {regular} of 344 cells were regular");
}

/// The cache-ideal config really is stall-free: a plain default-config run
/// of the same program shows frozen cycles, proving the differential's
/// zero-stall claim is a property of the config, not of the workload.
#[test]
fn default_config_is_not_cache_ideal() {
    let kernel = all_kernels().first().expect("kernels exist").clone();
    let (program, _) = Reorganizer::new(BranchScheme::mipsx())
        .reorganize(&kernel.raw)
        .expect("schedulable");
    let mut machine = Machine::new(MachineConfig::default());
    machine.load_program(&program);
    let stats = machine.run_with(BUDGET, &mut NullSink).expect("runs");
    assert!(
        stats.frozen_cycles > 0,
        "default config should take cache misses on {}",
        kernel.name
    );
}

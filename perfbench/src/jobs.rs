//! Simulation jobs: generated programs, each scheduled under branch
//! schemes and run to halt on a pooled machine whose caches start empty.
//!
//! `board_pipeline` and `ideal_block` run seed-generated jobs on the block
//! engine; `paper_tables` uses the same code to rebuild, untimed, the
//! pipeline jobs its E1 and E11 sweeps simulate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mipsx_asm::Program;
use mipsx_bench::Row;
use mipsx_core::{InterlockPolicy, Machine, MachineConfig, RunStats};
use mipsx_engine::{BlockEngine, FallbackCause};
use mipsx_exec::{AnyBackend, BlockBackend, EngineKind, ExecBackend, Stepper};
use mipsx_explore::key::fnv1a_words;
use mipsx_explore::{SweepSpec, Workload};
use mipsx_mem::CacheStats;
use mipsx_reorg::{BranchScheme, RawProgram, Reorganizer};
use mipsx_workloads::streaming;
use mipsx_workloads::synth::{generate, SynthConfig};

use crate::measure::{span, Gate, Spans, SplitMix};

/// Cycle budget per job; every job halts long before it.
pub const MAX_CYCLES: u64 = 500_000_000;

/// Synthetic programs per profile in a seeded job set.
const SYNTH_PER_PROFILE: usize = 3;
/// Inner loops per synthetic program: about 1,100–1,300 words of code,
/// past the 512-word Icache.
const SYNTH_LOOPS: usize = 40;
/// Outer repetitions of a synthetic program's loop sequence.
const SYNTH_OUTER_TRIPS: u32 = 16;
/// Streaming data set: 60,000 words plus up to 4,095 from the seed. It
/// starts at word 8192, so its tail wraps past the 64K-word Ecache and
/// aliases the frames the code occupies.
const STREAM_WORDS: u32 = 60_000;
/// Passes over the streaming data set.
const STREAM_REPS: u32 = 2;

/// How a source program is generated.
pub enum Gen {
    /// A calibrated synthetic program.
    Synth(SynthConfig),
    /// A read-modify-write stream over `words` words, `reps` times.
    Stream { words: u32, reps: u32 },
}

impl Gen {
    /// The unscheduled program.
    pub fn generate(&self) -> RawProgram {
        match *self {
            Gen::Synth(cfg) => generate(cfg).raw,
            Gen::Stream { words, reps } => streaming(words, reps),
        }
    }
}

/// One generated program and the (scheme, machine) pairs it runs under.
pub struct Source {
    pub label: String,
    pub gen: Gen,
    pub targets: Vec<(BranchScheme, MachineConfig)>,
}

/// The seeded job set: Pascal-like and Lisp-like programs plus one stream,
/// each under the six Table 1 schemes on `base`.
pub fn seeded_sources(seed: u64, base: MachineConfig) -> Vec<Source> {
    let targets: Vec<_> = BranchScheme::table1()
        .into_iter()
        .map(|s| (s, base))
        .collect();
    let mut rng = SplitMix(seed);
    let mut sources = Vec::new();
    for _ in 0..SYNTH_PER_PROFILE {
        for (profile, make) in [
            ("pascal", SynthConfig::pascal_like as fn(u64) -> SynthConfig),
            ("lisp", SynthConfig::lisp_like),
        ] {
            let s = rng.next_u64();
            sources.push(Source {
                label: format!("{profile}:{s:016x}"),
                gen: Gen::Synth(make(s).with_code_scale(SYNTH_LOOPS, SYNTH_OUTER_TRIPS)),
                targets: targets.clone(),
            });
        }
    }
    let words = STREAM_WORDS + (rng.next_u64() % 4096) as u32;
    sources.push(Source {
        label: format!("stream:{words}x{STREAM_REPS}"),
        gen: Gen::Stream {
            words,
            reps: STREAM_REPS,
        },
        targets,
    });
    sources
}

/// The pipeline jobs of sweep specs, grouped by workload in expansion order.
pub fn sweep_sources(specs: &[SweepSpec]) -> Result<Vec<Source>, String> {
    let mut sources: Vec<Source> = Vec::new();
    for spec in specs {
        for job in spec.expand().map_err(|e| e.to_string())? {
            let label = job.workload.id();
            let target = (job.point.scheme, job.point.cfg);
            if let Some(s) = sources.iter_mut().find(|s| s.label == label) {
                s.targets.push(target);
                continue;
            }
            let gen = match job.workload {
                Workload::Synth { profile, seed } => Gen::Synth(match profile.as_str() {
                    "pascal" => SynthConfig::pascal_like(seed),
                    "lisp" => SynthConfig::lisp_like(seed),
                    other => return Err(format!("unexpected synth profile {other}")),
                }),
                Workload::Stream { words, reps } => Gen::Stream { words, reps },
                other => return Err(format!("unexpected sweep workload {}", other.id())),
            };
            sources.push(Source {
                label,
                gen,
                targets: vec![target],
            });
        }
    }
    Ok(sources)
}

/// A scheduled program ready to run, with its compiled block-engine
/// template when it runs on the block engine.
pub struct Job {
    pub label: String,
    pub program: Program,
    pub cfg: MachineConfig,
    pub template: Option<BlockEngine>,
}

/// Generate, reorganize and (for the block engine) compile every job.
pub fn prepare(sources: &[Source], engine: EngineKind) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for src in sources {
        let raw = src.gen.generate();
        for (i, &(scheme, base)) in src.targets.iter().enumerate() {
            let (program, _) = Reorganizer::new(scheme)
                .reorganize(&raw)
                .map_err(|e| format!("{}: reorganize under {scheme}: {e}", src.label))?;
            let cfg = MachineConfig {
                branch_delay_slots: scheme.slots,
                interlock: InterlockPolicy::Detect,
                ..base
            };
            let template =
                (engine == EngineKind::Block).then(|| BlockEngine::from_program(&program, &cfg));
            jobs.push(Job {
                label: format!("{}/{i}", src.label),
                program,
                cfg,
                template,
            });
        }
    }
    Ok(jobs)
}

/// What a job must reproduce exactly: the run's books, both caches'
/// statistics and the final register file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub stats: RunStats,
    pub icache: CacheStats,
    pub ecache: CacheStats,
    pub regs: [u32; 32],
}

impl Outcome {
    /// The pinned form: the counters by name, and a digest of the registers.
    pub fn pin(&self) -> String {
        let (s, i, e) = (&self.stats, &self.icache, &self.ecache);
        format!(
            "cycles={} instructions={} nops={} squashed={} branches={} taken={} \
             slot_nops={} slot_squashed={} loads={} stores={} icache_stall={} \
             ecache_stall={} frozen={} icache={}/{}/{} ecache={}/{}/{} regs={:016x}",
            s.cycles,
            s.instructions,
            s.nops,
            s.squashed,
            s.branches,
            s.branches_taken,
            s.branch_slot_nops,
            s.branch_slot_squashed,
            s.loads,
            s.stores,
            s.icache_stall_cycles,
            s.ecache_stall_cycles,
            s.frozen_cycles,
            i.accesses,
            i.misses,
            i.stall_cycles,
            e.accesses,
            e.misses,
            e.stall_cycles,
            fnv1a_words(self.regs)
        )
    }
}

/// Sums over one pass.
#[derive(Default)]
pub struct Totals {
    /// Host time of the whole pass (reset, load, run and checks).
    pub wall_ns: u64,
    /// Host time inside the backends' `run` calls.
    pub run_ns: u64,
    /// Guest cycles simulated.
    pub cycles: u64,
    /// Guest cycles the block engine accounted on its fast path.
    pub fast_cycles: u64,
    /// Guest cycles run under the block engine (fast path or not).
    pub engine_cycles: u64,
    /// Block-engine demotions to the stepper, by cause.
    pub fallbacks: [u64; FallbackCause::ALL.len()],
}

impl Totals {
    /// Add another pass's sums.
    pub fn add(&mut self, other: &Totals) {
        self.wall_ns += other.wall_ns;
        self.run_ns += other.run_ns;
        self.cycles += other.cycles;
        self.fast_cycles += other.fast_cycles;
        self.engine_cycles += other.engine_cycles;
        for (a, b) in self.fallbacks.iter_mut().zip(other.fallbacks) {
            *a += b;
        }
    }
}

/// Run one job to halt on `m`, which is reset first so its caches start
/// empty.
fn run_job(
    m: &mut Machine,
    job: &Job,
    engine: EngineKind,
    totals: &mut Totals,
    spans: &mut Option<&mut Spans>,
) -> Result<Outcome, String> {
    let start = Instant::now();
    m.reset_with(job.cfg);
    span(spans, "core.reset", start);
    let start = Instant::now();
    m.load_program(&job.program);
    span(spans, "core.load", start);
    let start = Instant::now();
    let mut backend = match (&job.template, engine) {
        (Some(t), EngineKind::Block) => {
            AnyBackend::Block(BlockBackend::from_engine(t.clone_template()))
        }
        (_, EngineKind::Interp) => AnyBackend::Interp(Stepper),
        _ => return Err(format!("{}: no backend for {engine}", job.label)),
    };
    span(spans, "engine.clone_template", start);
    let start = Instant::now();
    let stats = backend.run(m, MAX_CYCLES);
    totals.run_ns += start.elapsed().as_nanos() as u64;
    span(spans, "exec.run", start);
    let stats = stats.map_err(|e| format!("{}: {e}", job.label))?;
    backend
        .final_check(m)
        .map_err(|e| format!("{}: {e}", job.label))?;
    totals.cycles += stats.cycles;
    if let Some(es) = backend.engine_stats() {
        totals.engine_cycles += stats.cycles;
        totals.fast_cycles += es.fast_cycles;
        for (t, n) in totals.fallbacks.iter_mut().zip(es.fallback_exits) {
            *t += n;
        }
    }
    Ok(Outcome {
        stats,
        icache: *m.icache().stats(),
        ecache: *m.ecache().stats(),
        regs: m.cpu().regs_snapshot(),
    })
}

/// Run every job once, serially, on `engine`. Each job's result is its
/// outcome or why it failed (an error or a panic).
pub fn pass(
    m: &mut Machine,
    jobs: &[Job],
    engine: EngineKind,
    mut spans: Option<&mut Spans>,
) -> (Totals, Vec<Result<Outcome, String>>) {
    let mut totals = Totals::default();
    let start = Instant::now();
    let results = jobs
        .iter()
        .map(|job| {
            catch_unwind(AssertUnwindSafe(|| {
                run_job(m, job, engine, &mut totals, &mut spans)
            }))
            .unwrap_or_else(|_| Err(format!("{}: panicked", job.label)))
        })
        .collect();
    totals.wall_ns = start.elapsed().as_nanos() as u64;
    (totals, results)
}

/// Table 1 as the synthetic jobs of `sources` measure it: cycles per branch
/// per scheme, merged over the programs, beside the paper's value.
/// `outcomes` are in job order (sources × targets).
pub fn table1_rows(sources: &[Source], outcomes: &[Outcome]) -> Vec<Row> {
    let schemes = BranchScheme::table1();
    let mut merged = vec![RunStats::default(); schemes.len()];
    let mut next = outcomes.iter();
    for src in sources {
        for &(scheme, _) in &src.targets {
            let o = next.next().expect("one outcome per job");
            if let (Gen::Synth(_), Some(i)) = (&src.gen, schemes.iter().position(|&s| s == scheme))
            {
                merged[i].merge(&o.stats);
            }
        }
    }
    schemes
        .iter()
        .zip(merged)
        .map(|(s, m)| Row {
            label: s.to_string(),
            paper: Some(s.paper_cycles_per_branch()),
            measured: m.cycles_per_branch(),
        })
        .collect()
}

/// Count each job of a set-up pass against the gate: it fails unless it
/// ran and is cycle-identical to the stepper (same books, same final
/// registers). Returns the outcomes every later pass must repeat exactly,
/// cache statistics included: the block engine does not drive the cache
/// models on its fast path, so those may differ from the stepper's.
pub fn check_identity(
    jobs: &[Job],
    got: Vec<Result<Outcome, String>>,
    stepper: &[Outcome],
    gate: &mut Gate,
) -> Vec<Outcome> {
    jobs.iter()
        .zip(got)
        .zip(stepper)
        .map(|((job, got), s)| match got {
            Ok(o) if o.stats == s.stats && o.regs == s.regs => {
                gate.check(None);
                o
            }
            other => {
                gate.check(Some(match other {
                    Err(e) => e,
                    Ok(_) => format!("{}: not cycle-identical to the stepper", job.label),
                }));
                Outcome::default()
            }
        })
        .collect()
}

/// Count each job of a pass against the gate: it fails unless it ran and
/// repeats `expected` exactly.
pub fn check(jobs: &[Job], got: &[Result<Outcome, String>], expected: &[Outcome], gate: &mut Gate) {
    for ((job, got), want) in jobs.iter().zip(got).zip(expected) {
        gate.check(match got {
            Err(e) => Some(e.clone()),
            Ok(o) if o != want => Some(format!("{}: differs from its set-up run", job.label)),
            Ok(_) => None,
        });
    }
}

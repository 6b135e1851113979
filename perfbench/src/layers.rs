//! Per-layer probes for the traced run: each times calls into one crate's
//! public functions on the workload's own inputs, repeated `REPS` times,
//! and reports the median.

use std::hint::black_box;
use std::time::Instant;

use mipsx_asm::{DecodedMem, Program};
use mipsx_bench::experiments as e;
use mipsx_core::{Machine, MachineConfig, Stage, TraceSink};
use mipsx_engine::BlockEngine;
use mipsx_exec::EngineKind;
use mipsx_explore::ImageCache;
use mipsx_isa::Instr;
use mipsx_mem::{Ecache, FetchOutcome, Icache, IcacheConfig, MainMemory};
use mipsx_reorg::Reorganizer;
use mipsx_telemetry::Telemetry;
use mipsx_verify::{TimingAnalysis, VerifyConfig};
use mipsx_workloads::traces::{instruction_trace, TraceConfig};

use crate::jobs::{self, Gen, Job, Source, MAX_CYCLES};
use crate::measure::{median, Metrics};

/// Repetitions of each probe.
const REPS: usize = 3;
/// Longest instruction-fetch stream kept for the fetch probes.
const FETCH_STREAM_CAP: usize = 2_000_000;

/// Median over `REPS` runs of `f`.
fn repeat(mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..REPS).map(|_| f()).collect::<Vec<_>>())
}

/// Milliseconds per call of `f` over `items`.
fn ms_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for item in items {
        f(item);
    }
    start.elapsed().as_secs_f64() * 1e3 / items.len() as f64
}

/// Records the address of every instruction that enters IF.
struct FetchLog(Vec<u32>);

impl TraceSink for FetchLog {
    fn stage(&mut self, _cycle: u64, stage: Stage, pc: u32, _instr: Instr, _killed: bool) {
        if stage == Stage::If && self.0.len() < FETCH_STREAM_CAP {
            self.0.push(pc);
        }
    }
}

/// The instruction-fetch stream of `job` on the stepper.
fn fetch_stream(job: &Job) -> Vec<u32> {
    let mut m = Machine::new(job.cfg);
    m.load_program(&job.program);
    let mut log = FetchLog(Vec::new());
    // The stream is complete whether or not the run halts within budget.
    let _ = m.run_with(MAX_CYCLES, &mut log);
    log.0
}

fn word_at(program: &Program, pc: u32) -> u32 {
    pc.checked_sub(program.origin)
        .and_then(|i| program.words.get(i as usize))
        .copied()
        .unwrap_or(0)
}

/// Host ns per guest cycle of `jobs` on `engine`.
fn ns_per_cycle(jobs: &[Job], engine: EngineKind) -> f64 {
    let mut m = Machine::new(jobs[0].cfg);
    let (totals, _) = jobs::pass(&mut m, jobs, engine, None);
    totals.run_ns as f64 / totals.cycles as f64
}

/// Every per-layer probe on the workload's `sources` and prepared `jobs`;
/// `trace_seeds` pick the trace-driven inputs.
pub fn probe(sources: &[Source], jobs: &[Job], trace_seeds: &[u64], out: &mut Metrics) {
    let synth: Vec<_> = sources
        .iter()
        .filter_map(|s| match s.gen {
            Gen::Synth(cfg) => Some(cfg),
            Gen::Stream { .. } => None,
        })
        .collect();
    out.set(
        "workloads.synth_gen_ms",
        repeat(|| {
            ms_per(&synth, |&cfg| {
                black_box(mipsx_workloads::synth::generate(cfg));
            })
        }),
        "ms",
    );
    out.set(
        "workloads.trace_gen_ms",
        repeat(|| {
            ms_per(trace_seeds, |&s| {
                black_box(instruction_trace(TraceConfig::medium(s)));
            })
        }),
        "ms",
    );

    let scheduled: Vec<_> = sources
        .iter()
        .flat_map(|s| {
            let raw = s.gen.generate();
            s.targets
                .iter()
                .map(move |&(scheme, _)| (raw.clone(), scheme))
        })
        .collect();
    out.set(
        "reorg.reorganize_ms",
        repeat(|| {
            ms_per(&scheduled, |(raw, scheme)| {
                black_box(Reorganizer::new(*scheme).reorganize(raw).ok());
            })
        }),
        "ms",
    );
    out.set(
        "verify.timing_analysis_ms",
        repeat(|| {
            ms_per(jobs, |j| {
                let cfg = VerifyConfig::for_slots(j.cfg.branch_delay_slots);
                black_box(TimingAnalysis::of(&j.program, &cfg));
            })
        }),
        "ms",
    );
    out.set(
        "engine.compile_ms",
        repeat(|| {
            ms_per(jobs, |j| {
                black_box(BlockEngine::from_program(&j.program, &j.cfg));
            })
        }),
        "ms",
    );

    // Block dispatch on the fast path: the same programs on cache_ideal().
    let ideal: Vec<Job> = jobs
        .iter()
        .map(|j| {
            let cfg = MachineConfig {
                branch_delay_slots: j.cfg.branch_delay_slots,
                interlock: j.cfg.interlock,
                ..MachineConfig::cache_ideal()
            };
            Job {
                label: j.label.clone(),
                program: j.program.clone(),
                cfg,
                template: Some(BlockEngine::from_program(&j.program, &cfg)),
            }
        })
        .collect();
    out.set(
        "engine.ns_per_cycle",
        repeat(|| ns_per_cycle(&ideal, EngineKind::Block)),
        "ns",
    );
    out.set(
        "core.ns_per_cycle",
        repeat(|| ns_per_cycle(jobs, EngineKind::Interp)),
        "ns",
    );

    let first = &jobs[0];
    let stream = fetch_stream(first);
    let per_fetch = |start: Instant| start.elapsed().as_secs_f64() * 1e9 / stream.len() as f64;
    out.set(
        "asm.decoded_fetch_ns",
        repeat(|| {
            let mut dm = DecodedMem::new();
            let start = Instant::now();
            for &pc in &stream {
                black_box(dm.fetch_with(pc, || word_at(&first.program, pc)));
            }
            per_fetch(start)
        }),
        "ns",
    );
    out.set(
        "mem.icache_fetch_ns",
        repeat(|| {
            let cfg = IcacheConfig::mipsx();
            let mut icache = Icache::new(cfg);
            let start = Instant::now();
            for &pc in &stream {
                if icache.fetch(pc) == FetchOutcome::Miss {
                    icache.fill(pc);
                    if cfg.fetch_words == 2 {
                        icache.fill(pc + 1);
                    }
                }
            }
            black_box(icache.stats());
            per_fetch(start)
        }),
        "ns",
    );

    let traces: Vec<Vec<u32>> = trace_seeds
        .iter()
        .map(|&s| instruction_trace(TraceConfig::medium(s)))
        .collect();
    let accesses: usize = traces.iter().map(Vec::len).sum();
    out.set(
        "mem.icache_trace_ns",
        repeat(|| {
            let start = Instant::now();
            for t in &traces {
                black_box(Icache::new(IcacheConfig::mipsx()).simulate_trace(t.iter().copied()));
            }
            start.elapsed().as_secs_f64() * 1e9 / accesses as f64
        }),
        "ns",
    );

    // The data addresses of the workload's last stream, on its Ecache
    // (`streaming` sweeps its words from word address 8192).
    let (addrs, ecfg, latency) = sources
        .iter()
        .rev()
        .find_map(|s| match s.gen {
            Gen::Stream { words, reps } => {
                let addrs: Vec<u32> = (0..reps).flat_map(|_| 8192..8192 + words).collect();
                Some((addrs, s.targets[0].1.ecache, s.targets[0].1.mem_latency))
            }
            Gen::Synth(_) => None,
        })
        .expect("every workload has a stream source");
    let ecache_ns = |write: bool| {
        repeat(|| {
            let mut ecache = Ecache::new(ecfg);
            let mut mem = MainMemory::with_latency(latency);
            let start = Instant::now();
            for &a in &addrs {
                if write {
                    black_box(ecache.write(a, a, &mut mem));
                } else {
                    black_box(ecache.read(a, &mut mem));
                }
            }
            start.elapsed().as_secs_f64() * 1e9 / addrs.len() as f64
        })
    };
    out.set("mem.ecache_read_ns", ecache_ns(false), "ns");
    out.set("mem.ecache_write_ns", ecache_ns(true), "ns");

    let sweep_jobs: Vec<_> = [
        e::e1_branch_schemes::sweep_spec(),
        e::e3_icache_orgs::sweep_spec(),
        e::e11_ecache::sweep_spec(),
        e::e12_subblock::sweep_spec(),
    ]
    .iter()
    .flat_map(|spec| spec.expand().expect("experiment specs expand"))
    .collect();
    out.set(
        "explore.prepare_ms",
        repeat(|| {
            let cache = ImageCache::new();
            let tele = Telemetry::disabled();
            let start = Instant::now();
            for job in &sweep_jobs {
                black_box(cache.get_or_prepare(job, &tele).ok());
            }
            start.elapsed().as_secs_f64() * 1e3
        }),
        "ms",
    );
}

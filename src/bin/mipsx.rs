//! `mipsx` — command-line front end for the MIPS-X reproduction.
//!
//! ```text
//! mipsx asm   <file.s>              assemble, print words as hex
//! mipsx dis   <file.s>              assemble then disassemble (round trip)
//! mipsx run   <file.s> [options]    execute on the cycle-accurate machine
//! mipsx trace <kernel|file.s> [options]
//!                                   execute with the cycle-level probes on:
//!                                   ASCII pipe diagram + CPI attribution
//! mipsx soak  [options]             fuzz random programs under random
//!                                   fault plans against the lockstep
//!                                   reference model, and each program
//!                                   fault-free across the interp and
//!                                   block engines
//! mipsx lint  <kernel|file.s> [options]
//!                                   static hazard verifier: prove the
//!                                   program satisfies the pipeline
//!                                   contract (load delays, squash
//!                                   senses, MD chains, ...)
//! mipsx analyze <kernel|file.s> [options]
//!                                   static timing analyzer: per-block
//!                                   cost table (delay-slot waste,
//!                                   liveness, loop depth) and the
//!                                   whole-program static CPI bound
//! mipsx sweep [spec.sweep] [options]
//!                                   design-space exploration: expand a
//!                                   sweep grid, run it on a thread pool,
//!                                   serve repeats from the result cache
//! mipsx profile <kernel|file.s|spec.sweep> [options]
//!                                   run with host telemetry on and print
//!                                   a span-tree wall-time report (stage
//!                                   attribution, pool occupancy, store
//!                                   latencies)
//! mipsx snapshot save <kernel|file.s> --out <path> [options]
//!                                   run for --cycles, then write a
//!                                   restorable machine snapshot
//! mipsx snapshot restore <path> [--cycles N]
//!                                   restore a snapshot, run it to
//!                                   completion, print the final stats
//! mipsx snapshot info <path>        print a snapshot's header, section
//!                                   sizes and checksum without restoring
//! mipsx reproduce [names...] [options]
//!                                   regenerate the paper's tables (E1..E12),
//!                                   paper vs measured
//! mipsx info                        print the modeled machine's parameters
//!
//! run options:
//!   --cycles <n>        cycle budget (default 10,000,000)
//!   --slots <1|2>       branch delay slots (default 2; any other count
//!                       exits 1)
//!   --trust             disable interlock checking (model the silicon)
//!   --ideal             use the ideal-cache configuration (no memory
//!                       stalls) instead of the MIPS-X board
//!   --engine <interp|block|checked>
//!                       execution backend: `block` runs the basic-block
//!                       superop engine (fast, cycle-identical; demotes
//!                       itself to the stepper when it must), `checked`
//!                       shadows every step with the functional reference
//!                       model, `interp` the cycle-accurate stepper
//!                       (default)
//!   --regs              dump the register file after the run
//!
//! trace options (in addition to --cycles/--slots; kernel targets are
//! rescheduled for the --slots count):
//!   --diagram <n>       render the first n cycles as a pipe diagram
//!                       (default 60; 0 disables)
//!   --jsonl <path>      also write every probe event as JSON lines
//!   --from-cycle <k>    fast-forward k cycles untraced, then attach the
//!                       probes (the diagram shows cycles k..k+n; JSONL
//!                       lines keep their absolute cycle numbers)
//!
//! soak options:
//!   --runs <n>          program x fault-plan pairs to run (default 100)
//!   --seed <n>          base seed; run i uses seed n+i (default 1)
//!   --faults <spec>     fixed plan for every run, e.g. "120:irq3,340:nmi"
//!                       (default: a random plan derived from the run seed)
//!   --fault-count <n>   faults per random plan (default 6)
//!   --cycles <n>        lockstep cycle budget per run (default 2,000,000)
//!   --snap-dir <dir>    where a diverging run's last-good machine
//!                       snapshot lands (default: the system temp dir)
//!
//! lint options:
//!   --slots <1|2>       branch delay slots of the contract (default 2);
//!                       kernel targets are rescheduled for that count
//!   --json              machine-readable report
//!   --kernels           lint every built-in kernel under all six Table 1
//!                       branch schemes instead of a single target; one
//!                       summary line per scheme, detail where findings
//!                       exist, non-zero exit only on errors
//!   --timing            add the four scheduling-quality lints
//!                       (missed-slot-fill, redundant-nop,
//!                       avoidable-load-stall, cross-block-hazard-at-join)
//!
//! analyze options:
//!   --slots <1|2>       branch delay slots (default 2), as in lint
//!   --json              machine-readable analysis
//!   --kernels           analyze every built-in kernel under all six
//!                       Table 1 branch schemes
//!   --differential      also run the program fault-free on the
//!                       cache-ideal machine with the per-block dynamic
//!                       attributor attached, and check that the static
//!                       model predicts every per-block counter exactly;
//!                       any mismatch exits non-zero
//!   --cycles <n>        differential run budget (default 10,000,000)
//!
//! sweep options:
//!   <spec.sweep>        spec file (see mipsx_explore::SweepSpec::parse);
//!                       or build the grid from flags:
//!   --grid f=v1,v2      one axis (repeatable), e.g. --grid mem_latency=3,5
//!   --workload <id>     workload (repeatable): kernel:<name>,
//!                       synth:<pascal|lisp|tiny|pascal-large|lisp-large>:<seed>,
//!                       trace:<medium|large>:<seed>, stream:<words>x<reps>
//!   --fault <spec>      fault plan cell (repeatable; "none" = fault-free)
//!   --base <mipsx|ideal> base configuration (default mipsx)
//!   --engine <interp|block|checked>
//!                       base execution backend (default interp); also an
//!                       axis: --grid engine=interp,block sweeps it
//!   --cycles <n>        per-job cycle budget (default 500,000,000)
//!   --threads <n>       worker threads (default: all cores)
//!   --json | --csv      report format (default: markdown table)
//!   --store <dir>       result-cache directory (default $MIPSX_SWEEP_DIR
//!                       or sweeps/)
//!   --no-cache          disable the result cache entirely
//!   --metrics <path>    record host telemetry and write it to <path>
//!                       (JSON) plus a Prometheus text exposition at
//!                       <path>.prom
//!   --timings           render the timed report variants (adds per-job
//!                       wall_ms; no longer byte-comparable across runs)
//!   --journal <path>    crash-safe progress journal: one flushed line per
//!                       completed job, in-flight machine checkpoints in
//!                       <path>.snaps/
//!   --snapshot-every <n> checkpoint running machines every n cycles
//!                       (requires --journal; 0 disables checkpoints)
//!   --resume            replay an existing journal: completed jobs come
//!                       from the result store, checkpointed jobs resume
//!                       mid-run; refuses a journal from a different spec
//!
//! snapshot options:
//!   --cycles <n>        save: cycles to run before snapshotting (0 =
//!                       snapshot the freshly loaded machine);
//!                       restore: further cycle budget (default 10,000,000)
//!   --slots <1|2>       save: branch delay slots (default 2); kernel
//!                       targets are rescheduled for that count
//!   --faults <spec>     save: fault plan; its delivery cursor rides in
//!                       the snapshot, so restore continues it exactly
//!   --out <path>        save: where the snapshot is written (required)
//!
//! profile options:
//!   a kernel name or .s file profiles a single run (assemble, machine
//!   construction, program decode, execution — plus host steps/s);
//!   `--engine <interp|block|checked>` picks the backend, and a block run
//!   prints its fallback-cause breakdown; a .sweep file or
//!   --grid/--workload flags profile a whole sweep with the same flags as
//!   `mipsx sweep`. `--metrics <path>` works here too.
//!
//! reproduce options:
//!   names               experiments to run, in table order: table1 icache
//!                       orgs quickcmp reorg fsm cpi coproc vax btb ecache
//!                       subblock, or all (the default)
//!   --json              one JSON document instead of text tables
//!   --threads <n>       worker threads for the sweep-backed experiments
//!                       (E1, E3, E6, E7, E11, E12; default 1); the tables
//!                       are identical for every n
//! ```
//!
//! A failing soak run prints a copy-pasteable `mipsx soak --runs 1 --seed N
//! --faults <spec>` line that reproduces it exactly.
//!
//! `mipsx trace`, `lint`, `analyze`, `profile` and `snapshot save` accept
//! either a kernel name from the built-in suite (`mipsx trace
//! fib_recursive`) — the kernel is scheduled by the code reorganizer for
//! the `--slots` count, under the squash-optional scheme the experiments
//! run, and runs on a pipeline with that many slots — or a path to an
//! assembly file. `--slots` other than 1 or 2 exits 1. `mipsx lint` exits
//! non-zero if any error-severity diagnostic is found (warnings alone do
//! not fail the run).
//!
//! The sweep report goes to stdout; timing and cache-hit chatter goes to
//! stderr, so reports are byte-comparable across runs and thread counts.

use std::process::ExitCode;

use mipsx::asm::{assemble, assemble_at, disassemble, Program};
use mipsx::bench::experiments;
use mipsx::bench::{json_document, render_table, rows_to_json_timed};
use mipsx::cli::{flag, parse_args, switch, ArgError, FlagSpec, ParsedArgs};
use mipsx::core::probe::{CpiAttribution, JsonlSink, NullSink, PipeDiagram};
use mipsx::core::{FaultPlan, InterlockPolicy, Machine, MachineConfig, RunError, RunStats};
use mipsx::engine::drives_caches;
use mipsx::exec::{AnyBackend, CheckedBackend, EngineKind, ExecBackend, ExecError};
use mipsx::explore::{
    run_sweep, Axis, Grid, JournalConfig, ResultStore, SimPoint, SweepOptions, SweepOutcome,
    SweepSpec, Telemetry, Workload,
};
use mipsx::isa::Reg;
use mipsx::refmodel::NULL_HANDLER;
use mipsx::reorg::{BranchScheme, Reorganizer, ScheduleReport, SquashPolicy};
use mipsx::verify::{
    differential, verify, verify_with_timing, BlockAttribution, TimingAnalysis, VerifyConfig,
};
use mipsx::workloads::{all_kernels, find_kernel, kernel_names, random_scheduled_program, Kernel};

const USAGE: &str =
    "usage: mipsx <asm|dis|run|trace|soak|lint|analyze|sweep|profile|snapshot|reproduce|info> \
     [file.s|kernel|spec.sweep] \
     [--cycles N] [--slots 1|2] [--trust] [--ideal] [--engine interp|block|checked] [--regs] \
     [--diagram N] [--jsonl path] \
     [--from-cycle K] [--runs N] \
     [--seed N] [--faults spec] [--fault-count N] [--snap-dir dir] [--json] [--kernels] \
     [--timing] [--differential] \
     [--grid f=v1,v2] \
     [--workload id] [--fault spec] [--base mipsx|ideal] [--threads N] [--csv] \
     [--store dir] [--no-cache] [--metrics path] [--timings] \
     [--journal path] [--snapshot-every N] [--resume] [--out path]";

/// How a subcommand failed. Only `main` renders one, and every failure
/// exits 1.
enum CliError {
    /// A malformed command line: `mipsx: {message}` (if any), then usage.
    Usage(Option<String>),
    /// `mipsx: {message}`.
    Failed(String),
    /// The command already printed its findings (lint errors,
    /// differential violations, soak divergences, quarantined sweep
    /// rows): no further message.
    Reported,
}

/// A flag value that does not parse is a plain failure; only
/// [`parse`]'s errors print usage.
impl From<ArgError> for CliError {
    fn from(e: ArgError) -> CliError {
        CliError::Failed(e.to_string())
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failed(msg)
    }
}

type Outcome = Result<(), CliError>;

fn fail<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Failed(msg.into()))
}

/// Success, or a silent failure for a command that printed its findings.
fn reported(clean: bool) -> Outcome {
    if clean {
        Ok(())
    } else {
        Err(CliError::Reported)
    }
}

/// Parse a subcommand's arguments; an unknown flag or a missing value is
/// a usage error.
fn parse(args: &[String], spec: &[FlagSpec]) -> Result<ParsedArgs, CliError> {
    parse_args(args, spec).map_err(|e| CliError::Usage(Some(e.to_string())))
}

/// The subcommand's target; its absence is a usage error.
fn target_arg(parsed: &ParsedArgs) -> Result<&str, CliError> {
    parsed
        .positionals
        .first()
        .map(String::as_str)
        .ok_or(CliError::Usage(None))
}

/// The one `--slots` rule (1 or 2, default 2). Returns the branch scheme
/// built-in kernels are scheduled under — squash-optional, so the default
/// is the shipped MIPS-X scheme — and `base` with that many delay slots,
/// so code always runs on the pipeline it was scheduled for.
fn slots_arg(
    parsed: &ParsedArgs,
    base: MachineConfig,
) -> Result<(BranchScheme, MachineConfig), CliError> {
    let slots = parsed.parsed_or("--slots", 2usize)?;
    if !(1..=2).contains(&slots) {
        return fail("--slots must be 1 or 2");
    }
    let scheme = BranchScheme {
        slots,
        squash: SquashPolicy::SquashOptional,
    };
    let cfg = MachineConfig {
        branch_delay_slots: slots,
        ..base
    };
    Ok((scheme, cfg))
}

/// How a subcommand that takes only files words a read failure.
fn cannot_read(path: &str) -> impl FnOnce(std::io::Error) -> String + '_ {
    move |e| format!("cannot read {path}: {e}")
}

/// The `--faults` plan, if one is given.
fn faults_arg(parsed: &ParsedArgs) -> Result<Option<FaultPlan>, CliError> {
    let Some(spec) = parsed.value("--faults") else {
        return Ok(None);
    };
    Ok(Some(
        FaultPlan::parse(spec).map_err(|e| format!("--faults {spec}: {e}"))?,
    ))
}

fn exec_failed(e: impl std::fmt::Display) -> String {
    format!("execution failed: {e}")
}

/// Read and assemble the source file at `path`: the CLI's one file
/// reader. `unreadable` words a read failure; an assembly error reads
/// `{path}: {error}`.
fn assemble_file(
    path: &str,
    unreadable: impl FnOnce(std::io::Error) -> String,
) -> Result<Program, CliError> {
    let source = std::fs::read_to_string(path).map_err(unreadable)?;
    Ok(assemble(&source).map_err(|e| format!("{path}: {e}"))?)
}

/// Resolve a target: a built-in kernel name (scheduled through the
/// reorganizer under `scheme`) or an assembly file.
fn target_program(target: &str, scheme: BranchScheme) -> Result<Program, CliError> {
    match find_kernel(target) {
        Some(kernel) => Ok(Reorganizer::new(scheme)
            .reorganize(&kernel.raw)
            .map_err(|e| format!("kernel {target}: {e}"))?
            .0),
        None => assemble_file(target, |e| {
            format!(
                "{target}: {e} (not a readable file; known kernels: {})",
                kernel_names().join(", ")
            )
        }),
    }
}

/// Schedule `kernel` under `scheme`, for the `--kernels` tables.
fn schedule_kernel(
    kernel: &Kernel,
    scheme: BranchScheme,
) -> Result<(Program, ScheduleReport), String> {
    Reorganizer::new(scheme)
        .reorganize(&kernel.raw)
        .map_err(|e| format!("kernel {} [{scheme}]: {e}", kernel.name))
}

/// The path from a `trace`/`profile`/`snapshot save` target to a loaded
/// board: the `--slots` rule, the target scheduled for it, and a fresh
/// machine with the program loaded, each stage under its `tele` span.
fn load_target(
    parsed: &ParsedArgs,
    target: &str,
    tele: &Telemetry,
) -> Result<(Program, Machine), CliError> {
    let (scheme, cfg) = slots_arg(parsed, MachineConfig::mipsx())?;
    let program = {
        let _s = tele.span("assemble");
        target_program(target, scheme)?
    };
    let mut machine = {
        let _s = tele.span("construct");
        Machine::new(cfg)
    };
    {
        let _s = tele.span("decode");
        machine.load_program(&program);
    }
    Ok((program, machine))
}

fn cmd_trace(args: &[String]) -> Outcome {
    let parsed = parse(
        args,
        &[
            flag("--cycles"),
            flag("--slots"),
            flag("--diagram"),
            flag("--jsonl"),
            flag("--from-cycle"),
        ],
    )?;
    let target = target_arg(&parsed)?;
    let cycles = parsed.parsed_or("--cycles", 10_000_000u64)?;
    let diagram_cycles = parsed.parsed_or("--diagram", 60u64)?;
    let from_cycle = parsed.parsed_or("--from-cycle", 0u64)?;
    if from_cycle >= cycles {
        return fail(format!(
            "--from-cycle {from_cycle} must be below the --cycles budget {cycles}"
        ));
    }
    let (_, mut machine) = load_target(&parsed, target, &Telemetry::disabled())?;

    // Fast-forward untraced: probes are pure observers, so skipping them
    // for the first k cycles cannot change how the machine evolves.
    if from_cycle > 0 {
        match machine.run(from_cycle) {
            Err(RunError::CycleLimit { .. }) => {}
            Ok(stats) => {
                return fail(format!(
                    "program halted at cycle {} — nothing left to trace \
                     from cycle {from_cycle}",
                    stats.cycles
                ))
            }
            Err(e) => {
                return fail(format!(
                    "execution failed before --from-cycle {from_cycle}: {e}"
                ))
            }
        }
    }
    let budget = cycles - from_cycle;

    let diagram = PipeDiagram::with_limit(diagram_cycles.max(1));
    let mut sink = (diagram, CpiAttribution::new());
    let result = match parsed.value("--jsonl") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let mut jsonl = JsonlSink::new(std::io::BufWriter::new(file));
            let result = machine.run_with(budget, &mut (&mut sink, &mut jsonl));
            jsonl.finish().map_err(|e| format!("writing {path}: {e}"))?;
            result
        }
        None => machine.run_with(budget, &mut sink),
    };
    let (diagram, attribution) = sink;
    result.map_err(exec_failed)?;
    if diagram_cycles > 0 {
        println!(
            "pipe diagram ({diagram_cycles} cycles from cycle {from_cycle}; F R A M W = stage, \
             lowercase = killed, * = frozen):"
        );
        print!("{}", diagram.render());
        println!();
    }
    print!("{}", attribution.report());
    println!();
    println!("{}", machine.stats());
    println!("icache: {}", machine.icache().stats());
    print!("{}", machine.icache().occupancy_report());
    println!("ecache: {}", machine.ecache().stats());
    println!("{}", machine.ecache().occupancy_report());
    if !attribution.identity_holds() {
        return fail("INTERNAL ERROR: CPI attribution does not sum to total cycles");
    }
    Ok(())
}

fn cmd_lint(args: &[String]) -> Outcome {
    let parsed = parse(
        args,
        &[
            switch("--json"),
            switch("--kernels"),
            switch("--timing"),
            flag("--slots"),
        ],
    )?;
    let json = parsed.has("--json");
    let timing = parsed.has("--timing");
    let (scheme, _) = slots_arg(&parsed, MachineConfig::mipsx())?;
    let run_lint = |program: &Program, cfg: &VerifyConfig| {
        if timing {
            verify_with_timing(program, cfg)
        } else {
            verify(program, cfg)
        }
    };

    if parsed.has("--kernels") {
        // Every built-in kernel under every Table 1 branch scheme: the
        // reorganizer's output contract, checked end to end. One summary
        // line per scheme; kernel detail only where something fired. The
        // exit code reflects error-severity findings only.
        let mut error_total = 0usize;
        let mut scheme_rows: Vec<String> = Vec::new();
        for scheme in BranchScheme::table1() {
            let vcfg = VerifyConfig::for_slots(scheme.slots);
            let mut errors = 0usize;
            let mut warnings = 0usize;
            let mut kernel_rows: Vec<String> = Vec::new();
            let mut details: Vec<String> = Vec::new();
            for kernel in all_kernels() {
                let (program, report) = schedule_kernel(&kernel, scheme)?;
                let lint = run_lint(&program, &vcfg);
                errors += lint.error_count();
                warnings += lint.warning_count();
                if json {
                    kernel_rows.push(format!(
                        "{{\"kernel\":\"{}\",\"verified\":{},\"report\":{}}}",
                        kernel.name,
                        report.verified,
                        lint.to_json()
                    ));
                } else {
                    for d in &lint.diagnostics {
                        details.push(format!("  {:<16} {d}", kernel.name));
                    }
                }
            }
            error_total += errors;
            if json {
                scheme_rows.push(format!(
                    "{{\"scheme\":\"{scheme}\",\"errors\":{errors},\"warnings\":{warnings},\
                     \"kernels\":[{}]}}",
                    kernel_rows.join(",")
                ));
            } else {
                println!(
                    "{scheme}: {} kernel(s), {errors} error(s), {warnings} warning(s)",
                    all_kernels().len()
                );
                for d in &details {
                    println!("{d}");
                }
            }
        }
        if json {
            println!("[{}]", scheme_rows.join(",\n "));
        }
        return reported(error_total == 0);
    }

    let target = target_arg(&parsed)?;
    let program = target_program(target, scheme)?;
    let lint = run_lint(&program, &VerifyConfig::for_slots(scheme.slots));
    if json {
        println!("{}", lint.to_json());
    } else if lint.diagnostics.is_empty() {
        println!("{target}: clean ({}-slot contract)", scheme.slots);
    } else {
        print!("{lint}");
        println!(" ({}-slot contract)", scheme.slots);
    }
    reported(lint.is_clean())
}

/// Run `program` fault-free on `cfg` with the per-block attributor
/// attached, and check every static identity. Returns the violation list
/// (empty = exact match).
fn run_differential(
    program: &Program,
    ta: &TimingAnalysis,
    cfg: MachineConfig,
    budget: u64,
) -> Result<Vec<String>, String> {
    let mut machine = Machine::new(cfg);
    machine.load_program(program);
    let mut attrib = BlockAttribution::new(ta);
    let stats = machine
        .run_with(budget, &mut attrib)
        .map_err(|e| e.to_string())?;
    Ok(differential(ta, &attrib, &stats))
}

/// Differential violations as a JSON string array.
fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|e| format!("\"{}\"", e.replace('"', "'")))
        .collect();
    format!("[{}]", quoted.join(","))
}

fn cmd_analyze(args: &[String]) -> Outcome {
    let parsed = parse(
        args,
        &[
            switch("--json"),
            switch("--kernels"),
            switch("--differential"),
            flag("--slots"),
            flag("--cycles"),
        ],
    )?;
    let json = parsed.has("--json");
    let diff = parsed.has("--differential");
    // The differential replays on the cache-ideal machine.
    let (scheme, cfg) = slots_arg(&parsed, MachineConfig::cache_ideal())?;
    let budget = parsed.parsed_or("--cycles", 10_000_000u64)?;

    if parsed.has("--kernels") {
        // Every kernel under every Table 1 scheme: static bound per cell,
        // and with --differential the exact static-vs-dynamic check that
        // CI gates on.
        let mut violations = 0usize;
        let mut rows: Vec<String> = Vec::new();
        for scheme in BranchScheme::table1() {
            let vcfg = VerifyConfig::for_slots(scheme.slots);
            let cfg = MachineConfig {
                branch_delay_slots: scheme.slots,
                ..cfg
            };
            for kernel in all_kernels() {
                let (program, _) = schedule_kernel(&kernel, scheme)?;
                let ta = TimingAnalysis::of(&program, &vcfg);
                let errs = if diff {
                    let errs = run_differential(&program, &ta, cfg, budget)
                        .map_err(|e| format!("kernel {} [{scheme}]: {e}", kernel.name))?;
                    violations += errs.len();
                    Some(errs)
                } else {
                    None
                };
                if json {
                    let diff_json = match &errs {
                        None => String::new(),
                        Some(errs) => {
                            format!(",\"differential_violations\":{}", json_strings(errs))
                        }
                    };
                    rows.push(format!(
                        "{{\"kernel\":\"{}\",\"scheme\":\"{scheme}\",\
                         \"static_cpi_bound\":{:.4},\"blocks\":{}{diff_json}}}",
                        kernel.name,
                        ta.static_cpi_bound(),
                        ta.blocks.len()
                    ));
                } else {
                    let verdict = match &errs {
                        None => String::new(),
                        Some(e) if e.is_empty() => ", differential exact".to_string(),
                        Some(e) => format!(", {} DIFFERENTIAL VIOLATION(S)", e.len()),
                    };
                    println!(
                        "{:<16} [{scheme}]: bound {:.4}, {} block(s){verdict}",
                        kernel.name,
                        ta.static_cpi_bound(),
                        ta.blocks.len()
                    );
                    for e in errs.iter().flatten() {
                        println!("  {e}");
                    }
                }
            }
        }
        if json {
            println!("[{}]", rows.join(",\n "));
        }
        return reported(violations == 0);
    }

    let target = target_arg(&parsed)?;
    let program = target_program(target, scheme)?;
    let ta = TimingAnalysis::of(&program, &VerifyConfig::for_slots(scheme.slots));
    let errs = if diff {
        if ta.irregular {
            return fail(format!(
                "{target}: irregular control flow — exact differential unavailable"
            ));
        }
        Some(run_differential(&program, &ta, cfg, budget).map_err(|e| format!("{target}: {e}"))?)
    } else {
        None
    };
    if json {
        match &errs {
            None => println!("{}", ta.to_json()),
            Some(errs) => println!(
                "{{\"analysis\":{},\"differential_violations\":{}}}",
                ta.to_json(),
                json_strings(errs)
            ),
        }
    } else {
        print!("{}", ta.render());
        match &errs {
            None => {}
            Some(e) if e.is_empty() => println!("differential: exact (cache-ideal, fault-free)"),
            Some(e) => {
                println!("differential: {} violation(s)", e.len());
                for v in e {
                    println!("  {v}");
                }
            }
        }
    }
    reported(errs.as_ref().is_none_or(|e| e.is_empty()))
}

/// Exception vector used by the soak harness: well clear of generated
/// program text and its data region.
const SOAK_VECTOR: u32 = 0x8000;

/// Cycles between last-good checkpoints inside a soak run: coarse enough
/// to stay off the profile, fine enough that the written snapshot lands
/// within a few thousand cycles of the divergence.
const SOAK_CHECKPOINT_CYCLES: u64 = 2048;

/// Run `program` fault-free under `interp` and `block` on the ideal-cache
/// machine and on the board (soak exception vector, `handler` installed)
/// and require identical books, final registers and — on the board, where
/// the block engine drives the cache models — Icache and Ecache
/// statistics.
fn engines_agree(program: &Program, handler: &Program, cycles: u64) -> Result<(), String> {
    for (name, base) in [
        ("cache_ideal", MachineConfig::cache_ideal()),
        ("board", MachineConfig::mipsx()),
    ] {
        let cfg = MachineConfig {
            exception_vector: SOAK_VECTOR,
            ..base
        };
        let run = |kind| {
            let mut machine = Machine::new(cfg);
            machine.load_program(program);
            machine.load_at(handler.origin, &handler.words);
            // A budget expiry still compares: the engines splice
            // cycle-exactly at any budget.
            match AnyBackend::new(kind, program, &machine).run(&mut machine, cycles) {
                Ok(_) | Err(ExecError::Run(RunError::CycleLimit { .. })) => {
                    let caches = drives_caches(&cfg)
                        .then(|| (*machine.icache().stats(), *machine.ecache().stats()));
                    Ok((*machine.stats(), machine.cpu().regs_snapshot(), caches))
                }
                Err(e) => Err(format!("{kind} engine on {name}: {e}")),
            }
        };
        let (interp, block) = (run(EngineKind::Interp)?, run(EngineKind::Block)?);
        if interp != block {
            return Err(format!(
                "block engine books, registers or caches differ from interp on {name}:\n  \
                 interp {interp:?}\n  block  {block:?}"
            ));
        }
    }
    Ok(())
}

fn cmd_soak(args: &[String]) -> Outcome {
    let parsed = parse(
        args,
        &[
            flag("--runs"),
            flag("--seed"),
            flag("--faults"),
            flag("--fault-count"),
            flag("--cycles"),
            flag("--snap-dir"),
        ],
    )?;
    let runs = parsed.parsed_or("--runs", 100u64)?;
    let base_seed = parsed.parsed_or("--seed", 1u64)?;
    let fault_count = parsed.parsed_or("--fault-count", 6u32)?;
    let cycles = parsed.parsed_or("--cycles", 2_000_000u64)?;
    let fixed_plan = faults_arg(&parsed)?;
    let handler = assemble_at(NULL_HANDLER, SOAK_VECTOR).expect("null handler assembles");
    let snap_dir = parsed
        .value("--snap-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let cfg = MachineConfig {
        exception_vector: SOAK_VECTOR,
        ..MachineConfig::mipsx()
    };

    let mut divergences = 0u64;
    let mut exceptions = 0u64;
    let mut faults = 0u64;
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i);
        let program = random_scheduled_program(seed);
        // Pre-flight: statically verify the generated program, so a
        // generator bug reports as "emitted illegal code" rather than
        // masquerading as a simulator divergence downstream.
        let lint = verify(&program, &VerifyConfig::for_slots(cfg.branch_delay_slots));
        if !lint.is_clean() {
            return fail(format!(
                "seed {seed}: generator emitted illegal code (not a divergence):\n{lint}"
            ));
        }
        let mut plan = match &fixed_plan {
            Some(p) => p.clone(),
            None => {
                // Size the plan's horizon to this program's fault-free run
                // so every fault lands inside it.
                let mut m = Machine::new(cfg);
                m.load_program(&program);
                let horizon = m
                    .run(cycles)
                    .map_err(|e| format!("seed {seed}: fault-free baseline failed: {e}"))?
                    .cycles;
                FaultPlan::random(seed, horizon, fault_count)
            }
        };
        let plan_spec = plan.to_string();
        faults += plan.events().len() as u64;
        let mut machine = Machine::new(cfg);
        machine.load_program(&program);
        let mut checked = CheckedBackend::new(&machine, &program);
        checked.install_handler(&mut machine, &handler);
        checked.enable_interrupts(&mut machine);
        // Run in checkpoint-sized budget chunks: the last snapshot taken
        // before a divergence is written out, so the failing window can be
        // replayed under `mipsx snapshot restore` / a debugger without
        // re-running the whole soak from cycle zero.
        let mut last_good: Option<(u64, Vec<u8>)> = None;
        let outcome = loop {
            let left = cycles.saturating_sub(machine.stats().cycles);
            if left == 0 {
                break Ok(());
            }
            let chunk = left.min(SOAK_CHECKPOINT_CYCLES);
            match checked.run_with_faults(&mut machine, chunk, &mut NullSink, &mut plan) {
                Ok(_) => break checked.final_check(&machine),
                Err(ExecError::Run(RunError::CycleLimit { .. })) => {
                    if let Ok(bytes) = machine.save_snapshot(None) {
                        last_good = Some((machine.stats().cycles, bytes));
                    }
                }
                Err(e) => break Err(e),
            }
        };
        // Cross-engine check: the same program, fault-free, must book
        // identically on the stepper and the block engine. The checked
        // run's snapshot says nothing about a failure here.
        let outcome = match outcome {
            Ok(()) => {
                last_good = None;
                engines_agree(&program, &handler, cycles)
            }
            Err(e) => Err(e.to_string()),
        };
        match outcome {
            Ok(()) => exceptions += machine.stats().exceptions,
            Err(e) => {
                divergences += 1;
                eprintln!("mipsx: seed {seed}: {e}");
                if let Some((cycle, bytes)) = last_good {
                    let path = snap_dir.join(format!("soak-seed{seed}-cycle{cycle}.msnap"));
                    match std::fs::write(&path, &bytes) {
                        Ok(()) => {
                            eprintln!("  last-good snapshot (cycle {cycle}): {}", path.display());
                        }
                        Err(e) => eprintln!("  could not write last-good snapshot: {e}"),
                    }
                }
                eprintln!(
                    "  reproduce: mipsx soak --runs 1 --seed {seed} --faults \"{plan_spec}\""
                );
            }
        }
    }
    println!(
        "soak: {runs} runs, {faults} fault events scheduled, {exceptions} exceptions taken, \
         {divergences} divergences"
    );
    reported(divergences == 0)
}

/// A single-target run of `mipsx run` or `mipsx profile`.
struct EngineRun {
    backend: AnyBackend,
    result: Result<RunStats, ExecError>,
    /// Host time of the run and its final check.
    wall: std::time::Duration,
}

/// The single-target run path: parse `--engine` (interp by default) for
/// the loaded `machine`'s pipeline, build that backend — the block
/// engine's compile under a `compile` span of `tele` — then run it for
/// `cycles` and make the final check under a `run` span.
fn run_engine(
    parsed: &ParsedArgs,
    program: &Program,
    machine: &mut Machine,
    cycles: u64,
    tele: &Telemetry,
) -> Result<EngineRun, CliError> {
    let kind = parsed
        .value("--engine")
        .map_or(Ok(EngineKind::Interp), EngineKind::parse)
        .and_then(|kind| {
            kind.check_slots(machine.config().branch_delay_slots)
                .map(|()| kind)
        })
        .map_err(|e| format!("--engine: {e}"))?;
    let mut backend = {
        // Only the block backend does real work here (compiling the
        // image into superop blocks); the span prices exactly that.
        let _s = (kind == EngineKind::Block).then(|| tele.span("compile"));
        AnyBackend::new(kind, program, machine)
    };
    let start = std::time::Instant::now();
    let result = {
        let _s = tele.span("run");
        backend
            .run(machine, cycles)
            .and_then(|stats| backend.final_check(machine).map(|()| stats))
    };
    Ok(EngineRun {
        backend,
        result,
        wall: start.elapsed(),
    })
}

/// The block engine's summary and fallback-cause breakdown (nothing for
/// the other backends). `run_cycles`, from `mipsx profile`, adds the
/// fast path's share of the run and a line when nothing fell back.
fn print_engine_summary(backend: &AnyBackend, run_cycles: Option<u64>) {
    let Some(es) = backend.engine_stats() else {
        return;
    };
    let share = run_cycles.map_or(String::new(), |cycles| {
        format!(
            " ({:.1}% of run)",
            100.0 * es.fast_cycles as f64 / (cycles as f64).max(1.0)
        )
    });
    if run_cycles.is_some() {
        println!();
    }
    println!(
        "engine: {} blocks compiled ({} fallback-only), {} visits, \
         {} fast cycles{share}, {} recompiles",
        es.blocks_compiled, es.fallback_blocks, es.block_visits, es.fast_cycles, es.recompiles
    );
    if run_cycles.is_some() && es.total_fallbacks() == 0 {
        println!("engine: no stepper fallbacks");
    }
    for (cause, count) in es.fallback_breakdown() {
        println!("engine: fallback {cause:<16} x{count}");
    }
}

fn cmd_run(args: &[String]) -> Outcome {
    let Some((path, args)) = args.split_first() else {
        return Err(CliError::Usage(None));
    };
    let parsed = parse(
        args,
        &[
            flag("--cycles"),
            flag("--slots"),
            flag("--engine"),
            switch("--trust"),
            switch("--ideal"),
            switch("--regs"),
        ],
    )?;
    let cycles = parsed.parsed_or("--cycles", 10_000_000u64)?;
    let base = if parsed.has("--ideal") {
        MachineConfig::cache_ideal()
    } else {
        MachineConfig::mipsx()
    };
    let (_, mut cfg) = slots_arg(&parsed, base)?;
    if parsed.has("--trust") {
        cfg.interlock = InterlockPolicy::Trust;
    }
    let program = assemble_file(path, cannot_read(path))?;
    let mut machine = Machine::new(cfg);
    machine.load_program(&program);
    let run = run_engine(
        &parsed,
        &program,
        &mut machine,
        cycles,
        &Telemetry::disabled(),
    )?;
    print_engine_summary(&run.backend, None);
    let stats = run.result.map_err(exec_failed)?;
    println!("{stats}");
    // The block engine drives the cache models exactly unless every stall
    // is priced at zero (`--ideal`); there it skips them, and their
    // near-empty books would contradict an interp run.
    if run.backend.kind() != EngineKind::Block || drives_caches(machine.config()) {
        println!("icache: {}", machine.icache().stats());
        println!("ecache: {}", machine.ecache().stats());
    }
    if parsed.has("--regs") {
        for r in Reg::all() {
            let v = machine.cpu().reg(r);
            if v != 0 {
                println!("  {r:>4} = {v:#010x} ({})", v as i32);
            }
        }
    }
    Ok(())
}

/// Build a [`SweepSpec`] from a spec file or from `--grid`/`--workload`
/// flags.
fn sweep_spec_from(parsed: &ParsedArgs) -> Result<SweepSpec, String> {
    let mut spec = match parsed.positionals.first() {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(cannot_read(path))?;
            SweepSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => SweepSpec::new(SimPoint::mipsx()),
    };
    match parsed.value("--base") {
        None => {}
        Some("mipsx") => spec.base = SimPoint::mipsx(),
        Some("ideal") => spec.base = SimPoint::ideal_memory(),
        Some(other) => return Err(format!("--base {other}: expected mipsx or ideal")),
    }
    if let Some(kind) = parsed.value("--engine") {
        spec.base.engine = EngineKind::parse(kind).map_err(|e| format!("--engine: {e}"))?;
    }
    let flag_axes: Vec<Axis> = parsed
        .values_of("--grid")
        .map(|g| Axis::parse_flag(g).map_err(|e| e.to_string()))
        .collect::<Result<_, String>>()?;
    if !flag_axes.is_empty() {
        match &mut spec.grid {
            Grid::Axes(axes) => axes.extend(flag_axes),
            Grid::Points(_) => return Err("--grid cannot extend an explicit point list".into()),
        }
    }
    for id in parsed.values_of("--workload") {
        spec.workloads
            .push(Workload::parse(id).map_err(|e| e.to_string())?);
    }
    let flag_faults: Vec<Option<String>> = parsed
        .values_of("--fault")
        .map(|f| (f != "none").then(|| f.to_owned()))
        .collect();
    if !flag_faults.is_empty() {
        spec.faults = flag_faults;
    }
    if let Some(cycles) = parsed.value("--cycles") {
        spec.run_cycles = cycles
            .parse()
            .map_err(|_| format!("--cycles {cycles}: expected a cycle count"))?;
    }
    Ok(spec)
}

/// A sweep's spec and options from the command line: the one path both
/// `mipsx sweep` and `mipsx profile` take. `store` serves when neither
/// `--store` nor `--no-cache` is given.
fn sweep_args(
    parsed: &ParsedArgs,
    store: ResultStore,
    telemetry: Telemetry,
) -> Result<(SweepSpec, SweepOptions), CliError> {
    let threads = parsed.parsed_or(
        "--threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    let snapshot_every = parsed.parsed_or("--snapshot-every", 0u64)?;
    let journal = match parsed.value("--journal") {
        Some(path) => Some(JournalConfig {
            path: path.into(),
            resume: parsed.has("--resume"),
            snapshot_interval: snapshot_every,
        }),
        None if parsed.has("--resume") || snapshot_every > 0 => {
            return fail("--resume and --snapshot-every require --journal <path>")
        }
        None => None,
    };
    let spec = sweep_spec_from(parsed)?;
    let store = match parsed.value("--store") {
        _ if parsed.has("--no-cache") => ResultStore::disabled(),
        Some(dir) => ResultStore::at(dir),
        None => store,
    };
    let opts = SweepOptions {
        threads,
        store,
        telemetry,
        journal,
        ..SweepOptions::default()
    };
    Ok((spec, opts))
}

fn sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, CliError> {
    Ok(run_sweep(spec, opts).map_err(|e| format!("sweep failed: {e}"))?)
}

fn cmd_sweep(args: &[String]) -> Outcome {
    let parsed = parse(
        args,
        &[
            flag("--grid"),
            flag("--workload"),
            flag("--fault"),
            flag("--base"),
            flag("--engine"),
            flag("--cycles"),
            flag("--threads"),
            flag("--store"),
            switch("--json"),
            switch("--csv"),
            switch("--no-cache"),
            flag("--metrics"),
            switch("--timings"),
            flag("--journal"),
            flag("--snapshot-every"),
            switch("--resume"),
        ],
    )?;
    let telemetry = match parsed.value("--metrics") {
        Some(_) => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    let (spec, opts) = sweep_args(
        &parsed,
        ResultStore::at(ResultStore::default_dir()),
        telemetry,
    )?;
    let outcome = sweep(&spec, &opts)?;
    let timed = parsed.has("--timings");
    if parsed.has("--json") {
        if timed {
            println!("{}", outcome.to_json_timed());
        } else {
            println!("{}", outcome.to_json());
        }
    } else if parsed.has("--csv") {
        if timed {
            print!("{}", outcome.to_csv_timed());
        } else {
            print!("{}", outcome.to_csv());
        }
    } else {
        print!("{}", outcome.to_markdown());
    }
    write_metrics(&parsed, &opts.telemetry.snapshot())?;
    // Quarantined jobs never abort the sweep (the report above is
    // complete), but each one gets a reproduction line and the exit code
    // says the run was not clean.
    for row in &outcome.rows {
        if let Some(msg) = &row.failed {
            eprintln!(
                "mipsx: quarantined: {} | {}{}: {msg}",
                row.point_label,
                row.workload,
                match &row.fault {
                    Some(f) => format!(" (faults {f})"),
                    None => String::new(),
                },
            );
        }
    }
    eprintln!(
        "mipsx sweep: {} jobs on {} thread(s) in {:.2?} ({} from cache, {} quarantined)",
        outcome.rows.len(),
        opts.threads,
        outcome.wall,
        outcome.cache_hits,
        outcome.failed_count(),
    );
    reported(outcome.failed_count() == 0)
}

/// With `--metrics <path>`, write a telemetry snapshot to `path` as JSON,
/// plus the Prometheus text exposition next to it at `<path>.prom`.
fn write_metrics(parsed: &ParsedArgs, snapshot: &mipsx::telemetry::Snapshot) -> Outcome {
    let Some(path) = parsed.value("--metrics") else {
        return Ok(());
    };
    std::fs::write(path, snapshot.to_json() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let prom = format!("{path}.prom");
    std::fs::write(&prom, snapshot.to_prometheus())
        .map_err(|e| format!("cannot write {prom}: {e}"))?;
    eprintln!("mipsx: metrics written to {path} and {prom}");
    Ok(())
}

/// `mipsx reproduce`: regenerate the paper's tables in `reproduce all`
/// order, as text tables or as one JSON document. Every experiment runs
/// under one `SweepOptions`, so the pass shares one prepared-image cache;
/// it never touches the result store, so its output is the determinism
/// baseline.
fn cmd_reproduce(args: &[String]) -> Outcome {
    let parsed = parse(args, &[switch("--json"), flag("--threads")])?;
    let threads = parsed.parsed_or("--threads", 1usize)?.max(1);
    let names = &parsed.positionals;
    let known = |name: &str| name == "all" || experiments::ALL.iter().any(|x| x.name == name);
    if let Some(unknown) = names.iter().find(|n| !known(n.as_str())) {
        let all: Vec<&str> = experiments::ALL.iter().map(|x| x.name).collect();
        return fail(format!(
            "unknown experiment {unknown:?} (known: {}, all)",
            all.join(", ")
        ));
    }
    let everything = names.is_empty() || names.iter().any(|n| n == "all");
    let json = parsed.has("--json");
    let opts = SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    if !json {
        println!("MIPS-X reproduction — paper vs measured ({threads} thread(s))");
        println!("=======================================\n");
    }
    let mut emitted = Vec::new();
    for x in experiments::ALL
        .iter()
        .filter(|x| everything || names.iter().any(|n| n == x.name))
    {
        let start = std::time::Instant::now();
        let (rows, note) = (x.run)(&opts);
        let wall_ms = start.elapsed().as_millis();
        if json {
            emitted.push(rows_to_json_timed(x.name, x.title, &rows, wall_ms));
        } else {
            println!("{}", render_table(x.title, &rows));
            if let Some(note) = note {
                println!("{note}");
            }
            println!("  ({wall_ms} ms)\n");
        }
    }
    if json {
        println!("{}", json_document(&emitted));
    }
    Ok(())
}

/// `mipsx profile`: run with host telemetry live and print the span-tree
/// wall-time report. A kernel name or `.s` file profiles one run
/// (assemble / construct / decode / run stages plus the host simulation
/// rate); a `.sweep` file or `--grid`/`--workload` flags profile a whole
/// sweep, including pool occupancy and store latency metrics.
fn cmd_profile(args: &[String]) -> Outcome {
    let parsed = parse(
        args,
        &[
            flag("--grid"),
            flag("--workload"),
            flag("--fault"),
            flag("--base"),
            flag("--engine"),
            flag("--cycles"),
            flag("--threads"),
            flag("--slots"),
            flag("--store"),
            flag("--metrics"),
        ],
    )?;
    match parsed.positionals.first() {
        Some(target) if !target.ends_with(".sweep") => profile_target(&parsed, target),
        _ => profile_sweep(&parsed),
    }
}

fn profile_sweep(parsed: &ParsedArgs) -> Outcome {
    // Unlike `mipsx sweep`, a profile serves nothing from the result
    // store unless `--store` names one.
    let (spec, opts) = sweep_args(parsed, ResultStore::disabled(), Telemetry::enabled())?;
    if spec.workloads.is_empty() {
        return Err(CliError::Usage(Some(
            "profile: give a kernel name, a .s file, a .sweep file, or --workload flags".into(),
        )));
    }
    let outcome = sweep(&spec, &opts)?;
    let snap = opts.telemetry.snapshot();
    println!(
        "profile: {} jobs on {} thread(s) in {:.2?} ({} from cache)",
        outcome.rows.len(),
        opts.threads,
        outcome.wall,
        outcome.cache_hits
    );
    println!();
    print!("{}", snap.span_tree_report());
    let timing = |name: &str| snap.timing_counters.get(name).copied().unwrap_or(0);
    let (busy, idle) = (timing("pool.busy_ns"), timing("pool.idle_ns"));
    if busy + idle > 0 {
        println!();
        println!(
            "pool: {} worker(s), busy {:.1} ms, idle {:.1} ms ({:.1}% occupancy), {} steal(s)",
            snap.gauges.get("pool.workers").copied().unwrap_or(0),
            busy as f64 / 1e6,
            idle as f64 / 1e6,
            100.0 * busy as f64 / (busy + idle) as f64,
            timing("pool.steals"),
        );
    }
    let guest_cycles = snap.counter("guest.cycles");
    if guest_cycles > 0 {
        println!(
            "guest: {guest_cycles} cycles simulated, {:.2} Mcycles/s of host time",
            guest_cycles as f64 / outcome.wall.as_secs_f64().max(1e-9) / 1e6
        );
    }
    write_metrics(parsed, &snap)
}

/// One program, one machine, stage spans by hand.
fn profile_target(parsed: &ParsedArgs, target: &str) -> Outcome {
    let tele = Telemetry::enabled();
    let cycles = parsed.parsed_or("--cycles", 10_000_000u64)?;
    let root = tele.span_root("profile");
    let (program, mut machine) = load_target(parsed, target, &tele)?;
    let run = run_engine(parsed, &program, &mut machine, cycles, &tele)?;
    let stats = run.result.map_err(exec_failed)?;
    let run_wall = run.wall;
    drop(root);
    let snap = tele.snapshot();
    println!("profile: {target} ({cycles} cycle budget)");
    println!();
    print!("{}", snap.span_tree_report());
    println!();
    println!(
        "run: {} guest cycles in {run_wall:.2?} — {:.2} Mcycles/s, {:.2} Minstr/s of host time",
        stats.cycles,
        stats.host_cycles_per_sec(run_wall) / 1e6,
        stats.dynamic_instructions() as f64 / run_wall.as_secs_f64().max(1e-9) / 1e6,
    );
    println!("guest: {stats}");
    print_engine_summary(&run.backend, Some(stats.cycles));
    write_metrics(parsed, &snap)
}

/// `mipsx snapshot <save|restore|info>`: the checkpoint/restore surface.
///
/// `save` runs a target for `--cycles` and writes the machine (plus the
/// fault plan's delivery cursor) to `--out`; `restore` reads a snapshot
/// back in a *fresh process* and runs it to completion, printing the same
/// stats block a from-scratch run would — so CI can diff the two outputs
/// byte for byte; `info` prints the self-describing header without
/// constructing a machine at all.
fn cmd_snapshot(args: &[String]) -> Outcome {
    match args.first().map(String::as_str) {
        Some("save") => snapshot_save(&args[1..]),
        Some("restore") => snapshot_restore(&args[1..]),
        Some("info") => snapshot_info(&args[1..]),
        other => Err(CliError::Usage(Some(match other {
            Some(other) => format!("snapshot {other}: expected save, restore or info"),
            None => "snapshot: expected save, restore or info".into(),
        }))),
    }
}

fn snapshot_save(args: &[String]) -> Outcome {
    let parsed = parse(
        args,
        &[
            flag("--cycles"),
            flag("--slots"),
            flag("--faults"),
            flag("--out"),
        ],
    )?;
    let target = target_arg(&parsed)?;
    let Some(out) = parsed.value("--out") else {
        return fail("snapshot save: --out <path> is required");
    };
    let cycles = parsed.parsed_or("--cycles", 0u64)?;
    let mut plan = faults_arg(&parsed)?.unwrap_or_else(FaultPlan::none);
    let (_, mut machine) = load_target(&parsed, target, &Telemetry::disabled())?;
    // --cycles 0 snapshots the freshly loaded machine: restoring that is
    // exactly a from-scratch run, which gives CI its reference output.
    if cycles > 0 {
        match machine.run_with_faults(cycles, &mut NullSink, &mut plan) {
            Err(RunError::CycleLimit { .. }) => {}
            Ok(stats) => eprintln!(
                "mipsx: note: program halted at cycle {} (before the {cycles}-cycle mark); \
                 snapshotting the final state",
                stats.cycles
            ),
            Err(e) => return fail(exec_failed(e)),
        }
    }
    let bytes = machine
        .save_snapshot(Some(&plan))
        .map_err(|e| format!("snapshot failed: {e}"))?;
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("mipsx: {} bytes written to {out}", bytes.len());
    let info = mipsx::core::snapshot::inspect(&bytes)
        .map_err(|e| format!("INTERNAL ERROR: just-written snapshot does not inspect: {e}"))?;
    print!("{info}");
    Ok(())
}

fn snapshot_restore(args: &[String]) -> Outcome {
    let parsed = parse(args, &[flag("--cycles")])?;
    let path = target_arg(&parsed)?;
    let cycles = parsed.parsed_or("--cycles", 10_000_000u64)?;
    let bytes = std::fs::read(path).map_err(cannot_read(path))?;
    let (mut machine, plan) =
        Machine::restore_snapshot(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let mut plan = plan.unwrap_or_else(FaultPlan::none);
    if !machine.halted() {
        machine
            .run_with_faults(cycles, &mut NullSink, &mut plan)
            .map_err(exec_failed)?;
    }
    println!("{}", machine.stats());
    println!("icache: {}", machine.icache().stats());
    println!("ecache: {}", machine.ecache().stats());
    Ok(())
}

fn snapshot_info(args: &[String]) -> Outcome {
    let Some(path) = args.first() else {
        return Err(CliError::Usage(None));
    };
    let bytes = std::fs::read(path).map_err(cannot_read(path))?;
    let info = mipsx::core::snapshot::inspect(&bytes).map_err(|e| format!("{path}: {e}"))?;
    print!("{info}");
    Ok(())
}

/// `mipsx asm` (words as hex) and `mipsx dis` (the assemble/disassemble
/// round trip).
fn cmd_asm(dis: bool, args: &[String]) -> Outcome {
    let Some(path) = args.first() else {
        return Err(CliError::Usage(None));
    };
    let program = assemble_file(path, cannot_read(path))?;
    if dis {
        for line in disassemble(program.origin, &program.words) {
            println!("{line}");
        }
    } else {
        for (i, w) in program.words.iter().enumerate() {
            println!("{:#07x}: {w:08x}", program.origin + i as u32);
        }
    }
    Ok(())
}

fn cmd_info() -> Outcome {
    let cfg = MachineConfig::mipsx();
    println!("MIPS-X (Chow & Horowitz, ISCA 1987)");
    println!(
        "  clock              : {} MHz (16 MHz first silicon)",
        cfg.clock_mhz
    );
    println!(
        "  pipeline           : IF RF ALU MEM WB, {} branch delay slots",
        cfg.branch_delay_slots
    );
    println!(
        "  icache             : {} words ({} rows x {} ways x {}-word blocks), {}-cycle miss, {}-word fetch-back",
        cfg.icache.size_words(),
        cfg.icache.rows,
        cfg.icache.ways,
        cfg.icache.block_words,
        cfg.icache.miss_penalty,
        cfg.icache.fetch_words
    );
    println!(
        "  ecache             : {} words, {}-word blocks, late-miss retry (+{} cycle)",
        cfg.ecache.size_words, cfg.ecache.block_words, cfg.ecache.late_miss_overhead
    );
    println!(
        "  memory latency     : {} cycles per retry loop",
        cfg.mem_latency
    );
    println!("  coprocessor scheme : {}", cfg.coproc_scheme);
    println!("  exception vector   : {:#x}", cfg.exception_vector);
    Ok(())
}

fn dispatch(args: &[String]) -> Outcome {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage(None));
    };
    match cmd.as_str() {
        "info" => cmd_info(),
        "asm" => cmd_asm(false, rest),
        "dis" => cmd_asm(true, rest),
        "run" => cmd_run(rest),
        "trace" => cmd_trace(rest),
        "soak" => cmd_soak(rest),
        "lint" => cmd_lint(rest),
        "analyze" => cmd_analyze(rest),
        "sweep" => cmd_sweep(rest),
        "profile" => cmd_profile(rest),
        "snapshot" => cmd_snapshot(rest),
        "reproduce" => cmd_reproduce(rest),
        _ => Err(CliError::Usage(None)),
    }
}

/// The one place a failure is rendered and an exit code chosen.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Err(e) = dispatch(&args) else {
        return ExitCode::SUCCESS;
    };
    match e {
        CliError::Usage(msg) => {
            if let Some(msg) = msg {
                eprintln!("mipsx: {msg}");
            }
            eprintln!("{USAGE}");
        }
        CliError::Failed(msg) => eprintln!("mipsx: {msg}"),
        CliError::Reported => {}
    }
    ExitCode::FAILURE
}

//! The repository's benchmark: one command, one process, one thread.
//!
//! ```text
//! perfbench --workload <paper_tables|board_pipeline|ideal_block>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones from a separate traced run. Either way it checks every
//! output against its reference; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`, and any
//! failed operation makes the exit code 1. Lines before it, starting with
//! `#`, stamp the run and describe the samples. `UPDATE_PINS=1` rewrites
//! the pinned references under `pinned/` from this run's outputs.

mod jobs;
mod layers;
mod measure;
mod paper;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mipsx_bench::experiments as e;
use mipsx_bench::SEEDS;
use mipsx_core::{Machine, MachineConfig};
use mipsx_engine::FallbackCause;
use mipsx_exec::EngineKind;
use mipsx_explore::key::fnv1a;
use mipsx_explore::{run_sweep, SweepOptions};

use jobs::{Job, Outcome};
use measure::{describe, median, peak_rss_mb, secs, Gate, HostSpeed, Metrics, Spans, SplitMix};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 2;
/// Set-up is repeated this many times and its median reported.
const SETUP_REPS: usize = 5;
/// Fewest measured passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Traced runs time this many extra paper passes on the other workloads.
const PAPER_PASSES_IN_TRACE: usize = 3;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    PaperTables,
    BoardPipeline,
    IdealBlock,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "paper_tables" => Ok(Workload::PaperTables),
            "board_pipeline" => Ok(Workload::BoardPipeline),
            "ideal_block" => Ok(Workload::IdealBlock),
            other => Err(format!(
                "unknown workload {other} (known: paper_tables, board_pipeline, ideal_block)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::BoardPipeline => "board_pipeline",
            Workload::IdealBlock => "ideal_block",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::PaperTables,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], not {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// The benchmark package's directory.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn pins_path(name: &str) -> PathBuf {
    bench_dir().join("pinned").join(name)
}

fn update_pins() -> bool {
    std::env::var_os("UPDATE_PINS").is_some_and(|v| v == "1")
}

/// FNV-1a digest of the repository's Rust sources and manifests, which
/// identifies the code measured where no git metadata is present.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", fnv1a(&bytes))
}

/// The commit checked out at `root`, when `root` is a git checkout.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "none (not a git checkout)".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn stamp(args: &Args) {
    let root = bench_dir().parent().unwrap_or(bench_dir());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} default_seed={DEFAULT_SEED} \
         held_out_seed={HELD_OUT_SEED}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# commit={} source_digest={} rustc=\"{}\" host_cpus={cpus}",
        commit(root),
        source_digest(root),
        env!("PERFBENCH_RUSTC")
    );
    println!(
        "# load: one process on one thread, closed loop (each pass starts when the \
         previous one ends); modelled caches start empty for every job"
    );
}

/// Run `f` repeatedly for at least `seconds` and `MIN_PASSES` times.
fn for_seconds(seconds: f64, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        f();
        n += 1;
    }
}

/// Run set-up `reps` times, timing each and probing host speed before and
/// after it. Returns the last set-up's result, the times and the probes.
fn set_up<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>, HostSpeed), String> {
    let (mut times, mut speed, mut last) = (Vec::new(), HostSpeed::default(), None);
    for _ in 0..reps {
        speed.probe();
        let start = Instant::now();
        last = Some(f()?);
        times.push(secs(start.elapsed()));
        speed.probe();
    }
    Ok((last.expect("at least one set-up"), times, speed))
}

/// The end-to-end metrics every workload reports. Host times are scaled to
/// the reference host speed by the probes taken beside them (`speed` for
/// the passes, `setup_speed` for the set-ups); the unscaled figures are
/// printed.
fn end_to_end(
    out: &mut Metrics,
    (speed, setup_speed): (&HostSpeed, &HostSpeed),
    pass_s: &[f64],
    guest_mcycles_per_s: &[f64],
    setup_s: &[f64],
    peak_rss_mb: f64,
    rel_err: (f64, usize),
) {
    let k = speed.time_factor();
    println!("# host time, unadjusted: {}", describe("pass_s", pass_s));
    println!("# host time, unadjusted: {}", describe("setup_s", setup_s));
    println!(
        "# host time, unadjusted: guest_mcycles_per_s median {:.6}",
        median(guest_mcycles_per_s)
    );
    println!(
        "# passes: {}; scale {k:.6} to a host where the probe takes {} s",
        speed.describe(),
        HostSpeed::REFERENCE_S
    );
    println!(
        "# set-ups: {}; scale {:.6}",
        setup_speed.describe(),
        setup_speed.time_factor()
    );
    println!("# paper_rel_err over {} rows with a paper value", rel_err.1);
    out.set("pass_s", median(pass_s) * k, "s");
    out.set(
        "guest_mcycles_per_s",
        median(guest_mcycles_per_s) / k,
        "Mcycles/s",
    );
    out.set("setup_s", median(setup_s) * setup_speed.time_factor(), "s");
    out.set("peak_rss_mb", peak_rss_mb, "MiB");
    out.set("paper_rel_err", rel_err.0, "ratio");
}

/// Guest counts that must repeat exactly, from reference outcomes.
fn guest_counts(out: &mut Metrics, reference: &[Outcome]) {
    let sum = |f: fn(&Outcome) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    out.set(
        "core.cpi",
        sum(|o| o.stats.cycles) / sum(|o| o.stats.dynamic_instructions()),
        "cycles/instr",
    );
    out.set(
        "mem.icache_miss_ratio",
        sum(|o| o.icache.misses) / sum(|o| o.icache.accesses),
        "ratio",
    );
    out.set(
        "mem.ecache_miss_ratio",
        sum(|o| o.ecache.misses) / sum(|o| o.ecache.accesses),
        "ratio",
    );
}

/// Block-engine counters over `passes` passes; demotions are per pass.
fn engine_counts(out: &mut Metrics, totals: &jobs::Totals, passes: usize) {
    let share = if totals.engine_cycles == 0 {
        0.0
    } else {
        totals.fast_cycles as f64 / totals.engine_cycles as f64
    };
    out.set("engine.fast_cycle_share", share, "ratio");
    out.set(
        "engine.fallbacks",
        totals.fallbacks.iter().sum::<u64>() as f64 / passes as f64,
        "count/pass",
    );
    for c in FallbackCause::ALL {
        out.set(
            &format!("engine.fallbacks.{}", c.label()),
            totals.fallbacks[c.index()] as f64 / passes as f64,
            "count/pass",
        );
    }
}

/// `bench.<name>_s` from traced paper passes.
fn experiment_times(out: &mut Metrics, passes: &[paper::Pass]) {
    for (i, x) in paper::EXPERIMENTS.iter().enumerate() {
        let t: Vec<f64> = passes.iter().map(|p| secs(p.times[i])).collect();
        out.set(&format!("bench.{}_s", x.name), median(&t), "s");
    }
    let trace_driven: Vec<f64> = passes
        .iter()
        .map(|p| secs(p.time_of(&["icache", "orgs", "subblock"])) / secs(p.wall()))
        .collect();
    println!(
        "# paper pass shares: trace-driven Icache experiments (icache, orgs, subblock) {:.1}%, \
         pipeline sweeps (table1, ecache) {:.1}%",
        100.0 * median(&trace_driven),
        100.0
            * median(
                &passes
                    .iter()
                    .map(|p| secs(p.time_of(&paper::PIPELINE_EXPERIMENTS)) / secs(p.wall()))
                    .collect::<Vec<_>>()
            )
    );
}

/// The pinned `paper_tables` rows, one experiment per line.
fn paper_pins() -> Result<Vec<String>, String> {
    let path = pins_path("paper_tables.jsonl");
    match std::fs::read_to_string(&path) {
        Ok(s) => Ok(s.lines().map(str::to_owned).collect()),
        Err(_) if update_pins() => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// One paper pass, checked against the pins (or re-pinned under
/// `UPDATE_PINS=1`).
fn checked_paper_pass(
    pins: &mut Vec<String>,
    gate: &mut Gate,
    spans: Option<&mut Spans>,
) -> paper::Pass {
    let p = paper::pass(spans);
    if update_pins() && p.json.iter().all(Option::is_some) {
        *pins = p.json.iter().flatten().cloned().collect();
        let text: String = pins.iter().map(|l| format!("{l}\n")).collect();
        if let Err(e) = std::fs::write(pins_path("paper_tables.jsonl"), text) {
            gate.check(Some(format!("writing paper pins: {e}")));
        }
    }
    paper::check(&p, pins, gate);
    p
}

/// Compare `reference` with the pins recorded for (`workload`, `seed`), if
/// any, or record them under `UPDATE_PINS=1`.
fn check_job_pins(
    workload: Workload,
    seed: u64,
    jobs: &[Job],
    reference: &[Outcome],
    gate: &mut Gate,
) -> Result<(), String> {
    let path = pins_path("jobs.txt");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let prefix = format!("{} {seed} ", workload.name());
    let current: Vec<String> = jobs
        .iter()
        .zip(reference)
        .map(|(j, o)| format!("{prefix}{} {}", j.label, o.pin()))
        .collect();
    if update_pins() {
        let mut lines: Vec<String> = text
            .lines()
            .filter(|l| !l.starts_with(&prefix))
            .map(str::to_owned)
            .chain(current)
            .collect();
        lines.sort();
        let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
        return std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()));
    }
    let pinned: Vec<&str> = text.lines().filter(|l| l.starts_with(&prefix)).collect();
    if pinned.is_empty() {
        println!("# no pinned outcomes for seed {seed}; checked against the stepper only");
        return Ok(());
    }
    for line in &current {
        gate.check((!pinned.contains(&line.as_str())).then(|| format!("pin mismatch: {line}")));
    }
    if pinned.len() != current.len() {
        gate.check(Some(format!(
            "{} pinned outcomes for seed {seed}, {} jobs",
            pinned.len(),
            current.len()
        )));
    }
    Ok(())
}

/// The untimed reference: every job on the stepper, each counted against
/// the gate.
fn reference_run(m: &mut Machine, jobs: &[Job], gate: &mut Gate) -> (jobs::Totals, Vec<Outcome>) {
    let (totals, results) = jobs::pass(m, jobs, EngineKind::Interp, None);
    let mut reference = Vec::new();
    for r in results {
        gate.check(r.as_ref().err().cloned());
        reference.push(r.unwrap_or_default());
    }
    (totals, reference)
}

fn paper_tables(args: &Args, gate: &mut Gate, out: &mut Metrics) -> Result<(), String> {
    let mut pins = paper_pins()?;
    // Untimed: rebuild the pipeline jobs E1 and E11 simulate, run them on
    // the stepper, and check them against the sweep engine's own totals.
    let sources = jobs::sweep_sources(&[
        e::e1_branch_schemes::sweep_spec(),
        e::e11_ecache::sweep_spec(),
    ])?;
    let jobs = jobs::prepare(&sources, EngineKind::Interp)?;
    let mut m = Machine::new(MachineConfig::mipsx());
    let (ref_totals, reference) = reference_run(&mut m, &jobs, gate);
    let mut sweep_cycles = 0;
    for spec in [
        e::e1_branch_schemes::sweep_spec(),
        e::e11_ecache::sweep_spec(),
    ] {
        let outcome = run_sweep(&spec, &SweepOptions::default()).map_err(|e| e.to_string())?;
        sweep_cycles += outcome.rows.iter().map(|r| r.result.cycles).sum::<u64>();
    }
    gate.check((sweep_cycles != ref_totals.cycles).then(|| {
        format!(
            "E1+E11 job set: {} cycles here, {sweep_cycles} in the sweep engine",
            ref_totals.cycles
        )
    }));
    let guest_cycles = ref_totals.cycles as f64;

    if args.trace {
        checked_paper_pass(&mut pins, gate, None);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut spans = Spans::default();
        for_seconds(args.seconds, || {
            plain.push(secs(checked_paper_pass(&mut pins, gate, None).wall()));
            traced.push(checked_paper_pass(&mut pins, gate, Some(&mut spans)));
        });
        println!("# spans (traced passes): {}", spans.shares());
        let traced_s: Vec<f64> = traced.iter().map(|p| secs(p.wall())).collect();
        out.set(
            "trace_overhead",
            median(&traced_s) / median(&plain),
            "ratio",
        );
        experiment_times(out, &traced);
        engine_counts(out, &ref_totals, 1);
        guest_counts(out, &reference);
        layers::probe(&sources, &jobs, &SEEDS, out);
        return Ok(());
    }

    // Set-up here is a warm-up pass.
    let (warm, setup, setup_speed) =
        set_up(SETUP_REPS, || Ok(checked_paper_pass(&mut pins, gate, None)))?;
    let rel_err = paper::paper_rel_err(warm.rows.iter().flatten());
    let mut speed = HostSpeed::default();
    let (mut pass_s, mut rate) = (Vec::new(), Vec::new());
    for_seconds(args.seconds, || {
        speed.probe();
        let p = checked_paper_pass(&mut pins, gate, None);
        pass_s.push(secs(p.wall()));
        rate.push(guest_cycles / secs(p.time_of(&paper::PIPELINE_EXPERIMENTS)) / 1e6);
    });
    let peak = peak_rss_mb();
    end_to_end(
        out,
        (&speed, &setup_speed),
        &pass_s,
        &rate,
        &setup,
        peak,
        rel_err,
    );
    Ok(())
}

fn seeded(args: &Args, gate: &mut Gate, out: &mut Metrics) -> Result<(), String> {
    let base = match args.workload {
        Workload::IdealBlock => MachineConfig::cache_ideal(),
        _ => MachineConfig::mipsx(),
    };
    let sources = jobs::seeded_sources(args.seed, base);
    let mut m = Machine::new(base);
    // Set-up: generate, reorganize, compile, and one warm-up pass.
    let ((jobs, warm), setup, setup_speed) =
        set_up(if args.trace { 1 } else { SETUP_REPS }, || {
            let jobs = jobs::prepare(&sources, EngineKind::Block)?;
            let (_, warm) = jobs::pass(&mut m, &jobs, EngineKind::Block, None);
            Ok((jobs, warm))
        })?;
    // Untimed: the stepper is the reference the block engine must match
    // cycle for cycle; every measured pass must then repeat the set-up
    // outcomes exactly, and the pins (where present) hold those outcomes
    // to their recorded values.
    let (_, reference) = reference_run(&mut m, &jobs, gate);
    let expected = jobs::check_identity(&jobs, warm, &reference, gate);
    check_job_pins(args.workload, args.seed, &jobs, &expected, gate)?;
    let mut pins = paper_pins()?;

    let mut all = jobs::Totals::default();
    let mut timed_pass = |m: &mut Machine, gate: &mut Gate, spans: Option<&mut Spans>| {
        let (t, got) = jobs::pass(m, &jobs, EngineKind::Block, spans);
        jobs::check(&jobs, &got, &expected, gate);
        all.add(&t);
        (
            t.wall_ns as f64 / 1e9,
            t.cycles as f64 / t.run_ns as f64 * 1e3,
        )
    };

    if args.trace {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut spans = Spans::default();
        for_seconds(args.seconds, || {
            plain.push(timed_pass(&mut m, gate, None).0);
            traced.push(timed_pass(&mut m, gate, Some(&mut spans)).0);
        });
        println!("# spans (traced passes): {}", spans.shares());
        out.set("trace_overhead", median(&traced) / median(&plain), "ratio");
        engine_counts(out, &all, plain.len() + traced.len());
        guest_counts(out, &reference);
        let mut paper_spans = Spans::default();
        let passes: Vec<paper::Pass> = (0..PAPER_PASSES_IN_TRACE)
            .map(|_| checked_paper_pass(&mut pins, gate, Some(&mut paper_spans)))
            .collect();
        experiment_times(out, &passes);
        let mut rng = SplitMix(args.seed ^ 0x7472_6163_6573);
        let trace_seeds: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        layers::probe(&sources, &jobs, &trace_seeds, out);
        return Ok(());
    }

    let mut speed = HostSpeed::default();
    let (mut pass_s, mut rate) = (Vec::new(), Vec::new());
    for_seconds(args.seconds, || {
        speed.probe();
        let (wall, mcps) = timed_pass(&mut m, gate, None);
        pass_s.push(wall);
        rate.push(mcps);
    });
    println!(
        "# engine over measured passes: fast-path share {:.4} of {} guest cycles",
        all.fast_cycles as f64 / all.engine_cycles.max(1) as f64,
        all.engine_cycles
    );
    // Read before the paper pass below, whose allocations are not this
    // workload's.
    let peak = peak_rss_mb();
    // `paper_rel_err` is a property of the tables, so every workload reports
    // it from one untimed pass over them. This seed's programs give a
    // held-out check of Table 1 on inputs no table was tuned on.
    let rel_err = paper::paper_rel_err(
        checked_paper_pass(&mut pins, gate, None)
            .rows
            .iter()
            .flatten(),
    );
    let held_out = paper::paper_rel_err(&jobs::table1_rows(&sources, &reference));
    println!(
        "# Table 1 on this seed's synthetic programs: mean relative error {:.6} over {} rows",
        held_out.0, held_out.1
    );
    end_to_end(
        out,
        (&speed, &setup_speed),
        &pass_s,
        &rate,
        &setup,
        peak,
        rel_err,
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <paper_tables|board_pipeline|ideal_block> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    stamp(&args);
    let mut gate = Gate::default();
    let mut out = Metrics::default();
    let started = Instant::now();
    let result = match args.workload {
        Workload::PaperTables => paper_tables(&args, &mut gate, &mut out),
        _ => seeded(&args, &mut gate, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    for name in out.non_finite() {
        gate.failures
            .push(format!("metric {name} is not a finite number"));
    }
    let failed = gate.failures.len() as u64;
    println!(
        "# error_rate {failed}/{} = {} (operations: experiment tables and simulation jobs)",
        gate.attempted,
        failed as f64 / gate.attempted.max(1) as f64
    );
    for f in gate.failures.iter().take(20) {
        println!("# FAILED {f}");
    }
    println!("# elapsed {:.3} s", secs(started.elapsed()));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        gate.attempted.max(1),
        out.to_json()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

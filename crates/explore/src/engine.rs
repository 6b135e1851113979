//! Sweep execution: expand a spec, shard the jobs across the pool, serve
//! repeats from the result store, and aggregate order-independently.
//!
//! Aggregated reports are a pure function of the job list and the per-job
//! results, assembled strictly in job-index order — so a 4-thread run and
//! a serial run of the same spec render **byte-identical** JSON, CSV and
//! markdown. Wall-clock time lives outside the rendered reports for
//! exactly that reason: per-job wall times ride in [`SweepRow::wall_ns`]
//! and render only through the explicitly-timed variants
//! ([`SweepOutcome::to_json_timed`], [`SweepOutcome::to_csv_timed`]).
//!
//! When [`SweepOptions::telemetry`] is live, every job records stage
//! spans (`job/assemble`, `job/reorganize`, `job/compile`,
//! `job/construct`, `job/decode`, `job/run` — the preparation spans only
//! on an image-cache miss, since preparation runs once per (workload,
//! scheme) and is shared through [`SweepOptions::images`]) plus
//! deterministic guest counters (`guest.<field>` for every [`JobResult`]
//! field — totals provably identical between serial and N-thread runs),
//! and the sweep records `sweep`/`sweep/expand`/`sweep/execute`/
//! `sweep/aggregate` spans. The per-job spans are pinned to the root of
//! the span tree so their paths do not depend on whether the job ran
//! inline (serial) or on a pool worker.
//!
//! Each job runs on the execution backend its point selects
//! ([`SimPoint::engine`](crate::spec::SimPoint)): the cycle-accurate
//! stepper, the basic-block engine (seeded from the image's shared
//! compiled template), or the lockstep-checked stepper.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use mipsx_core::probe::{json_escape, NullSink};
use mipsx_core::{FaultPlan, InterlockPolicy, Machine, RunError, RunStats, SimConfig};
use mipsx_engine::BlockEngine;
use mipsx_exec::{
    AnyBackend, BlockBackend, CheckedBackend, EngineKind, ExecBackend, ExecError, Stepper,
};
use mipsx_mem::{CacheStats, Icache};
use mipsx_telemetry::Telemetry;

use crate::image::{ImageCache, PreparedArtifact};
use crate::journal::{fingerprint, Journal, JournalConfig};
use crate::key::{job_key, key_hex};
use crate::pool::run_indexed;
#[cfg(test)]
use crate::spec::Workload;
use crate::spec::{Job, SpecError, SweepSpec};
use crate::store::ResultStore;

mipsx_core::with_run_stats! {
    /// Everything one job measures, as raw counters: every [`RunStats`]
    /// counter, in `RunStats` order, then the miss FSM's activations, the
    /// cache counters and the reorganizer's scheduling counters. Derived
    /// metrics are computed on demand by `RunStats`' and [`CacheStats`]'
    /// methods, so cached and fresh results agree bit-for-bit. Trace-driven
    /// jobs fill only the Icache counters.
    pub struct JobResult {
        /// Cache-miss FSM activations (stalls started).
        stall_events,
        /// Icache accesses (trace jobs: trace length).
        icache_accesses,
        /// Icache misses.
        icache_misses,
        /// Icache-level stall cycles (miss service).
        icache_fill_stalls,
        /// Ecache accesses (data side).
        ecache_accesses,
        /// Ecache misses.
        ecache_misses,
        /// Conditional branches the reorganizer scheduled.
        sched_branches,
        /// Branches the reorganizer emitted squashing.
        sched_squashing,
        /// Delay slots the reorganizer left as no-ops.
        sched_slot_nops,
        /// No-ops inserted by the load-delay pass.
        sched_load_nops,
    }
}

impl JobResult {
    /// The leading [`RunStats`] counters, as a `RunStats`; the exact
    /// inverse of [`JobResult::from_run_stats`].
    pub fn run_stats(&self) -> RunStats {
        let fields = self.to_fields();
        RunStats::from_fields(std::array::from_fn(|i| fields[i]))
    }

    /// A result holding `stats`, every other counter zero.
    pub fn from_run_stats(stats: &RunStats) -> JobResult {
        let mut fields = [0; JobResult::FIELDS.len()];
        fields[..RunStats::FIELDS.len()].copy_from_slice(&stats.to_fields());
        JobResult::from_fields(fields)
    }

    /// The Icache counters, as a [`CacheStats`] (miss ratio, fetch cost).
    pub fn icache(&self) -> CacheStats {
        CacheStats {
            accesses: self.icache_accesses,
            misses: self.icache_misses,
            stall_cycles: self.icache_fill_stalls,
            ..CacheStats::default()
        }
    }

    /// The Ecache counters, as a [`CacheStats`] (miss ratio).
    pub fn ecache(&self) -> CacheStats {
        CacheStats {
            accesses: self.ecache_accesses,
            misses: self.ecache_misses,
            ..CacheStats::default()
        }
    }

    /// `(name, value)` pairs in [`JobResult::FIELDS`] order.
    pub fn named_fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
        JobResult::FIELDS.into_iter().zip(self.to_fields())
    }

    /// `field=value` lines in [`JobResult::FIELDS`] order (the store format).
    pub fn to_record(&self) -> String {
        self.named_fields()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect()
    }

    /// Rebuild from parsed `(name, value)` pairs; `None` unless every field
    /// appears exactly once and no unknown field appears.
    pub fn from_pairs(pairs: &[(&str, u64)]) -> Option<JobResult> {
        let mut fields = [None; JobResult::FIELDS.len()];
        for &(k, v) in pairs {
            let i = JobResult::FIELDS.iter().position(|&f| f == k)?;
            if fields[i].replace(v).is_some() {
                return None;
            }
        }
        if fields.contains(&None) {
            return None;
        }
        Some(JobResult::from_fields(
            fields.map(Option::unwrap_or_default),
        ))
    }

    /// Derived metrics in report order.
    pub fn derived_metrics(&self) -> Vec<(&'static str, f64)> {
        let (stats, icache) = (self.run_stats(), self.icache());
        vec![
            ("cpi", stats.cpi()),
            ("cycles_per_branch", stats.cycles_per_branch()),
            ("icache_miss_ratio", icache.miss_ratio()),
            ("icache_fetch_cost", icache.avg_access_cycles()),
            ("ecache_miss_ratio", self.ecache().miss_ratio()),
            ("ecache_stall_fraction", stats.ecache_stall_fraction()),
        ]
    }
}

/// How a sweep is executed.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads (0 or 1 = serial).
    pub threads: usize,
    /// The result store (disabled = always simulate).
    pub store: ResultStore,
    /// Host telemetry (disabled by default — the sweep then pays only a
    /// branch per recording site).
    pub telemetry: Telemetry,
    /// Crash-safe progress journal ([`crate::journal`]). When set, jobs
    /// completed in a previous run are replayed from the result store,
    /// long jobs checkpoint mid-run, and — for byte-identity between an
    /// interrupted-then-resumed run and an uninterrupted one — every row
    /// renders `cached: false` regardless of store state.
    pub journal: Option<JournalConfig>,
    /// Shared prepared-image cache ([`crate::image`]): workload
    /// generation, reorganization and block-engine compilation happen once
    /// per distinct (workload, scheme) and are shared read-only across the
    /// worker fleet. Defaults to a fresh cache; clone one `ImageCache`
    /// into several sweeps to share preparation between them too.
    pub images: ImageCache,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            threads: 1,
            store: ResultStore::disabled(),
            telemetry: Telemetry::disabled(),
            journal: None,
            images: ImageCache::new(),
        }
    }
}

/// One aggregated report row: a job plus its result.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRow {
    /// Grid-point index (rows of a point are contiguous).
    pub point_index: usize,
    /// Grid-point label.
    pub point_label: String,
    /// Workload identity.
    pub workload: String,
    /// Fault-plan spec, if any.
    pub fault: Option<String>,
    /// Content-address of the result (16 hex digits).
    pub key: String,
    /// Whether the result was served from the store.
    pub cached: bool,
    /// The measured counters.
    pub result: JobResult,
    /// Wall time this job took on its worker (preparation + simulation,
    /// or the store read for a cached row). **Not** part of the
    /// byte-identical reports — rendered only by the `_timed` variants.
    pub wall_ns: u64,
    /// The quarantine note: a panicking job degrades to this row — zeroed
    /// counters, the panic message here — instead of aborting the sweep.
    pub failed: Option<String>,
}

/// A finished sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// One row per job, in expansion (index) order.
    pub rows: Vec<SweepRow>,
    /// How many rows were served from the result store.
    pub cache_hits: usize,
    /// Wall-clock time of the execution phase. Deliberately **not** part
    /// of any rendered report, so reports stay byte-identical across
    /// thread counts and machines.
    pub wall: Duration,
}

impl SweepOutcome {
    /// Merge the results of one grid point's rows (field-wise counter
    /// sums) — the canonical cross-seed aggregation.
    pub fn merged_point(&self, point_index: usize) -> JobResult {
        let mut merged = JobResult::default();
        for row in self.rows.iter().filter(|r| r.point_index == point_index) {
            merged.merge(&row.result);
        }
        merged
    }

    /// The number of distinct grid points.
    pub fn point_count(&self) -> usize {
        self.rows.last().map_or(0, |r| r.point_index + 1)
    }

    /// How many rows are quarantined failures.
    pub fn failed_count(&self) -> usize {
        self.rows.iter().filter(|r| r.failed.is_some()).count()
    }

    /// The JSON report: cache-hit counts plus every row's raw counters and
    /// derived metrics. Byte-identical for identical specs and store
    /// states, regardless of thread count.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let mut fields: Vec<String> = vec![
                    format!("\"point\":\"{}\"", json_escape(&row.point_label)),
                    format!("\"workload\":\"{}\"", json_escape(&row.workload)),
                    format!(
                        "\"fault\":{}",
                        match &row.fault {
                            Some(f) => format!("\"{}\"", json_escape(f)),
                            None => "null".to_owned(),
                        }
                    ),
                    format!("\"key\":\"{}\"", row.key),
                    format!("\"cached\":{}", row.cached),
                    format!(
                        "\"failed\":{}",
                        match &row.failed {
                            Some(msg) => format!("\"{}\"", json_escape(msg)),
                            None => "null".to_owned(),
                        }
                    ),
                ];
                fields.extend(
                    row.result
                        .named_fields()
                        .map(|(k, v)| format!("\"{k}\":{v}")),
                );
                fields.extend(
                    row.result
                        .derived_metrics()
                        .into_iter()
                        .map(|(k, v)| format!("\"{k}\":{v}")),
                );
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        format!(
            "{{\"jobs\":{},\"cache_hits\":{},\"rows\":[{}]}}",
            self.rows.len(),
            self.cache_hits,
            rows.join(",")
        )
    }

    /// The CSV report (header + one line per row).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("point,workload,fault,key,cached,failed");
        for name in JobResult::FIELDS {
            out.push(',');
            out.push_str(name);
        }
        for (name, _) in JobResult::default().derived_metrics() {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for row in &self.rows {
            let csv_quote = |s: &str| format!("\"{}\"", s.replace('"', "\"\""));
            out.push_str(&csv_quote(&row.point_label));
            out.push(',');
            out.push_str(&csv_quote(&row.workload));
            out.push(',');
            out.push_str(&csv_quote(row.fault.as_deref().unwrap_or("")));
            out.push(',');
            out.push_str(&row.key);
            out.push(',');
            out.push_str(if row.cached { "true" } else { "false" });
            out.push(',');
            out.push_str(&csv_quote(row.failed.as_deref().unwrap_or("")));
            for v in row.result.to_fields() {
                out.push(',');
                out.push_str(&v.to_string());
            }
            for (_, v) in row.result.derived_metrics() {
                out.push(',');
                out.push_str(&format!("{v:.6}"));
            }
            out.push('\n');
        }
        out
    }

    /// The human-readable markdown table (condensed metric set).
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| point | workload | cycles | CPI | cyc/branch | I$ miss | fetch cyc | E$ miss | E$ stall |\n\
             |---|---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for row in &self.rows {
            let r = &row.result;
            let (stats, icache) = (r.run_stats(), r.icache());
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} | {:.3} | {:.2}% | {:.3} | {:.2}% | {:.2}% |\n",
                row.point_label,
                row.workload,
                r.cycles,
                stats.cpi(),
                stats.cycles_per_branch(),
                icache.miss_ratio() * 100.0,
                icache.avg_access_cycles(),
                r.ecache().miss_ratio() * 100.0,
                stats.ecache_stall_fraction() * 100.0,
            ));
        }
        out.push_str(&format!(
            "\n{} jobs, {} served from cache\n",
            self.rows.len(),
            self.cache_hits
        ));
        let failed: Vec<&SweepRow> = self.rows.iter().filter(|r| r.failed.is_some()).collect();
        if !failed.is_empty() {
            out.push_str(&format!("{} quarantined:\n", failed.len()));
            for row in failed {
                out.push_str(&format!(
                    "- {} | {}: {}\n",
                    row.point_label,
                    row.workload,
                    row.failed.as_deref().unwrap_or("")
                ));
            }
        }
        out
    }

    /// [`SweepOutcome::to_json`] plus a trailing `"timings"` object keyed
    /// by row index, carrying per-job wall milliseconds and the sweep
    /// wall. The deterministic report is a byte-for-byte prefix; only the
    /// timing suffix varies run to run.
    pub fn to_json_timed(&self) -> String {
        let base = self.to_json();
        let per_job: Vec<String> = self
            .rows
            .iter()
            .map(|row| format!("{:.3}", row.wall_ns as f64 / 1e6))
            .collect();
        format!(
            "{},\"timings\":{{\"sweep_wall_ms\":{:.3},\"job_wall_ms\":[{}]}}}}",
            &base[..base.len() - 1],
            self.wall.as_secs_f64() * 1e3,
            per_job.join(",")
        )
    }

    /// [`SweepOutcome::to_csv`] with one extra trailing `wall_ms` column.
    pub fn to_csv_timed(&self) -> String {
        let base = self.to_csv();
        let mut lines = base.lines();
        let mut out = String::new();
        out.push_str(lines.next().unwrap_or(""));
        out.push_str(",wall_ms\n");
        for (line, row) in lines.zip(&self.rows) {
            out.push_str(line);
            out.push_str(&format!(",{:.3}\n", row.wall_ns as f64 / 1e6));
        }
        out
    }
}

/// Record the deterministic guest-side counters for one finished job.
/// These derive purely from the simulation result, so their totals are
/// identical whichever worker (or thread count) produced them — cached
/// rows record them too, keeping totals independent of store state.
fn record_guest(tele: &Telemetry, result: &JobResult) {
    if !tele.is_enabled() {
        return;
    }
    for (name, value) in result.named_fields() {
        tele.count(&format!("guest.{name}"), value);
    }
    tele.observe("guest.cycles_per_job", result.cycles);
}

/// Expand `spec` and execute every job on `opts.threads` workers, serving
/// unchanged cells from the result store.
///
/// Workers are panic-isolated: a job that panics becomes a quarantined
/// [`SweepRow`] (zeroed counters, [`SweepRow::failed`] set) while every
/// other job completes normally. Spec-level errors (unknown kernel, bad
/// fault plan) still abort the sweep — they mean the *request* is wrong,
/// not that one simulation went bad.
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepOutcome, SpecError> {
    let tele = &opts.telemetry;
    let _sweep_span = tele.span_root("sweep");
    let jobs = {
        let _s = tele.span("expand");
        spec.expand()?
    };
    tele.count("sweep.jobs", jobs.len() as u64);
    // Clamp the fleet to the job count — a 32-thread request over 4 jobs
    // spawns 4 workers, not 28 idle ones. The effective size is recorded
    // as a gauge (the timing section), since it legitimately differs
    // between a serial and a parallel run of the same spec.
    let threads = opts.threads.clamp(1, jobs.len().max(1));
    tele.gauge_max("sweep.effective_threads", threads as u64);
    let journal = match &opts.journal {
        Some(cfg) => {
            let journal = Journal::open(cfg, fingerprint(&jobs, spec.run_cycles))?;
            if journal.resumed() {
                tele.count("sweep.journal_done_at_open", journal.done_count() as u64);
            }
            Some(journal)
        }
        None => None,
    };
    let start = Instant::now();
    // Each slot: Err(panic message) from a quarantined worker, or the
    // job's own Result<(result, key, cached, wall_ns), SpecError>.
    let executed = {
        let _s = tele.span("execute");
        run_indexed(jobs.len(), threads, tele, |i| {
            execute_job(
                &jobs[i],
                spec.run_cycles,
                &opts.store,
                &opts.images,
                journal.as_ref(),
                tele,
            )
        })
    };
    let wall = start.elapsed();
    let _agg_span = tele.span("aggregate");
    let mut rows = Vec::with_capacity(jobs.len());
    let mut cache_hits = 0usize;
    for (job, outcome) in jobs.iter().zip(executed) {
        let (result, key, cached, wall_ns, failed) = match outcome {
            Ok(ok) => {
                let (result, key, cached, wall_ns) = ok?;
                (result, key_hex(key), cached, wall_ns, None)
            }
            // A panicking job is quarantined, not fatal: counters zero,
            // no key (preparation may not have reached hashing), and the
            // panic message on the row.
            Err(panic_msg) => (
                JobResult::default(),
                String::new(),
                false,
                0,
                Some(panic_msg),
            ),
        };
        cache_hits += usize::from(cached);
        rows.push(SweepRow {
            point_index: job.point_index,
            point_label: job.point_label.clone(),
            workload: job.workload.id(),
            fault: job.fault.clone(),
            key,
            cached,
            result,
            wall_ns,
            failed,
        });
    }
    Ok(SweepOutcome {
        rows,
        cache_hits,
        wall,
    })
}

thread_local! {
    /// One machine kept warm per worker thread. Constructing a `Machine`
    /// dominated serial sweep jobs (the `construct` span measured ~57 % of
    /// job wall time, almost all of it cache/memory allocation), so
    /// completed jobs park their machine here and the next job revives it
    /// with [`Machine::reset_with`] — same architectural state as a fresh
    /// build, allocations reused.
    static MACHINE_POOL: RefCell<Option<Machine>> = const { RefCell::new(None) };
}

fn execute_job(
    job: &Job,
    run_cycles: u64,
    store: &ResultStore,
    images: &ImageCache,
    journal: Option<&Journal>,
    tele: &Telemetry,
) -> Result<(JobResult, u64, bool, u64), SpecError> {
    // The job span is pinned to the tree root so its path is "job" whether
    // this runs inline (inside sweep/execute, serial) or on a pool worker.
    let _job_span = tele.span_root("job");
    #[cfg(test)]
    deliberate_test_panic(job);
    let job_start = Instant::now();
    let image = images.get_or_prepare(job, tele)?;
    let key = job_key(
        &job.point,
        &job.workload.id(),
        image.digest,
        job.fault.as_deref(),
        run_cycles,
    );
    match journal {
        // A journaled job already marked done replays from the store; it
        // renders `cached: false` (and counts `sweep.resumed`, not a
        // cache hit) so the resumed report is byte-identical to the
        // uninterrupted run's. A lost store entry just recomputes.
        Some(j) if j.is_done(key) => {
            if let Some(result) = store.load(key, tele) {
                tele.count("sweep.resumed", 1);
                record_guest(tele, &result);
                let wall_ns = job_start.elapsed().as_nanos() as u64;
                tele.timing_observe("job.wall_ns", wall_ns);
                return Ok((result, key, false, wall_ns));
            }
        }
        // Journaled but not done: always simulate. Reading the store here
        // would let a crash between store-write and journal-append flip a
        // row's `cached` flag on resume — a byte difference.
        Some(_) => {}
        None => {
            if let Some(result) = store.load(key, tele) {
                tele.count("sweep.cache_hits", 1);
                record_guest(tele, &result);
                let wall_ns = job_start.elapsed().as_nanos() as u64;
                tele.timing_observe("job.wall_ns", wall_ns);
                return Ok((result, key, true, wall_ns));
            }
        }
    }
    tele.count("sweep.cache_misses", 1);
    let label = format!("{} | {}", job.point_label, job.workload.id());
    let result = match &image.artifact {
        PreparedArtifact::Trace(addrs) => {
            let _s = tele.span("run");
            let mut cache = Icache::new(job.point.cfg.icache);
            let trace = cache.simulate_trace(addrs.iter().copied());
            JobResult {
                icache_accesses: trace.stats.accesses,
                icache_misses: trace.stats.misses,
                icache_fill_stalls: trace.stats.stall_cycles,
                ..JobResult::default()
            }
        }
        PreparedArtifact::Program { program, report } => {
            let cfg = SimConfig {
                interlock: InterlockPolicy::Detect,
                ..job.point.cfg
            };
            // Checked jobs never checkpoint: the oracle joins at program
            // start, so a snapshot-resumed machine would diverge from it
            // by construction. They re-run whole instead.
            let checkpointing = job.point.engine != EngineKind::Checked;
            // A checkpointed machine resumes from its snapshot — the
            // fault-plan cursor rides inside — otherwise build fresh.
            let mut resumed = None;
            if checkpointing {
                if let Some(j) = journal {
                    if let Some(bytes) = j.load_snapshot(key) {
                        if let Ok(pair) = Machine::restore_snapshot(&bytes) {
                            tele.count("snapshot.restores", 1);
                            resumed = Some(pair);
                        }
                    }
                }
            }
            let restored = resumed.is_some();
            let (mut machine, mut plan) = match resumed {
                Some((machine, plan)) => (machine, plan),
                None => {
                    let mut machine = {
                        let _s = tele.span("construct");
                        match MACHINE_POOL.with(|slot| slot.borrow_mut().take()) {
                            Some(mut m) => {
                                m.reset_with(cfg);
                                m
                            }
                            None => Machine::new(cfg),
                        }
                    };
                    {
                        let _s = tele.span("decode");
                        machine.load_program(program);
                    }
                    let plan = match &job.fault {
                        None => None,
                        Some(spec) => Some(
                            FaultPlan::parse(spec)
                                .map_err(|e| SpecError(format!("{label}: fault plan: {e}")))?,
                        ),
                    };
                    (machine, plan)
                }
            };
            let mut backend = match job.point.engine {
                EngineKind::Interp => AnyBackend::Interp(Stepper),
                EngineKind::Block => {
                    let mut engine = if restored {
                        // Pre-checkpoint stores are invisible to the shared
                        // template's runtime self-modify watch; recompile
                        // from the restored memory image instead.
                        BlockEngine::new(program, &machine)
                    } else {
                        image
                            .block_template(&cfg, tele)
                            .expect("program images compile block templates")
                    };
                    if tele.is_enabled() {
                        engine.set_telemetry(tele.clone());
                    }
                    AnyBackend::Block(BlockBackend::from_engine(engine))
                }
                EngineKind::Checked => AnyBackend::Checked(CheckedBackend::new(&machine, program)),
            };
            let run_span = tele.span("run");
            let interval = journal.map_or(0, Journal::snapshot_interval);
            // Run in checkpoint-sized chunks (one chunk = the whole
            // budget when checkpointing is off). The budget is relative,
            // so a restored machine only gets what it has not yet spent,
            // and a genuine budget exhaustion re-reports `run_cycles` —
            // the same error an uninterrupted run produces.
            let stats = loop {
                let remaining = run_cycles.saturating_sub(machine.stats().cycles);
                let chunk = if interval > 0 && checkpointing {
                    remaining.min(interval)
                } else {
                    remaining
                };
                let attempt = match plan.as_mut() {
                    None => backend.run(&mut machine, chunk),
                    Some(plan) => backend.run_with_faults(&mut machine, chunk, &mut NullSink, plan),
                };
                match attempt {
                    Ok(stats) => break Ok(stats),
                    Err(ExecError::Run(RunError::CycleLimit { .. }))
                        if machine.stats().cycles < run_cycles =>
                    {
                        if checkpointing {
                            if let (Some(j), Ok(bytes)) =
                                (journal, machine.save_snapshot(plan.as_ref()))
                            {
                                tele.count("snapshot.saves", 1);
                                j.save_snapshot(key, &bytes);
                            }
                        }
                    }
                    Err(ExecError::Run(RunError::CycleLimit { .. })) => {
                        break Err(ExecError::Run(RunError::CycleLimit { limit: run_cycles }))
                    }
                    Err(e) => break Err(e),
                }
            }
            .map_err(|e| SpecError(format!("{label}: run failed: {e}")))?;
            // The checked backend's halt-state oracle comparison (a no-op
            // for the other backends).
            backend
                .final_check(&machine)
                .map_err(|e| SpecError(format!("{label}: {e}")))?;
            if tele.is_enabled() {
                if let Some(es) = backend.engine_stats() {
                    tele.count("engine.block_visits", es.block_visits);
                    tele.count("engine.fast_cycles", es.fast_cycles);
                    tele.count("engine.fast_instructions", es.fast_instructions);
                }
            }
            drop(run_span);
            let ic = machine.icache().stats();
            let ec = machine.ecache().stats();
            let result = JobResult {
                stall_events: machine.miss_fsm().misses_serviced,
                icache_accesses: ic.accesses,
                icache_misses: ic.misses,
                icache_fill_stalls: ic.stall_cycles,
                ecache_accesses: ec.accesses,
                ecache_misses: ec.misses,
                sched_branches: report.branches as u64,
                sched_squashing: report.squashing_branches as u64,
                sched_slot_nops: report.slot_nops as u64,
                sched_load_nops: report.load_nops as u64,
                ..JobResult::from_run_stats(&stats)
            };
            MACHINE_POOL.with(|slot| *slot.borrow_mut() = Some(machine));
            result
        }
    };
    store.save(key, &result, &label, tele);
    if let Some(j) = journal {
        // Store write first, journal line second: a crash in between
        // leaves a store entry without a done mark, and the resume
        // recomputes — never the other way around, which would resume
        // from a result that was never persisted.
        j.record_done(key);
    }
    record_guest(tele, &result);
    let wall_ns = job_start.elapsed().as_nanos() as u64;
    tele.timing_observe("job.wall_ns", wall_ns);
    Ok((result, key, false, wall_ns))
}

/// Test-only deterministic panic source (compiled only into this crate's
/// unit tests): the synth seed `0xdead_beef` stands in for "a job whose
/// simulation panics", proving quarantine end to end without planting a
/// bug in real simulation code.
#[cfg(test)]
fn deliberate_test_panic(job: &Job) {
    if let Workload::Synth { seed, .. } = &job.workload {
        if *seed == 0xdead_beef {
            panic!("deliberate test panic ({})", job.workload.id());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, Grid, SimPoint};

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new(SimPoint::mipsx());
        spec.workloads = vec![Workload::parse("kernel:sum_to_n").unwrap()];
        spec.grid = Grid::Axes(vec![Axis::parse_flag("mem_latency=3,5").unwrap()]);
        spec.run_cycles = 10_000_000;
        spec
    }

    #[test]
    fn sweep_runs_and_renders() {
        let outcome = run_sweep(&tiny_spec(), &SweepOptions::default()).unwrap();
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.cache_hits, 0);
        assert!(outcome.rows[0].result.cycles > 0);
        let json = outcome.to_json();
        assert!(json.contains("\"jobs\":2"), "{json}");
        let csv = outcome.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(outcome.to_markdown().contains("| point |"));
    }

    #[test]
    fn unknown_kernel_is_a_spec_error() {
        let mut spec = tiny_spec();
        spec.workloads = vec![Workload::Kernel("does_not_exist".into())];
        let e = run_sweep(&spec, &SweepOptions::default()).unwrap_err();
        assert!(e.0.contains("unknown kernel"), "{e}");
    }

    #[test]
    fn merged_point_sums_counters() {
        let mut spec = tiny_spec();
        spec.workloads = vec![
            Workload::parse("kernel:sum_to_n").unwrap(),
            Workload::parse("kernel:memcpy").unwrap(),
        ];
        let outcome = run_sweep(&spec, &SweepOptions::default()).unwrap();
        assert_eq!(outcome.point_count(), 2);
        let merged = outcome.merged_point(0);
        let by_hand = outcome.rows[0].result.cycles + outcome.rows[1].result.cycles;
        assert_eq!(merged.cycles, by_hand);
    }

    /// Every field set to a distinct value, so a cross-wired generated
    /// field shows up as a mismatch.
    fn filled() -> JobResult {
        JobResult::from_fields(std::array::from_fn(|i| (i as u64 + 1) * 1_000_003))
    }

    #[test]
    fn record_round_trips() {
        let r = JobResult {
            cycles: u64::MAX,
            ..filled()
        };
        let record = r.to_record();
        let fields: Vec<(&str, u64)> = record
            .lines()
            .map(|l| {
                let (k, v) = l.split_once('=').unwrap();
                (k, v.parse().unwrap())
            })
            .collect();
        assert_eq!(JobResult::from_pairs(&fields), Some(r));
        // A missing, a repeated or an unknown field all fail closed.
        assert_eq!(JobResult::from_pairs(&fields[1..]), None);
        let mut repeated = fields.clone();
        repeated.push(fields[0]);
        assert_eq!(JobResult::from_pairs(&repeated), None);
        let mut extra = fields.clone();
        extra.push(("mystery", 1));
        assert_eq!(JobResult::from_pairs(&extra), None);
    }

    #[test]
    fn job_result_fields_are_run_stats_then_its_own() {
        let own = [
            "stall_events",
            "icache_accesses",
            "icache_misses",
            "icache_fill_stalls",
            "ecache_accesses",
            "ecache_misses",
            "sched_branches",
            "sched_squashing",
            "sched_slot_nops",
            "sched_load_nops",
        ];
        let (shared, rest) = JobResult::FIELDS.split_at(RunStats::FIELDS.len());
        assert_eq!(shared, RunStats::FIELDS);
        assert_eq!(rest, own);
    }

    #[test]
    fn run_stats_and_from_run_stats_are_exact_inverses() {
        let s = RunStats::from_fields(std::array::from_fn(|i| (i as u64 + 1) * 7));
        assert_eq!(JobResult::from_run_stats(&s).run_stats(), s);
    }

    #[test]
    fn timed_reports_extend_plain_reports() {
        let outcome = run_sweep(&tiny_spec(), &SweepOptions::default()).unwrap();
        assert!(outcome.rows.iter().all(|r| r.wall_ns > 0));
        let timed = outcome.to_json_timed();
        assert!(timed.starts_with(&outcome.to_json()[..outcome.to_json().len() - 1]));
        assert!(timed.contains("\"job_wall_ms\":["), "{timed}");
        let csv = outcome.to_csv_timed();
        assert!(csv.lines().next().unwrap().ends_with(",wall_ms"));
        assert_eq!(csv.lines().count(), outcome.rows.len() + 1);
    }

    #[test]
    fn telemetry_records_stage_spans_and_guest_counters() {
        let opts = SweepOptions {
            telemetry: Telemetry::enabled(),
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&tiny_spec(), &opts).unwrap();
        let snap = opts.telemetry.snapshot();
        assert_eq!(snap.counter("sweep.jobs"), outcome.rows.len() as u64);
        assert_eq!(snap.counter("sweep.cache_misses"), 2);
        for (i, name) in JobResult::FIELDS.iter().enumerate() {
            let total: u64 = outcome.rows.iter().map(|r| r.result.to_fields()[i]).sum();
            assert_eq!(
                snap.counter(&format!("guest.{name}")),
                total,
                "guest.{name}"
            );
        }
        assert!(snap.counter("guest.cycles") > 0);
        for path in ["sweep", "sweep/execute", "job", "job/run", "job/assemble"] {
            assert!(snap.span_total_ns(path) > 0, "missing span {path}");
        }
    }

    #[test]
    fn a_panicking_job_degrades_to_a_quarantined_row() {
        let mut spec = tiny_spec();
        spec.workloads = vec![
            Workload::parse("kernel:sum_to_n").unwrap(),
            // The engine's test-only panic trigger (seed 0xdead_beef).
            Workload::parse("synth:tiny:3735928559").unwrap(),
        ];
        let opts = SweepOptions {
            threads: 2,
            telemetry: Telemetry::enabled(),
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&spec, &opts).unwrap();
        // 2 points x 2 workloads: the sweep survives with all 4 rows,
        // the panicking pair quarantined and the honest pair intact.
        assert_eq!(outcome.rows.len(), 4);
        assert_eq!(outcome.failed_count(), 2);
        for row in &outcome.rows {
            if row.workload.starts_with("synth") {
                let msg = row.failed.as_deref().expect("panicking job quarantined");
                assert!(msg.contains("deliberate test panic"), "{msg}");
                assert_eq!(row.result, JobResult::default());
                assert!(row.key.is_empty());
            } else {
                assert!(row.failed.is_none());
                assert!(row.result.cycles > 0);
            }
        }
        assert_eq!(
            opts.telemetry.snapshot().counters.get("pool.quarantined"),
            Some(&2)
        );
        // Failures render in every report format.
        assert!(outcome
            .to_json()
            .contains("\"failed\":\"deliberate test panic"));
        assert!(outcome.to_csv().lines().next().unwrap().contains(",failed"));
        assert!(outcome.to_markdown().contains("2 quarantined:"));
    }

    /// The journal cfg + a scratch path that will not collide across tests.
    fn temp_journal(tag: &str) -> crate::journal::JournalConfig {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        crate::journal::JournalConfig::new(std::env::temp_dir().join(format!(
            "mipsx-engine-{tag}-{}-{n}.journal",
            std::process::id()
        )))
    }

    #[test]
    fn interrupted_sweep_resumes_byte_identically() {
        let mut spec = tiny_spec();
        spec.workloads = vec![
            Workload::parse("kernel:sum_to_n").unwrap(),
            Workload::parse("kernel:memcpy").unwrap(),
        ];
        spec.faults = vec![None, Some("40:parity,90:jitter3".to_string())];
        // 2 points x 2 workloads x 2 fault plans = 8 jobs.
        let store = crate::store::temp_store("resume-ident");
        let journal_cfg = temp_journal("resume-ident");

        // The uninterrupted journaled run: the reference reports.
        let opts = SweepOptions {
            store: store.clone(),
            journal: Some(journal_cfg.clone()),
            ..SweepOptions::default()
        };
        let full = run_sweep(&spec, &opts).unwrap();
        assert!(full.rows.iter().all(|r| !r.cached && r.failed.is_none()));

        // Simulate a crash after three jobs: truncate the journal to its
        // header plus the first three done lines. The store still holds
        // every result — resume must *not* let that leak into the report.
        let text = std::fs::read_to_string(&journal_cfg.path).unwrap();
        let keep: Vec<&str> = text.lines().take(3 + 3).collect();
        assert_eq!(keep.iter().filter(|l| l.starts_with("done=")).count(), 3);
        std::fs::write(&journal_cfg.path, format!("{}\n", keep.join("\n"))).unwrap();

        let opts = SweepOptions {
            store: store.clone(),
            journal: Some(crate::journal::JournalConfig {
                resume: true,
                ..journal_cfg.clone()
            }),
            telemetry: Telemetry::enabled(),
            ..SweepOptions::default()
        };
        let resumed = run_sweep(&spec, &opts).unwrap();
        assert_eq!(resumed.to_json(), full.to_json());
        assert_eq!(resumed.to_csv(), full.to_csv());
        assert_eq!(resumed.to_markdown(), full.to_markdown());
        let snap = opts.telemetry.snapshot();
        assert_eq!(snap.counter("sweep.resumed"), 3);
        assert_eq!(snap.counter("sweep.cache_misses"), 5);

        // And the journal is whole again: a third run resumes everything.
        let opts = SweepOptions {
            store,
            journal: Some(crate::journal::JournalConfig {
                resume: true,
                ..journal_cfg
            }),
            ..SweepOptions::default()
        };
        let replayed = run_sweep(&spec, &opts).unwrap();
        assert_eq!(replayed.to_json(), full.to_json());
    }

    #[test]
    fn resume_refuses_a_journal_from_a_different_spec() {
        let journal_cfg = temp_journal("fingerprint");
        let opts = SweepOptions {
            journal: Some(journal_cfg.clone()),
            ..SweepOptions::default()
        };
        run_sweep(&tiny_spec(), &opts).unwrap();

        let mut other = tiny_spec();
        other.run_cycles += 1;
        let opts = SweepOptions {
            journal: Some(crate::journal::JournalConfig {
                resume: true,
                ..journal_cfg
            }),
            ..SweepOptions::default()
        };
        let err = run_sweep(&other, &opts).unwrap_err();
        assert!(err.0.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn checkpointed_job_resumes_from_its_snapshot_identically() {
        let mut spec = tiny_spec();
        // fib_recursive(10) runs for thousands of cycles — long enough to
        // be mid-flight at cycle 900 in every grid point.
        spec.workloads = vec![Workload::parse("kernel:fib_recursive").unwrap()];
        // Reference: the same spec, no journal at all.
        let reference = run_sweep(&spec, &SweepOptions::default()).unwrap();
        assert!(reference.rows[0].result.cycles > 1_500);

        // Plant a mid-run checkpoint for job 0 exactly as a killed
        // checkpointing sweep would have left it: machine built the same
        // way the engine builds it, stopped mid-flight, snapshot keyed by
        // the job key in the journal's .snaps directory.
        let journal_cfg = crate::journal::JournalConfig {
            snapshot_interval: 700,
            ..temp_journal("ckpt")
        };
        let jobs = spec.expand().unwrap();
        let job = &jobs[0];
        let tele = Telemetry::disabled();
        let image = ImageCache::new().get_or_prepare(job, &tele).unwrap();
        let key = job_key(
            &job.point,
            &job.workload.id(),
            image.digest,
            None,
            spec.run_cycles,
        );
        let program = image.program().expect("kernel workloads are programs");
        let mut machine = Machine::new(SimConfig {
            interlock: InterlockPolicy::Detect,
            ..job.point.cfg
        });
        machine.load_program(program);
        assert!(matches!(
            machine.run(900),
            Err(mipsx_core::RunError::CycleLimit { .. })
        ));
        let bytes = machine.save_snapshot(None).unwrap();
        {
            let j = Journal::open(&journal_cfg, fingerprint(&jobs, spec.run_cycles)).unwrap();
            j.save_snapshot(key, &bytes);
        }

        let opts = SweepOptions {
            journal: Some(crate::journal::JournalConfig {
                resume: true,
                ..journal_cfg
            }),
            telemetry: Telemetry::enabled(),
            ..SweepOptions::default()
        };
        let resumed = run_sweep(&spec, &opts).unwrap();
        let snap = opts.telemetry.snapshot();
        assert_eq!(snap.counter("snapshot.restores"), 1);
        // The restored job finished from cycle 900, not from zero — and
        // still produced the exact counters of the cold run, so the
        // reports agree byte for byte.
        assert_eq!(resumed.to_json(), reference.to_json());
        assert_eq!(resumed.to_csv(), reference.to_csv());
    }

    #[test]
    fn trace_jobs_fill_only_cache_counters() {
        let mut spec = SweepSpec::new(SimPoint::mipsx());
        spec.workloads = vec![Workload::parse("trace:medium:11").unwrap()];
        let outcome = run_sweep(&spec, &SweepOptions::default()).unwrap();
        let r = outcome.rows[0].result;
        assert!(r.icache_accesses > 0);
        assert_eq!(r.cycles, 0);
        assert!(r.icache().avg_access_cycles() > 1.0);
    }
}

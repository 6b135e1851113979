//! Shared prepared program images.
//!
//! Preparing a job — generating or assembling the workload, running the
//! reorganizer for the point's branch scheme, hashing the image — is pure
//! per-(workload, scheme) work, yet the sweep engine used to redo it for
//! every job. A 6-point × 5-seed synthetic sweep regenerated each synthetic
//! program six times and re-reorganized it once per job. [`ImageCache`]
//! lifts that work out of [`execute_job`](crate::engine) into a
//! content-addressed, process-wide cache shared read-only (via [`Arc`])
//! across the worker fleet:
//!
//! - **raw level** — one [`RawProgram`] per workload identity. Workload
//!   generation (synthetic program synthesis, kernel assembly, stream
//!   synthesis) is branch-scheme-independent, so six schemes over one seed
//!   share a single generation.
//! - **prepared level** — one [`PreparedImage`] per (workload, scheme):
//!   the reorganized [`Program`], its [`ScheduleReport`], and the image
//!   digest that feeds [`job_key`](crate::key::job_key).
//! - **template level** — inside each [`PreparedImage`], one compiled
//!   [`BlockEngine`] per canonical machine configuration
//!   ([`canonical_cfg`]). Workers clone the template in O(1)
//!   ([`BlockEngine::clone_template`] shares the compiled code cache) and
//!   run with private statistics.
//!
//! Every level uses the lock-then-[`OnceLock`] idiom: the map lock is held
//! only to fetch the cell, and exactly one caller runs the preparation
//! closure. That makes the `image.misses` counter equal to the number of
//! distinct keys — a *deterministic* quantity, invariant under thread
//! count and scheduling, so it lives in telemetry's deterministic section.
//!
//! ## Invalidation
//!
//! A `PreparedImage` is **immutable**: it reflects the workload generators
//! and reorganizer at preparation time, and nothing mutates it afterwards.
//! Self-modifying code does not invalidate it either — the block-engine
//! *template* stays compiled against the original image, and the
//! [`BlockEngine`] each worker clones from it watches stores **at
//! runtime**, recompiling from machine memory when a store lands in the
//! code region. Invalidation ownership therefore splits cleanly: the cache
//! owns nothing dynamic; each per-run engine clone owns its own dirtiness.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use mipsx_asm::Program;
use mipsx_core::SimConfig;
use mipsx_engine::BlockEngine;
use mipsx_reorg::{RawProgram, Reorganizer, ScheduleReport};
use mipsx_telemetry::Telemetry;
use mipsx_workloads::synth::{generate, SynthConfig};
use mipsx_workloads::traces::{instruction_trace, TraceConfig};
use mipsx_workloads::{find_kernel, kernel_names, streaming};

use crate::key::{canonical_cfg, fnv1a_words};
use crate::spec::{Job, SpecError, Workload};

/// What a prepared job simulates.
pub enum PreparedArtifact {
    /// A scheduled program plus its schedule report.
    Program {
        /// The reorganized, assembled image.
        program: Program,
        /// The reorganizer's scheduling statistics for that image.
        report: ScheduleReport,
    },
    /// A raw instruction-address trace (Icache-only job).
    Trace(Vec<u32>),
}

/// One fully prepared (workload, scheme) cell: the artifact, its digest,
/// and lazily compiled block-engine templates per machine configuration.
pub struct PreparedImage {
    /// The workload identity this image was prepared from.
    pub workload: String,
    /// FNV-1a digest of the image (program origin/entry/words, or the
    /// trace addresses) — the `img=` component of the job key.
    pub digest: u64,
    /// The prepared artifact itself.
    pub artifact: PreparedArtifact,
    templates: Mutex<HashMap<String, BlockEngine>>,
}

impl PreparedImage {
    fn new(workload: String, artifact: PreparedArtifact) -> PreparedImage {
        let digest = match &artifact {
            PreparedArtifact::Program { program, .. } => fnv1a_words(
                [program.origin, program.entry]
                    .into_iter()
                    .chain(program.words.iter().copied()),
            ),
            PreparedArtifact::Trace(addrs) => fnv1a_words(addrs.iter().copied()),
        };
        PreparedImage {
            workload,
            digest,
            artifact,
            templates: Mutex::new(HashMap::new()),
        }
    }

    /// The scheduled program, unless this is a trace image.
    pub fn program(&self) -> Option<&Program> {
        match &self.artifact {
            PreparedArtifact::Program { program, .. } => Some(program),
            PreparedArtifact::Trace(_) => None,
        }
    }

    /// An O(1) clone of the compiled block-engine template for `cfg`,
    /// compiling it (once per configuration, per image) on first use.
    /// `None` for trace images, which have no program to compile.
    pub fn block_template(&self, cfg: &SimConfig, tele: &Telemetry) -> Option<BlockEngine> {
        let program = self.program()?;
        let mut templates = self.templates.lock().unwrap();
        let template = templates.entry(canonical_cfg(cfg)).or_insert_with(|| {
            tele.count("image.template_compiles", 1);
            let _s = tele.span("compile");
            BlockEngine::from_program(program, cfg)
        });
        Some(template.clone_template())
    }

    /// How many block-engine templates this image has compiled.
    pub fn template_count(&self) -> usize {
        self.templates.lock().unwrap().len()
    }
}

type Cell<T> = Arc<OnceLock<Result<Arc<T>, SpecError>>>;

/// (workload identity, scheme). Trace workloads key with `None`: the
/// reorganizer never touches them.
type ImageKey = (String, Option<mipsx_reorg::BranchScheme>);

#[derive(Default)]
struct Inner {
    /// Workload identity → generated-but-unscheduled program. Generation
    /// is scheme-independent, so every scheme of a workload shares one.
    raws: Mutex<HashMap<String, Cell<RawProgram>>>,
    /// Prepared image per [`ImageKey`].
    images: Mutex<HashMap<ImageKey, Cell<PreparedImage>>>,
}

/// The process-wide prepared-image cache (see module docs). Cloning is
/// cheap and shares the underlying cache; [`SweepOptions`] carries one so
/// repeated sweeps (experiment suites, warm benchmark phases) share
/// preparation too.
///
/// [`SweepOptions`]: crate::engine::SweepOptions
#[derive(Clone, Default)]
pub struct ImageCache {
    inner: Arc<Inner>,
}

impl fmt::Debug for ImageCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImageCache")
            .field("images", &self.len())
            .finish()
    }
}

impl ImageCache {
    /// A fresh, empty cache.
    pub fn new() -> ImageCache {
        ImageCache::default()
    }

    /// How many prepared images are resident.
    pub fn len(&self) -> usize {
        self.inner.images.lock().unwrap().len()
    }

    /// True when nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The prepared image for `job`, preparing it exactly once per
    /// (workload, scheme) however many workers ask concurrently. Cache
    /// hits count `image.hits`; the single preparation per distinct key
    /// counts `image.misses` — both deterministic across thread counts.
    pub fn get_or_prepare(
        &self,
        job: &Job,
        tele: &Telemetry,
    ) -> Result<Arc<PreparedImage>, SpecError> {
        let scheme = match &job.workload {
            Workload::Trace { .. } => None,
            _ => Some(job.point.scheme),
        };
        let cell = {
            let mut images = self.inner.images.lock().unwrap();
            Arc::clone(images.entry((job.workload.id(), scheme)).or_default())
        };
        let mut fresh = false;
        let prepared = cell.get_or_init(|| {
            fresh = true;
            tele.count("image.misses", 1);
            self.prepare(job, tele).map(Arc::new)
        });
        if !fresh {
            tele.count("image.hits", 1);
        }
        prepared.clone()
    }

    fn prepare(&self, job: &Job, tele: &Telemetry) -> Result<PreparedImage, SpecError> {
        if let Workload::Trace { profile, seed } = &job.workload {
            let _s = tele.span("assemble");
            let cfg = match profile.as_str() {
                "medium" => TraceConfig::medium(*seed),
                "large" => TraceConfig::large(*seed),
                other => return Err(SpecError(format!("unknown trace profile {other}"))),
            };
            return Ok(PreparedImage::new(
                job.workload.id(),
                PreparedArtifact::Trace(instruction_trace(cfg)),
            ));
        }
        let raw = self.raw(&job.workload, tele)?;
        let _s = tele.span("reorganize");
        let (program, report) = Reorganizer::new(job.point.scheme)
            .reorganize(&raw)
            .map_err(|e| SpecError(format!("{}: reorganize failed: {e}", job.workload.id())))?;
        Ok(PreparedImage::new(
            job.workload.id(),
            PreparedArtifact::Program { program, report },
        ))
    }

    fn raw(&self, workload: &Workload, tele: &Telemetry) -> Result<Arc<RawProgram>, SpecError> {
        let cell = {
            let mut raws = self.inner.raws.lock().unwrap();
            Arc::clone(raws.entry(workload.id()).or_default())
        };
        cell.get_or_init(|| {
            let _s = tele.span("assemble");
            raw_program(workload).map(Arc::new)
        })
        .clone()
    }
}

/// Generate the raw (unscheduled) program for a non-trace workload.
fn raw_program(workload: &Workload) -> Result<RawProgram, SpecError> {
    match workload {
        Workload::Kernel(name) => find_kernel(name).map(|k| k.raw).ok_or_else(|| {
            SpecError(format!(
                "unknown kernel {name} (known: {})",
                kernel_names().join(", ")
            ))
        }),
        Workload::Synth { profile, seed } => SynthConfig::named(profile, *seed)
            .map(|cfg| generate(cfg).raw)
            .ok_or_else(|| SpecError(format!("unknown synth profile {profile}"))),
        Workload::Stream { words, reps } => Ok(streaming(*words, *reps)),
        Workload::Trace { .. } => unreachable!("trace workloads never reach raw generation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Grid, SimPoint, SweepSpec};
    use mipsx_exec::EngineKind;

    fn jobs_for(workloads: &[&str]) -> Vec<Job> {
        let mut spec = SweepSpec::new(SimPoint::mipsx());
        spec.workloads = workloads
            .iter()
            .map(|w| Workload::parse(w).unwrap())
            .collect();
        spec.grid = Grid::Axes(vec![]);
        spec.expand().unwrap()
    }

    #[test]
    fn preparation_happens_once_per_workload_and_scheme() {
        let cache = ImageCache::new();
        let tele = Telemetry::enabled();
        let jobs = jobs_for(&["kernel:sum_to_n"]);
        let a = cache.get_or_prepare(&jobs[0], &tele).unwrap();
        let b = cache.get_or_prepare(&jobs[0], &tele).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let snap = tele.snapshot();
        assert_eq!(snap.counter("image.misses"), 1);
        assert_eq!(snap.counter("image.hits"), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn schemes_share_the_raw_program_but_not_the_image() {
        let cache = ImageCache::new();
        let tele = Telemetry::disabled();
        let jobs = jobs_for(&["synth:pascal:7"]);
        let base = cache.get_or_prepare(&jobs[0], &tele).unwrap();
        let mut other_scheme = jobs[0].clone();
        other_scheme.point.scheme = mipsx_reorg::BranchScheme::table1()[1];
        assert_ne!(other_scheme.point.scheme, jobs[0].point.scheme);
        let rescheduled = cache.get_or_prepare(&other_scheme, &tele).unwrap();
        assert_eq!(cache.len(), 2);
        // Same workload generation, different schedule → digests differ
        // (schemes change the emitted image) but both came from one raw.
        assert_eq!(cache.inner.raws.lock().unwrap().len(), 1);
        assert_ne!(base.digest, rescheduled.digest);
    }

    #[test]
    fn block_templates_compile_once_per_config() {
        let cache = ImageCache::new();
        let tele = Telemetry::enabled();
        let jobs = jobs_for(&["kernel:sum_to_n"]);
        let image = cache.get_or_prepare(&jobs[0], &tele).unwrap();
        let cfg = jobs[0].point.cfg;
        let t1 = image.block_template(&cfg, &tele).unwrap();
        let t2 = image.block_template(&cfg, &tele).unwrap();
        assert_eq!(image.template_count(), 1);
        assert_eq!(tele.snapshot().counter("image.template_compiles"), 1);
        assert_eq!(t1.stats().blocks_compiled, t2.stats().blocks_compiled);
        let mut wider = cfg;
        wider.mem_latency += 2;
        image.block_template(&wider, &tele).unwrap();
        assert_eq!(image.template_count(), 2);
    }

    #[test]
    fn trace_images_have_no_program() {
        let cache = ImageCache::new();
        let tele = Telemetry::disabled();
        let jobs = jobs_for(&["trace:medium:11"]);
        let image = cache.get_or_prepare(&jobs[0], &tele).unwrap();
        assert!(image.program().is_none());
        assert!(image.block_template(&jobs[0].point.cfg, &tele).is_none());
        assert!(matches!(image.artifact, PreparedArtifact::Trace(_)));
    }

    #[test]
    fn engine_axis_does_not_split_the_image() {
        // interp and block points of the same (workload, scheme) share
        // one prepared image: the engine is a host-side execution choice.
        let cache = ImageCache::new();
        let tele = Telemetry::disabled();
        let jobs = jobs_for(&["kernel:memcpy"]);
        let interp = cache.get_or_prepare(&jobs[0], &tele).unwrap();
        let mut block_job = jobs[0].clone();
        block_job.point.engine = EngineKind::Block;
        let block = cache.get_or_prepare(&block_job, &tele).unwrap();
        assert!(Arc::ptr_eq(&interp, &block));
        assert_eq!(cache.len(), 1);
    }
}

//! # mipsx-explore — parallel design-space exploration
//!
//! Every tradeoff table in the paper (Table 1's branch schemes, the Icache
//! organization sweep, the Ecache latency study, the sub-block ablation) is
//! a set of point samples from a configuration grid. This crate turns that
//! pattern into a subsystem:
//!
//! - a declarative [`SweepSpec`]: a cartesian grid over [`SimConfig`] axes
//!   (Icache geometry, Ecache size/latency, branch scheme, coprocessor
//!   interface) crossed with workloads and optional fault plans;
//! - deterministic expansion into [`Job`]s and execution on a fixed-size
//!   [`pool`] of `std::thread` workers that take the next job index from
//!   one shared counter;
//! - a content-addressed [`store::ResultStore`]: each job is keyed by a
//!   stable hash of its canonicalized configuration, workload identity and
//!   program-image digest, so re-runs are incremental and only invalidated
//!   cells re-simulate;
//! - order-independent aggregation: results are collected by job index, so
//!   serial and parallel runs render **byte-identical** reports.
//!
//! The `mipsx sweep` subcommand drives the engine from a spec file or
//! `--grid` flags; the experiment harness (`mipsx-bench` E1/E3/E6/E7/E11/E12)
//! defines its grids as `SweepSpec`s and gets the parallelism and caching
//! for free.
//!
//! Passing a live [`Telemetry`] handle in [`SweepOptions::telemetry`]
//! additionally records per-stage spans, pool occupancy and store
//! latencies (see `mipsx sweep --metrics` / `mipsx profile`); the default
//! disabled handle keeps the engine on its pre-telemetry fast path.
//!
//! [`SimConfig`]: mipsx_core::SimConfig

pub mod engine;
pub mod image;
pub mod journal;
pub mod key;
pub mod pool;
pub mod spec;
pub mod store;

pub use engine::{run_sweep, JobResult, SweepOptions, SweepOutcome, SweepRow};
pub use image::{ImageCache, PreparedArtifact, PreparedImage};
pub use journal::Journal;
pub use key::{canonical_cfg, canonical_point, fnv1a, job_key};
pub use mipsx_exec::{AnyBackend, EngineKind, ExecBackend};
pub use mipsx_telemetry::{Snapshot, Telemetry};
pub use spec::{Axis, AxisField, AxisValue, Grid, Job, SimPoint, SpecError, SweepSpec, Workload};
pub use store::{temp_store, ResultStore};

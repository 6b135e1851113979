//! # mipsx-telemetry — host-side observability
//!
//! The core's probes make the *guest* observable (cycle-exact CPI
//! attribution, pipe diagrams, JSONL probes); this crate does the same
//! for the *host*: the sweep engine, the thread pool, the result store,
//! and the simulator's own wall-clock behaviour.
//!
//! Two primitives:
//!
//! - **Spans** — hierarchical wall-time intervals with RAII guards and a
//!   thread-local parent stack. `telemetry.span("run")` inside an open
//!   `"job"` span records under the path `job/run`; dropping the guard
//!   stops the clock. [`Telemetry::span_root`] pins a span to the root of
//!   the tree regardless of what is open on the calling thread, which is
//!   how per-job spans keep identical paths whether a job ran inline
//!   (serial sweep) or on a pool worker.
//! - **Metrics** — a typed registry of counters, gauges and u64 histograms
//!   with fixed log2 buckets. Metrics are split into a *deterministic*
//!   section (counts derived from simulation results: identical totals for
//!   a serial and an N-thread run of the same sweep) and a *timing*
//!   section (wall times, latencies, scheduling counters: honest but
//!   machine- and schedule-dependent). Reports render the two separately
//!   so the engine's byte-identical-aggregation guarantee survives.
//!
//! Everything funnels into a [`Snapshot`]: plain data with a
//! **commutative, associative, lossless** [`Snapshot::merge`] (counters
//! and histogram buckets add, gauges take the max, span stats combine
//! count/total/min/max), so per-thread or per-process snapshots combine
//! into the same totals in any order — property-tested in this crate's
//! test suite.
//!
//! **Zero cost when disabled:** a [`Telemetry::disabled`] handle carries
//! no registry; every recording method is a branch on an absent `Option`
//! and span guards never read the clock. The A/B bench
//! `crates/bench/benches/zero_cost.rs` holds the disabled path to ≥ 0.97×
//! the throughput of an enabled one, beside its `NullSink` check.

pub mod export;
pub mod metrics;
pub mod span;

use std::sync::{Arc, Mutex};

pub use metrics::{Hist, Snapshot, SpanStats};
pub use span::Span;

/// A handle to a telemetry registry (or to nothing, when disabled).
///
/// Clones share the registry, so a handle can be captured by worker
/// threads; all recording goes through one mutex, which is negligible at
/// the granularity this crate is used at (per job stage, not per cycle).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Snapshot>>>,
}

impl Telemetry {
    /// A live registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Snapshot::default()))),
        }
    }

    /// The inert handle: every recording call is a single branch, span
    /// guards are no-ops and never read the clock. This is the default.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// Whether recording is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state(&self, f: impl FnOnce(&mut Snapshot)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().expect("telemetry registry poisoned"));
        }
    }

    /// Add `n` to a **deterministic** counter — a count derived purely
    /// from simulation results, whose total must not depend on thread
    /// count or scheduling (jobs run, cache hits, guest cycles).
    pub fn count(&self, name: &str, n: u64) {
        self.with_state(|s| *s.counters.entry(name.to_owned()).or_insert(0) += n);
    }

    /// Record `value` into a **deterministic** log2 histogram.
    pub fn observe(&self, name: &str, value: u64) {
        self.with_state(|s| {
            s.histograms
                .entry(name.to_owned())
                .or_default()
                .record(value)
        });
    }

    /// Add `n` to a **timing-section** counter — a scheduling- or
    /// wall-clock-dependent count (busy and idle nanoseconds).
    pub fn timing_count(&self, name: &str, n: u64) {
        self.with_state(|s| *s.timing_counters.entry(name.to_owned()).or_insert(0) += n);
    }

    /// Record `value` into a **timing-section** log2 histogram
    /// (latencies in nanoseconds).
    pub fn timing_observe(&self, name: &str, value: u64) {
        self.with_state(|s| {
            s.timing_histograms
                .entry(name.to_owned())
                .or_default()
                .record(value)
        });
    }

    /// Raise a gauge to at least `value` (gauges merge by maximum, the
    /// only order-independent combine for level samples). Gauges live in
    /// the timing section.
    pub fn gauge_max(&self, name: &str, value: u64) {
        self.with_state(|s| {
            let g = s.gauges.entry(name.to_owned()).or_insert(0);
            *g = (*g).max(value);
        });
    }

    /// Open a span as a child of the innermost span already open on this
    /// thread (or as a root if none is). Dropping the guard records the
    /// elapsed wall time under the `/`-joined path.
    pub fn span(&self, name: &str) -> Span {
        Span::open(self.inner.clone(), name, false)
    }

    /// Open a span pinned to the **root** of the tree, ignoring whatever
    /// is open on this thread. Spans opened while the guard lives still
    /// nest under it — this keeps a job's span path (`job/run`, ...)
    /// identical whether the job ran inline under a sweep-level span or
    /// on a bare pool worker thread.
    pub fn span_root(&self, name: &str) -> Span {
        Span::open(self.inner.clone(), name, true)
    }

    /// Record `ns` under an explicit span `path` without a guard (for
    /// durations measured out-of-band).
    pub fn record_span_ns(&self, path: &str, ns: u64) {
        self.with_state(|s| s.spans.entry(path.to_owned()).or_default().record(ns));
    }

    /// A copy of everything recorded so far (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => inner.lock().expect("telemetry registry poisoned").clone(),
            None => Snapshot::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count("a", 1);
        t.observe("h", 9);
        t.gauge_max("g", 3);
        {
            let _s = t.span("root");
        }
        assert_eq!(t.snapshot(), Snapshot::default());
    }

    #[test]
    fn counters_accumulate_and_clones_share() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.count("jobs", 2);
        u.count("jobs", 3);
        assert_eq!(t.snapshot().counters["jobs"], 5);
    }

    #[test]
    fn spans_nest_by_thread_and_root_pins() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("sweep");
            {
                let _child = t.span("expand");
            }
            {
                let _job = t.span_root("job");
                let _stage = t.span("run");
            }
        }
        let snap = t.snapshot();
        let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(paths, ["job", "job/run", "sweep", "sweep/expand"]);
    }

    #[test]
    fn gauge_takes_the_max() {
        let t = Telemetry::enabled();
        t.gauge_max("depth", 2);
        t.gauge_max("depth", 7);
        t.gauge_max("depth", 3);
        assert_eq!(t.snapshot().gauges["depth"], 7);
    }

    #[test]
    fn explicit_span_record() {
        let t = Telemetry::enabled();
        t.record_span_ns("sweep", 100);
        t.record_span_ns("sweep", 50);
        let s = &t.snapshot().spans["sweep"];
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (2, 150, 50, 100));
    }
}

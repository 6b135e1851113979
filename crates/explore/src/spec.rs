//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] names a *grid* of simulation configurations — either a
//! cartesian product of [`Axis`] value lists applied to a base
//! [`SimPoint`], or an explicit list of labelled points — crossed with a
//! set of [`Workload`]s and (optionally) fault plans. [`SweepSpec::expand`]
//! turns it into a deterministic, stably-ordered list of [`Job`]s; the
//! order never depends on thread count or execution order, which is what
//! lets parallel and serial sweeps render byte-identical reports.
//!
//! Spec files are a plain line format (see [`SweepSpec::parse`]):
//!
//! ```text
//! # E12-style ablation over two workload traces
//! base mipsx
//! cycles 500000000
//! workload trace:medium:11
//! workload trace:medium:47
//! axis icache.whole_block_fill false true
//! ```

use std::fmt;

use mipsx_coproc::InterfaceScheme;
use mipsx_core::SimConfig;
use mipsx_exec::EngineKind;
use mipsx_reorg::{BranchScheme, SquashPolicy};
use mipsx_workloads::SynthConfig;

/// Default cycle budget per job (the experiment harness's historical
/// budget).
pub const DEFAULT_RUN_CYCLES: u64 = 500_000_000;

/// A sweep-spec or expansion error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

/// One point of the design space: a machine configuration plus the branch
/// scheme the code reorganizer schedules for. The two are kept coherent —
/// `cfg.branch_delay_slots` always equals `scheme.slots`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimPoint {
    /// The machine configuration jobs simulate under.
    pub cfg: SimConfig,
    /// The branch scheme programs are reorganized under.
    pub scheme: BranchScheme,
    /// Which execution backend runs the cycles. Every kind books the
    /// same cycles (the block engine by the cycle-splice contract), so
    /// this is a host-side throughput/verification choice, sweepable
    /// like any other field.
    pub engine: EngineKind,
}

impl SimPoint {
    /// Couple a configuration with a branch scheme (the scheme's slot
    /// count wins over whatever `cfg` carried). Runs on the
    /// cycle-accurate stepper; see [`SimPoint::with_engine`].
    pub fn new(mut cfg: SimConfig, scheme: BranchScheme) -> SimPoint {
        cfg.branch_delay_slots = scheme.slots;
        SimPoint {
            cfg,
            scheme,
            engine: EngineKind::Interp,
        }
    }

    /// The same point on a different execution backend.
    pub fn with_engine(mut self, engine: EngineKind) -> SimPoint {
        self.engine = engine;
        self
    }

    /// The shipped machine under the shipped branch scheme.
    pub fn mipsx() -> SimPoint {
        SimPoint::new(SimConfig::mipsx(), BranchScheme::mipsx())
    }

    /// The ideal-memory machine (always-hit caches) under the shipped
    /// scheme — the base the pipeline-isolation experiments sweep from.
    pub fn ideal_memory() -> SimPoint {
        SimPoint::new(SimConfig::ideal_memory(), BranchScheme::mipsx())
    }

    /// Check the invariants the simulator asserts at `Machine::new`, so a
    /// bad grid fails with a diagnostic instead of a worker-thread panic:
    /// the scheme and the pipeline agree on the slot count, the engine
    /// runs that pipeline, and the configuration passes
    /// [`SimConfig::check`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if !(1..=2).contains(&self.scheme.slots) || self.cfg.branch_delay_slots != self.scheme.slots
        {
            return err(format!(
                "branch slots must be 1 or 2 and coherent (got {} / {})",
                self.scheme.slots, self.cfg.branch_delay_slots
            ));
        }
        self.engine.check_slots(self.scheme.slots).or_else(err)?;
        self.cfg.check().or_else(err)
    }
}

/// A workload a grid cell executes. Identities are stable strings (used in
/// reports and hashed into result-cache keys); see [`Workload::parse`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// A built-in kernel by name, scheduled through the reorganizer.
    Kernel(String),
    /// A calibrated synthetic program: a profile from the
    /// [`SynthConfig::PROFILES`] catalog (`pascal`, `lisp`, `tiny`,
    /// `pascal-large`, `lisp-large`) and generator seed.
    Synth {
        /// Calibration profile name.
        profile: String,
        /// Generator seed.
        seed: u64,
    },
    /// A pure instruction-address trace (Icache-only simulation): profile
    /// (`medium`, `large`) and generator seed.
    Trace {
        /// Trace profile name.
        profile: String,
        /// Generator seed.
        seed: u64,
    },
    /// A data-streaming loop with a parameterized working set (the E11
    /// Ecache workload).
    Stream {
        /// Data working set in words.
        words: u32,
        /// Passes over the working set.
        reps: u32,
    },
}

impl Workload {
    /// Parse a workload identity, e.g. `kernel:fib_recursive`,
    /// `synth:pascal:11`, `trace:medium:47`, `stream:8192x4`.
    pub fn parse(s: &str) -> Result<Workload, SpecError> {
        let parts: Vec<&str> = s.split(':').collect();
        let synth_profiles = SynthConfig::PROFILES.map(|(name, _)| name);
        match parts.as_slice() {
            ["kernel", name] if !name.is_empty() => Ok(Workload::Kernel((*name).to_owned())),
            ["synth", profile, _] if !synth_profiles.contains(profile) => err(format!(
                "workload {s}: unknown synth profile {profile} (known: {})",
                synth_profiles.join(", ")
            )),
            ["synth", profile, seed] => match seed.parse() {
                Ok(seed) => Ok(Workload::Synth {
                    profile: (*profile).to_owned(),
                    seed,
                }),
                Err(_) => err(format!("workload {s}: bad seed {seed}")),
            },
            ["trace", profile, seed] if matches!(*profile, "medium" | "large") => {
                match seed.parse() {
                    Ok(seed) => Ok(Workload::Trace {
                        profile: (*profile).to_owned(),
                        seed,
                    }),
                    Err(_) => err(format!("workload {s}: bad seed {seed}")),
                }
            }
            ["stream", dims] => match dims.split_once('x') {
                Some((w, r)) => match (w.parse(), r.parse()) {
                    (Ok(words), Ok(reps)) => Ok(Workload::Stream { words, reps }),
                    _ => err(format!("workload {s}: bad <words>x<reps>")),
                },
                None => err(format!("workload {s}: expected stream:<words>x<reps>")),
            },
            _ => err(format!(
                "unknown workload {s} (expected kernel:<name>, synth:<{}>:<seed>, \
                 trace:<medium|large>:<seed>, or stream:<words>x<reps>)",
                synth_profiles.join("|")
            )),
        }
    }

    /// The stable identity string (`parse` round-trips it).
    pub fn id(&self) -> String {
        match self {
            Workload::Kernel(name) => format!("kernel:{name}"),
            Workload::Synth { profile, seed } => format!("synth:{profile}:{seed}"),
            Workload::Trace { profile, seed } => format!("trace:{profile}:{seed}"),
            Workload::Stream { words, reps } => format!("stream:{words}x{reps}"),
        }
    }
}

/// A sweepable configuration field.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AxisField {
    /// `icache.rows` — Icache sets.
    IcacheRows,
    /// `icache.ways` — Icache associativity.
    IcacheWays,
    /// `icache.block_words` — Icache words per block.
    IcacheBlockWords,
    /// `icache.fetch_words` — words fetched back per miss (1 or 2).
    IcacheFetchWords,
    /// `icache.miss_penalty` — stall cycles per Icache miss.
    IcacheMissPenalty,
    /// `icache.whole_block_fill` — sub-block valid bits (false) vs whole
    /// block streamed in per miss (true).
    IcacheWholeBlockFill,
    /// `ecache.size_words` — external-cache capacity.
    EcacheSizeWords,
    /// `ecache.block_words` — external-cache line size.
    EcacheBlockWords,
    /// `ecache.late_miss` — late-miss overhead cycles.
    EcacheLateMiss,
    /// `mem_latency` — main-memory cycles per retry loop.
    MemLatency,
    /// `branch.slots` — branch delay slots (1 or 2).
    BranchSlots,
    /// `branch.squash` — squash policy (`none`, `always`, `optional`).
    Squash,
    /// `coproc.scheme` — coprocessor interface (`bit`, `field`,
    /// `noncached`, `addr`).
    CoprocScheme,
    /// `engine` — execution backend (`interp`, `block`, `checked`).
    Engine,
}

impl AxisField {
    /// Every sweepable field, with its spec-file name.
    pub const ALL: [(AxisField, &'static str); 14] = [
        (AxisField::IcacheRows, "icache.rows"),
        (AxisField::IcacheWays, "icache.ways"),
        (AxisField::IcacheBlockWords, "icache.block_words"),
        (AxisField::IcacheFetchWords, "icache.fetch_words"),
        (AxisField::IcacheMissPenalty, "icache.miss_penalty"),
        (AxisField::IcacheWholeBlockFill, "icache.whole_block_fill"),
        (AxisField::EcacheSizeWords, "ecache.size_words"),
        (AxisField::EcacheBlockWords, "ecache.block_words"),
        (AxisField::EcacheLateMiss, "ecache.late_miss"),
        (AxisField::MemLatency, "mem_latency"),
        (AxisField::BranchSlots, "branch.slots"),
        (AxisField::Squash, "branch.squash"),
        (AxisField::CoprocScheme, "coproc.scheme"),
        (AxisField::Engine, "engine"),
    ];

    /// The spec-file name of this field.
    pub fn name(&self) -> &'static str {
        AxisField::ALL
            .iter()
            .find(|(f, _)| f == self)
            .map(|(_, n)| *n)
            .expect("every field is in ALL")
    }

    /// Look a field up by spec-file name.
    pub fn from_name(name: &str) -> Result<AxisField, SpecError> {
        AxisField::ALL
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(f, _)| *f)
            .ok_or_else(|| {
                let known: Vec<&str> = AxisField::ALL.iter().map(|(_, n)| *n).collect();
                SpecError(format!(
                    "unknown axis field {name} (known: {})",
                    known.join(", ")
                ))
            })
    }

    /// Parse one value for this field.
    pub fn parse_value(&self, s: &str) -> Result<AxisValue, SpecError> {
        let bad = || SpecError(format!("axis {}: bad value {s}", self.name()));
        match self {
            AxisField::Squash => match s {
                "none" => Ok(AxisValue::Squash(SquashPolicy::NoSquash)),
                "always" => Ok(AxisValue::Squash(SquashPolicy::AlwaysSquash)),
                "optional" => Ok(AxisValue::Squash(SquashPolicy::SquashOptional)),
                _ => Err(bad()),
            },
            AxisField::CoprocScheme => match s {
                "bit" => Ok(AxisValue::Coproc(InterfaceScheme::CoprocBit)),
                "field" => Ok(AxisValue::Coproc(InterfaceScheme::CoprocField)),
                "noncached" => Ok(AxisValue::Coproc(InterfaceScheme::NonCached)),
                "addr" => Ok(AxisValue::Coproc(InterfaceScheme::AddressLines)),
                _ => Err(bad()),
            },
            AxisField::IcacheWholeBlockFill => match s {
                "true" | "1" => Ok(AxisValue::Bool(true)),
                "false" | "0" => Ok(AxisValue::Bool(false)),
                _ => Err(bad()),
            },
            AxisField::Engine => EngineKind::parse(s)
                .map(AxisValue::Engine)
                .map_err(|_| bad()),
            _ => s.parse().map(AxisValue::U32).map_err(|_| bad()),
        }
    }
}

/// One value on an axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AxisValue {
    /// A numeric field value.
    U32(u32),
    /// A boolean field value.
    Bool(bool),
    /// A squash policy.
    Squash(SquashPolicy),
    /// A coprocessor interface scheme.
    Coproc(InterfaceScheme),
    /// An execution backend.
    Engine(EngineKind),
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::U32(v) => write!(f, "{v}"),
            AxisValue::Bool(v) => write!(f, "{v}"),
            AxisValue::Squash(SquashPolicy::NoSquash) => f.write_str("none"),
            AxisValue::Squash(SquashPolicy::AlwaysSquash) => f.write_str("always"),
            AxisValue::Squash(SquashPolicy::SquashOptional) => f.write_str("optional"),
            AxisValue::Coproc(InterfaceScheme::CoprocBit) => f.write_str("bit"),
            AxisValue::Coproc(InterfaceScheme::CoprocField) => f.write_str("field"),
            AxisValue::Coproc(InterfaceScheme::NonCached) => f.write_str("noncached"),
            AxisValue::Coproc(InterfaceScheme::AddressLines) => f.write_str("addr"),
            AxisValue::Engine(kind) => kind.fmt(f),
        }
    }
}

/// One axis of the grid: a field and the values it takes.
#[derive(Clone, PartialEq, Debug)]
pub struct Axis {
    /// The swept field.
    pub field: AxisField,
    /// The values, in sweep order.
    pub values: Vec<AxisValue>,
}

impl Axis {
    /// Build an axis, checking value kinds.
    pub fn new(field: AxisField, values: Vec<AxisValue>) -> Axis {
        Axis { field, values }
    }

    /// Parse `field=v1,v2,...` (the `--grid` flag syntax).
    pub fn parse_flag(s: &str) -> Result<Axis, SpecError> {
        let Some((name, values)) = s.split_once('=') else {
            return err(format!("--grid {s}: expected field=v1,v2,..."));
        };
        let field = AxisField::from_name(name)?;
        let values: Result<Vec<AxisValue>, SpecError> = values
            .split(',')
            .filter(|v| !v.is_empty())
            .map(|v| field.parse_value(v))
            .collect();
        let values = values?;
        if values.is_empty() {
            return err(format!("axis {name}: no values"));
        }
        Ok(Axis { field, values })
    }

    fn apply(&self, value: AxisValue, point: &mut SimPoint) {
        match (self.field, value) {
            (AxisField::IcacheRows, AxisValue::U32(v)) => point.cfg.icache.rows = v,
            (AxisField::IcacheWays, AxisValue::U32(v)) => point.cfg.icache.ways = v,
            (AxisField::IcacheBlockWords, AxisValue::U32(v)) => point.cfg.icache.block_words = v,
            (AxisField::IcacheFetchWords, AxisValue::U32(v)) => point.cfg.icache.fetch_words = v,
            (AxisField::IcacheMissPenalty, AxisValue::U32(v)) => point.cfg.icache.miss_penalty = v,
            (AxisField::IcacheWholeBlockFill, AxisValue::Bool(v)) => {
                point.cfg.icache.whole_block_fill = v
            }
            (AxisField::EcacheSizeWords, AxisValue::U32(v)) => point.cfg.ecache.size_words = v,
            (AxisField::EcacheBlockWords, AxisValue::U32(v)) => point.cfg.ecache.block_words = v,
            (AxisField::EcacheLateMiss, AxisValue::U32(v)) => {
                point.cfg.ecache.late_miss_overhead = v
            }
            (AxisField::MemLatency, AxisValue::U32(v)) => point.cfg.mem_latency = v,
            (AxisField::BranchSlots, AxisValue::U32(v)) => {
                point.scheme.slots = v as usize;
                point.cfg.branch_delay_slots = v as usize;
            }
            (AxisField::Squash, AxisValue::Squash(v)) => point.scheme.squash = v,
            (AxisField::CoprocScheme, AxisValue::Coproc(v)) => point.cfg.coproc_scheme = v,
            (AxisField::Engine, AxisValue::Engine(v)) => point.engine = v,
            (field, value) => {
                // parse_value never produces a mismatched kind; constructed
                // axes that do are a programming error.
                unreachable!("axis {}: wrong value kind {value:?}", field.name())
            }
        }
    }
}

/// The grid part of a sweep: either axes crossed cartesian-style over a
/// base point, or an explicit list of labelled points (for grids with
/// coupled fields, like E3's tags→miss-penalty floorplan rule).
#[derive(Clone, PartialEq, Debug)]
pub enum Grid {
    /// Cartesian product of axis values over the base point. The first
    /// axis varies slowest.
    Axes(Vec<Axis>),
    /// Explicit labelled points.
    Points(Vec<(String, SimPoint)>),
}

/// A declarative sweep: grid × workloads × fault plans.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepSpec {
    /// The base point axes modify.
    pub base: SimPoint,
    /// The configuration grid.
    pub grid: Grid,
    /// Workloads each grid cell runs.
    pub workloads: Vec<Workload>,
    /// Fault plans crossed in (`None` = fault-free). Defaults to
    /// `[None]`; an empty list is normalized to that at expansion.
    pub faults: Vec<Option<String>>,
    /// Cycle budget per job.
    pub run_cycles: u64,
}

impl SweepSpec {
    /// An empty spec over `base` (no axes → the base point itself).
    pub fn new(base: SimPoint) -> SweepSpec {
        SweepSpec {
            base,
            grid: Grid::Axes(Vec::new()),
            workloads: Vec::new(),
            faults: vec![None],
            run_cycles: DEFAULT_RUN_CYCLES,
        }
    }

    /// Parse the spec-file line format:
    ///
    /// ```text
    /// # comment
    /// base mipsx            # or: base ideal
    /// engine block          # or: interp (default), checked
    /// cycles 500000000
    /// workload kernel:fib_recursive
    /// axis icache.rows 2 4 8
    /// axis engine interp block
    /// fault 120:irq3,340:nmi   # or: fault none
    /// ```
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let mut spec = SweepSpec::new(SimPoint::mipsx());
        let mut axes: Vec<Axis> = Vec::new();
        let mut faults: Vec<Option<String>> = Vec::new();
        for (i, raw_line) in text.lines().enumerate() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| SpecError(format!("line {}: {msg}", i + 1));
            let mut words = line.split_whitespace();
            let keyword = words.next().expect("non-empty line has a first word");
            let rest: Vec<&str> = words.collect();
            match (keyword, rest.as_slice()) {
                ("base", ["mipsx"]) => spec.base = SimPoint::mipsx(),
                ("base", ["ideal"]) => spec.base = SimPoint::ideal_memory(),
                ("base", _) => return Err(at("base must be `mipsx` or `ideal`".into())),
                ("engine", [kind]) => {
                    spec.base.engine = EngineKind::parse(kind).map_err(&at)?;
                }
                ("cycles", [n]) => {
                    spec.run_cycles = n.parse().map_err(|_| at(format!("bad cycle count {n}")))?;
                }
                ("workload", [id]) => spec
                    .workloads
                    .push(Workload::parse(id).map_err(|e| at(e.0))?),
                ("axis", [name, values @ ..]) if !values.is_empty() => {
                    let field = AxisField::from_name(name).map_err(|e| at(e.0))?;
                    let parsed: Result<Vec<AxisValue>, SpecError> =
                        values.iter().map(|v| field.parse_value(v)).collect();
                    axes.push(Axis::new(field, parsed.map_err(|e| at(e.0))?));
                }
                ("fault", ["none"]) => faults.push(None),
                ("fault", [plan]) => faults.push(Some((*plan).to_owned())),
                _ => return Err(at(format!("unrecognized directive: {line}"))),
            }
        }
        if !faults.is_empty() {
            spec.faults = faults;
        }
        spec.grid = Grid::Axes(axes);
        Ok(spec)
    }

    /// Expand into the deterministic job list: grid points (first axis
    /// slowest) × workloads × fault plans, in that nesting order.
    pub fn expand(&self) -> Result<Vec<Job>, SpecError> {
        if self.workloads.is_empty() {
            return err("sweep has no workloads");
        }
        let points: Vec<(String, SimPoint)> = match &self.grid {
            Grid::Points(points) => points.clone(),
            Grid::Axes(axes) => {
                let mut acc: Vec<(String, SimPoint)> = vec![(String::new(), self.base)];
                for axis in axes {
                    let mut next = Vec::with_capacity(acc.len() * axis.values.len());
                    for (label, point) in &acc {
                        for &value in &axis.values {
                            let mut p = *point;
                            axis.apply(value, &mut p);
                            let part = format!("{}={value}", axis.field.name());
                            let label = if label.is_empty() {
                                part
                            } else {
                                format!("{label} {part}")
                            };
                            next.push((label, p));
                        }
                    }
                    acc = next;
                }
                if axes.is_empty() {
                    acc[0].0 = "base".to_owned();
                }
                acc
            }
        };
        if points.is_empty() {
            return err("sweep has no grid points");
        }
        let faults: &[Option<String>] = if self.faults.is_empty() {
            &[None]
        } else {
            &self.faults
        };
        let mut jobs = Vec::with_capacity(points.len() * self.workloads.len() * faults.len());
        for (point_index, (label, point)) in points.iter().enumerate() {
            point
                .validate()
                .map_err(|e| SpecError(format!("grid point `{label}`: {e}")))?;
            for workload in &self.workloads {
                for fault in faults {
                    jobs.push(Job {
                        index: jobs.len(),
                        point_index,
                        point_label: label.clone(),
                        point: *point,
                        workload: workload.clone(),
                        fault: fault.clone(),
                    });
                }
            }
        }
        Ok(jobs)
    }
}

/// One expanded unit of work: simulate `workload` under `point`.
#[derive(Clone, PartialEq, Debug)]
pub struct Job {
    /// Position in the expansion order (aggregation is indexed by this, so
    /// reports never depend on execution order).
    pub index: usize,
    /// Which grid point this job belongs to (jobs of a point are
    /// contiguous in expansion order).
    pub point_index: usize,
    /// Human-readable grid-point label (`field=value ...`).
    pub point_label: String,
    /// The configuration point.
    pub point: SimPoint,
    /// The workload.
    pub workload: Workload,
    /// Optional fault-plan spec (`mipsx_core::FaultPlan::parse` syntax).
    pub fault: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_ids_round_trip() {
        for id in [
            "kernel:fib_recursive",
            "synth:pascal:11",
            "synth:lisp:7",
            "trace:medium:47",
            "trace:large:3",
            "stream:8192x4",
        ] {
            assert_eq!(Workload::parse(id).unwrap().id(), id);
        }
        for bad in [
            "kernel:",
            "synth:cobol:1",
            "synth:pascal:x",
            "trace:tiny:1",
            "stream:8192",
            "mystery",
        ] {
            assert!(Workload::parse(bad).is_err(), "should reject {bad}");
        }
    }

    #[test]
    fn every_synth_profile_parses_and_an_unknown_one_names_them_all() {
        for (profile, _) in SynthConfig::PROFILES {
            let id = format!("synth:{profile}:11");
            let w = Workload::parse(&id).unwrap();
            assert_eq!(
                w,
                Workload::Synth {
                    profile: profile.to_owned(),
                    seed: 11
                }
            );
            assert_eq!(w.id(), id);
        }
        let e = Workload::parse("synth:bogus:1").unwrap_err();
        for (profile, _) in SynthConfig::PROFILES {
            assert!(e.0.contains(profile), "{profile} missing from: {e}");
        }
    }

    #[test]
    fn axis_flag_parses() {
        let axis = Axis::parse_flag("icache.rows=2,4,8").unwrap();
        assert_eq!(axis.field, AxisField::IcacheRows);
        assert_eq!(axis.values.len(), 3);
        assert!(Axis::parse_flag("nonsense.field=1").is_err());
        assert!(Axis::parse_flag("icache.rows=abc").is_err());
        assert!(Axis::parse_flag("branch.squash=sometimes").is_err());
        let squash = Axis::parse_flag("branch.squash=none,always,optional").unwrap();
        assert_eq!(squash.values.len(), 3);
    }

    #[test]
    fn expansion_order_is_first_axis_slowest() {
        let mut spec = SweepSpec::new(SimPoint::mipsx());
        spec.grid = Grid::Axes(vec![
            Axis::parse_flag("branch.slots=2,1").unwrap(),
            Axis::parse_flag("branch.squash=none,optional").unwrap(),
        ]);
        spec.workloads = vec![Workload::parse("kernel:sum_to_n").unwrap()];
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 4);
        let slots: Vec<usize> = jobs.iter().map(|j| j.point.scheme.slots).collect();
        assert_eq!(slots, [2, 2, 1, 1]);
        assert_eq!(jobs[0].point_label, "branch.slots=2 branch.squash=none");
        // Indices are the expansion order.
        assert_eq!(
            jobs.iter().map(|j| j.index).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
    }

    #[test]
    fn spec_file_round_trips_through_expansion() {
        let spec = SweepSpec::parse(
            "# demo\n\
             base ideal\n\
             cycles 1000\n\
             workload synth:tiny:1\n\
             workload synth:tiny:2\n\
             axis mem_latency 3 5\n\
             fault none\n\
             fault 10:jitter4\n",
        )
        .unwrap();
        assert_eq!(spec.run_cycles, 1000);
        let jobs = spec.expand().unwrap();
        // 2 latencies x 2 workloads x 2 fault cells.
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].fault, None);
        assert_eq!(jobs[1].fault, Some("10:jitter4".to_owned()));
    }

    #[test]
    fn spec_errors_carry_line_numbers() {
        let e = SweepSpec::parse("axis icache.rows 4\nbogus directive\n").unwrap_err();
        assert!(e.0.contains("line 2"), "{e}");
        let e = SweepSpec::parse("axis icache.rows four\n").unwrap_err();
        assert!(e.0.contains("line 1"), "{e}");
    }

    #[test]
    fn expansion_rejects_invalid_points_and_empty_sweeps() {
        let mut spec = SweepSpec::new(SimPoint::mipsx());
        spec.workloads = vec![Workload::parse("kernel:sum_to_n").unwrap()];
        spec.grid = Grid::Axes(vec![Axis::parse_flag("icache.rows=3").unwrap()]);
        assert!(spec.expand().unwrap_err().0.contains("powers of two"));
        spec.grid = Grid::Axes(vec![Axis::parse_flag("branch.slots=3").unwrap()]);
        assert!(spec.expand().is_err());
        spec.workloads.clear();
        spec.grid = Grid::Axes(Vec::new());
        assert!(spec.expand().unwrap_err().0.contains("no workloads"));
    }
}

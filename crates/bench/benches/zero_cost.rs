//! A/B checks of the two zero-cost claims. `cargo bench -p mipsx-bench
//! --bench zero_cost` fails if either regresses.
//!
//! - **Probe layer.** Running the machine through the generic
//!   `run_with::<NullSink>` path must cost within 2 % of nothing:
//!   `NullSink` sets `TraceSink::ENABLED = false`, so every event emission
//!   monomorphises away. Case A runs `Machine::run` (which is itself
//!   `run_with(&mut NullSink)`), case B passes an explicit `NullSink`, and
//!   a live `CpiAttribution` sink shows what a real observer costs.
//! - **Sweep telemetry.** A sweep with the default (disabled) `Telemetry`
//!   handle must keep ≥ 0.97× the throughput of the instrumented one: a
//!   disabled handle never reads the clock and every recording site is a
//!   single `Option` branch.
//!
//! Throughput and per-layer timing of everything else is measured by
//! `perfbench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mipsx_core::{CpiAttribution, InterlockPolicy, Machine, MachineConfig, NullSink};
use mipsx_explore::{
    run_sweep, Axis, Grid, ResultStore, SimPoint, SweepOptions, SweepSpec, Telemetry, Workload,
};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::synth::{generate, SynthConfig};

const WARM_UP: Duration = Duration::from_millis(300);
const SAMPLE_TIME: Duration = Duration::from_millis(200);
const SAMPLES: u32 = 10;

/// Mean nanoseconds per call of `f`: calls it for the warm-up budget to
/// estimate its cost, then averages `SAMPLES` samples of about
/// `SAMPLE_TIME` each.
fn mean_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut timed = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    };
    let warm_up = Instant::now();
    let mut per_iter = timed(1);
    while warm_up.elapsed() < WARM_UP {
        per_iter = timed(1);
    }
    let iters = (SAMPLE_TIME.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64;
    let total: f64 = (0..SAMPLES)
        .map(|_| timed(iters).as_nanos() as f64 / iters as f64)
        .sum();
    total / f64::from(SAMPLES)
}

fn probe_overhead() {
    let synth = generate(SynthConfig::pascal_like(31).with_code_scale(10, 4));
    let (program, _) = Reorganizer::new(BranchScheme::mipsx())
        .reorganize(&synth.raw)
        .expect("reorganize");
    let fresh_machine = || {
        let mut machine = Machine::new(MachineConfig {
            interlock: InterlockPolicy::Trust,
            ..MachineConfig::mipsx()
        });
        machine.load_program(&program);
        machine
    };

    let plain = mean_ns(|| fresh_machine().run(200_000_000).expect("run").cycles);
    let null = mean_ns(|| {
        fresh_machine()
            .run_with(200_000_000, &mut NullSink)
            .expect("run")
            .cycles
    });
    let attributed = mean_ns(|| {
        let mut att = CpiAttribution::new();
        fresh_machine()
            .run_with(200_000_000, &mut att)
            .expect("run")
            .cycles
    });

    let overhead = null / plain - 1.0;
    println!("probe_overhead/plain-run       {plain:14.1} ns/iter");
    println!(
        "probe_overhead/null-sink       {null:14.1} ns/iter  ({:+.2}% vs plain)",
        overhead * 100.0
    );
    println!(
        "probe_overhead/cpi-attribution {attributed:14.1} ns/iter  ({:+.2}% vs plain)",
        (attributed / plain - 1.0) * 100.0
    );
    // The two cases are the same monomorphised code, so anything beyond
    // timer noise means an event emission survived in the NullSink path.
    assert!(
        overhead < 0.02,
        "NullSink overhead {:.2}% exceeds the 2% budget",
        overhead * 100.0
    );
}

fn sweep_overhead() {
    // The E1-shaped grid at reduced cycle budget: 4 points x 2 kernels.
    let mut spec = SweepSpec::new(SimPoint::mipsx());
    spec.grid = Grid::Axes(vec![
        Axis::parse_flag("mem_latency=3,5").unwrap(),
        Axis::parse_flag("icache.rows=4,8").unwrap(),
    ]);
    spec.workloads = vec![
        Workload::parse("kernel:sum_to_n").unwrap(),
        Workload::parse("kernel:memcpy").unwrap(),
    ];
    spec.run_cycles = 2_000_000;
    let sweep = |telemetry: Telemetry| {
        let opts = SweepOptions {
            threads: 1,
            store: ResultStore::disabled(),
            telemetry,
            ..SweepOptions::default()
        };
        let outcome = run_sweep(&spec, &opts).expect("sweep");
        outcome.rows.iter().map(|r| r.result.cycles).sum::<u64>()
    };

    let disabled = mean_ns(|| sweep(Telemetry::disabled()));
    let enabled = mean_ns(|| sweep(Telemetry::enabled()));
    println!("sweep_overhead/telemetry-off   {disabled:14.1} ns/iter");
    println!(
        "sweep_overhead/telemetry-on    {enabled:14.1} ns/iter  ({:+.2}% vs off)",
        (enabled / disabled - 1.0) * 100.0
    );
    // The baseline is the faster of the two runs: the disabled path losing
    // to the *instrumented* one by more than noise can only mean the
    // disabled path grew real work.
    let throughput = disabled.min(enabled) / disabled;
    assert!(
        throughput >= 0.97,
        "telemetry-disabled sweep fell below 0.97x of baseline ({throughput:.3}x)"
    );
}

fn main() {
    probe_overhead();
    sweep_overhead();
}

//! A/B checks of the two zero-cost claims. `cargo bench -p mipsx-bench
//! --bench zero_cost` fails if either regresses.
//!
//! - **Probe layer.** Running the machine through the generic
//!   `run_with::<NullSink>` path must cost within 2 % of nothing:
//!   `NullSink` sets `TraceSink::ENABLED = false`, so every event emission
//!   monomorphises away. Case A runs `Machine::run`, case B passes an
//!   explicit `NullSink` to `Machine::run_with`; both are one-line
//!   delegations to `run_with_faults`, so B may cost no more than A. A live
//!   `CpiAttribution` sink shows what a real observer costs.
//! - **Sweep telemetry.** A sweep with the default (disabled) `Telemetry`
//!   handle must keep ≥ 0.97× the throughput of the instrumented one: a
//!   disabled handle never reads the clock and every recording site is a
//!   single `Option` branch.
//!
//! Both gates compare medians of interleaved samples (A, B, A, B, ...),
//! so a slow stretch on a shared host hits both sides alike.
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
const SAMPLE_TIME: Duration = Duration::from_millis(50);
const SAMPLES: usize = 41;

/// Median nanoseconds per call of each case. Each case is warmed up for
/// the warm-up budget, which also sizes its samples to about
/// `SAMPLE_TIME`; then the cases take turns, one sample each per round,
/// for `SAMPLES` rounds.
fn median_ns(cases: &mut [&mut dyn FnMut() -> u64]) -> Vec<f64> {
    let timed = |f: &mut dyn FnMut() -> u64, iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    };
    let iters: Vec<u64> = cases
        .iter_mut()
        .map(|f| {
            let warm_up = Instant::now();
            let mut per_iter = timed(*f, 1);
            while warm_up.elapsed() < WARM_UP {
                per_iter = timed(*f, 1);
            }
            (SAMPLE_TIME.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(SAMPLES); cases.len()];
    for _ in 0..SAMPLES {
        for ((f, &n), out) in cases.iter_mut().zip(&iters).zip(&mut samples) {
            out.push(timed(*f, n).as_nanos() as f64 / n as f64);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[SAMPLES / 2]
        })
        .collect()
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

    let medians = median_ns(&mut [
        &mut || fresh_machine().run(200_000_000).expect("run").cycles,
        &mut || {
            fresh_machine()
                .run_with(200_000_000, &mut NullSink)
                .expect("run")
                .cycles
        },
        &mut || {
            let mut att = CpiAttribution::new();
            fresh_machine()
                .run_with(200_000_000, &mut att)
                .expect("run")
                .cycles
        },
    ]);
    let (plain, null, attributed) = (medians[0], medians[1], medians[2]);

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
    // Both cases reach the same monomorphised loop, so anything beyond
    // timer noise means one of them grew work the other does not do.
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

    let medians = median_ns(&mut [&mut || sweep(Telemetry::disabled()), &mut || {
        sweep(Telemetry::enabled())
    }]);
    let (disabled, enabled) = (medians[0], medians[1]);
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

//! Measurement plumbing: sample statistics, in-memory spans, the metric
//! set printed as the final JSON line, and the correctness tally.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least ten samples beyond it, as
/// `(percentile, value)`; `None` with fewer than eleven samples.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, s[n - 11]))
}

/// One line describing a timing sample set: median, tail percentile, count.
pub fn describe(name: &str, samples: &[f64]) -> String {
    let tail = tail_percentile(samples).map_or_else(
        || "no percentile has 10 samples beyond it".to_owned(),
        |(p, v)| format!("p{p:.0} {v:.6}"),
    );
    format!(
        "{name}: median {:.6}, {tail}, {} samples",
        median(samples),
        samples.len()
    )
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The process's peak resident set, in MiB (`VmHWM` from procfs).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: derives the benchmark's inputs from its `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Spans kept in memory: total time and count per name, in first-seen
/// order. The benchmark records them around its own calls into each crate
/// and prints them when it ends.
#[derive(Default)]
pub struct Spans {
    entries: Vec<(String, Duration, u64)>,
}

impl Spans {
    /// Charge the time since `start` to `name`.
    pub fn record(&mut self, name: &str, start: Instant) {
        let d = start.elapsed();
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 += d;
                e.2 += 1;
            }
            None => self.entries.push((name.to_owned(), d, 1)),
        }
    }

    /// Each span's share of the summed span time, as one printable line.
    pub fn shares(&self) -> String {
        let total: f64 = self.entries.iter().map(|e| secs(e.1)).sum();
        self.entries
            .iter()
            .map(|(n, d, c)| format!("{n} {:.1}% ({c} calls)", 100.0 * secs(*d) / total))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Record `name` into `spans` when tracing is on.
pub fn span(spans: &mut Option<&mut Spans>, name: &str, start: Instant) {
    if let Some(s) = spans.as_deref_mut() {
        s.record(name, start);
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Set `name` to `value` measured in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    /// Names of metrics that are not finite numbers.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, (v, _))| !v.is_finite())
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, (v, u))| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_owned()
                };
                format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Operations attempted and failed. An operation is one simulation job or
/// one experiment table; it fails on an error, a panic, or output that
/// differs from its reference.
#[derive(Default)]
pub struct Gate {
    /// Operations attempted.
    pub attempted: u64,
    /// Failure descriptions, one per failed operation.
    pub failures: Vec<String>,
}

impl Gate {
    /// Count one operation, failed when `failure` is `Some`.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failures.push(f);
        }
    }
}

/// Host time a fixed kernel takes, run between measured passes, so a run can
/// be scaled to a reference host speed (see [`HostSpeed`]).
///
/// On a shared virtual machine the host's speed drifts by up to 2× over tens
/// of seconds under other tenants' load. Simulator code slows most, small
/// cache-resident or pure-ALU loops hardly at all; this kernel mixes a
/// dependent random read-modify-write chain over 4 MiB with four
/// independent chains over 1 MiB, which follows most (not all) of the
/// simulator's drift. It calls no code of the repository, so a change to
/// the simulator cannot move it.
fn host_probe() -> f64 {
    fn xorshift(x: &mut u32) -> u32 {
        *x ^= *x << 13;
        *x ^= *x >> 17;
        *x ^= *x << 5;
        *x
    }
    let start = Instant::now();
    let mut big = vec![0u32; 1 << 20];
    let mut x = 0x1234_5678;
    for i in 0..1_000_000u32 {
        let j = xorshift(&mut x) as usize & 0xF_FFFF;
        big[j] = big[j].wrapping_add(i ^ big[(j * 7) & 0xF_FFFF]);
    }
    let mut small = vec![0u32; 1 << 18];
    let mut chains = [0x1234_5678u32, 0x9E37_79B9, 0x7F4A_7C15, 0x85EB_CA6B];
    let mut acc = 0u32;
    for _ in 0..250_000 {
        for c in &mut chains {
            let v = xorshift(c);
            let j = v as usize & 0x3_FFFF;
            small[j] = small[j].wrapping_add(v);
            acc = if v & 0x10 != 0 {
                acc.wrapping_add(small[(j + 1) & 0x3_FFFF])
            } else {
                acc ^ (v >> 3)
            };
        }
    }
    std::hint::black_box((&big, &small, acc));
    start.elapsed().as_secs_f64()
}

/// Probe times taken during a run, and the factor that scales the run's
/// host times to a host on which the probe takes [`HostSpeed::REFERENCE_S`].
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Probe time on a quiet 2-vCPU Xeon host; the scale of adjusted times.
    pub const REFERENCE_S: f64 = 0.015;

    /// Take one probe sample.
    pub fn probe(&mut self) {
        self.0.push(host_probe());
    }

    /// Multiply a host time by this to adjust it to the reference speed.
    pub fn time_factor(&self) -> f64 {
        Self::REFERENCE_S / median(&self.0)
    }

    /// One line describing the samples.
    pub fn describe(&self) -> String {
        describe("host_probe_s", &self.0)
    }
}

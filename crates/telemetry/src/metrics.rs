//! The registry's data model: histograms, span statistics, and the
//! mergeable [`Snapshot`].

use std::collections::BTreeMap;

/// Number of log2 buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. bucket 0 is exactly `{0}` and bucket `i >= 1` covers
/// `[2^(i-1), 2^i - 1]`. A `u64` has at most 64 significant bits, so 65
/// buckets cover the whole range.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-shape u64 histogram with log2 buckets.
///
/// The shape is compile-time fixed so two histograms always merge
/// bucket-wise — no rebinning, no precision loss, no dependence on the
/// order samples arrived in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hist {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating, so merge never panics).
    pub sum: u64,
    /// Per-bucket sample counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// The bucket index of a value: its bit length.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i`, if representable (`None` for
/// the last bucket, whose bound is `u64::MAX`). JSON histograms list
/// buckets by index; this is how a reader turns an index into a range.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    match i {
        0 => Some(0),
        _ if i < HIST_BUCKETS - 1 => Some((1u64 << i) - 1),
        _ => None,
    }
}

impl Hist {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Bucket-wise sum with `other` — commutative and associative.
    pub fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// The non-empty `(bucket_index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Mean sample value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregated statistics for one span path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanStats {
    /// Completed intervals.
    pub count: u64,
    /// Total wall nanoseconds across intervals (saturating).
    pub total_ns: u64,
    /// Shortest interval.
    pub min_ns: u64,
    /// Longest interval.
    pub max_ns: u64,
}

impl Default for SpanStats {
    fn default() -> SpanStats {
        SpanStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl SpanStats {
    /// Record one completed interval.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Combine with another path's-worth of intervals — commutative and
    /// associative.
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean interval length in nanoseconds (zero when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Everything a registry holds, as plain mergeable data.
///
/// The **deterministic** section ([`Snapshot::counters`],
/// [`Snapshot::histograms`]) must total identically for a serial and an
/// N-thread run of the same work; the **timing** section (everything
/// else) is wall-clock- and schedule-dependent. `BTreeMap` keys give
/// every rendering a stable order by construction.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    /// Deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Deterministic histograms.
    pub histograms: BTreeMap<String, Hist>,
    /// Timing-section counters.
    pub timing_counters: BTreeMap<String, u64>,
    /// Timing-section gauges (max-merged level samples).
    pub gauges: BTreeMap<String, u64>,
    /// Timing-section histograms (latencies, depth samples).
    pub timing_histograms: BTreeMap<String, Hist>,
    /// Span statistics by `/`-joined path.
    pub spans: BTreeMap<String, SpanStats>,
}

impl Snapshot {
    /// Merge `other` into `self`. Counters and histogram buckets add,
    /// gauges take the max, span stats combine — all field-wise
    /// commutative/associative operations, so any merge order yields the
    /// same snapshot (property-tested in `tests/merge_order.rs`).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.timing_counters {
            *self.timing_counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(0);
            *g = (*g).max(*v);
        }
        for (k, v) in &other.timing_histograms {
            self.timing_histograms
                .entry(k.clone())
                .or_default()
                .merge(v);
        }
        for (k, v) in &other.spans {
            self.spans.entry(k.clone()).or_default().merge(v);
        }
    }

    /// A deterministic counter's value (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total wall nanoseconds recorded under a span path (zero when
    /// absent).
    pub fn span_total_ns(&self, path: &str) -> u64 {
        self.spans.get(path).map_or(0, |s| s.total_ns)
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self == &Snapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let i = bucket_index(v);
            if let Some(hi) = bucket_upper_bound(i) {
                assert!(v <= hi, "{v} above bound of bucket {i}");
            }
            if i > 0 {
                let below = bucket_upper_bound(i - 1).expect("non-last bucket has a bound");
                assert!(v > below, "{v} not above bucket {}'s bound", i - 1);
            }
        }
    }

    #[test]
    fn hist_records_and_merges_losslessly() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        let mut whole = Hist::default();
        for v in [0u64, 1, 5, 1000] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 5, u64::MAX] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count, 7);
    }

    #[test]
    fn span_stats_min_max() {
        let mut s = SpanStats::default();
        s.record(30);
        s.record(10);
        s.record(20);
        assert_eq!((s.count, s.total_ns, s.min_ns, s.max_ns), (3, 60, 10, 30));
        assert!((s.mean_ns() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_merge_identity() {
        let mut a = Snapshot::default();
        a.counters.insert("x".into(), 3);
        a.spans.entry("p".into()).or_default().record(5);
        let before = a.clone();
        a.merge(&Snapshot::default());
        assert_eq!(a, before);
        let mut empty = Snapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }
}

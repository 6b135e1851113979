//! Rendering: JSON documents and the human-readable span-tree report.
//!
//! Every rendering iterates `BTreeMap`s, so key order is stable across
//! runs, thread counts and machines by construction. The JSON document
//! leads with the deterministic section; [`Snapshot::deterministic_json`]
//! renders that section alone, and is what the serial-vs-threaded
//! determinism suite compares byte for byte.

use std::fmt::Write;

use crate::metrics::{Hist, Snapshot, SpanStats};

/// Minimal JSON string escaping (control characters, quote, backslash).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_u64_map(map: &std::collections::BTreeMap<String, u64>) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(k)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn json_hist(h: &Hist) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .map(|(i, c)| format!("[{i},{c}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
        h.count,
        h.sum,
        buckets.join(",")
    )
}

fn json_hist_map(map: &std::collections::BTreeMap<String, Hist>) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_hist(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn json_span(s: &SpanStats) -> String {
    format!(
        "{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
        s.count,
        s.total_ns,
        if s.count == 0 { 0 } else { s.min_ns },
        s.max_ns
    )
}

impl Snapshot {
    /// The deterministic section alone — identical byte for byte between
    /// a serial and an N-thread run of the same sweep.
    pub fn deterministic_json(&self) -> String {
        format!(
            "{{\"counters\":{},\"histograms\":{}}}",
            json_u64_map(&self.counters),
            json_hist_map(&self.histograms)
        )
    }

    /// The full JSON document: the deterministic section plus a nested
    /// `"timing"` object holding the wall-clock- and schedule-dependent
    /// metrics and the span table.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_span(v)))
            .collect();
        format!(
            "{{\"counters\":{},\"histograms\":{},\"timing\":{{\"counters\":{},\"gauges\":{},\
             \"histograms\":{},\"spans\":{{{}}}}}}}",
            json_u64_map(&self.counters),
            json_hist_map(&self.histograms),
            json_u64_map(&self.timing_counters),
            json_u64_map(&self.gauges),
            json_hist_map(&self.timing_histograms),
            spans.join(",")
        )
    }

    /// The human-readable span tree: one line per path, indented by
    /// depth, with total wall time, percentage of its root span, call
    /// count and mean. Parents whose children do not cover them get a
    /// trailing `self` entry showing the unattributed remainder.
    pub fn span_tree_report(&self) -> String {
        let mut out = String::new();
        if self.spans.is_empty() {
            return "no spans recorded\n".to_owned();
        }
        let roots: Vec<&String> = self.spans.keys().filter(|k| !k.contains('/')).collect();
        for root in roots {
            let root_total = self.spans[root].total_ns.max(1);
            self.render_subtree(&mut out, root, 0, root_total);
        }
        out
    }

    fn render_subtree(&self, out: &mut String, path: &str, depth: usize, root_total: u64) {
        let stats = &self.spans[path];
        let name = path.rsplit('/').next().unwrap_or(path);
        let _ = writeln!(
            out,
            "{:indent$}{name:<width$} {:>9.3} ms {:>6.1}%  n={:<6} mean {:.3} ms",
            "",
            stats.total_ns as f64 / 1e6,
            stats.total_ns as f64 * 100.0 / root_total as f64,
            stats.count,
            stats.mean_ns() / 1e6,
            indent = depth * 2,
            width = 24usize.saturating_sub(depth * 2),
        );
        let prefix = format!("{path}/");
        let children: Vec<&String> = self
            .spans
            .keys()
            .filter(|k| k.starts_with(&prefix) && !k[prefix.len()..].contains('/'))
            .collect();
        let mut covered = 0u64;
        for child in &children {
            covered = covered.saturating_add(self.spans[*child].total_ns);
            self.render_subtree(out, child, depth + 1, root_total);
        }
        if !children.is_empty() && covered < stats.total_ns {
            let slack = stats.total_ns - covered;
            let _ = writeln!(
                out,
                "{:indent$}{:<width$} {:>9.3} ms {:>6.1}%",
                "",
                "(self)",
                slack as f64 / 1e6,
                slack as f64 * 100.0 / root_total as f64,
                indent = (depth + 1) * 2,
                width = 24usize.saturating_sub((depth + 1) * 2),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("sweep.jobs".into(), 4);
        s.counters.insert("guest.cycles".into(), 1000);
        s.histograms
            .entry("guest.cycles_per_job".into())
            .or_default()
            .record(250);
        s.timing_counters.insert("pool.idle_ns".into(), 2);
        s.gauges.insert("pool.workers".into(), 4);
        s.timing_histograms
            .entry("store.read_ns".into())
            .or_default()
            .record(1234);
        s.spans.entry("sweep".into()).or_default().record(1_000_000);
        s.spans
            .entry("sweep/execute".into())
            .or_default()
            .record(900_000);
        s.spans.entry("job".into()).or_default().record(880_000);
        s.spans.entry("job/run".into()).or_default().record(800_000);
        s
    }

    #[test]
    fn json_has_stable_shape_and_ordering() {
        let s = sample();
        let json = s.to_json();
        assert!(json.starts_with("{\"counters\":{\"guest.cycles\":1000,\"sweep.jobs\":4}"));
        assert!(json.contains("\"timing\":{"));
        assert!(json.contains("\"spans\":{\"job\":"));
        // Deterministic section is a prefix-consistent sub-document.
        let det = s.deterministic_json();
        assert!(json.starts_with(&det[..det.len() - 1]));
        // Rendering twice is identical (stable ordering).
        assert_eq!(json, sample().to_json());
    }

    #[test]
    fn span_tree_report_nests_and_percentages() {
        let report = sample().span_tree_report();
        let lines: Vec<&str> = report.lines().collect();
        // Two roots in key order: "job" then "sweep"; children indented.
        assert!(lines[0].trim_start().starts_with("job "), "{report}");
        assert!(lines[1].contains("run"), "{report}");
        assert!(lines[1].starts_with("  "), "{report}");
        assert!(report.contains("(self)"), "{report}");
        assert!(report.contains("100.0%"), "{report}");
    }

    #[test]
    fn empty_snapshot_renders() {
        let s = Snapshot::default();
        assert_eq!(s.to_json().matches("{}").count(), 6);
        assert_eq!(s.span_tree_report(), "no spans recorded\n");
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}

//! # mipsx-bench — reproducing the paper's evaluation
//!
//! One module per experiment; each returns a typed result struct carrying
//! both the measured values and the paper's published values, so
//! `mipsx reproduce` (and EXPERIMENTS.md) can print paper-vs-measured
//! tables; [`experiments::ALL`] lists them in `reproduce all` order. The
//! experiment IDs match DESIGN.md §5:
//!
//! | ID | paper artifact | module |
//! |----|----------------|--------|
//! | E1 | Table 1 — cycles/branch for six schemes | [`experiments::e1_branch_schemes`] |
//! | E2 | Icache single vs double fetch-back | [`experiments::e2_icache_fetch`] |
//! | E3 | Icache organization & miss-service sweep | [`experiments::e3_icache_orgs`] |
//! | E4 | quick-compare coverage | [`experiments::e4_quick_compare`] |
//! | E5 | reorganizer quality (1.5 → 1.27 cycles/branch) | [`experiments::e5_reorganizer`] |
//! | E6 | Figures 3 & 4 — the two control FSMs | [`experiments::e6_fsms`] |
//! | E7 | no-op fractions, CPI, sustained MIPS | [`experiments::e7_cpi`] |
//! | E8 | coprocessor interface schemes | [`experiments::e8_coproc`] |
//! | E9 | VAX 11/780 comparison | [`experiments::e9_vax`] |
//! | E10 | branch cache vs static prediction | [`experiments::e10_btb`] |
//! | E11 | Ecache late-miss contribution | [`experiments::e11_ecache`] |
//! | E12 | sub-block valid bits vs whole-block fill | [`experiments::e12_subblock`] |

pub mod experiments;
pub mod fp_workload;

/// Standard seeds used across experiments (deterministic, arbitrary).
pub const SEEDS: [u64; 5] = [11, 47, 101, 233, 509];

/// A paper-vs-measured row for report printing.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label.
    pub label: String,
    /// Value the paper reports (None when the paper gives no number).
    pub paper: Option<f64>,
    /// Value this reproduction measured.
    pub measured: f64,
}

impl Row {
    /// Relative deviation from the paper value, if one exists.
    pub fn deviation(&self) -> Option<f64> {
        self.paper.map(|p| (self.measured - p) / p)
    }
}

/// Render rows as an aligned text table.
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("{title}\n");
    let width = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(10)
        .max(10);
    out.push_str(&format!(
        "  {:width$}  {:>9}  {:>9}  {:>7}\n",
        "case", "paper", "measured", "dev"
    ));
    for r in rows {
        let paper = r
            .paper
            .map_or_else(|| "-".to_owned(), |p| format!("{p:.3}"));
        let dev = r
            .deviation()
            .map_or_else(String::new, |d| format!("{:+.1}%", d * 100.0));
        out.push_str(&format!(
            "  {:width$}  {paper:>9}  {:>9.3}  {dev:>7}\n",
            r.label, r.measured
        ));
    }
    out
}

/// A JSON number literal for `v` (`null` for non-finite values, which JSON
/// cannot represent).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Serialize one experiment's rows as a JSON object (hand-rolled — the
/// workspace carries no serialization dependency).
pub fn rows_to_json(name: &str, title: &str, rows: &[Row]) -> String {
    use mipsx_core::probe::json_escape;
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"label\":\"{}\",\"paper\":{},\"measured\":{}}}",
                json_escape(&r.label),
                r.paper.map_or_else(|| "null".to_owned(), json_number),
                json_number(r.measured)
            )
        })
        .collect();
    format!(
        "{{\"name\":\"{}\",\"title\":\"{}\",\"rows\":[{}]}}",
        json_escape(name),
        json_escape(title),
        rows.join(",")
    )
}

/// [`rows_to_json`] plus the experiment's wall-clock time in milliseconds
/// (`mipsx reproduce --json` reports how long each experiment took).
pub fn rows_to_json_timed(name: &str, title: &str, rows: &[Row], wall_ms: u128) -> String {
    let obj = rows_to_json(name, title, rows);
    format!(
        "{{\"wall_ms\":{wall_ms},{}",
        obj.strip_prefix('{').expect("rows_to_json emits an object")
    )
}

/// Assemble the full `mipsx reproduce --json` document from per-experiment
/// objects produced by [`rows_to_json`].
pub fn json_document(experiments: &[String]) -> String {
    format!("{{\"experiments\":[{}]}}", experiments.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_deviation() {
        let r = Row {
            label: "x".into(),
            paper: Some(2.0),
            measured: 2.2,
        };
        assert!((r.deviation().unwrap() - 0.1).abs() < 1e-12);
        let r = Row {
            label: "y".into(),
            paper: None,
            measured: 1.0,
        };
        assert_eq!(r.deviation(), None);
    }

    #[test]
    fn table_renders() {
        let t = render_table(
            "T",
            &[Row {
                label: "a".into(),
                paper: Some(1.0),
                measured: 1.1,
            }],
        );
        assert!(t.contains("paper"));
        assert!(t.contains("+10.0%"));
    }

    #[test]
    fn rows_serialize_to_json() {
        let rows = [
            Row {
                label: "taken \"fast\"".into(),
                paper: Some(1.5),
                measured: 1.47,
            },
            Row {
                label: "no paper value".into(),
                paper: None,
                measured: f64::NAN, // degrades to null
            },
        ];
        let obj = rows_to_json("table1", "E1", &rows);
        assert_eq!(
            obj,
            r#"{"name":"table1","title":"E1","rows":[{"label":"taken \"fast\"","paper":1.5,"measured":1.47},{"label":"no paper value","paper":null,"measured":null}]}"#
        );
        assert_eq!(
            rows_to_json_timed("table1", "E1", &rows, 12),
            format!("{{\"wall_ms\":12,{}", &obj[1..])
        );
        assert_eq!(
            json_document(&[obj.clone(), obj.clone()]),
            format!("{{\"experiments\":[{obj},{obj}]}}")
        );
        assert_eq!(json_document(&[]), r#"{"experiments":[]}"#);
    }
}

//! The profile data model shared by the toolkit: per-region, multi-metric
//! inclusive/exclusive statistics — what §3 calls "a list of various metrics
//! … associated with program-level entities".

use papi_obs::json::{self, JsonError, ToJson};
use std::fmt::Write as _;

/// One profiled program entity (function / region).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRow {
    pub name: String,
    pub calls: u64,
    /// Inclusive totals, parallel to the profile's metric list.
    pub incl: Vec<i64>,
    /// Exclusive totals (inclusive minus profiled children).
    pub excl: Vec<i64>,
}

/// A multi-metric profile: the TAU-style artifact where "up to 25 metrics
/// may be specified and a separate profile generated for each", all
/// comparable because they come from the same run structure.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Metric names (e.g. `PAPI_TOT_CYC`, `PAPI_L1_DCM`, `TIME_NS`).
    pub metrics: Vec<String>,
    pub rows: Vec<RegionRow>,
}

papi_obs::json_struct!(RegionRow {
    name,
    calls,
    incl,
    excl
});
papi_obs::json_struct!(Profile { metrics, rows });

impl Profile {
    /// ```
    /// use papi_toolkit::{Profile, RegionRow};
    /// let p = Profile {
    ///     metrics: vec!["PAPI_TOT_CYC".into()],
    ///     rows: vec![
    ///         RegionRow { name: "hot".into(),  calls: 9, incl: vec![900], excl: vec![900] },
    ///         RegionRow { name: "cold".into(), calls: 1, incl: vec![100], excl: vec![100] },
    ///     ],
    /// };
    /// assert_eq!(p.hotspots("PAPI_TOT_CYC").unwrap()[0].name, "hot");
    /// assert_eq!(p.total_excl("PAPI_TOT_CYC"), Some(1000));
    /// ```
    /// Index of a metric by name.
    pub fn metric_index(&self, name: &str) -> Option<usize> {
        self.metrics.iter().position(|m| m == name)
    }

    /// A row by region name.
    pub fn row(&self, name: &str) -> Option<&RegionRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Total (exclusive) of a metric across all regions.
    pub fn total_excl(&self, metric: &str) -> Option<i64> {
        let i = self.metric_index(metric)?;
        Some(self.rows.iter().map(|r| r.excl[i]).sum())
    }

    /// Rows sorted by descending exclusive value of `metric`.
    pub fn hotspots(&self, metric: &str) -> Option<Vec<&RegionRow>> {
        let i = self.metric_index(metric)?;
        let mut rows: Vec<&RegionRow> = self.rows.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.excl[i]));
        Some(rows)
    }

    /// Pearson correlation of two metrics across regions (exclusive
    /// values) — "profiles for the same run can then be compared to see
    /// important correlations, such as the correlation of time with
    /// operation counts and cache misses" (§3).
    pub fn metric_correlation(&self, a: &str, b: &str) -> Option<f64> {
        let (ia, ib) = (self.metric_index(a)?, self.metric_index(b)?);
        let xs: Vec<f64> = self.rows.iter().map(|r| r.excl[ia] as f64).collect();
        let ys: Vec<f64> = self.rows.iter().map(|r| r.excl[ib] as f64).collect();
        papi_tools::pearson(&xs, &ys)
    }

    /// Per-region ratio of two metrics (exclusive), e.g. misses per load.
    pub fn ratio(&self, num: &str, den: &str) -> Option<Vec<(String, f64)>> {
        let (ia, ib) = (self.metric_index(num)?, self.metric_index(den)?);
        Some(
            self.rows
                .iter()
                .map(|r| {
                    let d = r.excl[ib];
                    let v = if d == 0 {
                        0.0
                    } else {
                        r.excl[ia] as f64 / d as f64
                    };
                    (r.name.clone(), v)
                })
                .collect(),
        )
    }

    /// Relative change per region of `metric` from `self` (baseline) to
    /// `after` — the before/after artifact of a tuning session.
    pub fn diff(&self, after: &Profile, metric: &str) -> Option<Vec<(String, i64, i64, f64)>> {
        let ia = self.metric_index(metric)?;
        let ib = after.metric_index(metric)?;
        let mut out = Vec::new();
        for r in &self.rows {
            let Some(r2) = after.row(&r.name) else {
                continue;
            };
            let (b, a) = (r.excl[ia], r2.excl[ib]);
            let rel = if b == 0 {
                0.0
            } else {
                (a - b) as f64 / b as f64
            };
            out.push((r.name.clone(), b, a, rel));
        }
        Some(out)
    }

    /// Flat-profile text rendering, sorted by the first metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write!(out, "{:<20} {:>8}", "region", "calls").unwrap();
        for m in &self.metrics {
            write!(out, " {:>14}/i {:>14}/e", m, m).unwrap();
        }
        writeln!(out).unwrap();
        let order = self.hotspots(&self.metrics[0]).unwrap_or_default();
        for r in order {
            write!(out, "{:<20} {:>8}", r.name, r.calls).unwrap();
            for (i, _) in self.metrics.iter().enumerate() {
                write!(out, " {:>16} {:>16}", r.incl[i], r.excl[i]).unwrap();
            }
            writeln!(out).unwrap();
        }
        out
    }

    /// Serialize for downstream tools (the TAU "profile file" stand-in).
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).to_pretty()
    }

    /// Load a serialized profile.
    pub fn from_json(s: &str) -> std::result::Result<Profile, JsonError> {
        json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile {
            metrics: vec!["PAPI_TOT_CYC".into(), "PAPI_L1_DCM".into()],
            rows: vec![
                RegionRow {
                    name: "hot".into(),
                    calls: 10,
                    incl: vec![1000, 90],
                    excl: vec![900, 90],
                },
                RegionRow {
                    name: "cold".into(),
                    calls: 5,
                    incl: vec![100, 2],
                    excl: vec![100, 2],
                },
                RegionRow {
                    name: "main".into(),
                    calls: 1,
                    incl: vec![1100, 92],
                    excl: vec![100, 0],
                },
            ],
        }
    }

    #[test]
    fn hotspots_sorted_by_exclusive() {
        let p = sample();
        let hs = p.hotspots("PAPI_TOT_CYC").unwrap();
        assert_eq!(hs[0].name, "hot");
        assert!(p.hotspots("NOPE").is_none());
    }

    #[test]
    fn totals_and_ratio() {
        let p = sample();
        assert_eq!(p.total_excl("PAPI_TOT_CYC"), Some(1100));
        let r = p.ratio("PAPI_L1_DCM", "PAPI_TOT_CYC").unwrap();
        let hot = r.iter().find(|(n, _)| n == "hot").unwrap();
        assert!((hot.1 - 0.1).abs() < 1e-9);
        // zero denominator guarded
        let r2 = p.ratio("PAPI_TOT_CYC", "PAPI_L1_DCM").unwrap();
        assert_eq!(r2.iter().find(|(n, _)| n == "main").unwrap().1, 0.0);
    }

    #[test]
    fn correlation_between_metrics() {
        let p = sample();
        // cycles and misses move together across these regions
        let r = p.metric_correlation("PAPI_TOT_CYC", "PAPI_L1_DCM").unwrap();
        assert!(r > 0.9, "r = {r}");
    }

    #[test]
    fn diff_reports_relative_change() {
        let before = sample();
        let mut after = sample();
        after.rows[0].excl = vec![450, 9]; // hot got 2x faster, 10x fewer misses
        let d = before.diff(&after, "PAPI_TOT_CYC").unwrap();
        let hot = d.iter().find(|(n, _, _, _)| n == "hot").unwrap();
        assert_eq!(hot.1, 900);
        assert_eq!(hot.2, 450);
        assert!((hot.3 + 0.5).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip_and_render() {
        let p = sample();
        let back = Profile::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        let txt = p.render();
        assert!(txt.contains("hot"));
        assert!(txt.contains("PAPI_L1_DCM"));
    }
}

//! `forkbench noise A.json B.json …`: how far the same commit's runs
//! disagree, per workload × end-to-end metric. `NOISE.md` is this table.

use std::collections::BTreeMap;

use crate::catalog;
use crate::report::WorkloadNumbers;
use crate::stats;

/// One row of the noise table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// End-to-end metric.
    pub metric: &'static str,
    /// Each set's median, in file order.
    pub medians: Vec<f64>,
    /// `(max − min) ÷ median` of those medians.
    pub range_share: f64,
    /// Interquartile range ÷ median (what the driver's acceptance uses).
    pub iqr_share: f64,
    /// The metric's bound.
    pub bound: f64,
}

impl Row {
    /// `keep` while the sets agree within the bound and the quartile spread
    /// stays under a third of it; otherwise the pair needs a longer run, a
    /// wider bound, or demotion.
    pub fn decision(&self) -> &'static str {
        if self.bound == 0.0 {
            return if self.range_share == 0.0 {
                "keep"
            } else {
                "over"
            };
        }
        if self.range_share <= self.bound && self.iqr_share <= self.bound / 3.0 {
            "keep"
        } else if self.range_share <= self.bound {
            "keep (wide)"
        } else {
            "over"
        }
    }
}

/// Rows for every workload × metric that every set reports.
pub fn table(sets: &[BTreeMap<String, WorkloadNumbers>]) -> Vec<Row> {
    let Some(first) = sets.first() else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for workload in first.keys() {
        for def in &catalog::E2E {
            let medians: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(workload)?.e2e.get(def.name))
                .map(|s| s.median)
                .collect();
            if medians.len() != sets.len() {
                continue;
            }
            let summary = stats::summarize(&medians).expect("at least one set");
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                range_share: summary.range_share(),
                iqr_share: stats::iqr_share(&medians).unwrap_or(0.0),
                medians,
                bound: def.bound,
            });
        }
    }
    rows
}

/// Prints the table as Markdown.
pub fn print(rows: &[Row]) {
    println!("| workload | metric | medians | (max−min)÷median | IQR÷median | bound | decision |");
    println!("|---|---|---|---|---|---|---|");
    for r in rows {
        let medians: Vec<String> = r.medians.iter().map(|m| format!("{m:.4}")).collect();
        println!(
            "| {} | {} | {} | {:.2}% | {:.2}% | {:.0}% | {} |",
            r.workload,
            r.metric,
            medians.join(" · "),
            r.range_share * 100.0,
            r.iqr_share * 100.0,
            r.bound * 100.0,
            r.decision()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn set(ops: f64, lat: f64) -> BTreeMap<String, WorkloadNumbers> {
        let mut w = WorkloadNumbers::default();
        w.e2e.insert("ops_per_s".into(), Summary::exact(ops));
        w.e2e.insert("lat_p50_us".into(), Summary::exact(lat));
        BTreeMap::from([("ingest".to_string(), w)])
    }

    #[test]
    fn spreads_and_decisions() {
        let sets = [
            set(100.0, 10.0),
            set(101.0, 10.0),
            set(102.0, 13.0),
            set(99.0, 10.0),
        ];
        let rows = table(&sets);
        assert_eq!(rows.len(), 2);
        let ops = rows.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert!((ops.range_share - 3.0 / 100.5).abs() < 1e-9);
        assert_eq!(ops.decision(), "keep");
        let lat = rows.iter().find(|r| r.metric == "lat_p50_us").unwrap();
        assert!((lat.range_share - 0.3).abs() < 1e-9);
        assert_eq!(lat.decision(), "over");
    }
}

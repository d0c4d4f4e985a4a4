//! `forkbench compare A.json B.json`: per workload × end-to-end metric,
//! both medians, the delta, the bound, and a verdict.

use std::collections::BTreeMap;

use crate::catalog::{self, Better, E2eDef};
use crate::report::WorkloadNumbers;
use crate::stats::Summary;

/// What a comparison of one metric on one workload concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// A run's own quartile spread is wider than the bound and the two
    /// runs' quartile ranges overlap: the data cannot tell.
    Unresolved,
    /// The noise study demoted this pair (see `NOISE.md`): shown, not
    /// judged.
    Demoted,
    /// A reports the pair and B does not: the workload broke in B, or the
    /// metric vanished (a `lat_p99_us` below a thousand samples). Fails the
    /// comparison like a regression.
    Missing,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Demoted => "demoted",
            Verdict::Missing => "missing",
        }
    }
}

/// By what share of A's median B is worse (negative: better).
pub fn worse_by(def: &E2eDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a {
            0.0
        } else {
            f64::INFINITY.copysign(b - a)
        };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one metric.
pub fn judge(def: &E2eDef, a: &Summary, b: &Summary) -> Verdict {
    let worse = worse_by(def, a.median, b.median);
    // Quartiles, not extremes: among a run's many repetitions one stalled
    // one says nothing about where its median lies.
    let noisy = a.iqr_share().max(b.iqr_share()) > def.bound && def.bound > 0.0;
    if noisy {
        let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
        if overlap {
            return Verdict::Unresolved;
        }
        // Disjoint ranges: the bulk of one side beats the bulk of the
        // other, so the medians' order is the answer.
    }
    if worse > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// End-to-end metric.
    pub metric: &'static str,
    /// A's median.
    pub a: f64,
    /// B's median (NaN when B has none).
    pub b: f64,
    /// Share by which B is worse (negative: better; NaN when B has none).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares two result sets; a row for every pair A reports, `missing`
/// where B does not report it too.
pub fn compare(
    a: &BTreeMap<String, WorkloadNumbers>,
    b: &BTreeMap<String, WorkloadNumbers>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, wa) in a {
        for def in &catalog::E2E {
            let Some(sa) = wa.e2e.get(def.name) else {
                continue;
            };
            let sb = b.get(workload).and_then(|wb| wb.e2e.get(def.name));
            let demoted = catalog::DEMOTED.contains(&(def.name, workload.as_str()));
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: sa.median,
                b: sb.map_or(f64::NAN, |s| s.median),
                worse_by: sb.map_or(f64::NAN, |s| worse_by(def, sa.median, s.median)),
                bound: def.bound,
                verdict: match sb {
                    _ if demoted => Verdict::Demoted,
                    Some(sb) => judge(def, sa, sb),
                    None => Verdict::Missing,
                },
            });
        }
    }
    rows
}

/// Prints the rows; returns true when any regressed or went missing.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<17} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<17} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairs: {} ok, {} regressed, {} unresolved, {} demoted, {} missing",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Demoted),
        count(Verdict::Missing)
    );
    count(Verdict::Regressed) + count(Verdict::Missing) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10% bound, whatever the catalog's bounds are today.
    fn def(better: Better) -> E2eDef {
        E2eDef {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
            in_manifest: true,
        }
    }

    /// Three repetitions: the quartiles are the extremes.
    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            q1: min,
            q3: max,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn direction_and_bound_decide_ok_or_regressed() {
        let ops = &def(Better::Higher);
        assert_eq!(
            judge(ops, &s(100.0, 99.0, 101.0), &s(95.0, 94.0, 96.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(ops, &s(100.0, 99.0, 101.0), &s(85.0, 84.0, 86.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(ops, &s(100.0, 99.0, 101.0), &s(150.0, 149.0, 151.0)),
            Verdict::Ok
        );
        let lat = &def(Better::Lower);
        assert_eq!(
            judge(lat, &s(100.0, 99.0, 101.0), &s(115.0, 114.0, 116.0)),
            Verdict::Regressed
        );
        assert!((worse_by(lat, 100.0, 115.0) - 0.15).abs() < 1e-12);
        assert!((worse_by(ops, 100.0, 85.0) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let ops = &def(Better::Higher);
        // Spread 30% > bound 10%, ranges overlap.
        assert_eq!(
            judge(ops, &s(100.0, 85.0, 115.0), &s(98.0, 90.0, 110.0)),
            Verdict::Unresolved
        );
        // Just as wide, but every run of B is below every run of A.
        assert_eq!(
            judge(ops, &s(100.0, 90.0, 120.0), &s(70.0, 60.0, 80.0)),
            Verdict::Regressed
        );
        // … or above it.
        assert_eq!(
            judge(ops, &s(100.0, 90.0, 120.0), &s(150.0, 130.0, 170.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn one_stalled_repetition_among_many_does_not_unresolve() {
        let ops = &def(Better::Higher);
        let steady = Summary {
            median: 100.0,
            q1: 98.0,
            q3: 102.0,
            min: 60.0,
            max: 104.0,
            n: 40,
        };
        assert_eq!(judge(ops, &steady, &steady), Verdict::Ok);
    }

    #[test]
    fn demoted_pairs_are_shown_but_not_judged() {
        let &(metric, workload) = catalog::DEMOTED.first().expect("one demoted pair");
        let mut wa = WorkloadNumbers::default();
        wa.e2e.insert(metric.into(), s(100.0, 99.0, 101.0));
        let mut wb = WorkloadNumbers::default();
        wb.e2e.insert(metric.into(), s(900.0, 899.0, 901.0));
        let a = BTreeMap::from([(workload.to_string(), wa)]);
        let b = BTreeMap::from([(workload.to_string(), wb)]);
        let rows = compare(&a, &b);
        assert_eq!(rows[0].verdict, Verdict::Demoted);
        assert!(!print(&rows), "a demoted pair never fails the comparison");
    }

    #[test]
    fn any_rise_in_failed_share_is_a_regression() {
        let failed = catalog::e2e("failed_share").unwrap();
        let zero = Summary::exact(0.0);
        assert_eq!(judge(failed, &zero, &zero), Verdict::Ok);
        assert_eq!(
            judge(failed, &zero, &Summary::exact(0.001)),
            Verdict::Regressed
        );
        assert_eq!(judge(failed, &Summary::exact(0.01), &zero), Verdict::Ok);
    }

    #[test]
    fn what_a_has_and_b_lacks_is_missing_and_fails_the_comparison() {
        let mut wa = WorkloadNumbers::default();
        wa.e2e.insert("ops_per_s".into(), s(100.0, 99.0, 101.0));
        wa.e2e.insert("setup_s".into(), s(1.0, 1.0, 1.0));
        let mut wb = WorkloadNumbers::default();
        wb.e2e.insert("ops_per_s".into(), s(99.0, 98.0, 100.0));
        let a = BTreeMap::from([
            ("ingest".to_string(), wa.clone()),
            ("sim-meso".to_string(), wb.clone()),
        ]);
        // B lost a metric of one workload, and the other workload's child
        // crashed and left an empty entry behind.
        let b = BTreeMap::from([
            ("ingest".to_string(), wb),
            ("sim-meso".to_string(), WorkloadNumbers::default()),
        ]);
        let verdicts: Vec<_> = compare(&a, &b)
            .iter()
            .map(|r| (r.workload.clone(), r.metric, r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("ingest".to_string(), "setup_s", Verdict::Missing),
                ("ingest".to_string(), "ops_per_s", Verdict::Ok),
                ("sim-meso".to_string(), "ops_per_s", Verdict::Missing),
            ]
        );
        assert!(print(&compare(&a, &b)), "a missing pair fails the command");
        // A workload that is not in B at all reads the same way …
        let only_ingest = BTreeMap::from([("ingest".to_string(), wa.clone())]);
        assert!(print(&compare(&a, &only_ingest)));
        // … and what only B has is nothing A can be compared with.
        assert!(!print(&compare(&only_ingest, &a)));
    }
}

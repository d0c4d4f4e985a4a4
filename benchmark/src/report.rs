//! Output: the `workload metric value unit` table, `results.json`, and the
//! driver's one-line result.

use std::collections::BTreeMap;

use fork_telemetry::json::{quote, Value};

use crate::catalog::{self, LAYERS};
use crate::harness::Outcome;
use crate::stats::Summary;

/// Schema tag of the result files.
pub const SCHEMA: &str = "forkbench/v1";

/// What a result file says about the run as a whole.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Workload seed.
    pub seed: u64,
    /// Sizes label (`contract`, `smoke`).
    pub sizes: String,
    /// Timed window per workload, seconds.
    pub seconds: f64,
    /// `N`: cores the run used.
    pub nproc: usize,
    /// CPU model, from `/proc/cpuinfo`.
    pub cpu: String,
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".into(), |(_, v)| v.trim().to_string())
}

/// One workload's numbers as read back from a result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadNumbers {
    /// Ops attempted, checks included.
    pub attempted: u64,
    /// Ops or checks failed.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: BTreeMap<String, Summary>,
    /// Per-layer metrics.
    pub layers: BTreeMap<String, f64>,
}

impl WorkloadNumbers {
    /// The numbers of a finished run.
    pub fn of(outcome: &Outcome) -> WorkloadNumbers {
        WorkloadNumbers {
            attempted: outcome.attempted,
            failed: outcome.failed,
            e2e: outcome
                .e2e
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            layers: outcome
                .layers
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Folds a second run of the same workload in (the traced run's
    /// per-layer numbers next to the untraced run's end-to-end ones).
    pub fn absorb(&mut self, other: WorkloadNumbers) {
        if self.e2e.is_empty() {
            self.attempted = other.attempted;
        }
        self.failed += other.failed;
        self.e2e.extend(other.e2e);
        self.layers.extend(other.layers);
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints `workload metric value unit` rows: end-to-end metrics with their
/// median/min/max/count, per-layer metrics with what they feed.
pub fn print_table(workload: &str, numbers: &WorkloadNumbers) {
    for (name, s) in &numbers.e2e {
        let unit = catalog::e2e(name).map_or("", |m| m.unit);
        println!(
            "{workload} {name} {} {unit}  (min {} max {} n {})",
            num(s.median),
            num(s.min),
            num(s.max),
            s.n
        );
    }
    for (name, v) in &numbers.layers {
        let Some(def) = catalog::layer(name) else {
            continue;
        };
        if !def.on.contains(&workload) {
            continue;
        }
        println!(
            "{workload} {name} {} {}  (feeds {} on {})",
            num(*v),
            def.unit,
            def.feeds,
            def.on.join(",")
        );
    }
}

/// Renders a result file.
pub fn results_json(meta: &RunMeta, workloads: &BTreeMap<String, WorkloadNumbers>) -> String {
    let mut out = format!(
        "{{\n  \"schema\": {},\n  \"seed\": {},\n  \"sizes\": {},\n  \"seconds\": {},\n  \
         \"nproc\": {},\n  \"cpu\": {},\n  \"workloads\": {{\n",
        quote(SCHEMA),
        meta.seed,
        quote(&meta.sizes),
        num(meta.seconds),
        meta.nproc,
        quote(&meta.cpu)
    );
    let rows: Vec<String> = workloads
        .iter()
        .map(|(name, w)| {
            let e2e: Vec<String> = w
                .e2e
                .iter()
                .map(|(k, s)| {
                    format!(
                        "        {}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"unit\": {}}}",
                        quote(k),
                        num(s.median),
                        num(s.q1),
                        num(s.q3),
                        num(s.min),
                        num(s.max),
                        s.n,
                        quote(catalog::e2e(k).map_or("", |m| m.unit))
                    )
                })
                .collect();
            let layers: Vec<String> = w
                .layers
                .iter()
                .map(|(k, v)| {
                    let def = catalog::layer(k);
                    format!(
                        "        {}: {{\"value\": {}, \"unit\": {}, \"feeds\": {}}}",
                        quote(k),
                        num(*v),
                        quote(def.map_or("", |d| d.unit)),
                        quote(def.map_or("", |d| d.feeds))
                    )
                })
                .collect();
            format!(
                "    {}: {{\n      \"attempted\": {},\n      \"failed\": {},\n      \
                 \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
                quote(name),
                w.attempted,
                w.failed,
                e2e.join(",\n"),
                layers.join(",\n")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

/// Parses a result file.
pub fn parse_results(text: &str) -> Result<(RunMeta, BTreeMap<String, WorkloadNumbers>), String> {
    let v = Value::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
    if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file"));
    }
    let f = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let meta = RunMeta {
        seed: f("seed") as u64,
        sizes: s("sizes"),
        seconds: f("seconds"),
        nproc: f("nproc") as usize,
        cpu: s("cpu"),
    };
    let Some(Value::Obj(entries)) = v.get("workloads") else {
        return Err("no workloads".into());
    };
    let mut workloads = BTreeMap::new();
    for (name, w) in entries {
        let mut numbers = WorkloadNumbers {
            attempted: w.get("attempted").and_then(Value::as_u64).unwrap_or(0),
            failed: w.get("failed").and_then(Value::as_u64).unwrap_or(0),
            ..WorkloadNumbers::default()
        };
        if let Some(Value::Obj(metrics)) = w.get("end_to_end") {
            for (k, m) in metrics {
                let g = |f: &str| m.get(f).and_then(Value::as_f64).unwrap_or(0.0);
                numbers.e2e.insert(
                    k.clone(),
                    Summary {
                        median: g("median"),
                        q1: g("q1"),
                        q3: g("q3"),
                        min: g("min"),
                        max: g("max"),
                        n: g("n") as usize,
                    },
                );
            }
        }
        if let Some(Value::Obj(metrics)) = w.get("per_layer") {
            for (k, m) in metrics {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                numbers.layers.insert(k.clone(), value);
            }
        }
        workloads.insert(name.clone(), numbers);
    }
    Ok((meta, workloads))
}

/// The driver's result line: `correct`, `attempted`, `failed`, and either
/// every manifest end-to-end metric (untraced) or every per-layer metric
/// (traced; a layer the workload never touches did no work and reads 0).
pub fn contract_line(numbers: &WorkloadNumbers, traced: bool) -> String {
    let entry = |name: &str, value: f64, unit: &str| {
        format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            num(value),
            quote(unit)
        )
    };
    let metrics: Vec<String> = if traced {
        LAYERS
            .iter()
            .map(|def| {
                let v = numbers.layers.get(def.name).copied().unwrap_or(0.0);
                entry(def.name, v, def.unit)
            })
            .collect()
    } else {
        catalog::E2E
            .iter()
            .filter(|m| m.in_manifest)
            .map(|def| {
                let v = numbers.e2e.get(def.name).map_or(0.0, |s| s.median);
                entry(def.name, v, def.unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        numbers.failed == 0,
        numbers.attempted.max(1),
        numbers.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (RunMeta, BTreeMap<String, WorkloadNumbers>) {
        let mut w = WorkloadNumbers {
            attempted: 1_000,
            failed: 0,
            ..WorkloadNumbers::default()
        };
        w.e2e.insert(
            "ops_per_s".into(),
            Summary {
                median: 1234.5,
                q1: 1210.0,
                q3: 1290.5,
                min: 1200.0,
                max: 1300.25,
                n: 3,
            },
        );
        w.e2e.insert("setup_s".into(), Summary::exact(0.75));
        w.layers.insert("query.cache.hit_rate".into(), 0.97);
        let meta = RunMeta {
            seed: 2016,
            sizes: "contract".into(),
            seconds: 6.0,
            nproc: 2,
            cpu: "Some \"CPU\" @ 2GHz".into(),
        };
        (meta, BTreeMap::from([("reanalyze-hot".to_string(), w)]))
    }

    #[test]
    fn results_round_trip() {
        let (meta, workloads) = sample();
        let text = results_json(&meta, &workloads);
        let (meta2, workloads2) = parse_results(&text).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(workloads, workloads2);
        assert!(parse_results("{\"schema\": \"other\"}").is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let (_, workloads) = sample();
        let w = &workloads["reanalyze-hot"];
        let line = Value::parse(&contract_line(w, false)).unwrap();
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(1_000));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let manifest = catalog::E2E.iter().filter(|m| m.in_manifest).count();
        assert_eq!(metrics.len(), manifest);
        let traced = Value::parse(&contract_line(w, true)).unwrap();
        let Some(Value::Obj(metrics)) = traced.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(metrics.len(), LAYERS.len());
        let hit = traced
            .get("metrics")
            .unwrap()
            .get("query.cache.hit_rate")
            .unwrap();
        assert_eq!(hit.get("value").and_then(Value::as_f64), Some(0.97));
    }
}

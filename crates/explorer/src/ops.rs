//! The ops dashboard: deterministic rendering of a daemon's observability
//! plane — the sampled time-series ring and the slow-query log.
//!
//! Like every explorer page, rendering is a pure function of its inputs:
//! [`ops_json`] emits a `fork-obs/v1` document and [`ops_html`] a static
//! page (sparkline tables per series, a slow-query waterfall table), and
//! both are byte-identical whether the data came from a live daemon or a
//! dumped series file — [`parse_ops_json`] inverts [`ops_json`] exactly,
//! so `render → parse → render` is the identity on bytes.

use std::collections::BTreeMap;

use fork_serve::{SlowQueryRecord, StageBreakdown};
use fork_telemetry::json::Value;
use fork_telemetry::{SeriesRing, SeriesSample};

/// Schema tag stamped into the ops JSON document.
pub const OBS_SCHEMA: &str = "fork-obs/v1";

/// Sparkline glyphs, lowest to highest.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Waterfall bar width in characters.
const WATERFALL_WIDTH: u64 = 32;

/// Non-finite sample values (which no sampler emits) render as `0`.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// JSON for the ops page: the series ring (every tick, every named series)
/// plus the slow-query log with per-stage waterfalls.
pub fn ops_json(series: &SeriesRing, slow: &[SlowQueryRecord]) -> String {
    let ticks = series.samples().map(|s| s.tick.into()).collect();
    let points = series.series_names().into_iter().map(|name| {
        let points = series.series(&name).into_iter();
        let points = points.map(|(tick, v)| Value::Arr(vec![tick.into(), finite(v).into()]));
        (name, Value::Arr(points.collect()))
    });
    let series = Value::obj([
        ("capacity", Value::from(series.capacity())),
        ("next_tick", series.next_tick().into()),
        ("ticks", Value::Arr(ticks)),
        ("points", Value::obj(points)),
    ]);
    let slow_log = slow.iter().map(|r| {
        let stages = Value::obj([
            ("read_us", r.stages.read_us),
            ("admit_us", r.stages.admit_us),
            ("queue_us", r.stages.queue_us),
            ("execute_us", r.stages.execute_us),
            ("write_us", r.stages.write_us),
        ]);
        let cache = [
            ("hits", r.stages.cache_hits),
            ("misses", r.stages.cache_misses),
        ];
        Value::obj([
            ("id", Value::from(r.id)),
            ("seq", r.seq.into()),
            ("endpoint", r.endpoint.as_str().into()),
            ("total_us", r.total_us.into()),
            ("stages", stages),
            ("cache", Value::obj(cache)),
        ])
    });
    Value::obj([
        ("schema", Value::from(OBS_SCHEMA)),
        ("page", "ops".into()),
        ("series", series),
        ("slow_log", Value::Arr(slow_log.collect())),
    ])
    .to_json_pretty()
}

fn want_u64(v: &Value, what: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("{what}: not a u64"))
}

/// Parses a `fork-obs/v1` document back into the ring and slow log —
/// the exact inverse of [`ops_json`], so a dumped series file renders
/// byte-identically to the live daemon it was scraped from.
pub fn parse_ops_json(input: &str) -> Result<(SeriesRing, Vec<SlowQueryRecord>), String> {
    let doc = Value::parse(input).map_err(|e| e.to_string())?;
    if doc["schema"].as_str() != Some(OBS_SCHEMA) {
        return Err(format!(
            "schema is {:?}, wanted {OBS_SCHEMA:?}",
            doc["schema"].as_str().unwrap_or("missing")
        ));
    }
    let s = &doc["series"];
    let capacity = want_u64(&s["capacity"], "series.capacity")? as usize;
    let next_tick = want_u64(&s["next_tick"], "series.next_tick")?;
    let ticks = s["ticks"]
        .as_array()
        .ok_or_else(|| "series.ticks: not an array".to_string())?;
    let mut samples: Vec<SeriesSample> = Vec::with_capacity(ticks.len());
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for t in ticks {
        let tick = want_u64(t, "series.ticks entry")?;
        if index.insert(tick, samples.len()).is_some() {
            return Err(format!("series.ticks: duplicate tick {tick}"));
        }
        samples.push(SeriesSample {
            tick,
            values: BTreeMap::new(),
        });
    }
    match &s["points"] {
        Value::Obj(points) => {
            for (name, arr) in points {
                let arr = arr
                    .as_array()
                    .ok_or_else(|| format!("series.points.{name}: not an array"))?;
                for p in arr {
                    let tick = want_u64(&p[0], "point tick")?;
                    let value = p[1]
                        .as_f64()
                        .ok_or_else(|| format!("series.points.{name}: point value"))?;
                    let &pos = index
                        .get(&tick)
                        .ok_or_else(|| format!("series.points.{name}: tick {tick} not in ticks"))?;
                    samples[pos].values.insert(name.clone(), value);
                }
            }
        }
        _ => return Err("series.points: not an object".into()),
    }
    let ring = SeriesRing::from_parts(capacity, next_tick, samples)?;

    let mut slow_log = Vec::new();
    let entries = doc["slow_log"]
        .as_array()
        .ok_or_else(|| "slow_log: not an array".to_string())?;
    for r in entries {
        let stages = &r["stages"];
        let cache = &r["cache"];
        slow_log.push(SlowQueryRecord {
            id: want_u64(&r["id"], "slow_log id")?,
            seq: want_u64(&r["seq"], "slow_log seq")?,
            endpoint: r["endpoint"]
                .as_str()
                .ok_or_else(|| "slow_log endpoint: not a string".to_string())?
                .to_string(),
            total_us: want_u64(&r["total_us"], "slow_log total_us")?,
            stages: StageBreakdown {
                read_us: want_u64(&stages["read_us"], "slow_log read_us")?,
                admit_us: want_u64(&stages["admit_us"], "slow_log admit_us")?,
                queue_us: want_u64(&stages["queue_us"], "slow_log queue_us")?,
                execute_us: want_u64(&stages["execute_us"], "slow_log execute_us")?,
                write_us: want_u64(&stages["write_us"], "slow_log write_us")?,
                cache_hits: want_u64(&cache["hits"], "slow_log cache hits")?,
                cache_misses: want_u64(&cache["misses"], "slow_log cache misses")?,
            },
        });
    }
    Ok((ring, slow_log))
}

/// Renders one series as a sparkline, scaled to its own min..max; a flat
/// series renders as a mid-height line.
fn sparkline(points: &[(u64, f64)]) -> String {
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, v) in points {
        min = min.min(v);
        max = max.max(v);
    }
    points
        .iter()
        .map(|&(_, v)| {
            if max > min {
                let idx = (((v - min) / (max - min)) * 7.0).round() as usize;
                SPARK[idx.min(7)]
            } else {
                SPARK[3]
            }
        })
        .collect()
}

/// A proportional R/A/Q/E/W bar for one slow query's stage breakdown
/// (integer math only, so rendering is deterministic).
fn waterfall(stages: &StageBreakdown, total_us: u64) -> String {
    let total = total_us.max(1);
    let mut bar = String::new();
    for (label, us) in [
        ('R', stages.read_us),
        ('A', stages.admit_us),
        ('Q', stages.queue_us),
        ('E', stages.execute_us),
        ('W', stages.write_us),
    ] {
        let width = us.saturating_mul(WATERFALL_WIDTH) / total;
        for _ in 0..width {
            bar.push(label);
        }
    }
    if bar.is_empty() {
        bar.push('·');
    }
    bar
}

/// HTML for the ops dashboard: a sparkline table of every sampled series
/// and a waterfall table of the slow-query log. Stable element ids
/// (`obs-series`, `slow-queries`) so scripts and tests can grep them.
pub fn ops_html(series: &SeriesRing, slow: &[SlowQueryRecord]) -> String {
    let mut body = String::from("<h1>Ops dashboard</h1>\n");
    body.push_str(&format!(
        "<p>{} samples retained (ring capacity {}, next tick {}).</p>\n",
        series.len(),
        series.capacity(),
        series.next_tick()
    ));
    if series.is_empty() {
        body.push_str("<p>No samples yet.</p>\n");
    } else {
        body.push_str(
            "<table id=\"obs-series\">\n\
             <tr><th>series</th><th>points</th><th>last</th><th>min</th><th>max</th>\
             <th>sparkline</th></tr>\n",
        );
        for name in series.series_names() {
            let points = series.series(&name);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for &(_, v) in &points {
                min = min.min(v);
                max = max.max(v);
            }
            let last = points.last().map(|&(_, v)| v).unwrap_or(0.0);
            body.push_str(&format!(
                "<tr><td>{name}</td><td>{}</td><td>{:?}</td><td>{:?}</td><td>{:?}</td>\
                 <td><code>{}</code></td></tr>\n",
                points.len(),
                finite(last),
                finite(min),
                finite(max),
                sparkline(&points)
            ));
        }
        body.push_str("</table>\n");
    }
    body.push_str("<h2>Slow queries</h2>\n");
    if slow.is_empty() {
        body.push_str("<p>Slow-query log is empty.</p>\n");
    } else {
        body.push_str(
            "<table id=\"slow-queries\">\n\
             <tr><th>seq</th><th>endpoint</th><th>total</th><th>read</th><th>admit</th>\
             <th>queue</th><th>execute</th><th>write</th><th>cache h/m</th>\
             <th>waterfall</th></tr>\n",
        );
        for r in slow {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}us</td><td>{}us</td><td>{}us</td>\
                 <td>{}us</td><td>{}us</td><td>{}us</td><td>{}/{}</td>\
                 <td><code>{}</code></td></tr>\n",
                r.seq,
                r.endpoint,
                r.total_us,
                r.stages.read_us,
                r.stages.admit_us,
                r.stages.queue_us,
                r.stages.execute_us,
                r.stages.write_us,
                r.stages.cache_hits,
                r.stages.cache_misses,
                waterfall(&r.stages, r.total_us)
            ));
        }
        body.push_str("</table>\n");
    }
    let mut out = String::from(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>ops</title>\n</head>\n<body>\n",
    );
    out.push_str(&body);
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ring() -> SeriesRing {
        let mut ring = SeriesRing::new(8);
        for i in 0..5u64 {
            let mut values = BTreeMap::new();
            values.insert("connections".to_string(), 100.0 + i as f64);
            values.insert("cache_hit_rate".to_string(), 0.25 * i as f64 / 4.0);
            if i % 2 == 0 {
                values.insert("p99_us.blocks".to_string(), 1500.0 + 10.0 * i as f64);
            }
            ring.push(values);
        }
        ring
    }

    fn sample_slow() -> Vec<SlowQueryRecord> {
        vec![
            SlowQueryRecord {
                id: 9,
                seq: 4,
                endpoint: "blocks".into(),
                total_us: 1800,
                stages: StageBreakdown {
                    read_us: 10,
                    admit_us: 1,
                    queue_us: 200,
                    execute_us: 1500,
                    write_us: 80,
                    cache_hits: 3,
                    cache_misses: 1,
                },
            },
            SlowQueryRecord {
                id: 2,
                seq: 1,
                endpoint: "tip_history".into(),
                total_us: 900,
                stages: StageBreakdown {
                    read_us: 5,
                    admit_us: 0,
                    queue_us: 40,
                    execute_us: 800,
                    write_us: 50,
                    cache_hits: 0,
                    cache_misses: 2,
                },
            },
        ]
    }

    #[test]
    fn ops_json_parses_back_and_rerenders_byte_identically() {
        let ring = sample_ring();
        let slow = sample_slow();
        let rendered = ops_json(&ring, &slow);
        let (ring2, slow2) = parse_ops_json(&rendered).expect("parse back");
        assert_eq!(ring, ring2);
        assert_eq!(slow, slow2);
        assert_eq!(rendered, ops_json(&ring2, &slow2));
        assert_eq!(ops_html(&ring, &slow), ops_html(&ring2, &slow2));
    }

    #[test]
    fn ops_json_carries_schema_and_survives_empty_inputs() {
        let empty = SeriesRing::new(4);
        let rendered = ops_json(&empty, &[]);
        let doc = Value::parse(&rendered).expect("valid JSON");
        assert_eq!(doc["schema"].as_str(), Some("fork-obs/v1"));
        let (ring, slow) = parse_ops_json(&rendered).expect("parse empty");
        assert!(ring.is_empty());
        assert!(slow.is_empty());
        assert_eq!(rendered, ops_json(&ring, &slow));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(parse_ops_json("not json").is_err());
        assert!(parse_ops_json("{\"schema\": \"fork-explorer/v1\"}").is_err());
        // A point referencing a tick missing from the ticks array is refused.
        let bad = "{\n  \"schema\": \"fork-obs/v1\",\n  \"page\": \"ops\",\n  \"series\": \
                   {\"capacity\": 4, \"next_tick\": 1, \"ticks\": [0], \"points\": \
                   {\"x\": [[7, 1.0]]}},\n  \"slow_log\": []\n}\n";
        assert!(parse_ops_json(bad).is_err());
    }

    #[test]
    fn html_renders_sparklines_and_waterfalls() {
        let html = ops_html(&sample_ring(), &sample_slow());
        assert!(html.contains("id=\"obs-series\""));
        assert!(html.contains("id=\"slow-queries\""));
        assert!(html.contains('▁') || html.contains('▄'));
        // The dominant execute stage must dominate the waterfall bar.
        assert!(html.contains("EEEE"));
        // Flat series (single-point or constant) render mid-height, never panic.
        let mut flat = SeriesRing::new(2);
        flat.push(BTreeMap::from([("x".to_string(), 1.0)]));
        let html = ops_html(&flat, &[]);
        assert!(html.contains('▄'));
        assert!(html.contains("Slow-query log is empty"));
    }
}

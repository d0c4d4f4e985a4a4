//! Every JSON document the workspace writes is built as a
//! `fork_telemetry::json::Value` and rendered by the one writer there, so
//! parsing a document and rendering the parsed value in the same layout
//! must reproduce it byte for byte — for every document kind: explorer
//! pages, the ops page, the `fork-load` report, telemetry snapshots (wall
//! and zeroed), Chrome traces, figures and observations.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use stick_a_fork::analytics;
use stick_a_fork::archive::{ArchiveConfig, Codec};
use stick_a_fork::core::{observations, ForkStudy};
use stick_a_fork::explorer::{ops_json, render_site, ExplorerSource};
use stick_a_fork::serve::{LoadReport, PhaseStats, ServeMeta, SlowQueryRecord, StageBreakdown};
use stick_a_fork::sim::micro::MicroNet;
use stick_a_fork::sim::scenario::trace_scenario;
use stick_a_fork::telemetry::json::Value;
use stick_a_fork::telemetry::{
    chrome_trace_json, HistogramSnapshot, SeriesRing, TimingMode, TraceSink,
};

/// Parses `doc` and renders it again in the layout it was written in.
fn assert_rerenders(kind: &str, doc: &str, pretty: bool) {
    let value = Value::parse(doc).unwrap_or_else(|e| panic!("{kind}: {e}"));
    let again = if pretty {
        value.to_json_pretty()
    } else {
        value.to_json()
    };
    assert_eq!(again, doc, "{kind}: render∘parse∘render changed the bytes");
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fork-json-docs-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn study_documents_rerender_byte_identically() {
    let arch = scratch("arch");
    let config = ArchiveConfig {
        codec: Codec::Delta,
        ..ArchiveConfig::default()
    };
    let result = ForkStudy::quick(2016)
        .archive_to_with(&arch, config)
        .unwrap();

    // Explorer pages, rendered from the archive the study just wrote.
    let site = scratch("site");
    let written = render_site(&mut ExplorerSource::open(&arch).unwrap(), &site).unwrap();
    let mut pages = 0;
    for path in written
        .iter()
        .filter(|p| p.extension() == Some("json".as_ref()))
    {
        let doc = std::fs::read_to_string(path).unwrap();
        assert_rerenders(&path.display().to_string(), &doc, true);
        pages += 1;
    }
    assert!(
        pages >= 6,
        "expected overview, timeline, block and header pages"
    );

    // Telemetry snapshots, both timing modes.
    assert!(!result.telemetry.spans.is_empty());
    for timing in [TimingMode::Wall, TimingMode::Zeroed] {
        let doc = result.telemetry.to_json(timing);
        assert_rerenders(&format!("telemetry {timing:?}"), &doc, true);
    }

    // Figures: the `figN.json` export and the figure's own compact form.
    for fig in result.all_figures() {
        let series = fig.all_series();
        assert_rerenders(fig.id, &analytics::to_json(&series), true);
        assert_rerenders(fig.id, &fig.to_json(), false);
    }
    assert_rerenders(
        "observations",
        &observations::short_term(&result).to_json(),
        false,
    );

    for dir in [arch, site] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn chrome_trace_rerenders_byte_identically() {
    let mut scenario = trace_scenario(2016);
    scenario.config.duration_secs = 300;
    let mut net = MicroNet::new(scenario.config.clone());
    net.attach_tracer(Arc::new(TraceSink::new()));
    net.run();
    let events = net.tracer().events();
    assert!(!events.is_empty());
    let labels: Vec<String> = (0..20).map(|i| format!("node \"{i}\"")).collect();
    assert_rerenders("chrome trace", &chrome_trace_json(&events, &labels), false);
}

#[test]
fn ops_and_load_documents_rerender_byte_identically() {
    let mut ring = SeriesRing::new(4);
    for i in 0..6u64 {
        ring.push(BTreeMap::from([
            ("connections".to_string(), 100.0 + i as f64),
            ("cache_hit_rate".to_string(), 1.0 / (i + 3) as f64),
            ("tiny".to_string(), 1e-9 * i as f64),
            ("huge".to_string(), 1e300 * i as f64),
            ("bad".to_string(), f64::NAN),
        ]));
    }
    let slow = vec![SlowQueryRecord {
        id: u64::MAX,
        seq: 7,
        endpoint: "tip_\"history\"".into(),
        total_us: 1_800,
        stages: StageBreakdown {
            read_us: 10,
            admit_us: 1,
            queue_us: 200,
            execute_us: 1_500,
            write_us: 80,
            cache_hits: 3,
            cache_misses: 1,
        },
    }];
    assert_rerenders("ops", &ops_json(&ring, &slow), true);
    assert_rerenders("ops (empty)", &ops_json(&SeriesRing::new(2), &[]), true);

    let mut latency = HistogramSnapshot::default();
    for us in [90, 120, 4_000, 1 << 40] {
        latency.record(us);
    }
    let phase = |name: &str, wall_ms: u64| PhaseStats {
        name: name.into(),
        requests: 300,
        ok: 297,
        overloaded: 1,
        retries: 4,
        backpressure: 1,
        errors: 1,
        latency: latency.clone(),
        endpoints: BTreeMap::from([("blocks".to_string(), latency.clone())]),
        wall: Duration::from_millis(wall_ms),
    };
    let report = LoadReport {
        connections: 120,
        pipeline_depth: 2,
        meta: ServeMeta {
            blocks: 1_725,
            txs: 4_000,
            block_range: Some((0, 1_000)),
            time_range: None,
            format_version: 3,
            checksum: 0xdead_beef,
        },
        phases: vec![phase("cold", 333), phase("warm", 7)],
        overall: phase("overall", 340),
    };
    assert_rerenders("fork-load report", &report.to_json(), true);
}

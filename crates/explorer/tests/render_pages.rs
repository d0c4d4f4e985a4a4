//! Explorer rendering is deterministic and source-agnostic: the same
//! archive renders byte-identical pages across reruns, and a remote
//! source (a live `fork-served` daemon) renders byte-identical pages to
//! the local archive path.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fork_analytics::{BlockRecord, TxRecord};
use fork_archive::{ArchiveConfig, ArchiveWriter, Codec};
use fork_explorer::{ops_html, ops_json, parse_ops_json, render_site, ExplorerSource};
use fork_primitives::{Address, H256, U256};
use fork_replay::Side;
use fork_serve::{ServeConfig, Server};
use fork_sim::LedgerSink;
use fork_telemetry::json::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fork-explorer-render-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_archive(dir: &Path) {
    let config = ArchiveConfig {
        segment_max_bytes: 4 * 1024,
        codec: Codec::Delta,
    };
    let mut writer = ArchiveWriter::create_with(dir, config).unwrap();
    for n in 0..60u64 {
        for side in [Side::Eth, Side::Etc] {
            let ts = 1_469_000_000 + n * 14 + (side == Side::Etc) as u64;
            writer.block(BlockRecord {
                network: side,
                number: n,
                hash: H256([(n % 250) as u8 + (side == Side::Etc) as u8; 32]),
                timestamp: ts,
                difficulty: U256::from_u64(7_000_000 + n),
                beneficiary: Address([3; 20]),
                gas_used: 50_000 + n,
                tx_count: 2,
                ommer_count: 0,
            });
            for k in 0..2u64 {
                writer.tx(TxRecord {
                    network: side,
                    hash: H256([(n * 2 + k) as u8; 32]),
                    timestamp: ts,
                    is_contract: k == 0,
                    has_chain_id: side == Side::Eth,
                    value: U256::from_u64(n * 1000 + k),
                });
            }
        }
    }
    writer.finish(None).unwrap();
}

fn site_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

#[test]
fn rendering_is_deterministic_and_identical_local_or_served() {
    let arch = scratch("arch");
    write_archive(&arch);

    // Two local renders: byte-identical, and the expected page set.
    let (site_a, site_b) = (scratch("site-a"), scratch("site-b"));
    let mut source = ExplorerSource::open(&arch).unwrap();
    let written = render_site(&mut source, &site_a).unwrap();
    render_site(&mut ExplorerSource::open(&arch).unwrap(), &site_b).unwrap();
    let (bytes_a, bytes_b) = (site_bytes(&site_a), site_bytes(&site_b));
    assert_eq!(bytes_a, bytes_b, "re-render changed page bytes");
    assert_eq!(written.len(), bytes_a.len());
    for page in [
        "overview.json",
        "overview.html",
        "timeline.json",
        "timeline.html",
        "block-eth.json",
        "block-etc.html",
        "headers-eth.json",
        "headers-etc.html",
    ] {
        assert!(bytes_a.contains_key(page), "missing page {page}");
    }
    // Every JSON page parses and carries the schema tag and a page name.
    for (name, bytes) in &bytes_a {
        if name.ends_with(".json") {
            let doc = Value::parse(std::str::from_utf8(bytes).unwrap())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(doc["schema"].as_str(), Some("fork-explorer/v1"), "{name}");
            assert!(doc.get("page").is_some(), "{name} lacks a page key");
        }
    }
    let overview = Value::parse(std::str::from_utf8(&bytes_a["overview.json"]).unwrap()).unwrap();
    assert_eq!(overview["page"].as_str(), Some("overview"));
    assert!(overview["archive"]["blocks"].as_u64().unwrap() > 0);
    for side in ["eth", "etc"] {
        assert!(
            overview.get(side).is_some(),
            "overview lacks the {side} side"
        );
    }
    // The overview names both sides' tips under stable element ids.
    let overview_html = std::str::from_utf8(&bytes_a["overview.html"]).unwrap();
    assert!(overview_html.contains("id=\"eth-tip\""));
    assert!(overview_html.contains("id=\"etc-tip\""));

    // A remote source against a live daemon renders the same bytes.
    let handle = Server::start(ServeConfig::new(&arch)).expect("start daemon");
    let addr = handle.local_addr().to_string();
    let site_remote = scratch("site-remote");
    let mut remote = ExplorerSource::connect(&addr).unwrap();
    render_site(&mut remote, &site_remote).unwrap();
    drop(remote);
    handle.shutdown();
    assert_eq!(
        site_bytes(&site_remote),
        bytes_a,
        "served pages diverge from local-archive pages"
    );

    for dir in [arch, site_a, site_b, site_remote] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn ops_page_renders_identically_live_or_from_a_dump() {
    let arch = scratch("ops-arch");
    write_archive(&arch);

    // A traced daemon with a fast sampler; drive a little traffic through
    // the explorer source itself so the slow log and ring fill.
    let mut cfg = ServeConfig::new(&arch);
    cfg.sample_interval = std::time::Duration::from_millis(20);
    let handle = Server::start(cfg).expect("start daemon");
    let addr = handle.local_addr().to_string();
    let mut remote = ExplorerSource::connect(&addr).unwrap();
    for _ in 0..3 {
        remote.lookup(&fork_query::Lookup::TipHistory).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));

    let (series, slow) = remote.obs().unwrap();
    drop(remote);
    handle.shutdown();
    assert!(!slow.is_empty(), "lookups should populate the slow log");
    assert!(!series.is_empty(), "the sampler should have ticked");

    // Live render == parse(dump) render, JSON and HTML, byte for byte.
    let live_json = ops_json(&series, &slow);
    let live_html = ops_html(&series, &slow);
    let (series2, slow2) = parse_ops_json(&live_json).expect("parse dump");
    assert_eq!(live_json, ops_json(&series2, &slow2));
    assert_eq!(live_html, ops_html(&series2, &slow2));
    let doc = Value::parse(&live_json).expect("valid JSON");
    assert_eq!(doc["schema"].as_str(), Some("fork-obs/v1"));

    // A local archive source refuses ops — there is no traffic to observe.
    let mut local = ExplorerSource::open(&arch).unwrap();
    assert!(local.obs().is_err());
    assert!(local.metrics_text().is_err());

    let _ = std::fs::remove_dir_all(&arch);
}

//! The fixed names: workloads, end-to-end metrics with their bounds, and
//! per-layer metrics each tied — before anything was measured — to the
//! end-to-end metric and workload it should move. `BENCHMARK.json` is
//! rendered from these tables (`forkbench manifest`), and a test keeps the
//! committed file equal to them.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A workload: its fixed name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// Why this workload was chosen (one line, at most 200 characters).
    pub why: &'static str,
}

/// The eight workloads.
pub const WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "reanalyze-cold",
        why: "12 full-range queries over an archive 4x the frame cache: read, checksum, decode and evaluate do all the work, cache and serve none",
    },
    WorkloadDef {
        name: "reanalyze-hot",
        why: "Zipf lookups and small windows inside a cached region from N threads: cache probe, sparse-index seek and hash index do the work, segment I/O none",
    },
    WorkloadDef {
        name: "serve-closed",
        why: "the reanalyze-hot mix through the daemon on N depth-1 connections: identical query work, so everything above reanalyze-hot is wire, socket and threads",
    },
    WorkloadDef {
        name: "serve-open",
        why: "Poisson arrivals at a fixed rate over N pipelined connections, timed from when each request was due: queueing, admission and big responses only show on a schedule",
    },
    WorkloadDef {
        name: "ingest",
        why: "write, open, verify, index build, sidecar load and replay of one record stream: a format or codec change that speeds reads but costs writes or bytes shows here",
    },
    WorkloadDef {
        name: "sim-meso",
        why: "the regenerate-the-paper path: a two-chain study archived to disk, then every figure; mining dominates, query and serve are absent",
    },
    WorkloadDef {
        name: "sim-micro",
        why: "the four atlas presets and the chaos scenario: the only engine with full chain import, gossip and faults, which the kernel merge must not slow",
    },
    WorkloadDef {
        name: "sim-macro",
        why: "the shipped propagation preset at thousands of nodes with N shards and the default verify_cost: the number sharding is judged against",
    },
];

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct E2eDef {
    /// Fixed name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression (`failed_share`: any rise).
    pub bound: f64,
    /// Whether it is one of `BENCHMARK.json`'s `end_to_end` metrics, which
    /// every workload must report, never 0, and steadily enough for the
    /// driver's spread check. `failed_share` is 0 on a healthy run and
    /// travels in the result line's `failed`/`attempted`; `bytes_per_record`
    /// exists only where an archive does; `lat_p99_us` exists only where
    /// single ops are timed, a thousand of them. The last two reach the
    /// driver as per-layer metrics.
    pub in_manifest: bool,
}

/// The seven end-to-end metrics. Bounds come from `NOISE.md`.
pub const E2E: [E2eDef; 7] = [
    E2eDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        in_manifest: true,
    },
    E2eDef {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        in_manifest: true,
    },
    E2eDef {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        in_manifest: true,
    },
    E2eDef {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        in_manifest: false,
    },
    E2eDef {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        in_manifest: false,
    },
    E2eDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        in_manifest: true,
    },
    E2eDef {
        name: "bytes_per_record",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
        in_manifest: false,
    },
];

/// Metric/workload pairs the noise study (`NOISE.md`) demoted: reported,
/// never judged. The 99th percentile of `serve-open` falls on either side
/// of the 44 ms stall cluster from one run to the next.
pub const DEMOTED: [(&str, &str); 1] = [("lat_p99_us", "serve-open")];

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Fixed name; the prefix is the crate (layer) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric it should move.
    pub feeds: &'static str,
    /// On which workload(s). Traced runs of these workloads measure it;
    /// in any other workload's traced run the layer did no work and the
    /// metric reads 0.
    pub on: &'static [&'static str],
}

use Better::{Higher as H, Lower as L};

const COLD: &[&str] = &["reanalyze-cold"];
const HOT: &[&str] = &["reanalyze-hot"];
const CLOSED: &[&str] = &["serve-closed"];
const OPEN: &[&str] = &["serve-open"];
const SERVE: &[&str] = &["serve-closed", "serve-open"];
const INGEST: &[&str] = &["ingest"];
const COLD_INGEST: &[&str] = &["reanalyze-cold", "ingest"];
const MESO: &[&str] = &["sim-meso"];
const MESO_INGEST: &[&str] = &["sim-meso", "ingest"];
const MICRO: &[&str] = &["sim-micro"];
const MESO_MICRO: &[&str] = &["sim-meso", "sim-micro"];
const MACRO: &[&str] = &["sim-macro"];
const CACHED: &[&str] = &[
    "reanalyze-cold",
    "reanalyze-hot",
    "serve-closed",
    "serve-open",
];
const TIMED: &[&str] = &["reanalyze-hot", "serve-closed", "serve-open"];
const ARCHIVED: &[&str] = &[
    "reanalyze-cold",
    "reanalyze-hot",
    "serve-closed",
    "serve-open",
    "ingest",
    "sim-meso",
];
const ALL: &[&str] = &[
    "reanalyze-cold",
    "reanalyze-hot",
    "serve-closed",
    "serve-open",
    "ingest",
    "sim-meso",
    "sim-micro",
    "sim-macro",
];

const fn l(
    name: &'static str,
    unit: &'static str,
    better: Better,
    feeds: &'static str,
    on: &'static [&'static str],
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        feeds,
        on,
    }
}

/// Every per-layer metric.
pub const LAYERS: [LayerDef; 105] = [
    // archive
    l("archive.write.records_per_s", "1/s", H, "ops_per_s", INGEST),
    l(
        "archive.encode.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        INGEST,
    ),
    l("archive.open_ms", "ms", L, "setup_s", COLD_INGEST),
    l(
        "archive.verify.mb_per_s",
        "MB/s",
        H,
        "ops_per_s",
        COLD_INGEST,
    ),
    l("archive.scan.records_per_s", "1/s", H, "ops_per_s", COLD),
    l("archive.decode.self_share", "share", L, "ops_per_s", COLD),
    l("archive.checksum.mb_per_s", "MB/s", H, "ops_per_s", COLD),
    l("archive.decode.records_per_s", "1/s", H, "ops_per_s", COLD),
    l(
        "archive.verify.checksum_share",
        "share",
        L,
        "ops_per_s",
        COLD,
    ),
    l(
        "archive.decode.kernel_agreement",
        "ratio",
        H,
        "ops_per_s",
        COLD,
    ),
    l("archive.index.build_ms", "ms", L, "ops_per_s", INGEST),
    l("archive.index.load_ms", "ms", L, "setup_s", INGEST),
    l("archive.reopen_ms", "ms", L, "setup_s", INGEST),
    l(
        "archive.replay.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        INGEST,
    ),
    l(
        "archive.segments",
        "count",
        L,
        "bytes_per_record",
        COLD_INGEST,
    ),
    l(
        "archive.sidecar.bytes_per_entry",
        "B",
        L,
        "bytes_per_record",
        INGEST,
    ),
    l(
        "archive.bytes_per_record",
        "B",
        L,
        "bytes_per_record",
        ARCHIVED,
    ),
    // query
    l("query.cache.hit_rate", "share", H, "lat_p50_us", CACHED),
    l("query.cache.evictions", "count", L, "ops_per_s", CACHED),
    l("query.cache.resident_mb", "MiB", L, "peak_rss_mb", CACHED),
    l("query.pool.cold.records_per_s", "1/s", H, "ops_per_s", COLD),
    l(
        "query.pool.warm.records_per_s",
        "1/s",
        H,
        "lat_p99_us",
        COLD,
    ),
    l("query.cache.fill_cost_ratio", "ratio", L, "ops_per_s", COLD),
    l(
        "query.eval.blocks.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        COLD,
    ),
    l("query.eval.txs.records_per_s", "1/s", H, "ops_per_s", COLD),
    l(
        "query.eval.interarrival.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        COLD,
    ),
    l(
        "query.eval.difficulty.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        COLD,
    ),
    l(
        "query.eval.echoes.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        COLD,
    ),
    l(
        "query.eval.txratio.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        COLD,
    ),
    l("query.exec.batch_scaling", "ratio", H, "ops_per_s", COLD),
    l("query.lookup.indexed_us", "us", L, "lat_p50_us", HOT),
    l("query.window256_us", "us", L, "lat_p99_us", HOT),
    l("query.lookup.naive_us", "us", L, "lat_p50_us", HOT),
    l("query.naive_checked", "count", H, "failed_share", CACHED),
    // serve
    l("serve.ping.rtt_us", "us", L, "lat_p50_us", CLOSED),
    l("serve.stage.read_us", "us", L, "lat_p50_us", SERVE),
    l("serve.stage.admit_us", "us", L, "lat_p50_us", SERVE),
    l("serve.stage.queue_us", "us", L, "lat_p99_us", SERVE),
    l("serve.stage.execute_us", "us", L, "lat_p50_us", SERVE),
    l("serve.stage.write_us", "us", L, "lat_p50_us", SERVE),
    l("serve.server.p50_us", "us", L, "lat_p50_us", SERVE),
    l("serve.server.p99_us", "us", L, "lat_p99_us", SERVE),
    l("serve.gap.p50_us", "us", L, "lat_p50_us", SERVE),
    l("serve.gap.p99_us", "us", L, "lat_p99_us", SERVE),
    l("serve.overhead_ratio", "ratio", L, "lat_p50_us", CLOSED),
    l(
        "serve.wire.encode_request_ns",
        "ns",
        L,
        "lat_p50_us",
        CLOSED,
    ),
    l(
        "serve.wire.decode_request_ns",
        "ns",
        L,
        "lat_p50_us",
        CLOSED,
    ),
    l(
        "serve.wire.encode_response_mb_per_s",
        "MB/s",
        H,
        "lat_p99_us",
        CLOSED,
    ),
    l(
        "serve.wire.decode_response_mb_per_s",
        "MB/s",
        H,
        "lat_p99_us",
        CLOSED,
    ),
    l("serve.frame.seal_mb_per_s", "MB/s", H, "lat_p99_us", CLOSED),
    l("serve.frame.open_mb_per_s", "MB/s", H, "lat_p99_us", CLOSED),
    l("serve.start_ms", "ms", L, "setup_s", SERVE),
    l("serve.threads", "count", L, "ops_per_s", CLOSED),
    l("serve.shed.overloaded", "count", L, "failed_share", SERVE),
    l("serve.shed.backpressure", "count", L, "failed_share", SERVE),
    l("serve.inflight.max", "count", L, "lat_p99_us", OPEN),
    l("serve.open.late_share", "share", L, "lat_p99_us", OPEN),
    l("serve.open.late_p99_us", "us", L, "lat_p99_us", OPEN),
    l("serve.open.ladder.r100.p99_us", "us", L, "lat_p99_us", OPEN),
    l("serve.open.ladder.r400.p99_us", "us", L, "lat_p99_us", OPEN),
    l(
        "serve.open.ladder.r1600.p99_us",
        "us",
        L,
        "lat_p99_us",
        OPEN,
    ),
    l("serve.open.max_rate_ok", "1/s", H, "lat_p99_us", OPEN),
    l(
        "serve.tracing.overhead_ratio",
        "ratio",
        H,
        "ops_per_s",
        CLOSED,
    ),
    // sim (meso) with analytics and core
    l("sim.meso.null.blocks_per_s", "1/s", H, "ops_per_s", MESO),
    l("sim.meso.sink_cost_ratio", "ratio", L, "ops_per_s", MESO),
    l("sim.meso.step.mine_share", "share", L, "ops_per_s", MESO),
    l("sim.meso.step.emit_share", "share", L, "ops_per_s", MESO),
    l("sim.meso.step.mempool_share", "share", L, "ops_per_s", MESO),
    l(
        "sim.meso.step.generate_share",
        "share",
        L,
        "ops_per_s",
        MESO,
    ),
    l(
        "analytics.pipeline.records_per_s",
        "1/s",
        H,
        "ops_per_s",
        MESO_INGEST,
    ),
    l("core.figures_ms", "ms", L, "ops_per_s", MESO),
    l("core.from_archive_ms", "ms", L, "ops_per_s", MESO),
    // kernels under the simulators
    l(
        "crypto.keccak256.mb_per_s",
        "MB/s",
        H,
        "ops_per_s",
        MESO_MICRO,
    ),
    l("crypto.recover_sender_us", "us", L, "ops_per_s", MESO_MICRO),
    l(
        "chain.propose_import_block_us",
        "us",
        L,
        "ops_per_s",
        MESO_MICRO,
    ),
    l("chain.pow.seal_us", "us", L, "ops_per_s", MESO_MICRO),
    l("chain.difficulty.next_ns", "ns", L, "ops_per_s", MESO_MICRO),
    l("evm.transfer_us", "us", L, "ops_per_s", MESO_MICRO),
    l("evm.contract_call_us", "us", L, "ops_per_s", MESO_MICRO),
    l("rlp.encode_tx_ns", "ns", L, "ops_per_s", MESO_MICRO),
    l("rlp.decode_tx_ns", "ns", L, "ops_per_s", MESO_MICRO),
    l("net.seal_open_frame_ns", "ns", L, "ops_per_s", MICRO),
    // sim (micro)
    l(
        "sim.micro.flash_two_way.run_ms",
        "ms",
        L,
        "ops_per_s",
        MICRO,
    ),
    l("sim.micro.three_way.run_ms", "ms", L, "ops_per_s", MICRO),
    l(
        "sim.micro.geo_continents.run_ms",
        "ms",
        L,
        "ops_per_s",
        MICRO,
    ),
    l("sim.micro.client_split.run_ms", "ms", L, "ops_per_s", MICRO),
    l("sim.micro.chaos.run_ms", "ms", L, "ops_per_s", MICRO),
    l("sim.micro.census_us", "us", L, "ops_per_s", MICRO),
    l("sim.micro.invariants_us", "us", L, "ops_per_s", MICRO),
    // sim (macro); `wl` is the workload's own node count
    l(
        "sim.macro.n1000.s1.rounds_per_s",
        "1/s",
        H,
        "ops_per_s",
        MACRO,
    ),
    l(
        "sim.macro.n1000.sN.rounds_per_s",
        "1/s",
        H,
        "ops_per_s",
        MACRO,
    ),
    l("sim.macro.wl.s1.rounds_per_s", "1/s", H, "ops_per_s", MACRO),
    l("sim.macro.wl.sN.rounds_per_s", "1/s", H, "ops_per_s", MACRO),
    l(
        "sim.macro.shard_speedup.n1000",
        "ratio",
        H,
        "ops_per_s",
        MACRO,
    ),
    l("sim.macro.shard_speedup.wl", "ratio", H, "ops_per_s", MACRO),
    l(
        "sim.macro.partition.n1000.rounds_per_s",
        "1/s",
        H,
        "ops_per_s",
        MACRO,
    ),
    l("sim.macro.topology_gen_ms", "ms", L, "setup_s", MACRO),
    l("sim.macro.census_us", "us", L, "ops_per_s", MACRO),
    // explorer and telemetry ride on serve-closed
    l("explorer.site.local_ms", "ms", L, "lat_p50_us", CLOSED),
    l("explorer.site.served_ms", "ms", L, "lat_p50_us", CLOSED),
    l(
        "telemetry.histogram.record_ns",
        "ns",
        L,
        "lat_p50_us",
        CLOSED,
    ),
    l(
        "telemetry.snapshot.json_mb_per_s",
        "MB/s",
        H,
        "lat_p50_us",
        CLOSED,
    ),
    // the benchmark's own view: the demoted p99, and its spans
    l("client.lat_p99_us", "us", L, "lat_p99_us", TIMED),
    l("trace.overhead_ratio", "ratio", H, "ops_per_s", ALL),
    l("trace.spans", "count", L, "ops_per_s", ALL),
];

/// The workload definition called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metric called `name`.
pub fn e2e(name: &str) -> Option<&'static E2eDef> {
    E2E.iter().find(|m| m.name == name)
}

/// The per-layer metric called `name`.
pub fn layer(name: &str) -> Option<&'static LayerDef> {
    LAYERS.iter().find(|m| m.name == name)
}

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 8;

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let q = fork_telemetry::json::quote;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = E2E
        .iter()
        .filter(|m| m.in_manifest)
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.label()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = LAYERS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                q(m.name),
                q(m.unit),
                q(m.better.label())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (name, unit) in E2E
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(LAYERS.len() <= 128);
        assert!(E2E.iter().all(|m| m.bound <= 0.25));
        let setup = e2e("setup_s").unwrap();
        assert!(E2E.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_metric_names_what_it_feeds() {
        for m in &LAYERS {
            assert!(e2e(m.feeds).is_some(), "{} feeds {}", m.name, m.feeds);
            assert!(!m.on.is_empty());
            for w in m.on {
                assert!(workload(w).is_some(), "{} on {w}", m.name);
            }
        }
    }

    #[test]
    fn committed_manifest_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "run `forkbench manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        fork_telemetry::json::Value::parse(&committed).expect("valid JSON");
    }
}

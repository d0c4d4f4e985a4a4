//! End-to-end serving stress: a real `fork-served` daemon on an ephemeral
//! TCP port, hammered by concurrent clients over the sealed wire protocol.
//! Every decoded response must be byte-identical to an in-process naive
//! `evaluate()` scan of the same archive; the admission cap must shed a
//! deliberate flood with typed `Overloaded` errors; the per-connection cap
//! must reject pipelining past it; graceful shutdown must drain.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stick_a_fork::archive::{ArchiveConfig, ArchiveReader, Codec};
use stick_a_fork::core::ForkStudy;
use stick_a_fork::query::{
    Lookup, LookupOutput, Projection, Query, QueryExecutor, QueryOutput, QueryRange,
};
use stick_a_fork::replay::Side;
use stick_a_fork::serve::{ErrorKind, RequestBody, ResponseBody, ServeClient, ServeConfig, Server};
use stick_a_fork::telemetry::json::Value;
use stick_a_fork::telemetry::Snapshot;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fork-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_archive(dir: &PathBuf, seed: u64) {
    ForkStudy::quick(seed)
        .archive_to_with(
            dir,
            ArchiveConfig {
                codec: Codec::Delta,
                ..ArchiveConfig::default()
            },
        )
        .unwrap();
}

/// The same mixed batch the query-engine e2e uses: full scans, mid-range
/// block and time windows, every aggregate projection, both sides.
fn mixed_queries(reader: &ArchiveReader) -> Vec<Query> {
    let mut num_range: Option<(u64, u64)> = None;
    let mut time_range: Option<(u64, u64)> = None;
    for side in [Side::Eth, Side::Etc] {
        for (_, scan) in reader.segments(side) {
            for (acc, seen) in [
                (&mut num_range, scan.block_range),
                (&mut time_range, scan.time_range),
            ] {
                if let Some((lo, hi)) = seen {
                    *acc = Some(match *acc {
                        None => (lo, hi),
                        Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                    });
                }
            }
        }
    }
    let (nlo, nhi) = num_range.expect("archive has blocks");
    let (tlo, thi) = time_range.expect("archive has timestamps");
    let mid_blocks = QueryRange::Blocks {
        first: nlo + (nhi - nlo) / 4,
        last: nhi - (nhi - nlo) / 4,
    };
    let mid_time = QueryRange::Time {
        start: tlo + (thi - tlo) / 4,
        end: thi - (thi - tlo) / 4,
    };

    let mut queries = Vec::new();
    for side in [Side::Eth, Side::Etc] {
        for range in [QueryRange::All, mid_blocks, mid_time] {
            for projection in [
                Projection::Blocks,
                Projection::InterArrival,
                Projection::Difficulty,
            ] {
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection,
                });
            }
        }
        for range in [QueryRange::All, mid_time] {
            for projection in [
                Projection::Txs,
                Projection::Echoes { window_days: 1 },
                Projection::Echoes { window_days: 7 },
            ] {
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection,
                });
            }
        }
    }
    for range in [QueryRange::All, mid_time] {
        queries.push(Query {
            side: None,
            range,
            projection: Projection::TxRatioPerDay,
        });
    }
    queries
}

fn naive_expected(dir: &Path, queries: &[Query]) -> Vec<QueryOutput> {
    let reader = ArchiveReader::open(dir).unwrap();
    queries
        .iter()
        .map(|q| QueryExecutor::run_naive(&reader, q).expect("naive scan"))
        .collect()
}

#[test]
fn served_responses_match_naive_scan_across_seeds() {
    for seed in [7u64, 21] {
        let dir = scratch(&format!("match-{seed}"));
        build_archive(&dir, seed);
        let reader = ArchiveReader::open(&dir).unwrap();
        let queries = mixed_queries(&reader);
        assert!(queries.len() >= 30, "the batch should be genuinely mixed");
        let expected = naive_expected(&dir, &queries);
        let (blocks, txs) = reader.totals();
        drop(reader);

        let handle = Server::start(ServeConfig::new(&dir)).unwrap();
        let addr = handle.local_addr().to_string();

        // The daemon advertises the same archive shape it serves.
        let mut probe = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
        let meta = probe.meta().unwrap();
        assert_eq!((meta.blocks, meta.txs), (blocks, txs));
        probe.ping().unwrap();

        // 8 concurrent client connections, each walking the whole batch
        // from a different offset; two rounds so the second hits a warm
        // server cache. Every response must equal the naive scan exactly.
        std::thread::scope(|scope| {
            for thread in 0..8usize {
                let (addr, queries, expected) = (&addr, &queries, &expected);
                scope.spawn(move || {
                    let mut client =
                        ServeClient::connect_retry(addr, Duration::from_secs(5)).unwrap();
                    for round in 0..2 {
                        for i in 0..queries.len() {
                            let k = (i + thread * 5) % queries.len();
                            let got = client
                                .query(&queries[k])
                                .unwrap_or_else(|e| panic!("round {round}: {:?}: {e}", queries[k]));
                            assert_eq!(
                                got, expected[k],
                                "round {round}, thread {thread}: served result diverged \
                                 from the naive scan on {:?}",
                                queries[k]
                            );
                        }
                    }
                });
            }
        });

        // The stats control request returns a parseable telemetry snapshot
        // with per-endpoint latency histograms populated.
        let stats = probe.stats().unwrap();
        let snap = Snapshot::from_json(&stats).expect("stats is a fork-telemetry/v1 snapshot");
        let served: u64 = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("serve.latency."))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(
            served,
            (8 * 2 * queries.len()) as u64,
            "every query should be counted in exactly one endpoint histogram"
        );
        assert_eq!(snap.counters["serve.queries"], served);
        assert_eq!(snap.counters["serve.rejected.overloaded"], 0);

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Sequential depth-1 round trips must cost microseconds, not a delayed-ACK
/// timer each: a response written as a length prefix and then a body, on a
/// socket with Nagle on, sits in the kernel until the client's ~40 ms
/// delayed ACK releases it. The 10 ms bound is loose on purpose (a healthy
/// loopback round trip is ~0.1 ms) so a loaded runner still passes.
#[test]
fn depth_one_round_trips_do_not_wait_out_a_delayed_ack() {
    let dir = scratch("roundtrip");
    build_archive(&dir, 7);
    let reader = ArchiveReader::open(&dir).unwrap();
    let all_blocks = Query {
        side: Some(Side::Eth),
        range: QueryRange::All,
        projection: Projection::Blocks,
    };
    let QueryOutput::Blocks(blocks) = QueryExecutor::run_naive(&reader, &all_blocks).unwrap()
    else {
        panic!("Blocks projection answers with blocks");
    };
    // 20 distinct hashes spread over the chain (plus one that is absent),
    // each answered once by the naive full scan.
    let step = (blocks.len() / 20).max(1);
    let mut lookups: Vec<(Lookup, LookupOutput)> = blocks
        .iter()
        .step_by(step)
        .map(|b| b.hash)
        .chain([stick_a_fork::primitives::H256([0xEE; 32])])
        .map(|hash| {
            let lookup = Lookup::BlockByHash { hash };
            let want = QueryExecutor::run_lookup_naive(&reader, &lookup).unwrap();
            (lookup, want)
        })
        .collect();
    assert!(
        lookups.len() > 10,
        "the quick archive has blocks to look up"
    );
    assert_eq!(lookups.pop().unwrap().1, LookupOutput::Found(None));
    drop(reader);

    let handle = Server::start(ServeConfig::new(&dir)).unwrap();
    let addr = handle.local_addr().to_string();
    let mut client = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();

    let median = |mut rtts: Vec<Duration>| {
        rtts.sort_unstable();
        rtts[rtts.len() / 2]
    };
    let pings: Vec<Duration> = (0..200)
        .map(|_| {
            let sent = Instant::now();
            client.ping().unwrap();
            sent.elapsed()
        })
        .collect();
    let served: Vec<Duration> = (0..200)
        .map(|i| {
            let (lookup, want) = &lookups[i % lookups.len()];
            let sent = Instant::now();
            let got = client.lookup(lookup).unwrap();
            let rtt = sent.elapsed();
            assert_eq!(&got, want, "served {lookup:?} diverged from the naive scan");
            rtt
        })
        .collect();
    let (ping_p50, lookup_p50) = (median(pings), median(served));
    assert!(
        ping_p50 < Duration::from_millis(10),
        "median ping round trip {ping_p50:?}: the response is stalling in the kernel"
    );
    assert!(
        lookup_p50 < Duration::from_millis(10),
        "median BlockByHash round trip {lookup_p50:?}: the response is stalling in the kernel"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flood_past_admission_cap_returns_typed_overloaded_and_recovers() {
    let dir = scratch("flood");
    build_archive(&dir, 7);
    let reader = ArchiveReader::open(&dir).unwrap();
    let queries = mixed_queries(&reader);
    let expected = naive_expected(&dir, &queries);
    drop(reader);

    // A deliberately tiny daemon: one worker, two in-flight slots. Eight
    // clients pipelining 40 queries each must overrun the cap.
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.global_inflight = 2;
    cfg.per_conn_inflight = 64;
    let handle = Server::start(cfg).unwrap();
    let addr = handle.local_addr().to_string();

    let mut total_ok = 0u64;
    let mut total_overloaded = 0u64;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for thread in 0..8usize {
            let (addr, queries, expected) = (&addr, &queries, &expected);
            workers.push(scope.spawn(move || {
                let mut client = ServeClient::connect_retry(addr, Duration::from_secs(5)).unwrap();
                // Fire 40 pipelined queries without reading, then drain.
                let mut sent: Vec<(u64, usize)> = Vec::new();
                for i in 0..40usize {
                    let k = (i + thread * 7) % queries.len();
                    let id = client.send(RequestBody::Query(queries[k])).unwrap();
                    sent.push((id, k));
                }
                let (mut ok, mut overloaded) = (0u64, 0u64);
                for _ in 0..sent.len() {
                    let resp = client.recv().expect("flood responses still arrive");
                    let k = sent
                        .iter()
                        .find(|(id, _)| *id == resp.id)
                        .map(|&(_, k)| k)
                        .expect("response matches a sent id");
                    match resp.body {
                        ResponseBody::Output(out) => {
                            assert_eq!(
                                out, expected[k],
                                "admitted queries must still answer exactly"
                            );
                            ok += 1;
                        }
                        ResponseBody::Error(e) => {
                            assert_eq!(
                                e.kind,
                                ErrorKind::Overloaded,
                                "only the admission cap may reject here: {e}"
                            );
                            overloaded += 1;
                        }
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                (ok, overloaded)
            }));
        }
        for w in workers {
            let (ok, overloaded) = w.join().unwrap();
            total_ok += ok;
            total_overloaded += overloaded;
        }
    });
    assert_eq!(total_ok + total_overloaded, 8 * 40);
    assert!(total_ok > 0, "some queries must be admitted");
    assert!(
        total_overloaded > 0,
        "a 320-query flood against a 2-slot daemon must shed load"
    );

    // The daemon recovers: a fresh sequential client gets exact answers.
    let mut client = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let got = client.query(&queries[0]).unwrap();
    assert_eq!(got, expected[0]);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_generator_retries_overloaded_sheds_with_backoff() {
    use stick_a_fork::serve::{run_load, LoadConfig};

    let dir = scratch("load-retry");
    build_archive(&dir, 7);

    // The same deliberately tiny daemon as the flood test: one worker, two
    // admission slots. The load generator's pipelined traffic must overrun
    // the cap — but with a retry budget, shed requests re-queue with
    // backoff instead of counting as terminal.
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.global_inflight = 2;
    cfg.per_conn_inflight = 64;
    let handle = Server::start(cfg).unwrap();

    let mut load_cfg = LoadConfig::new(handle.local_addr().to_string());
    load_cfg.connections = 8;
    load_cfg.requests_per_conn = 20;
    load_cfg.pipeline_depth = 4;
    load_cfg.phases = 2;
    let report = run_load(&load_cfg).expect("load run");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let overall = &report.overall;
    // Every distinct request reaches exactly one terminal outcome; retry
    // attempts are counted separately, never double-booked as requests.
    assert_eq!(overall.requests, 8 * 20 * 2);
    assert_eq!(
        overall.ok + overall.overloaded + overall.backpressure + overall.errors,
        overall.requests,
        "terminal outcomes must partition the requests: {overall:?}"
    );
    assert_eq!(overall.errors, 0, "no transport failures expected");
    assert!(
        overall.retries > 0,
        "a 2-slot daemon under 32 pipelined requests must shed and retry"
    );
    // The retry budget converts most sheds into eventual successes.
    assert!(
        overall.ok > overall.requests / 2,
        "retries should recover the bulk of shed requests: {overall:?}"
    );

    // The `fork-load/v1` report parses and carries the outcome, latency and
    // retry totals.
    let json = report.to_json();
    let doc = Value::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    assert_eq!(doc["schema"].as_str(), Some("fork-load/v1"));
    let doc = &doc["overall"];
    assert!(doc["ok"].as_u64().unwrap() > 0);
    assert!(doc["latency_us"]["p99"].as_u64().unwrap() > 0);
    assert_eq!(doc["retries"].as_u64(), Some(overall.retries));
}

#[test]
fn per_conn_backpressure_rejects_and_shutdown_drains() {
    let dir = scratch("backpressure");
    build_archive(&dir, 11);
    let reader = ArchiveReader::open(&dir).unwrap();
    let queries = mixed_queries(&reader);
    drop(reader);

    // Per-connection cap of 1 with a single worker: a heavy query parks
    // the worker, so a burst of pipelined follow-ups must bounce with
    // typed Backpressure instead of queueing unboundedly.
    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.per_conn_inflight = 1;
    let handle = Server::start(cfg).unwrap();
    let addr = handle.local_addr().to_string();

    let heavy = Query {
        side: Some(Side::Eth),
        range: QueryRange::All,
        projection: Projection::Echoes { window_days: 1 },
    };
    let mut client = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let mut sent = vec![client.send(RequestBody::Query(heavy)).unwrap()];
    for _ in 0..20 {
        sent.push(client.send(RequestBody::Query(heavy)).unwrap());
    }
    let (mut ok, mut backpressure) = (0u64, 0u64);
    for _ in 0..sent.len() {
        let resp = client.recv().unwrap();
        assert!(sent.contains(&resp.id));
        match resp.body {
            ResponseBody::Output(_) => ok += 1,
            ResponseBody::Error(e) => {
                assert_eq!(e.kind, ErrorKind::Backpressure, "{e}");
                backpressure += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(ok >= 1, "the first query is always admitted");
    assert!(
        backpressure >= 1,
        "pipelining 21 queries past a 1-slot connection must bounce"
    );
    handle.shutdown();

    // Graceful shutdown drains: pipeline a batch, shut the daemon down
    // from the handle while they're in flight, and every response must
    // still arrive — exact — before the socket closes.
    let dir2 = scratch("drain");
    build_archive(&dir2, 11);
    let handle = Server::start(ServeConfig::new(&dir2)).unwrap();
    let addr = handle.local_addr().to_string();
    let expected2 = naive_expected(&dir2, &queries);

    let mut client = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let mut sent: Vec<(u64, usize)> = Vec::new();
    for (k, query) in queries.iter().enumerate().take(10) {
        let id = client.send(RequestBody::Query(*query)).unwrap();
        sent.push((id, k));
    }
    // The drain guarantee covers *admitted* queries; wait until the daemon
    // has pulled all ten off the socket before asking it to stop.
    let mut probe = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snap = Snapshot::from_json(&probe.stats().unwrap()).unwrap();
        if snap.counters.get("serve.queries").copied().unwrap_or(0) >= sent.len() as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never admitted the pipelined batch"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.shutdown(); // blocks until drained and joined
    for _ in 0..sent.len() {
        let resp = client.recv().expect("in-flight responses survive shutdown");
        let k = sent
            .iter()
            .find(|(id, _)| *id == resp.id)
            .map(|&(_, k)| k)
            .unwrap();
        match resp.body {
            ResponseBody::Output(out) => assert_eq!(out, expected2[k]),
            other => panic!("in-flight query {k} got {other:?}"),
        }
    }
    // After the drain the daemon is gone: the next round-trip fails.
    assert!(client.ping().is_err(), "daemon must be down after shutdown");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

//! End-to-end serving stress: a real `fork-served` daemon on an ephemeral
//! TCP port, hammered by concurrent clients over the sealed wire protocol.
//! Every decoded response must be byte-identical to an in-process naive
//! `evaluate()` scan of the same archive; the admission cap must shed a
//! deliberate flood with typed `Overloaded` errors; the per-connection cap
//! must reject pipelining past it; graceful shutdown must drain. Idle point
//! lookups are answered on the reader thread: its frames must never
//! interleave with the writer thread's, and a client that stops reading
//! must still be cut within the write timeout.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use stick_a_fork::archive::{ArchiveConfig, ArchiveReader, Codec};
use stick_a_fork::core::ForkStudy;
use stick_a_fork::query::{
    Lookup, LookupOutput, Projection, Query, QueryExecutor, QueryOutput, QueryRange,
};
use stick_a_fork::replay::Side;
use stick_a_fork::serve::{
    decode_response, encode_request, read_frame, write_frame, ErrorKind, Request, RequestBody,
    ResponseBody, ServeClient, ServeConfig, Server,
};
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

/// Point lookups spread over both sides — block hashes, block numbers and
/// transaction hashes, plus one absent hash — each with its naive-scan
/// answer.
fn point_lookups(reader: &ArchiveReader) -> Vec<(Lookup, LookupOutput)> {
    let all = |side, projection| {
        QueryExecutor::run_naive(
            reader,
            &Query {
                side: Some(side),
                range: QueryRange::All,
                projection,
            },
        )
        .unwrap()
    };
    let mut lookups = Vec::new();
    for side in [Side::Eth, Side::Etc] {
        let QueryOutput::Blocks(blocks) = all(side, Projection::Blocks) else {
            panic!("Blocks projection answers with blocks");
        };
        for b in blocks.iter().step_by((blocks.len() / 8).max(1)) {
            lookups.push(Lookup::BlockByHash { hash: b.hash });
            lookups.push(Lookup::BlockByNumber {
                side,
                number: b.number,
            });
        }
        let QueryOutput::Txs(txs) = all(side, Projection::Txs) else {
            panic!("Txs projection answers with txs");
        };
        for t in txs.iter().step_by((txs.len() / 8).max(1)) {
            lookups.push(Lookup::TxByHash { hash: t.hash });
        }
    }
    lookups.push(Lookup::BlockByHash {
        hash: stick_a_fork::primitives::H256([0xEE; 32]),
    });
    lookups
        .into_iter()
        .map(|l| (l, QueryExecutor::run_lookup_naive(reader, &l).unwrap()))
        .collect()
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// `Blocks` and `Echoes` queries the daemon has finished executing.
fn executed_queries(client: &mut ServeClient) -> u64 {
    let snap = Snapshot::from_json(&client.stats().unwrap()).unwrap();
    ["serve.latency.blocks", "serve.latency.echoes"]
        .iter()
        .map(|h| snap.histograms.get(*h).map_or(0, |h| h.count))
        .sum()
}

/// A client that drains its socket slowly — at most 16 KiB per read, with
/// a pause before each — so the daemon's socket buffer stays full and its
/// writes block half-done.
struct Trickle(TcpStream);

impl std::io::Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_micros(100));
        let n = buf.len().min(16 * 1024);
        self.0.read(&mut buf[..n])
    }
}

/// One connection carries replies written by both the reader thread
/// (idle point lookups and control requests) and the writer thread (queued
/// work, and control replies and rejections made while it is in flight).
/// With one worker and two in-flight slots, a long pipelined stream with
/// short idle gaps drives both paths at once against a slow receiver, so
/// writes block half-done while the other thread wants the socket. Every
/// frame must still pass its checksum and decode, every id must be
/// answered exactly once, and every answer must equal the naive scan.
#[test]
fn reader_and_writer_replies_never_interleave_on_one_connection() {
    let dir = scratch("interleave");
    build_archive(&dir, 7);
    let reader = ArchiveReader::open(&dir).unwrap();
    let lookups = point_lookups(&reader);
    let absent = lookups.last().unwrap();
    assert_eq!(absent.1, LookupOutput::Found(None));
    let QueryOutput::Blocks(eth) = QueryExecutor::run_naive(
        &reader,
        &Query {
            side: Some(Side::Eth),
            range: QueryRange::All,
            projection: Projection::Blocks,
        },
    )
    .unwrap() else {
        panic!("Blocks projection answers with blocks");
    };
    let window = |offset: u64| Query {
        side: Some(Side::Eth),
        range: QueryRange::Blocks {
            first: eth[0].number + offset,
            last: eth[0].number + offset + 4_095,
        },
        projection: Projection::Blocks,
    };
    let echoes = |side| Query {
        side: Some(side),
        range: QueryRange::All,
        projection: Projection::Echoes { window_days: 1 },
    };
    let queries = [
        window(0),
        echoes(Side::Eth),
        window(eth.len() as u64 / 3),
        echoes(Side::Etc),
    ];
    let query_answers = naive_expected(&dir, &queries);
    drop(reader);

    // One cycle: a query, with a lookup (queued), an absent-hash lookup
    // (bounced) and a ping behind it; once the query has run, big control
    // replies that queue behind its reply; and once that reply has
    // arrived, lookups, pings and stats the reader answers itself while
    // the writer is still writing the queued tail.
    const CYCLE: usize = 26;
    let bodies: Vec<RequestBody> = (0..24 * CYCLE)
        .map(|i| match i % CYCLE {
            0 => RequestBody::Query(queries[(i / CYCLE) % queries.len()]),
            2 | 23 => RequestBody::Lookup(absent.0),
            3 | 21 => RequestBody::Ping,
            5 | 24 => RequestBody::Stats,
            7 => RequestBody::Metrics,
            4 | 6 | 8..=19 => RequestBody::ObsSlowLog,
            _ => RequestBody::Lookup(lookups[(i * 7) % lookups.len()].0),
        })
        .collect();

    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.per_conn_inflight = 2;
    cfg.slow_log = 4_096;
    let handle = Server::start(cfg).unwrap();
    let addr = handle.local_addr();
    // Fill the slow log first, so each `ObsSlowLog` reply is a few hundred
    // KiB and the writer is still writing the queued ones when the reader
    // answers the next lookups itself.
    const PREFILL: u64 = 4_000;
    let mut probe = ServeClient::connect(addr).unwrap();
    for (lookup, want) in lookups.iter().cycle().take(PREFILL as usize) {
        assert_eq!(&probe.lookup(lookup).unwrap(), want);
    }

    let mut sender = TcpStream::connect(addr).unwrap();
    sender.set_nodelay(true).unwrap();
    let receiver = sender.try_clone().unwrap();
    receiver
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let answered: Vec<AtomicBool> = bodies.iter().map(|_| AtomicBool::new(false)).collect();
    let answers = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut receiver = Trickle(receiver);
            let mut answers = BTreeMap::new();
            for n in 0..bodies.len() {
                let payload = read_frame(&mut receiver)
                    .unwrap_or_else(|e| panic!("frame {n} failed its checksum or read: {e:?}"));
                let resp = decode_response(&payload)
                    .unwrap_or_else(|e| panic!("frame {n} does not decode: {e}"));
                let slot = answered
                    .get((resp.id as usize).wrapping_sub(1))
                    .unwrap_or_else(|| panic!("frame {n} answers unknown id {}", resp.id));
                assert!(
                    !slot.swap(true, Ordering::SeqCst),
                    "id {} answered twice",
                    resp.id
                );
                answers.insert(resp.id, resp.body);
            }
            answers
        });
        let mut ran = 0;
        'send: for (i, body) in bodies.iter().enumerate() {
            let req = Request {
                id: i as u64 + 1,
                body: body.clone(),
            };
            write_frame(&mut sender, &encode_request(&req)).unwrap();
            let first = i - i % CYCLE;
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                let ready = match i % CYCLE {
                    // Until the query has run (or was bounced), so the
                    // control replies that follow queue behind its reply.
                    3 => {
                        answered[first].load(Ordering::SeqCst) || executed_queries(&mut probe) > ran
                    }
                    // A short idle gap: until the query and the three
                    // requests behind it are answered, so the next lookup
                    // finds nothing admitted in flight.
                    19 => answered[first..first + 4]
                        .iter()
                        .all(|a| a.load(Ordering::SeqCst)),
                    _ => true,
                };
                if ready {
                    break;
                }
                if reading.is_finished() {
                    break 'send; // the receiver failed; its panic says why
                }
                assert!(Instant::now() < deadline, "replies stopped arriving");
                std::thread::sleep(Duration::from_micros(50));
            }
            if i % CYCLE == 19 {
                ran = executed_queries(&mut probe);
            }
        }
        reading
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });

    assert_eq!(
        answers.len(),
        bodies.len(),
        "every id answered exactly once"
    );
    let (mut exact, mut bounced, mut admitted_queries) = (0u64, 0u64, 0u64);
    for (i, body) in bodies.iter().enumerate() {
        let got = &answers[&(i as u64 + 1)];
        match (body, got) {
            (RequestBody::Ping, ResponseBody::Pong)
            | (RequestBody::Stats, ResponseBody::Stats(_))
            | (RequestBody::Metrics, ResponseBody::Metrics(_))
            | (RequestBody::ObsSlowLog, ResponseBody::ObsSlowLog(_)) => {}
            (RequestBody::Lookup(_) | RequestBody::Query(_), ResponseBody::Error(e)) => {
                assert_eq!(e.kind, ErrorKind::Backpressure, "request {i}: {e}");
                bounced += 1;
            }
            (RequestBody::Lookup(l), ResponseBody::Lookup(out)) => {
                let want = &lookups.iter().find(|(k, _)| k == l).unwrap().1;
                assert_eq!(
                    out, want,
                    "request {i}: served {l:?} diverged from the naive scan"
                );
                exact += 1;
            }
            (RequestBody::Query(q), ResponseBody::Output(out)) => {
                let k = queries.iter().position(|k| k == q).unwrap();
                assert_eq!(out, &query_answers[k], "request {i}: served {q:?} diverged");
                exact += 1;
                admitted_queries += 1;
            }
            (body, got) => panic!("request {i}: {body:?} answered with {got:?}"),
        }
    }
    assert!(exact > 0 && admitted_queries > 0);

    // Both paths fired: some lookups were answered inline, and more work
    // went through the queue than the queries alone.
    let snap = Snapshot::from_json(&probe.stats().unwrap()).unwrap();
    let queries_n = counter(&snap, "serve.queries") - PREFILL;
    let inline = counter(&snap, "serve.inline") - PREFILL;
    assert_eq!(queries_n, exact, "every admitted request answered exactly");
    assert_eq!(counter(&snap, "serve.rejected.backpressure"), bounced);
    assert!(inline > 0, "no lookup took the inline path");
    assert!(
        queries_n - inline > admitted_queries,
        "no lookup took the queued path ({queries_n} admitted, {inline} inline)"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The inline path is really taken, and only when it should be. With the
/// one worker parked on connection A's heavy queries, a hash lookup on idle
/// connection B is answered on B's reader thread (queue stage 0) before
/// A's queries finish, while a lookup pipelined on A behind its queries
/// waits in the queue like any other work. Both answer exactly.
#[test]
fn idle_point_lookups_skip_the_queue_and_busy_ones_do_not() {
    let dir = scratch("inline");
    build_archive(&dir, 7);
    let reader = ArchiveReader::open(&dir).unwrap();
    let lookups = point_lookups(&reader);
    let heavy = Query {
        side: Some(Side::Eth),
        range: QueryRange::All,
        projection: Projection::Echoes { window_days: 1 },
    };
    let heavy_answer = QueryExecutor::run_naive(&reader, &heavy).unwrap();
    drop(reader);
    let (warm, warm_answer) = &lookups[0];
    let (hash, hash_answer) = &lookups[2];
    assert!(matches!(hash, Lookup::BlockByHash { .. }));

    let mut cfg = ServeConfig::new(&dir);
    cfg.workers = 1;
    cfg.slow_log = 64;
    cfg.sample_interval = Duration::from_millis(25);
    let handle = Server::start(cfg).unwrap();
    let addr = handle.local_addr().to_string();
    let mut a = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    let mut b = ServeClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    // The first hash lookup builds the daemon's hash index; do it up front.
    assert_eq!(&b.lookup(warm).unwrap(), warm_answer);

    const HEAVY: u64 = 48;
    for _ in 0..HEAVY {
        a.send(RequestBody::Query(heavy)).unwrap();
    }
    let a_lookup = a.send(RequestBody::Lookup(*hash)).unwrap();
    assert_eq!(&b.lookup(hash).unwrap(), hash_answer);
    let b_lookup = 2; // B's second request
    let snap = Snapshot::from_json(&b.stats().unwrap()).unwrap();
    let echoes_done = snap.histograms["serve.latency.echoes"].count;
    assert!(
        echoes_done < HEAVY,
        "B's lookup should be answered while A's queries are in flight \
         ({echoes_done} of {HEAVY} already done)"
    );

    let mut seen = 0;
    for _ in 0..=HEAVY {
        let resp = a.recv().unwrap();
        match resp.body {
            ResponseBody::Output(out) => assert_eq!(out, heavy_answer),
            ResponseBody::Lookup(out) => {
                assert_eq!(resp.id, a_lookup);
                assert_eq!(&out, hash_answer, "the queued lookup must answer exactly");
            }
            other => panic!("unexpected response {other:?}"),
        }
        seen += 1;
    }
    assert_eq!(seen, HEAVY + 1);

    // A record is filed just after its reply is written, so the last one
    // can trail the reply by a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let slow = loop {
        let slow = b.obs_slow_log().unwrap();
        let filed = |id| {
            slow.iter()
                .any(|r| r.endpoint == "block_by_hash" && r.id == id)
        };
        if filed(a_lookup) && filed(b_lookup) {
            break slow;
        }
        assert!(
            Instant::now() < deadline,
            "no slow-log record for both lookups: {slow:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let stages = |id: u64| {
        slow.iter()
            .find(|r| r.endpoint == "block_by_hash" && r.id == id)
            .unwrap()
            .stages
    };
    assert_eq!(stages(b_lookup).queue_us, 0, "the idle lookup was queued");
    assert!(
        stages(a_lookup).queue_us > 0,
        "the lookup behind A's queries should have waited in the queue"
    );
    let snap = Snapshot::from_json(&b.stats().unwrap()).unwrap();
    assert_eq!(counter(&snap, "serve.inline"), 2, "B's two lookups only");
    assert_eq!(counter(&snap, "serve.queries"), HEAVY + 3);
    // The counter reaches the Prometheus text and, as a windowed share of
    // `serve.queries`, the sampled series the ops page draws.
    let text = b.metrics_text().unwrap();
    assert!(text.lines().any(|l| l == "serve_inline 2"), "{text}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !b
        .obs_series()
        .unwrap()
        .series_names()
        .contains(&"inline_share".to_string())
    {
        assert!(Instant::now() < deadline, "no inline_share series sampled");
        std::thread::sleep(Duration::from_millis(10));
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reader thread now writes, so it can block on a client that never
/// reads. One client pipelines point lookups and pings and reads nothing:
/// the daemon must cut it within a bounded time of its 200 ms write
/// timeout, answer a second client exactly throughout, and still shut down.
#[test]
fn a_client_that_never_reads_is_cut_and_others_are_still_served() {
    let dir = scratch("non-draining");
    build_archive(&dir, 7);
    let reader = ArchiveReader::open(&dir).unwrap();
    let lookups = point_lookups(&reader);
    drop(reader);

    let mut cfg = ServeConfig::new(&dir);
    cfg.write_timeout = Duration::from_millis(200);
    let handle = Server::start(cfg).unwrap();
    let addr = handle.local_addr();
    let connections = || handle.registry().snapshot().gauges["serve.connections"];
    let mut probe = ServeClient::connect_retry(&addr.to_string(), Duration::from_secs(5)).unwrap();
    probe.ping().unwrap();
    let before = connections();

    let hog = TcpStream::connect(addr).unwrap();
    hog.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let (hog, sent) = std::thread::scope(|scope| {
        let flood = scope.spawn(|| {
            let mut hog = hog;
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut sent = 0usize;
            while Instant::now() < deadline {
                let body = match sent % 4 {
                    3 => RequestBody::Ping,
                    _ => RequestBody::Lookup(lookups[sent % lookups.len()].0),
                };
                let req = Request {
                    id: sent as u64 + 1,
                    body,
                };
                if write_frame(&mut hog, &encode_request(&req)).is_err() {
                    // Blocked: the daemon stopped reading. Keep the socket
                    // open so only the daemon can end this connection.
                    return (hog, sent);
                }
                sent += 1;
            }
            panic!("a client that never reads was never pushed back ({sent} requests)");
        });
        let mut k = 0;
        while !flood.is_finished() {
            let (lookup, want) = &lookups[k % lookups.len()];
            assert_eq!(&probe.lookup(lookup).unwrap(), want, "{lookup:?}");
            k += 1;
        }
        flood.join().unwrap()
    });
    assert!(sent > 0);

    let cut_deadline = Instant::now() + Duration::from_secs(10);
    let mut k = 0;
    while connections() != before {
        assert!(
            Instant::now() < cut_deadline,
            "the daemon never cut a client that stopped reading"
        );
        let (lookup, want) = &lookups[k % lookups.len()];
        assert_eq!(&probe.lookup(lookup).unwrap(), want, "{lookup:?}");
        k += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    for (lookup, want) in &lookups {
        assert_eq!(&probe.lookup(lookup).unwrap(), want, "{lookup:?}");
    }
    drop(hog);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown returns after cutting the non-draining client");
    let _ = std::fs::remove_dir_all(&dir);
}

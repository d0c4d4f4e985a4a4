//! Concurrency stress for the fork-query engine: many threads, one shared
//! pool and cache, mixed range/time/aggregate queries — every result must
//! be byte-identical to a single-threaded naive scan of the same archive,
//! and no query may ever observe a torn (partially written) frame.

use std::path::PathBuf;

use stick_a_fork::archive::{ArchiveConfig, ArchiveReader, Codec};
use stick_a_fork::core::ForkStudy;
use stick_a_fork::query::{
    Projection, Query, QueryError, QueryExecutor, QueryOutput, QueryRange, ReaderPool,
};
use stick_a_fork::replay::Side;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fork-query-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mixed batch: raw scans, block-number ranges, time windows, and every
/// aggregate projection, across both sides.
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

#[test]
fn eight_threads_match_naive_scan_and_skip_torn_frames() {
    let dir = scratch("stress");
    ForkStudy::quick(13)
        .archive_to_with(
            &dir,
            ArchiveConfig {
                codec: Codec::Delta,
                ..ArchiveConfig::default()
            },
        )
        .unwrap();

    // Simulate a crash mid-append: garbage bytes on one segment's tail. The
    // open-time scan must fence every cursor at the torn boundary, so no
    // query — pooled or naive — ever decodes a partial frame.
    let eth_dir = dir.join("eth");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&eth_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    let tail_seg = segs.last().unwrap();
    let mut bytes = std::fs::read(tail_seg).unwrap();
    bytes.extend_from_slice(&[0xAB; 23]); // not even a whole frame header
    std::fs::write(tail_seg, bytes).unwrap();

    let pool = ReaderPool::open(&dir).unwrap();
    assert_eq!(pool.reader().open_report().torn_segments, 1);
    assert!(pool.reader().open_report().torn_bytes >= 23);

    let queries = mixed_queries(pool.reader());
    assert!(queries.len() >= 30, "the batch should be genuinely mixed");

    // Single-threaded naive reference, computed up front.
    let naive_reader = ArchiveReader::open(&dir).unwrap();
    let expected: Vec<QueryOutput> = queries
        .iter()
        .map(|q| QueryExecutor::run_naive(&naive_reader, q).expect("naive scan"))
        .collect();

    // 8 OS threads hammer the shared pool concurrently, each walking the
    // batch from a different starting offset so overlapping queries run
    // simultaneously. Two rounds: the second runs against a warm cache.
    let exec = QueryExecutor::new(8);
    for round in 0..2 {
        std::thread::scope(|scope| {
            for thread in 0..8usize {
                let (exec, pool, queries, expected) = (&exec, &pool, &queries, &expected);
                scope.spawn(move || {
                    for i in 0..queries.len() {
                        let k = (i + thread * 5) % queries.len();
                        let got = exec
                            .run(pool, &queries[k])
                            .unwrap_or_else(|e| panic!("round {round}: {:?}: {e}", queries[k]));
                        assert_eq!(
                            got, expected[k],
                            "round {round}, thread {thread}: pooled result diverged from \
                             the naive scan on {:?}",
                            queries[k]
                        );
                    }
                });
            }
        });
    }

    // The batch executor path agrees too, and the repeat pass was served
    // mostly from memory.
    let batched = exec.run_batch(&pool, &queries);
    for (got, want) in batched.into_iter().zip(&expected) {
        assert_eq!(&got.unwrap(), want);
    }
    let stats = pool.cache().stats();
    assert!(
        stats.hit_rate() > 0.5,
        "repeated mixed batches should be mostly cache hits, got {:.3}",
        stats.hit_rate()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Results equal: `Ok` outputs equal, `Err`s that read the same.
fn same_result(
    got: &Result<QueryOutput, QueryError>,
    want: &Result<QueryOutput, QueryError>,
) -> bool {
    match (got, want) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

#[test]
fn batch_equals_naive_on_a_torn_and_corrupt_archive() {
    let dir = scratch("corrupt");
    ForkStudy::quick(13)
        .archive_to_with(
            &dir,
            ArchiveConfig {
                codec: Codec::Delta,
                // Several segments per side, so one sits in the middle.
                segment_max_bytes: 8 * 1024,
            },
        )
        .unwrap();

    // Tear ETH's tail, as a crash mid-append would.
    let mut eth_segs: Vec<PathBuf> = std::fs::read_dir(dir.join("eth"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    eth_segs.sort();
    let tail_seg = eth_segs.last().unwrap();
    let mut bytes = std::fs::read(tail_seg).unwrap();
    bytes.extend_from_slice(&[0xAB; 23]);
    std::fs::write(tail_seg, bytes).unwrap();

    // Flip the last payload byte of a block frame in the middle of a
    // middle ETC segment: past the prefix the open-time scan reads, so
    // only the frame checksum catches it.
    let (seg_path, number, timestamp, offset) = {
        let reader = ArchiveReader::open(&dir).unwrap();
        let segs = reader.segments(Side::Etc);
        assert!(
            segs.len() >= 3,
            "want a middle ETC segment, got {}",
            segs.len()
        );
        let (path, scan) = &segs[segs.len() / 2];
        let k = scan.block_index.len() / 2;
        let (number, offset) = scan.block_index[k];
        let (timestamp, at) = scan.time_index[k];
        assert_eq!(at, offset);
        (path.clone(), number, timestamp, offset as usize)
    };
    let mut bytes = std::fs::read(&seg_path).unwrap();
    let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
    bytes[offset + 8 + len - 1] ^= 0x5A;
    std::fs::write(&seg_path, bytes).unwrap();

    let pool = ReaderPool::open(&dir).unwrap();
    assert_eq!(pool.reader().open_report().torn_segments, 1);
    let naive_reader = ArchiveReader::open(&dir).unwrap();

    // The reanalyze-cold batch, then bounded windows: ETH ones, and ETC
    // ones that cover the corrupt frame (a window that skips it answers
    // `Ok` where the naive full scan cannot).
    let q = |side, range, projection| Query {
        side,
        range,
        projection,
    };
    let mut queries = Vec::new();
    for side in [Side::Eth, Side::Etc] {
        for projection in [
            Projection::Blocks,
            Projection::Txs,
            Projection::InterArrival,
            Projection::Difficulty,
            Projection::Echoes { window_days: 1 },
        ] {
            queries.push(q(Some(side), QueryRange::All, projection));
        }
    }
    queries.push(q(None, QueryRange::All, Projection::TxRatioPerDay));
    queries.push(q(
        Some(Side::Eth),
        QueryRange::All,
        Projection::Echoes { window_days: 7 },
    ));
    let near_number = QueryRange::Blocks {
        first: number.saturating_sub(2),
        last: number + 2,
    };
    let near_time = QueryRange::Time {
        start: timestamp.saturating_sub(3_600),
        end: timestamp + 3_600,
    };
    queries.extend([
        q(Some(Side::Eth), near_number, Projection::Blocks),
        q(Some(Side::Eth), near_time, Projection::Txs),
        q(Some(Side::Etc), near_number, Projection::Difficulty),
        q(Some(Side::Etc), near_time, Projection::Txs),
        q(None, near_time, Projection::TxRatioPerDay),
        q(
            Some(Side::Etc),
            near_time,
            Projection::Echoes { window_days: 1 },
        ),
    ]);

    let exec = QueryExecutor::new(2);
    let batched = exec.run_batch(&pool, &queries);
    let mut failed = 0;
    for (query, got) in queries.iter().zip(&batched) {
        let want = QueryExecutor::run_naive(&naive_reader, query);
        assert!(
            same_result(got, &want),
            "batch != naive on {query:?}: {got:?} vs {want:?}"
        );
        let eth_only =
            query.side == Some(Side::Eth) && !matches!(query.projection, Projection::Echoes { .. });
        assert!(
            !eth_only || got.is_ok(),
            "ETH-only {query:?} must still answer: {got:?}"
        );
        failed += usize::from(got.is_err());
    }
    assert!(
        failed >= 8,
        "the corrupt ETC frame fails every query that reads it ({failed})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

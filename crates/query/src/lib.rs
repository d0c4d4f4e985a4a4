//! # fork-query
//!
//! A concurrent, cached query engine over [`fork_archive`] archives.
//!
//! The paper's methodology is *archive then re-analyze*: every figure is a
//! query over the exported database, not over live simulator state. This
//! crate makes that re-analysis cheap for **many consumers at once**:
//!
//! - [`ReaderPool`] opens an archive once (the expensive header scan that
//!   builds sparse block-number/timestamp indexes) and hands out any number
//!   of independent cursors sharing the immutable index — no per-consumer
//!   re-scan, no cross-consumer positions.
//! - [`FrameCache`] is a sharded, byte-budgeted LRU of decoded frames.
//!   Bounded windows and hash lookups are admitted, so concurrent reads of
//!   overlapping windows hit memory instead of disk; full-range scans
//!   stream past it (one read, one checksum, one decode per frame) instead
//!   of evicting it. Hit/miss/eviction counts are visible via
//!   [`CacheStats`] and, when bound to a registry, the
//!   `query.cache.{hit,miss}` counters.
//! - [`Query`] is the typed surface: a side, a [`QueryRange`] (all /
//!   block-number / time window), and a [`Projection`] — raw blocks or txs,
//!   or one of the paper's aggregates (inter-arrival histogram, daily
//!   difficulty, ETH:ETC tx ratio, echo counts per window) computed from
//!   the archive without re-running the simulation.
//! - [`QueryExecutor`] runs batches across a worker pool with
//!   deterministic, input-ordered results and a `query.latency` histogram.
//!   It evaluates every full-range query of a batch in one pass per
//!   side-set ({ETH}, {ETC}, both), so a batch reads each whole side once
//!   per group however many queries share it.
//!
//! ## Determinism
//!
//! Pooled, cached, multi-threaded evaluation returns **byte-identical**
//! results to a naive single-threaded scan ([`QueryExecutor::run_naive`]).
//! This holds by construction, not by tolerance: one evaluation function
//! feeds one fold per query from a stream over an abstract record source
//! (a single query is a group of one), each fold applies its own side and
//! range filters, sources yield the same per-side record sequence in
//! write order, the cache only short-circuits I/O
//! (hits return the same decoded frames a read would), and aggregates
//! stream into the live pipeline's own folds (`fork_analytics::aggregate`)
//! and the telemetry histogram's own bucketing
//! (`fork_telemetry::bucket_index`) in the same per-side order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod exec;
pub mod lookup;
pub mod pool;
pub mod query;

pub use cache::{take_thread_cache_delta, CacheStats, FrameCache};
pub use error::QueryError;
pub use exec::QueryExecutor;
pub use lookup::{
    FoundRecord, HeaderChain, Lookup, LookupOutput, ReorgEvent, SealedHeader, SideTip,
    TipHistoryOutput,
};
pub use pool::{PoolStream, ReaderPool, DEFAULT_CACHE_BYTES, DEFAULT_CACHE_SHARDS};
pub use query::{Projection, Query, QueryOutput, QueryRange};

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    use fork_analytics::{BlockRecord, Pipeline, TxRecord};
    use fork_archive::{ArchiveConfig, ArchiveReader, ArchiveRecord, ArchiveWriter, Codec};
    use fork_primitives::{Address, H256, U256};
    use fork_replay::Side;
    use fork_sim::LedgerSink;

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("fork-query-test-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn block(side: Side, number: u64) -> BlockRecord {
        BlockRecord {
            network: side,
            number,
            hash: H256([(number % 251) as u8; 32]),
            timestamp: 1_469_000_000 + number * 900, // ~96 blocks/day
            difficulty: U256::from_u128(62_000_000_000_000 + number as u128 * 7),
            beneficiary: Address([(number % 31) as u8; 20]),
            gas_used: 21_000 + number,
            tx_count: (number % 5) as u32,
            ommer_count: (number % 3) as u32,
        }
    }

    fn tx(side: Side, n: u64, ts: u64) -> TxRecord {
        TxRecord {
            network: side,
            // Small hash space so cross-side echoes actually occur.
            hash: H256([(n % 61) as u8; 32]),
            timestamp: ts,
            is_contract: n.is_multiple_of(2),
            has_chain_id: n.is_multiple_of(3),
            value: U256::from_u64(n * 1_000_000_007),
        }
    }

    /// Small two-sided archive: 120 blocks per side across several
    /// segments, a few txs per block.
    fn fixture(tag: &str) -> PathBuf {
        let dir = scratch(tag);
        let mut writer = ArchiveWriter::create_with(
            &dir,
            ArchiveConfig {
                segment_max_bytes: 4 * 1024,
                codec: Codec::Delta,
            },
        )
        .unwrap();
        let mut tx_n = 0u64;
        for number in 0..120 {
            for side in [Side::Eth, Side::Etc] {
                let b = block(side, number);
                let ts = b.timestamp;
                writer.block(b.clone());
                for _ in 0..b.tx_count {
                    writer.tx(tx(side, tx_n, ts));
                    tx_n += 1;
                }
            }
        }
        writer.finish(None).unwrap();
        dir
    }

    fn all_queries() -> Vec<Query> {
        let time = QueryRange::Time {
            start: 1_469_000_000 + 20 * 900,
            end: 1_469_000_000 + 80 * 900,
        };
        let blocks = QueryRange::Blocks {
            first: 30,
            last: 90,
        };
        let mut queries = Vec::new();
        for side in [Side::Eth, Side::Etc] {
            for range in [QueryRange::All, blocks, time] {
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
            for range in [QueryRange::All, time] {
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection: Projection::Txs,
                });
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection: Projection::Echoes { window_days: 1 },
                });
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection: Projection::Echoes { window_days: 7 },
                });
            }
        }
        for range in [QueryRange::All, time] {
            queries.push(Query {
                side: None,
                range,
                projection: Projection::TxRatioPerDay,
            });
        }
        queries
    }

    #[test]
    fn pooled_scan_equals_reader_scan() {
        use crate::pool::Bounds;
        let dir = fixture("pooled-scan");
        let pool = ReaderPool::open(&dir).unwrap();
        let reader = pool.reader();
        let (t0, t1) = (1_469_000_000 + 20 * 900, 1_469_000_000 + 80 * 900);
        // Cold, then from the cache: the bounded streams must yield the
        // reader's own range scans either way.
        for pass in ["cold", "warm"] {
            for side in [Side::Eth, Side::Etc] {
                for (first, last) in [(0, 119), (30, 90), (64, 64), (119, 500)] {
                    let pooled: Vec<BlockRecord> = pool
                        .stream(side, Bounds::Numbers { first, last })
                        .filter_map(|item| match item.unwrap().1 {
                            ArchiveRecord::Block(b) => {
                                (first..=last).contains(&b.number).then_some(b)
                            }
                            ArchiveRecord::Tx(_) => None,
                        })
                        .collect();
                    let direct: Vec<BlockRecord> = reader
                        .blocks_in(side, first, last)
                        .map(Result::unwrap)
                        .collect();
                    assert_eq!(pooled, direct, "{pass}: {side:?} blocks {first}..={last}");
                }
                let pooled: Vec<_> = pool
                    .stream(side, Bounds::Times { start: t0, end: t1 })
                    .map(Result::unwrap)
                    .filter(|(_, rec)| (t0..=t1).contains(&rec.timestamp()))
                    .collect();
                let direct: Vec<_> = reader
                    .records_in_time_range(side, t0, t1)
                    .map(Result::unwrap)
                    .collect();
                assert!(!direct.is_empty());
                assert_eq!(pooled, direct, "{pass}: {side:?} time window");
            }
        }
        assert!(pool.cache().stats().hits > 0, "the warm pass hit the cache");
    }

    #[test]
    fn full_range_batch_leaves_the_cache_untouched() {
        let dir = fixture("all-bypass");
        let pool = ReaderPool::open(&dir).unwrap();
        let exec = QueryExecutor::new(4);
        let (full, bounded): (Vec<Query>, Vec<Query>) = all_queries()
            .into_iter()
            .partition(|q| q.range == QueryRange::All);
        assert!(full.len() >= 10);
        // Something resident first, so "unchanged" is not "still empty".
        exec.run_batch(&pool, &bounded);
        let before = pool.cache().stats();
        assert!(before.resident_bytes > 0);
        for out in exec.run_batch(&pool, &full) {
            out.unwrap();
        }
        exec.run_lookup(&pool, &Lookup::TipHistory).unwrap();
        let after = pool.cache().stats();
        assert_eq!(after.hits + after.misses, before.hits + before.misses);
        assert_eq!(after.resident_bytes, before.resident_bytes);
    }

    #[test]
    fn executor_matches_naive_for_every_projection() {
        let dir = fixture("exec-vs-naive");
        let pool = ReaderPool::open(&dir).unwrap();
        let naive_reader = ArchiveReader::open(&dir).unwrap();
        let exec = QueryExecutor::new(8);
        let queries = all_queries();
        let pooled = exec.run_batch(&pool, &queries);
        assert_eq!(pooled.len(), queries.len());
        for (q, result) in queries.iter().zip(pooled) {
            let fast = result.unwrap_or_else(|e| panic!("pooled {q:?}: {e}"));
            let slow = QueryExecutor::run_naive(&naive_reader, q).unwrap();
            assert_eq!(fast, slow, "pooled != naive for {q:?}");
        }
    }

    #[test]
    fn full_range_aggregates_match_live_pipeline() {
        let dir = fixture("vs-pipeline");
        let pool = ReaderPool::open(&dir).unwrap();
        let mut pipeline = Pipeline::new();
        pool.reader().replay_into(&mut pipeline).unwrap();
        // A bounded time window is the same fold over just the records
        // inside it: a second pipeline fed only those, per side in order.
        let (start, end) = (1_469_000_000 + 20 * 900, 1_469_000_000 + 80 * 900);
        let time = QueryRange::Time { start, end };
        let mut windowed = Pipeline::new();
        for side in [Side::Eth, Side::Etc] {
            for item in pool.reader().records(side) {
                match item.unwrap().1 {
                    rec if !(start..=end).contains(&rec.timestamp()) => {}
                    ArchiveRecord::Block(b) => windowed.ingest_block(&b),
                    ArchiveRecord::Tx(t) => windowed.ingest_tx(&t),
                }
            }
        }
        let q = |side, range, projection| Query {
            side,
            range,
            projection,
        };
        let tx_ratio = |p: &Pipeline| {
            fork_analytics::ratio(
                &p.txs_per_day(Side::Eth),
                &p.txs_per_day(Side::Etc),
                "ETH:ETC",
            )
        };
        let mut cases = vec![
            (
                q(None, QueryRange::All, Projection::TxRatioPerDay),
                tx_ratio(&pipeline),
            ),
            (
                q(None, time, Projection::TxRatioPerDay),
                tx_ratio(&windowed),
            ),
        ];
        for side in [Side::Eth, Side::Etc] {
            cases.extend([
                (
                    q(Some(side), QueryRange::All, Projection::Difficulty),
                    pipeline.daily_difficulty(side),
                ),
                // 1-day echo windows are the pipeline's echoes_per_day.
                (
                    q(
                        Some(side),
                        QueryRange::All,
                        Projection::Echoes { window_days: 1 },
                    ),
                    pipeline.echoes_per_day(side),
                ),
                (
                    q(Some(side), time, Projection::Difficulty),
                    windowed.daily_difficulty(side),
                ),
            ]);
        }
        let exec = QueryExecutor::new(2);
        for (query, want) in cases {
            assert!(!want.is_empty(), "{query:?}");
            assert_eq!(
                exec.run(&pool, &query).unwrap(),
                QueryOutput::Series(want),
                "{query:?} must be bit-identical to the live pipeline"
            );
        }
    }

    #[test]
    fn repeated_batch_hits_the_cache() {
        let dir = fixture("cache-hits");
        let pool = ReaderPool::open(&dir).unwrap();
        let exec = QueryExecutor::new(4);
        let queries = all_queries();
        exec.run_batch(&pool, &queries);
        let cold = pool.cache().stats();
        exec.run_batch(&pool, &queries);
        let warm = pool.cache().stats();
        assert!(warm.hits > cold.hits, "second pass must hit the cache");
        assert!(
            warm.hit_rate() > 0.5,
            "repeated batch should be mostly cache hits, got {:.3}",
            warm.hit_rate()
        );
        // The fixture fits in the default budget, so the second pass should
        // add no misses at all.
        assert_eq!(warm.misses, cold.misses);
    }

    #[test]
    fn latency_histogram_records_when_telemetry_enabled() {
        let dir = fixture("latency");
        let registry = fork_telemetry::MetricsRegistry::new();
        let pool = ReaderPool::new(
            ArchiveReader::open(&dir).unwrap(),
            FrameCache::new(DEFAULT_CACHE_BYTES, 4).with_telemetry(&registry),
        );
        let exec = QueryExecutor::new(2).with_telemetry(&registry);
        let queries = all_queries();
        let n = queries.len() as u64;
        exec.run_batch(&pool, &queries);
        assert_eq!(
            exec.latency_snapshot().count,
            n,
            "one latency sample per query"
        );
        assert!(pool.cache().stats().misses > 0);
    }

    /// `Ok` outputs equal, or `Err`s that read the same.
    fn assert_same(
        got: &Result<QueryOutput, QueryError>,
        want: &Result<QueryOutput, QueryError>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
            _ => panic!("{what}: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn grouped_batch_equals_each_query_alone() {
        let dir = fixture("grouped");
        let registry = fork_telemetry::MetricsRegistry::new();
        let pool = ReaderPool::open(&dir).unwrap();
        let naive_reader = ArchiveReader::open(&dir).unwrap();
        let exec = QueryExecutor::new(2).with_telemetry(&registry);
        let q = |side, range, projection| Query {
            side,
            range,
            projection,
        };
        let time = QueryRange::Time {
            start: 1_469_000_000 + 20 * 900,
            end: 1_469_000_000 + 80 * 900,
        };
        let mut queries = Vec::new();
        for side in [Side::Eth, Side::Etc] {
            for projection in [
                Projection::Blocks,
                Projection::Txs,
                Projection::InterArrival,
                Projection::Difficulty,
                Projection::Echoes { window_days: 1 },
                Projection::Echoes { window_days: 7 },
            ] {
                queries.push(q(Some(side), QueryRange::All, projection));
            }
        }
        queries.extend([
            q(None, QueryRange::All, Projection::TxRatioPerDay),
            // A duplicate lands in the same group and gets its own fold.
            q(Some(Side::Etc), QueryRange::All, Projection::Difficulty),
            // Echoes of any range read both whole sides: the both-sides
            // group takes it.
            q(Some(Side::Eth), time, Projection::Echoes { window_days: 1 }),
            // Invalid: transactions carry no block number.
            q(
                Some(Side::Eth),
                QueryRange::Blocks { first: 0, last: 5 },
                Projection::Txs,
            ),
            // Bounded windows go through the cache, one at a time.
            q(
                Some(Side::Etc),
                QueryRange::Blocks {
                    first: 30,
                    last: 90,
                },
                Projection::Blocks,
            ),
            q(Some(Side::Eth), time, Projection::Txs),
            q(None, time, Projection::TxRatioPerDay),
        ]);
        let batched = exec.run_batch(&pool, &queries);
        assert_eq!(batched.len(), queries.len());
        assert_eq!(
            exec.latency_snapshot().count,
            queries.len() as u64,
            "one latency sample per query, grouped or not"
        );
        for (query, got) in queries.iter().zip(&batched) {
            let alone = exec.run(&pool, query);
            let naive = QueryExecutor::run_naive(&naive_reader, query);
            assert_same(got, &alone, &format!("batch vs run: {query:?}"));
            assert_same(got, &naive, &format!("batch vs naive: {query:?}"));
        }
        assert_eq!(batched.iter().filter(|r| r.is_err()).count(), 1);

        // One pass over every valid query at once — both sides merged, the
        // whole archive for mixed ranges — still gives each its own answer:
        // each fold applies its own side and range.
        let valid: Vec<&Query> = queries.iter().filter(|q| q.validate().is_ok()).collect();
        let source = crate::query::NaiveSource(&naive_reader);
        let together = crate::query::evaluate_group(&source, &valid).unwrap();
        for (query, got) in valid.iter().zip(together) {
            let alone = QueryExecutor::run_naive(&naive_reader, query).unwrap();
            assert_eq!(got, alone, "one pass for all vs alone: {query:?}");
        }

        // Only the full-range part: no cache lookups at all.
        let fresh = ReaderPool::open(&dir).unwrap();
        let full: Vec<Query> = queries
            .iter()
            .filter(|q| q.validate().is_ok() && q.scan_range() == QueryRange::All)
            .copied()
            .collect();
        assert_eq!(full.len(), queries.len() - 4);
        for (query, got) in full.iter().zip(exec.run_batch(&fresh, &full)) {
            let naive = QueryExecutor::run_naive(&naive_reader, query);
            assert_same(&got, &naive, &format!("full batch vs naive: {query:?}"));
        }
        let stats = fresh.cache().stats();
        assert_eq!(
            stats.hits + stats.misses,
            0,
            "a full-range batch streams past the cache"
        );
    }

    #[test]
    fn invalid_queries_fail_without_touching_disk() {
        let dir = fixture("invalid");
        let pool = ReaderPool::open(&dir).unwrap();
        let exec = QueryExecutor::new(2);
        let bad = Query {
            side: Some(Side::Eth),
            range: QueryRange::Blocks { first: 0, last: 5 },
            projection: Projection::Txs,
        };
        assert!(matches!(
            exec.run(&pool, &bad),
            Err(QueryError::Unsupported { .. })
        ));
        assert_eq!(pool.cache().stats().misses, 0, "no I/O for invalid queries");
    }

    fn all_lookups() -> Vec<Lookup> {
        let mut lookups = vec![
            // Absent hashes: 255 is outside both fixture hash spaces.
            Lookup::BlockByHash {
                hash: H256([255u8; 32]),
            },
            Lookup::TxByHash {
                hash: H256([255u8; 32]),
            },
            Lookup::TipHistory,
        ];
        for n in [0u64, 7, 60, 119] {
            lookups.push(Lookup::BlockByHash {
                hash: H256([(n % 251) as u8; 32]),
            });
        }
        for n in [0u64, 5, 42, 60] {
            lookups.push(Lookup::TxByHash {
                hash: H256([(n % 61) as u8; 32]),
            });
        }
        for side in [Side::Eth, Side::Etc] {
            for number in [0u64, 63, 119, 500] {
                lookups.push(Lookup::BlockByNumber { side, number });
            }
            lookups.push(Lookup::Headers {
                side,
                first: 10,
                last: 30,
            });
            // Range running past the archived tip: served as far as it goes.
            lookups.push(Lookup::Headers {
                side,
                first: 115,
                last: 200,
            });
        }
        lookups
    }

    #[test]
    fn indexed_lookups_match_naive_scan() {
        let dir = fixture("lookup-naive");
        let reader = ArchiveReader::open(&dir).unwrap();
        let pool = ReaderPool::open(&dir).unwrap();
        let exec = QueryExecutor::new(2);
        // Two passes: the first builds and persists the sidecar and fills
        // the cache, the second is served from both.
        for pass in ["cold", "warm"] {
            for lookup in all_lookups() {
                let indexed = exec.run_lookup(&pool, &lookup).unwrap();
                let naive = QueryExecutor::run_lookup_naive(&reader, &lookup).unwrap();
                assert_eq!(indexed, naive, "{pass}: {lookup:?}");
            }
        }
    }

    #[test]
    fn duplicate_hashes_resolve_to_the_earliest_seq() {
        // Every block number's hash repeats on both sides; the fixture
        // writes ETH before ETC per number, so ETH holds the smaller seq
        // and must win the merged-order tie.
        let dir = fixture("lookup-dup");
        let pool = ReaderPool::open(&dir).unwrap();
        for n in [0u64, 50, 119] {
            let hash = H256([(n % 251) as u8; 32]);
            let out = pool.lookup(&Lookup::BlockByHash { hash }).unwrap();
            let LookupOutput::Found(Some(found)) = out else {
                panic!("block {n} should be found");
            };
            assert_eq!(found.side, Side::Eth);
            match found.record {
                fork_archive::ArchiveRecord::Block(b) => assert_eq!(b.number, n),
                other => panic!("expected a block, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_chain_verifies_with_checksums_alone() {
        let dir = fixture("lookup-headers");
        let pool = ReaderPool::open(&dir).unwrap();
        let out = pool
            .lookup(&Lookup::Headers {
                side: Side::Etc,
                first: 10,
                last: 30,
            })
            .unwrap();
        let LookupOutput::Headers(chain) = out else {
            panic!("headers output expected");
        };
        let blocks = chain.verify().unwrap();
        assert_eq!(blocks.len(), 21);
        assert_eq!(blocks.first().unwrap().number, 10);
        assert_eq!(blocks.last().unwrap().number, 30);
        // A single flipped payload byte fails the frame checksum.
        let mut tampered = chain.clone();
        tampered.headers[5].payload[0] ^= 0x01;
        assert!(tampered.verify().is_err());
        // So does a checksum-consistent header smuggled in from the wrong
        // position (chain order check).
        let mut shuffled = chain.clone();
        shuffled.headers.swap(2, 3);
        assert!(shuffled.verify().is_err());
    }

    #[test]
    fn tip_history_reports_reorgs() {
        let dir = scratch("lookup-reorg");
        let mut writer = ArchiveWriter::create_with(
            &dir,
            ArchiveConfig {
                segment_max_bytes: 4 * 1024,
                codec: Codec::Raw,
            },
        )
        .unwrap();
        for number in 0..10 {
            writer.block(block(Side::Eth, number));
        }
        // ETH switches to a competing branch: a new block numbered 7
        // displaces 7..=9 (depth 3), then the branch extends to 12.
        for number in 7..13 {
            let mut b = block(Side::Eth, number);
            b.hash = H256([0xA0 ^ number as u8; 32]);
            writer.block(b);
        }
        for number in 0..5 {
            writer.block(block(Side::Etc, number));
        }
        writer.finish(None).unwrap();

        let pool = ReaderPool::open(&dir).unwrap();
        let out = pool.lookup(&Lookup::TipHistory).unwrap();
        let LookupOutput::Tips(tips) = out else {
            panic!("tips output expected");
        };
        assert_eq!(tips.eth.blocks, 16);
        assert_eq!(tips.eth.reorgs, 1);
        assert_eq!(tips.eth.tip.as_ref().unwrap().number, 12);
        assert_eq!(tips.etc.blocks, 5);
        assert_eq!(tips.etc.reorgs, 0);
        assert_eq!(tips.etc.tip.as_ref().unwrap().number, 4);
        assert_eq!(tips.reorgs.len(), 1);
        let ev = tips.reorgs[0];
        assert_eq!(ev.side, Side::Eth);
        assert_eq!(ev.number, 7);
        assert_eq!(ev.depth, 3);

        // The indexed path and the naive reference agree on reorgs too.
        let reader = ArchiveReader::open(&dir).unwrap();
        let naive = QueryExecutor::run_lookup_naive(&reader, &Lookup::TipHistory).unwrap();
        assert_eq!(LookupOutput::Tips(tips), naive);
    }
}

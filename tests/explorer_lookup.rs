//! End-to-end check of the explorer's lookup path: over full simulated
//! fork archives, every sidecar-indexed lookup must answer byte-identically
//! to a naive full scan — cold (index built from scratch) and warm (index
//! loaded from the persisted sidecar) while reading exactly one frame per
//! present hash and none per absent one — and header chains must verify
//! client-side from frame checksums alone.

use std::path::PathBuf;

use stick_a_fork::archive::{
    ArchiveConfig, ArchiveReader, ArchiveRecord, Codec, HashIndex, SidecarLoad, SIDECAR_FILE,
};
use stick_a_fork::core::ForkStudy;
use stick_a_fork::primitives::H256;
use stick_a_fork::query::{Lookup, LookupOutput, QueryExecutor, ReaderPool};
use stick_a_fork::replay::Side;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fork-explorer-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Frames the pool has read so far: every frame read probes the cache
/// once, as a hit or a miss.
fn frames_read(pool: &ReaderPool) -> u64 {
    let stats = pool.cache().stats();
    stats.hits + stats.misses
}

/// Samples real hashes and block numbers from the archive, spread across
/// both sides and the whole seq range.
struct Sampled {
    block_hashes: Vec<H256>,
    tx_hashes: Vec<H256>,
    number_range: (u64, u64),
}

fn sample(reader: &ArchiveReader) -> Sampled {
    let mut block_hashes = Vec::new();
    let mut tx_hashes = Vec::new();
    let mut number_range: Option<(u64, u64)> = None;
    for side in [Side::Eth, Side::Etc] {
        let mut blocks = Vec::new();
        let mut txs = Vec::new();
        for item in reader.records(side) {
            match item.expect("clean archive").1 {
                ArchiveRecord::Block(b) => {
                    number_range = Some(match number_range {
                        None => (b.number, b.number),
                        Some((lo, hi)) => (lo.min(b.number), hi.max(b.number)),
                    });
                    blocks.push(b.hash);
                }
                ArchiveRecord::Tx(t) => txs.push(t.hash),
            }
        }
        // First, last, and a spread of interior records per side.
        for set in [(&blocks, &mut block_hashes), (&txs, &mut tx_hashes)] {
            let (from, into) = set;
            if from.is_empty() {
                continue;
            }
            for k in 0..8 {
                into.push(from[k * (from.len() - 1) / 7]);
            }
        }
    }
    Sampled {
        block_hashes,
        tx_hashes,
        number_range: number_range.expect("archive has blocks"),
    }
}

fn lookups_for(s: &Sampled) -> Vec<Lookup> {
    let (lo, hi) = s.number_range;
    let mut lookups = vec![
        Lookup::TipHistory,
        Lookup::BlockByHash {
            hash: H256([0xEE; 32]),
        }, // absent
        Lookup::TxByHash {
            hash: H256([0xEE; 32]),
        }, // absent
    ];
    lookups.extend(
        s.block_hashes
            .iter()
            .map(|&hash| Lookup::BlockByHash { hash }),
    );
    lookups.extend(s.tx_hashes.iter().map(|&hash| Lookup::TxByHash { hash }));
    for side in [Side::Eth, Side::Etc] {
        for number in [lo, (lo + hi) / 2, hi, hi + 1000] {
            lookups.push(Lookup::BlockByNumber { side, number });
        }
        lookups.push(Lookup::Headers {
            side,
            first: lo + (hi - lo) / 3,
            last: lo + (hi - lo) / 3 + 20,
        });
        lookups.push(Lookup::Headers {
            side,
            first: lo,
            last: hi,
        });
    }
    lookups
}

#[test]
fn indexed_lookups_are_byte_identical_to_naive_scans_across_seeds() {
    for seed in [7u64, 21, 63] {
        let dir = scratch(&format!("seed-{seed}"));
        ForkStudy::quick(seed)
            .archive_to_with(
                &dir,
                ArchiveConfig {
                    codec: Codec::Delta,
                    ..ArchiveConfig::default()
                },
            )
            .unwrap();

        let naive_reader = ArchiveReader::open(&dir).unwrap();
        let sampled = sample(&naive_reader);
        let lookups = lookups_for(&sampled);
        assert!(lookups.len() > 30, "seed {seed}: sample too thin");

        // Cold: a fresh pool with no sidecar on disk builds the index from
        // a scan. Warm: a second pool loads the persisted sidecar. Both
        // must agree with the naive reference on every lookup.
        let exec = QueryExecutor::new(2);
        for pass in ["cold", "warm"] {
            let pool = ReaderPool::open(&dir).unwrap();
            for lookup in &lookups {
                let frames_before = frames_read(&pool);
                let got = exec.run_lookup(&pool, lookup).unwrap();
                let frames = frames_read(&pool) - frames_before;
                let want = QueryExecutor::run_lookup_naive(&naive_reader, lookup).unwrap();
                assert_eq!(
                    got, want,
                    "seed {seed}, {pass}: indexed {lookup:?} diverged from the naive scan"
                );
                // The hash index is really used: a present hash reads
                // exactly its one frame, an absent one reads none. A
                // fallback scan would read every frame of a side.
                if let Lookup::BlockByHash { hash } | Lookup::TxByHash { hash } = lookup {
                    let absent = hash.0 == [0xEE; 32];
                    let LookupOutput::Found(found) = &got else {
                        panic!("seed {seed}: hash lookup answered {got:?}");
                    };
                    assert_eq!(found.is_none(), absent, "seed {seed}: {lookup:?}");
                    assert_eq!(
                        frames,
                        u64::from(!absent),
                        "seed {seed}, {pass}: {lookup:?} read {frames} frames"
                    );
                }
            }
            if pass == "cold" {
                assert!(
                    dir.join(SIDECAR_FILE).exists(),
                    "seed {seed}: cold pass did not persist the sidecar"
                );
            }
        }

        // The warm path really was a load, not a silent rebuild.
        let (_, load) = HashIndex::load_or_build(&naive_reader);
        assert_eq!(load, SidecarLoad::Loaded, "seed {seed}");

        // Header chains verify offline, and any payload damage is caught.
        let (lo, hi) = sampled.number_range;
        let pool = ReaderPool::open(&dir).unwrap();
        for side in [Side::Eth, Side::Etc] {
            let lookup = Lookup::Headers {
                side,
                first: lo,
                last: (lo + 40).min(hi),
            };
            let chain = match exec.run_lookup(&pool, &lookup).unwrap() {
                LookupOutput::Headers(chain) => chain,
                other => panic!("seed {seed}: headers answered {other:?}"),
            };
            let blocks = chain.verify().expect("clean chain verifies");
            assert!(!blocks.is_empty(), "seed {seed}: empty header chain");
            assert!(blocks.iter().all(|b| b.network == side));

            let mut tampered = chain.clone();
            let byte = tampered.headers[0].payload.len() / 2;
            tampered.headers[0].payload[byte] ^= 0x01;
            assert!(
                tampered.verify().is_err(),
                "seed {seed}: tampered header chain still verified"
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Durability tests: round-trips, torn tails, bit flips, replay order.
//!
//! These mirror the net layer's `seal_frame` proptests at the storage layer:
//! whatever happens to the bytes on disk, the archive either reads the data
//! back exactly or *reports* corruption — it never panics and never serves
//! silently wrong records.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fork_analytics::{BlockRecord, TxRecord};
use fork_archive::{
    ArchiveConfig, ArchiveError, ArchiveMeta, ArchiveReader, ArchiveRecord, ArchiveWriter, Codec,
};
use fork_primitives::{Address, H256, U256};
use fork_replay::Side;
use fork_sim::LedgerSink;
use proptest::prelude::*;

/// Fresh scratch directory per call (tests run in parallel in one process).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "fork-archive-test-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn block(side: Side, number: u64) -> BlockRecord {
    BlockRecord {
        network: side,
        number,
        hash: H256([(number % 251) as u8; 32]),
        timestamp: 1_469_000_000 + number * 14,
        difficulty: U256::from_u128(62_000_000_000_000 + number as u128),
        beneficiary: Address([(number % 31) as u8; 20]),
        gas_used: 21_000 + number,
        tx_count: (number % 7) as u32,
        ommer_count: (number % 3) as u32,
    }
}

fn tx(side: Side, n: u64, ts: u64) -> TxRecord {
    TxRecord {
        network: side,
        hash: H256([(n % 253) as u8; 32]),
        timestamp: ts,
        is_contract: n.is_multiple_of(2),
        has_chain_id: n.is_multiple_of(3),
        value: U256::from_u64(n * 1_000_000_007),
    }
}

/// Writes `plan` (side, number, txs-per-block) through the sink interface
/// and finishes; returns the flat list of records in global write order.
fn write_archive(
    dir: &std::path::Path,
    config: ArchiveConfig,
    plan: &[(u8, u64, u8)],
) -> Vec<ArchiveRecord> {
    let mut writer = ArchiveWriter::create_with(dir, config).unwrap();
    let mut written = Vec::new();
    let mut tx_n = 0u64;
    for &(side_bit, number, txs) in plan {
        let side = if side_bit == 0 { Side::Eth } else { Side::Etc };
        let b = block(side, number);
        let ts = b.timestamp;
        writer.block(b.clone());
        written.push(ArchiveRecord::Block(b));
        for _ in 0..txs {
            let t = tx(side, tx_n, ts);
            tx_n += 1;
            writer.tx(t.clone());
            written.push(ArchiveRecord::Tx(t));
        }
    }
    writer.finish(None).unwrap();
    written
}

/// Collects everything a replay delivers, in delivery order.
#[derive(Default)]
struct CollectSink(Vec<ArchiveRecord>);

impl LedgerSink for CollectSink {
    fn block(&mut self, record: BlockRecord) {
        self.0.push(ArchiveRecord::Block(record));
    }
    fn tx(&mut self, record: TxRecord) {
        self.0.push(ArchiveRecord::Tx(record));
    }
}

/// Per-side block numbers must ascend (the engine emits finalized blocks in
/// order); this massages an arbitrary plan into that shape.
fn normalize_plan(raw: Vec<[u8; 2]>) -> Vec<(u8, u64, u8)> {
    let mut next = [0u64; 2];
    raw.into_iter()
        .map(|[side_bit, txs]| {
            let side = (side_bit % 2) as usize;
            next[side] += 1;
            (side as u8, next[side], txs % 5)
        })
        .collect()
}

proptest! {
    /// Write N records, reopen, read N back — bit-exact, both the per-side
    /// streams and the seq-merged replay.
    #[test]
    fn roundtrip_arbitrary_plans(
        raw in proptest::collection::vec(any::<[u8; 2]>(), 1..60),
        // Small segments so plans regularly span several files.
        seg_kib in 1u64..8,
    ) {
        let dir = scratch("roundtrip");
        let config = ArchiveConfig { segment_max_bytes: seg_kib * 1024, ..ArchiveConfig::default() };
        let plan = normalize_plan(raw);
        let written = write_archive(&dir, config, &plan);

        let reader = ArchiveReader::open(&dir).unwrap();
        prop_assert_eq!(reader.open_report().torn_bytes, 0);
        prop_assert!(reader.open_report().skipped.is_empty());
        prop_assert!(reader.verify().is_clean());

        // Per-side scans return exactly the written subsequences.
        for side in [Side::Eth, Side::Etc] {
            let got: Vec<ArchiveRecord> = reader
                .records(side)
                .map(|r| r.unwrap().1)
                .collect();
            let want: Vec<ArchiveRecord> = written
                .iter()
                .filter(|r| match r {
                    ArchiveRecord::Block(b) => b.network == side,
                    ArchiveRecord::Tx(t) => t.network == side,
                })
                .cloned()
                .collect();
            prop_assert_eq!(got, want);
        }

        // The seq-merge reconstructs the global write order exactly.
        let mut sink = CollectSink::default();
        let delivered = reader.replay_into_sink(&mut sink).unwrap();
        prop_assert_eq!(delivered as usize, written.len());
        prop_assert_eq!(sink.0, written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Chopping an arbitrary number of bytes off a segment's end (what a
    /// crash mid-write leaves behind) never panics the reader: every record
    /// before the cut reads back, nothing after it is invented.
    #[test]
    fn torn_tail_recovers(
        raw in proptest::collection::vec(any::<[u8; 2]>(), 2..40),
        cut in 1u64..200,
    ) {
        let dir = scratch("torn");
        let plan = normalize_plan(raw);
        // The generated plan may be single-sided; tear whichever side has data.
        let torn_side = if plan.iter().any(|&(s, _, _)| s == 0) {
            Side::Eth
        } else {
            Side::Etc
        };
        let written = write_archive(&dir, ArchiveConfig::default(), &plan);
        let eth_written = written
            .iter()
            .filter(|r| match r {
                ArchiveRecord::Block(b) => b.network == torn_side,
                ArchiveRecord::Tx(t) => t.network == torn_side,
            })
            .count();

        let side_dir = match torn_side {
            Side::Eth => "eth",
            Side::Etc => "etc",
        };
        let seg = dir.join(side_dir).join("seg-00000.seg");
        let bytes = std::fs::read(&seg).unwrap();
        // Keep at least the superblock; cut somewhere in the frame region.
        let keep = bytes.len().saturating_sub(cut as usize).max(32);
        std::fs::write(&seg, &bytes[..keep]).unwrap();

        let reader = ArchiveReader::open(&dir).unwrap();
        let survivors = reader
            .records(torn_side)
            .inspect(|r| assert!(r.is_ok(), "torn tail must not surface as Err"))
            .count();
        prop_assert!(survivors <= eth_written);
        if keep < bytes.len() {
            // At least the frame the cut landed in is gone (a cut landing
            // exactly on a frame boundary removes whole frames and leaves
            // torn_bytes == 0, so only the count is asserted).
            prop_assert!(survivors < eth_written, "a cut must lose the torn frame");
        } else {
            prop_assert_eq!(survivors, eth_written);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_tail_truncated_and_append_resumes() {
    let dir = scratch("torn-resume");
    let plan: Vec<(u8, u64, u8)> = (1..=20u64)
        .map(|n| ((n % 2) as u8, n.div_ceil(2), (n % 4) as u8))
        .collect();
    let written = write_archive(&dir, ArchiveConfig::default(), &plan);

    // Simulate a crash: chop bytes off the end of the eth tail segment so
    // its last frame is incomplete, then append junk shorter than a header.
    let seg = dir.join("eth").join("seg-00000.seg");
    let bytes = std::fs::read(&seg).unwrap();
    let torn_len = bytes.len() as u64 - 13;
    std::fs::write(&seg, &bytes[..torn_len as usize]).unwrap();

    let reader = ArchiveReader::open(&dir).unwrap();
    let report = reader.open_report();
    assert_eq!(report.torn_segments, 1, "the chopped segment is reported");
    assert!(report.torn_bytes > 0);
    // Everything before the torn frame still reads, without panicking.
    let survivors: Vec<ArchiveRecord> = reader
        .records(Side::Eth)
        .map(|r| r.expect("no corrupt frames before the tear"))
        .map(|(_, rec)| rec)
        .collect();
    let eth_written = written
        .iter()
        .filter(|r| {
            matches!(r, ArchiveRecord::Block(b) if b.network == Side::Eth)
                || matches!(r, ArchiveRecord::Tx(t) if t.network == Side::Eth)
        })
        .count();
    assert_eq!(
        survivors.len(),
        eth_written - 1,
        "exactly the torn frame is lost"
    );

    // Reopen for appending: the tail is physically truncated...
    let max_seq_before = written.len() as u64 - 1;
    let mut writer = ArchiveWriter::open_append(&dir).unwrap();
    let on_disk = std::fs::metadata(&seg).unwrap().len();
    assert!(on_disk < torn_len, "torn bytes removed from disk");
    // ...and sequence numbering resumes past every surviving record.
    assert!(writer.next_seq() <= max_seq_before + 1);
    let resumed_at = writer.next_seq();
    writer.block(block(Side::Eth, 999));
    writer.finish(None).unwrap();

    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(reader.open_report().torn_bytes, 0, "tail healed");
    let last = reader
        .records(Side::Eth)
        .map(|r| r.unwrap())
        .last()
        .unwrap();
    assert_eq!(last.0, resumed_at);
    assert!(matches!(last.1, ArchiveRecord::Block(b) if b.number == 999));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Applies each `(byte, mask)` flip to `seg` in turn: every one must leave
/// `dir` opening without a panic and verifying unclean, and none may grow
/// the count of ok frames.
fn assert_flips_detected(
    dir: &std::path::Path,
    seg: &std::path::Path,
    flips: impl Iterator<Item = (usize, u8)>,
) {
    let clean = std::fs::read(seg).unwrap();
    let clean_count = {
        let reader = ArchiveReader::open(dir).unwrap();
        let (ok, bad, torn) = reader.verify().totals();
        assert_eq!((bad, torn), (0, 0));
        ok
    };

    for (i, mask) in flips {
        let mut bad = clean.clone();
        bad[i] ^= mask;
        std::fs::write(seg, &bad).unwrap();
        // Opening never panics, whatever byte is flipped.
        let reader = ArchiveReader::open(dir).unwrap();
        let verify = reader.verify();
        assert!(
            !verify.is_clean(),
            "flip {mask:#04x} at byte {i} of {} undetected",
            clean.len()
        );
        // Structural flips (superblock, frame lengths) may hide later
        // frames, but a detected-corrupt archive must never claim *more*
        // valid frames than the clean one.
        let (ok, _, _) = verify.totals();
        assert!(ok < clean_count + 1, "flip at {i} grew the archive");
    }
    std::fs::write(seg, &clean).unwrap();
    assert!(ArchiveReader::open(dir).unwrap().verify().is_clean());
}

/// The committed pre-v3 archive: v2 superblocks, `Raw` codec, keccak
/// frames.
fn v2_fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../figures/archive")
}

/// Copies the v2 fixture's ETH superblock and first `frames` frames into a
/// fresh archive, so a flip sweep over it stays small.
fn v2_fixture_prefix(tag: &str, frames: usize) -> (PathBuf, PathBuf) {
    let bytes = std::fs::read(v2_fixture().join("eth").join("seg-00000.seg")).unwrap();
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), 2, "fixture is v2");
    let mut end = 32;
    for _ in 0..frames {
        let len = u32::from_le_bytes(bytes[end..end + 4].try_into().unwrap()) as usize;
        end += 8 + len;
    }
    let dir = scratch(tag);
    std::fs::create_dir_all(dir.join("eth")).unwrap();
    let seg = dir.join("eth").join("seg-00000.seg");
    std::fs::write(&seg, &bytes[..end]).unwrap();
    (dir, seg)
}

#[test]
fn every_single_byte_flip_is_detected() {
    // A v3 archive (CRC32C frames)...
    let dir = scratch("flip");
    let plan: Vec<(u8, u64, u8)> = vec![(0, 1, 2), (1, 1, 1), (0, 2, 0)];
    write_archive(&dir, ArchiveConfig::default(), &plan);
    let seg = dir.join("eth").join("seg-00000.seg");
    let len = std::fs::metadata(&seg).unwrap().len() as usize;
    assert_flips_detected(&dir, &seg, (0..len).map(|i| (i, 0x10)));
    let _ = std::fs::remove_dir_all(&dir);

    // ...and the committed v2 fixture (keccak frames).
    let (dir, seg) = v2_fixture_prefix("flip-v2", 5);
    let len = std::fs::metadata(&seg).unwrap().len() as usize;
    assert_flips_detected(&dir, &seg, (0..len).map(|i| (i, 0x10)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_bit_flip_in_a_v3_segment_is_detected() {
    // CRC32C catches every single-bit error outright, so this sweep is a
    // guarantee, not a sample.
    let dir = scratch("bitflip");
    let plan: Vec<(u8, u64, u8)> = vec![(0, 1, 3), (0, 2, 1)];
    write_archive(&dir, ArchiveConfig::default(), &plan);
    let seg = dir.join("eth").join("seg-00000.seg");
    let bytes = std::fs::read(&seg).unwrap();
    assert_eq!(
        u16::from_le_bytes([bytes[8], bytes[9]]),
        3,
        "writer makes v3"
    );
    let flips = (0..bytes.len() * 8).map(|bit| (bit / 8, 1u8 << (bit % 8)));
    assert_flips_detected(&dir, &seg, flips);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_queries_match_full_scans() {
    let dir = scratch("ranges");
    // 200 eth blocks with a few txs each, tiny segments to force several
    // files and exercise cross-segment seeks.
    let plan: Vec<(u8, u64, u8)> = (1..=200u64).map(|n| (0u8, n, (n % 3) as u8)).collect();
    let config = ArchiveConfig {
        segment_max_bytes: 4 * 1024,
        ..ArchiveConfig::default()
    };
    write_archive(&dir, config, &plan);
    let reader = ArchiveReader::open(&dir).unwrap();
    assert!(
        reader.open_report().segments > 2,
        "plan should span several segments"
    );

    for (first, last) in [(1u64, 200u64), (37, 105), (1, 1), (200, 200), (150, 9999)] {
        let got: Vec<u64> = reader
            .blocks_in(Side::Eth, first, last)
            .map(|r| r.unwrap().number)
            .collect();
        let want: Vec<u64> = (first..=last.min(200)).collect();
        assert_eq!(got, want, "range {first}..={last}");
    }
    // Empty range and a side with no data.
    assert_eq!(reader.blocks_in(Side::Eth, 300, 400).count(), 0);
    assert_eq!(reader.blocks_in(Side::Etc, 1, 100).count(), 0);

    // Time-range query: block 100's timestamp window picks exactly the
    // records stamped inside it.
    let t0 = 1_469_000_000 + 100 * 14;
    let t1 = 1_469_000_000 + 110 * 14;
    let in_window: Vec<(u64, ArchiveRecord)> = reader
        .records_in_time_range(Side::Eth, t0, t1)
        .map(|r| r.unwrap())
        .collect();
    assert!(!in_window.is_empty());
    for (_, rec) in &in_window {
        assert!((t0..=t1).contains(&rec.timestamp()));
    }
    let by_scan = reader
        .records(Side::Eth)
        .map(|r| r.unwrap())
        .filter(|(_, rec)| (t0..=t1).contains(&rec.timestamp()))
        .count();
    assert_eq!(in_window.len(), by_scan);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_roundtrips_meta() {
    let dir = scratch("manifest");
    let mut writer = ArchiveWriter::create(&dir).unwrap();
    writer.block(block(Side::Eth, 1));
    let meta = ArchiveMeta {
        seed: u64::MAX - 3, // past 2^53: exercises the string encoding
        start_unix: 1_469_000_000,
        end_unix: 1_470_000_000,
    };
    let stats = writer.finish(Some(meta)).unwrap();
    assert_eq!(stats.blocks, 1);
    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(reader.meta(), Some(meta));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_manifest_is_a_manifest_error_not_an_abort() {
    let dir = scratch("deep-manifest");
    let mut writer = ArchiveWriter::create(&dir).unwrap();
    writer.block(block(Side::Eth, 1));
    writer.finish(None).unwrap();
    std::fs::write(dir.join("manifest.json"), "[".repeat(100_000)).unwrap();
    match ArchiveReader::open(&dir).err() {
        Some(ArchiveError::Manifest { detail, .. }) => {
            assert!(detail.contains("nesting too deep"), "{detail}")
        }
        other => panic!("expected a manifest error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_on_garbage_is_an_error_not_a_panic() {
    let dir = scratch("garbage");
    assert!(
        ArchiveReader::open(&dir).is_err(),
        "empty dir: not an archive"
    );
    // A directory with the right shape but an unreadable superblock:
    std::fs::create_dir_all(dir.join("eth")).unwrap();
    std::fs::write(dir.join("eth").join("seg-00000.seg"), b"not a segment").unwrap();
    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(reader.open_report().skipped.len(), 1);
    assert_eq!(reader.totals(), (0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_final_segment_is_tolerated_and_removed() {
    // A crash between a segment roll and the first superblock byte leaves a
    // zero-length file. The reader must skip it (not report corruption) and
    // an appending reopen must remove it and resume on the previous tail.
    let dir = scratch("empty-tail");
    let plan: Vec<(u8, u64, u8)> = (1..=10u64).map(|n| (0u8, n, 2)).collect();
    let written = write_archive(&dir, ArchiveConfig::default(), &plan);

    let phantom = dir.join("eth").join("seg-00001.seg");
    std::fs::write(&phantom, b"").unwrap();

    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(reader.open_report().empty_segments, 1);
    assert!(reader.open_report().skipped.is_empty());
    let read: Vec<ArchiveRecord> = reader.records(Side::Eth).map(|r| r.unwrap().1).collect();
    assert_eq!(read.len(), written.len());

    let mut writer = ArchiveWriter::open_append(&dir).unwrap();
    assert!(!phantom.exists(), "reopen must remove the crash artifact");
    writer.block(block(Side::Eth, 11));
    writer.finish(None).unwrap();

    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(reader.open_report().empty_segments, 0);
    let numbers: Vec<u64> = reader
        .blocks_in(Side::Eth, 1, 11)
        .map(|b| b.unwrap().number)
        .collect();
    assert_eq!(numbers, (1..=11).collect::<Vec<u64>>());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_below_preserves_retained_window_byte_identically() {
    let dir = scratch("compact");
    // Tiny segments so the 200-block plan spans many files on each side.
    let config = ArchiveConfig {
        segment_max_bytes: 4 * 1024,
        ..ArchiveConfig::default()
    };
    let plan: Vec<(u8, u64, u8)> = (1..=200u64)
        .flat_map(|n| [(0u8, n, (n % 3) as u8), (1u8, n, (n % 2) as u8)])
        .collect();
    write_archive(&dir, config, &plan);

    let cutoff = 120u64;
    let before: Vec<ArchiveRecord> = {
        let reader = ArchiveReader::open(&dir).unwrap();
        [Side::Eth, Side::Etc]
            .into_iter()
            .flat_map(|side| {
                reader
                    .blocks_in(side, cutoff, 200)
                    .map(|b| ArchiveRecord::Block(b.unwrap()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    let report = ArchiveWriter::compact_below(&dir, cutoff).unwrap();
    assert!(report.removed_segments > 0, "nothing was pruned");
    assert!(report.retained_segments > 0);

    let reader = ArchiveReader::open(&dir).unwrap();
    assert!(reader.verify().is_clean());
    let after: Vec<ArchiveRecord> = [Side::Eth, Side::Etc]
        .into_iter()
        .flat_map(|side| {
            reader
                .blocks_in(side, cutoff, 200)
                .map(|b| ArchiveRecord::Block(b.unwrap()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(after, before, "retained window changed across compaction");

    // Every retained segment still holds at least one block >= cutoff or is
    // the non-prunable tail; all blocks strictly below the first retained
    // segment are gone, and the manifest reflects the surviving totals.
    let (blocks, txs) = reader.totals();
    assert_eq!((blocks, txs), (report.retained_blocks, report.retained_txs));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compact_below_never_removes_the_tail_segment() {
    let dir = scratch("compact-tail");
    let plan: Vec<(u8, u64, u8)> = (1..=5u64).map(|n| (0u8, n, 1)).collect();
    write_archive(&dir, ArchiveConfig::default(), &plan);
    // Everything is below the cutoff, but the single (tail) segment stays.
    let report = ArchiveWriter::compact_below(&dir, 1_000_000).unwrap();
    assert_eq!(report.removed_segments, 0);
    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(reader.totals().0, 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_codec_roundtrips_and_reopens() {
    let dir = scratch("delta");
    let config = ArchiveConfig {
        segment_max_bytes: 4 * 1024,
        codec: Codec::Delta,
    };
    let plan: Vec<(u8, u64, u8)> = (1..=80u64)
        .flat_map(|n| [(0u8, n, (n % 4) as u8), (1u8, n, (n % 3) as u8)])
        .collect();
    let written = write_archive(&dir, config, &plan);

    let reader = ArchiveReader::open(&dir).unwrap();
    assert!(reader.verify().is_clean());
    let mut sink = CollectSink::default();
    reader.replay_into_sink(&mut sink).unwrap();
    assert_eq!(sink.0, written, "delta replay is not byte-identical");

    // Appending under a *raw* config keeps the delta tail's own codec for
    // frames landing there; new segments use the raw codec. Either way the
    // records round-trip.
    let mut writer = ArchiveWriter::open_append(&dir).unwrap();
    writer.block(block(Side::Eth, 81));
    writer.finish(None).unwrap();
    let reader = ArchiveReader::open(&dir).unwrap();
    assert!(reader.verify().is_clean());
    let last = reader
        .blocks_in(Side::Eth, 81, 81)
        .map(|b| b.unwrap())
        .collect::<Vec<_>>();
    assert_eq!(last, vec![block(Side::Eth, 81)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_archive_is_smaller_than_raw() {
    let raw_dir = scratch("size-raw");
    let delta_dir = scratch("size-delta");
    let plan: Vec<(u8, u64, u8)> = (1..=100u64).map(|n| (0u8, n, 3)).collect();
    write_archive(&raw_dir, ArchiveConfig::default(), &plan);
    write_archive(
        &delta_dir,
        ArchiveConfig {
            codec: Codec::Delta,
            ..ArchiveConfig::default()
        },
        &plan,
    );
    let size = |dir: &std::path::Path| -> u64 {
        let mut total = 0;
        for side in ["eth", "etc"] {
            let d = dir.join(side);
            if let Ok(entries) = std::fs::read_dir(&d) {
                for e in entries {
                    total += e.unwrap().metadata().unwrap().len();
                }
            }
        }
        total
    };
    assert!(
        size(&delta_dir) < size(&raw_dir),
        "delta {} >= raw {}",
        size(&delta_dir),
        size(&raw_dir)
    );
    let _ = std::fs::remove_dir_all(&raw_dir);
    let _ = std::fs::remove_dir_all(&delta_dir);
}

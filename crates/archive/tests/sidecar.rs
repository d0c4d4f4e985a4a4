//! Hash-index sidecar durability: whatever happens to the sidecar file —
//! bit flips, truncation, going stale against an appended or compacted
//! archive — loading either uses it verbatim or rebuilds an index
//! identical to a fresh scan. A damaged sidecar can cost a rebuild, never
//! a wrong answer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fork_analytics::{BlockRecord, TxRecord};
use fork_archive::format::keccak_checksum;
use fork_archive::{
    ArchiveConfig, ArchiveReader, ArchiveWriter, Codec, HashIndex, SidecarCheck, SidecarFault,
    SidecarLoad, SIDECAR_FILE,
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
        "fork-sidecar-test-{tag}-{}-{n}",
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

/// Writes `plan` (side, number, txs-per-block) and finishes.
fn write_archive(dir: &std::path::Path, config: ArchiveConfig, plan: &[(u8, u64, u8)]) {
    let mut writer = ArchiveWriter::create_with(dir, config).unwrap();
    let mut tx_n = 0u64;
    for &(side_bit, number, txs) in plan {
        let side = if side_bit == 0 { Side::Eth } else { Side::Etc };
        let b = block(side, number);
        let ts = b.timestamp;
        writer.block(b);
        for _ in 0..txs {
            writer.tx(tx(side, tx_n, ts));
            tx_n += 1;
        }
    }
    writer.finish(None).unwrap();
}

/// Per-side block numbers must ascend; massage an arbitrary plan into shape.
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

fn small_segments() -> ArchiveConfig {
    ArchiveConfig {
        segment_max_bytes: 2 * 1024,
        codec: Codec::Delta,
    }
}

/// Opens the archive and persists a fresh sidecar, asserting it was built
/// (not loaded) because the file did not exist yet.
fn persist_sidecar(dir: &std::path::Path) -> HashIndex {
    let reader = ArchiveReader::open(dir).unwrap();
    let (index, load) = HashIndex::load_or_build(&reader);
    assert_eq!(load, SidecarLoad::Rebuilt(SidecarFault::Missing));
    assert!(dir.join(SIDECAR_FILE).exists(), "sidecar was persisted");
    index
}

proptest! {
    /// Any single corrupted byte anywhere in the sidecar is caught by its
    /// trailing checksum; the rebuilt index equals a fresh scan, and the
    /// rebuild re-persists a sidecar that then verifies clean.
    #[test]
    fn corrupted_byte_forces_identical_rebuild(
        raw in proptest::collection::vec(any::<[u8; 2]>(), 1..40),
        at_pick in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let dir = scratch("flip");
        write_archive(&dir, small_segments(), &normalize_plan(raw));
        let original = persist_sidecar(&dir);

        let path = dir.join(SIDECAR_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = (at_pick as usize) % bytes.len();
        bytes[at] ^= mask;
        std::fs::write(&path, &bytes).unwrap();

        let reader = ArchiveReader::open(&dir).unwrap();
        // verify() reports the damage without repairing anything...
        let report = reader.verify();
        prop_assert!(!report.sidecar.is_clean(), "flip at {at} read as clean");
        prop_assert!(matches!(report.sidecar, SidecarCheck::Corrupt { .. }));

        // ...while load tolerates it: rebuild equals both the fresh scan
        // and the pre-damage index, and the file is healed on disk.
        let (rebuilt, load) = HashIndex::load_or_build(&reader);
        prop_assert!(matches!(load, SidecarLoad::Rebuilt(SidecarFault::Corrupt(_))));
        prop_assert_eq!(&rebuilt, &HashIndex::build(&reader));
        prop_assert_eq!(&rebuilt, &original);
        let healed = reader.verify();
        prop_assert!(matches!(healed.sidecar, SidecarCheck::Valid { .. }));
    }

    /// Any truncation of the sidecar (including to zero) reads as corrupt
    /// and rebuilds identically.
    #[test]
    fn truncated_sidecar_forces_identical_rebuild(
        raw in proptest::collection::vec(any::<[u8; 2]>(), 1..40),
        keep_pick in any::<u64>(),
    ) {
        let dir = scratch("truncate");
        write_archive(&dir, small_segments(), &normalize_plan(raw));
        let original = persist_sidecar(&dir);

        let path = dir.join(SIDECAR_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let keep = (keep_pick as usize) % bytes.len();
        std::fs::write(&path, &bytes[..keep]).unwrap();

        let reader = ArchiveReader::open(&dir).unwrap();
        let report = reader.verify();
        prop_assert!(matches!(report.sidecar, SidecarCheck::Corrupt { .. }));
        let (rebuilt, load) = HashIndex::load_or_build(&reader);
        prop_assert!(matches!(load, SidecarLoad::Rebuilt(SidecarFault::Corrupt(_))));
        prop_assert_eq!(&rebuilt, &original);
    }

    /// Appending to the archive after the sidecar was written leaves an
    /// internally-valid but stale sidecar: detected via the fingerprint,
    /// rebuilt to cover the appended records.
    #[test]
    fn appended_archive_makes_sidecar_stale(
        raw in proptest::collection::vec(any::<[u8; 2]>(), 1..30),
        extra in 1u64..6,
    ) {
        let dir = scratch("append");
        let plan = normalize_plan(raw);
        write_archive(&dir, small_segments(), &plan);
        let before = persist_sidecar(&dir);

        let next_eth = plan.iter().filter(|p| p.0 == 0).map(|p| p.1).max().unwrap_or(0) + 1;
        let mut writer = ArchiveWriter::open_append_with(&dir, small_segments()).unwrap();
        for i in 0..extra {
            writer.block(block(Side::Eth, next_eth + i));
        }
        writer.finish(None).unwrap();

        let reader = ArchiveReader::open(&dir).unwrap();
        let report = reader.verify();
        prop_assert_eq!(&report.sidecar, &SidecarCheck::Stale);
        let (rebuilt, load) = HashIndex::load_or_build(&reader);
        prop_assert_eq!(load, SidecarLoad::Rebuilt(SidecarFault::Stale));
        prop_assert_eq!(&rebuilt, &HashIndex::build(&reader));
        prop_assert_eq!(rebuilt.len(), before.len() + extra as usize);
    }
}

#[test]
fn missing_sidecar_is_clean_then_loads_once_built() {
    let dir = scratch("missing");
    write_archive(&dir, small_segments(), &[(0, 1, 2), (1, 1, 1), (0, 2, 0)]);

    // No sidecar yet: verify is clean (Missing is a legal state).
    let reader = ArchiveReader::open(&dir).unwrap();
    let report = reader.verify();
    assert!(report.is_clean());
    assert_eq!(report.sidecar, SidecarCheck::Missing);

    // First use builds and persists; the second open loads it verbatim.
    let (built, load) = HashIndex::load_or_build(&reader);
    assert_eq!(load, SidecarLoad::Rebuilt(SidecarFault::Missing));
    assert_eq!(built.len(), 6, "3 blocks + 3 txs indexed");
    let reopened = ArchiveReader::open(&dir).unwrap();
    let (loaded, second) = HashIndex::load_or_build(&reopened);
    assert_eq!(second, SidecarLoad::Loaded);
    assert_eq!(loaded, built);
    match reopened.verify().sidecar {
        SidecarCheck::Valid { entries } => assert_eq!(entries, 6),
        other => panic!("expected Valid, got {other:?}"),
    }
}

#[test]
fn compaction_makes_sidecar_stale_and_rebuild_drops_pruned_frames() {
    let dir = scratch("compact");
    // Many blocks over tiny segments so a prefix of segments is prunable.
    let plan: Vec<(u8, u64, u8)> = (1..=40)
        .flat_map(|n| [(0u8, n, 2u8), (1u8, n, 2u8)])
        .collect();
    write_archive(&dir, small_segments(), &plan);
    let before = persist_sidecar(&dir);

    let report = ArchiveWriter::compact_below(&dir, 30).unwrap();
    assert!(report.removed_segments > 0, "compaction pruned nothing");

    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(reader.verify().sidecar, SidecarCheck::Stale);
    let (rebuilt, load) = HashIndex::load_or_build(&reader);
    assert_eq!(load, SidecarLoad::Rebuilt(SidecarFault::Stale));
    assert_eq!(rebuilt, HashIndex::build(&reader));
    assert!(
        rebuilt.len() < before.len(),
        "rebuild still indexes pruned frames: {} vs {}",
        rebuilt.len(),
        before.len()
    );

    // The healed sidecar is fresh for the compacted archive.
    let reopened = ArchiveReader::open(&dir).unwrap();
    let (_, second) = HashIndex::load_or_build(&reopened);
    assert_eq!(second, SidecarLoad::Loaded);
}

/// A sidecar written by format v1 (truncated-Keccak body checksum) is
/// reported as an unsupported version, not a checksum mismatch, and is
/// rebuilt into a current one.
#[test]
fn v1_sidecar_reads_as_unsupported_version_and_is_rebuilt() {
    let dir = scratch("v1");
    write_archive(&dir, small_segments(), &[(0, 1, 2), (1, 1, 1), (0, 2, 3)]);
    let original = persist_sidecar(&dir);

    // Re-seal the current file the way v1 did: version 1, Keccak trailer.
    let path = dir.join(SIDECAR_FILE);
    let v2 = std::fs::read(&path).unwrap();
    let mut v1 = v2[..v2.len() - 4].to_vec();
    v1[8..10].copy_from_slice(&1u16.to_le_bytes());
    let sum = keccak_checksum(&v1);
    v1.extend_from_slice(&sum);
    std::fs::write(&path, &v1).unwrap();

    let unsupported = "unsupported sidecar version 1".to_string();
    let reader = ArchiveReader::open(&dir).unwrap();
    assert_eq!(
        reader.verify().sidecar,
        SidecarCheck::Corrupt {
            detail: unsupported.clone()
        }
    );
    let (rebuilt, load) = HashIndex::load_or_build(&reader);
    assert_eq!(
        load,
        SidecarLoad::Rebuilt(SidecarFault::Corrupt(unsupported))
    );
    assert_eq!(rebuilt, original);
    assert!(
        std::fs::read(&path).unwrap() == v2,
        "rebuild rewrote v2 bytes"
    );
    assert_eq!(
        reader.verify().sidecar,
        SidecarCheck::Valid {
            entries: original.len() as u64
        }
    );
}

/// Echoed transactions — the same hash on both sides — give several
/// entries per hash. The index must order them by `(hash, seq)` whatever
/// the side scan order: here each tx reaches ETC first (lower seq) while
/// the build scans ETH first.
#[test]
fn echoed_hashes_are_indexed_in_hash_then_seq_order() {
    let dir = scratch("echo");
    let mut writer = ArchiveWriter::create_with(&dir, small_segments()).unwrap();
    for number in 1..=30u64 {
        for side in [Side::Etc, Side::Eth] {
            let b = block(side, number);
            let ts = b.timestamp;
            writer.block(b);
            for n in 0..3 {
                writer.tx(tx(side, number * 3 + n, ts));
            }
        }
    }
    writer.finish(None).unwrap();

    let reader = ArchiveReader::open(&dir).unwrap();
    let index = HashIndex::build(&reader);
    let entries = index.entries();
    assert_eq!(entries.len(), 30 * 2 * 4);
    assert!(
        entries
            .windows(2)
            .all(|w| (w[0].hash.0, w[0].seq) < (w[1].hash.0, w[1].seq)),
        "entries not strictly ascending by (hash, seq)"
    );
    for number in 1..=30u64 {
        let hash = tx(Side::Eth, number * 3, 0).hash;
        let hits = index.candidates(&hash);
        assert!(hits.len() >= 2, "tx {number}: {} entries", hits.len());
        assert!(
            hits.windows(2).all(|w| w[0].seq < w[1].seq),
            "tx {number}: candidates not ascending in seq"
        );
        assert_eq!(hits[0].side, Side::Etc, "tx {number}: ETC saw it first");
    }
}

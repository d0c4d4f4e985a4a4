//! Compatibility and crash gates on a real pre-v3 archive.
//!
//! `figures/archive` was written before format v3: v2 superblocks, the
//! `Raw` codec and truncated-keccak frame checksums. Every build must keep
//! reading it exactly — verify clean, sidecar loaded rather than rebuilt,
//! pooled queries equal to naive scans — and appending to it must roll into
//! CRC32C (v3) segments that survive a crash at any byte. It is also the
//! ledger `ForkStudy::quick(2016)` writes, so a fresh run must reproduce
//! its records exactly.
//!
//! Tests that may write (sidecar rebuilds, appends, truncations) work on a
//! temp copy; the committed files are read only, and checked unchanged.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use stick_a_fork::analytics::{BlockRecord, TxRecord};
use stick_a_fork::archive::format::keccak_checksum;
use stick_a_fork::archive::{
    archive_format_version, ArchiveConfig, ArchiveReader, ArchiveRecord, ArchiveWriter, HashIndex,
    SidecarCheck, SidecarFault, SidecarLoad, SIDECAR_FILE,
};
use stick_a_fork::core::ForkStudy;
use stick_a_fork::primitives::{Address, H256, U256};
use stick_a_fork::query::{
    FrameCache, Lookup, Projection, Query, QueryExecutor, QueryRange, ReaderPool,
};
use stick_a_fork::replay::Side;
use stick_a_fork::sim::LedgerSink;

/// Frames in the committed archive, measured when it was committed.
const FIXTURE_FRAMES: u64 = 2_099;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("figures/archive")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fork-compat-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir` with its bytes, by path relative to `dir`.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

fn copy_archive(from: &Path, tag: &str) -> PathBuf {
    let to = scratch(tag);
    for (rel, bytes) in snapshot(from) {
        let path = to.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
    }
    to
}

/// Segment file paths of one side, in segment order.
fn segment_paths(reader: &ArchiveReader, side: Side) -> Vec<PathBuf> {
    reader
        .segments(side)
        .iter()
        .map(|(p, _)| p.clone())
        .collect()
}

fn version_byte(path: &Path) -> u16 {
    let bytes = std::fs::read(path).unwrap();
    u16::from_le_bytes([bytes[8], bytes[9]])
}

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

fn replayed(reader: &ArchiveReader) -> Vec<ArchiveRecord> {
    let mut sink = CollectSink::default();
    reader.replay_into_sink(&mut sink).unwrap();
    sink.0
}

/// Every projection over the whole archive, a block window and a time
/// window, on both sides.
fn every_projection(reader: &ArchiveReader) -> Vec<Query> {
    let (mut lo, mut hi, mut t_lo, mut t_hi) = (u64::MAX, 0, u64::MAX, 0);
    for side in [Side::Eth, Side::Etc] {
        for (_, scan) in reader.segments(side) {
            if let (Some((a, b)), Some((c, d))) = (scan.block_range, scan.time_range) {
                (lo, hi, t_lo, t_hi) = (lo.min(a), hi.max(b), t_lo.min(c), t_hi.max(d));
            }
        }
    }
    let blocks = QueryRange::Blocks {
        first: lo + (hi - lo) / 4,
        last: hi - (hi - lo) / 4,
    };
    let time = QueryRange::Time {
        start: t_lo + (t_hi - t_lo) / 4,
        end: t_hi - (t_hi - t_lo) / 4,
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
            for projection in [Projection::Txs, Projection::Echoes { window_days: 1 }] {
                queries.push(Query {
                    side: Some(side),
                    range,
                    projection,
                });
            }
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
fn committed_v2_archive_still_reads_exactly() {
    let before = snapshot(&fixture());
    let reader = ArchiveReader::open(&fixture()).unwrap();
    for side in [Side::Eth, Side::Etc] {
        for (path, scan) in reader.segments(side) {
            assert_eq!(scan.superblock.version, 2, "{}", path.display());
        }
    }
    let verify = reader.verify();
    assert_eq!(verify.totals(), (FIXTURE_FRAMES, 0, 0));
    assert!(verify.is_clean());
    assert_eq!(archive_format_version(&reader), 1, "v2 + Raw reads as v1");

    // Pooled (through a cache small enough to evict) == naive, for every
    // projection, read-only over the committed files.
    let pool = ReaderPool::new(
        ArchiveReader::open(&fixture()).unwrap(),
        FrameCache::new(64 << 10, 4),
    );
    let queries = every_projection(&reader);
    let exec = QueryExecutor::new(2);
    for (q, got) in queries.iter().zip(exec.run_batch(&pool, &queries)) {
        let want = QueryExecutor::run_naive(&reader, q).unwrap();
        assert_eq!(got.unwrap(), want, "pooled != naive for {q:?}");
    }

    // The persisted sidecar is loaded, not rebuilt. On a copy, because a
    // rebuild would rewrite it.
    let copy = copy_archive(&fixture(), "sidecar");
    let copy_reader = ArchiveReader::open(&copy).unwrap();
    let (index, load) = HashIndex::load_or_build(&copy_reader);
    assert_eq!(load, SidecarLoad::Loaded);
    assert_eq!(index.len() as u64, FIXTURE_FRAMES);
    // Hash lookups read keccak-sealed frames through the cache.
    let pool = ReaderPool::open(&copy).unwrap();
    let records = replayed(&copy_reader);
    for rec in records.iter().step_by(97) {
        let lookup = match rec {
            ArchiveRecord::Block(b) => Lookup::BlockByHash { hash: b.hash },
            ArchiveRecord::Tx(t) => Lookup::TxByHash { hash: t.hash },
        };
        let got = exec.run_lookup(&pool, &lookup).unwrap();
        let want = QueryExecutor::run_lookup_naive(&copy_reader, &lookup).unwrap();
        assert_eq!(got, want, "{lookup:?}");
    }
    let _ = std::fs::remove_dir_all(&copy);

    assert!(before == snapshot(&fixture()), "figures/archive changed");
}

/// Every record of one side, in write order.
fn side_records(reader: &ArchiveReader, side: Side) -> Vec<ArchiveRecord> {
    reader.records(side).map(|r| r.unwrap().1).collect()
}

/// The committed ledger is `ForkStudy::quick(2016)`'s output. A fresh run
/// must still write it record for record: a changed header hash, seal
/// nonce, transaction hash or selection shows up here.
#[test]
fn simulator_still_writes_the_committed_ledger() {
    let dir = scratch("quick-2016");
    ForkStudy::quick(2016).archive_to(&dir).unwrap();
    let fresh = ArchiveReader::open(&dir).unwrap();
    let committed = ArchiveReader::open(&fixture()).unwrap();
    for (side, expected) in [(Side::Eth, 1_812), (Side::Etc, 287)] {
        let want = side_records(&committed, side);
        assert_eq!(want.len(), expected, "{side:?} fixture records");
        let got = side_records(&fresh, side);
        assert_eq!(got.len(), want.len(), "{side:?} record count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{side:?} record {i}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rewriting_the_fixture_as_v3_changes_only_versions_and_checksums() {
    let fixture_reader = ArchiveReader::open(&fixture()).unwrap();
    let dir = scratch("rewrite");
    let mut writer = ArchiveWriter::create_with(&dir, ArchiveConfig::default()).unwrap();
    fixture_reader.replay_into_sink(&mut writer).unwrap();
    writer.finish(fixture_reader.meta()).unwrap();

    let reader = ArchiveReader::open(&dir).unwrap();
    assert!(reader.verify().is_clean());
    assert_eq!(archive_format_version(&reader), 3);
    for side in [Side::Eth, Side::Etc] {
        let old = segment_paths(&fixture_reader, side);
        let new = segment_paths(&reader, side);
        assert_eq!(old.len(), new.len(), "{side:?} segment count");
        for (old, new) in old.iter().zip(&new) {
            let (a, b) = (std::fs::read(old).unwrap(), std::fs::read(new).unwrap());
            assert_eq!(a.len(), b.len(), "{} size", new.display());
            assert_eq!(version_byte(new), 3);
            // Bytes that may differ: the superblock's version and checksum,
            // and each frame's 4 checksum bytes.
            let mut may_differ = vec![false; a.len()];
            may_differ[8..10].fill(true);
            may_differ[28..32].fill(true);
            let mut pos = 32;
            while pos < a.len() {
                may_differ[pos + 4..pos + 8].fill(true);
                pos += 8 + u32::from_le_bytes(a[pos..pos + 4].try_into().unwrap()) as usize;
            }
            for i in 0..a.len() {
                assert!(
                    a[i] == b[i] || may_differ[i],
                    "{} differs at byte {i}",
                    new.display()
                );
            }
        }
    }

    // Same records, same layout: the sidecar and manifest come out
    // byte-identical to the committed ones.
    let (_, load) = HashIndex::load_or_build(&reader);
    assert!(matches!(load, SidecarLoad::Rebuilt(_)));
    for file in [SIDECAR_FILE, "manifest.json"] {
        assert!(
            std::fs::read(dir.join(file)).unwrap() == std::fs::read(fixture().join(file)).unwrap(),
            "{file} differs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed sidecar as sidecar format v1 wrote it: the same header
/// and entries, version 1, and a truncated-Keccak body checksum. This is
/// byte for byte the file committed before the v2 bump.
fn v1_sidecar(v2: &[u8]) -> Vec<u8> {
    let mut body = v2[..v2.len() - 4].to_vec();
    body[8..10].copy_from_slice(&1u16.to_le_bytes());
    let sum = keccak_checksum(&body);
    body.extend_from_slice(&sum);
    body
}

/// A pre-v2 sidecar next to the committed archive is reported as an
/// unsupported version — not as a checksum mismatch — and rebuilt into
/// exactly the committed v2 file.
#[test]
fn a_v1_sidecar_reads_as_unsupported_and_rebuilds_to_the_committed_one() {
    let committed = std::fs::read(fixture().join(SIDECAR_FILE)).unwrap();
    assert_eq!(u16::from_le_bytes([committed[8], committed[9]]), 2);
    let dir = copy_archive(&fixture(), "sidecar-v1");
    std::fs::write(dir.join(SIDECAR_FILE), v1_sidecar(&committed)).unwrap();

    let unsupported = "unsupported sidecar version 1".to_string();
    let reader = ArchiveReader::open(&dir).unwrap();
    let report = reader.verify();
    assert_eq!(
        report.sidecar,
        SidecarCheck::Corrupt {
            detail: unsupported.clone()
        }
    );
    assert_eq!(report.totals(), (FIXTURE_FRAMES, 0, 0), "frames unaffected");
    let (index, load) = HashIndex::load_or_build(&reader);
    assert_eq!(
        load,
        SidecarLoad::Rebuilt(SidecarFault::Corrupt(unsupported))
    );
    assert_eq!(index.len() as u64, FIXTURE_FRAMES);
    assert!(
        std::fs::read(dir.join(SIDECAR_FILE)).unwrap() == committed,
        "rebuilt sidecar differs from the committed one"
    );
    let reopened = ArchiveReader::open(&dir).unwrap();
    assert!(reopened.verify().is_clean());
    assert_eq!(HashIndex::load_or_build(&reopened).1, SidecarLoad::Loaded);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `count` blocks per side continuing each side's tip, with 0–2 txs each,
/// hashed apart from anything a simulation writes.
fn continuation(records: &[ArchiveRecord], start: u64, count: u64) -> Vec<ArchiveRecord> {
    let tip = |side: Side| {
        records
            .iter()
            .filter_map(|r| match r {
                ArchiveRecord::Block(b) if b.network == side => Some((b.number, b.timestamp)),
                _ => None,
            })
            .next_back()
            .unwrap()
    };
    let mut out = Vec::new();
    for i in start..start + count {
        for (s, side) in [Side::Eth, Side::Etc].into_iter().enumerate() {
            let (number, ts) = tip(side);
            let mut hash = [0xA5; 32];
            hash[..8].copy_from_slice(&i.to_le_bytes());
            hash[8] = s as u8;
            let timestamp = ts + 14 * (i + 1);
            out.push(ArchiveRecord::Block(BlockRecord {
                network: side,
                number: number + 1 + i,
                hash: H256(hash),
                timestamp,
                difficulty: U256::from_u64(62_000_000_000 + i),
                beneficiary: Address([s as u8; 20]),
                gas_used: 21_000 * (i % 3),
                tx_count: (i % 3) as u32,
                ommer_count: 0,
            }));
            for j in 0..i % 3 {
                hash[9] = 1 + j as u8;
                out.push(ArchiveRecord::Tx(TxRecord {
                    network: side,
                    hash: H256(hash),
                    timestamp,
                    is_contract: j == 0,
                    has_chain_id: true,
                    value: U256::from_u64(i * 1_000 + j),
                }));
            }
        }
    }
    out
}

fn append(dir: &Path, config: ArchiveConfig, records: &[ArchiveRecord]) {
    let mut writer = ArchiveWriter::open_append_with(dir, config).unwrap();
    for rec in records {
        match rec.clone() {
            ArchiveRecord::Block(b) => writer.block(b),
            ArchiveRecord::Tx(t) => writer.tx(t),
        }
    }
    writer.finish(None).unwrap();
}

/// One side's records with their seqs, as `(seq, hash)`.
fn side_keys(reader: &ArchiveReader, side: Side) -> Vec<(u64, H256)> {
    reader
        .records(side)
        .map(|item| {
            let (seq, rec) = item.unwrap();
            let hash = match rec {
                ArchiveRecord::Block(b) => b.hash,
                ArchiveRecord::Tx(t) => t.hash,
            };
            (seq, hash)
        })
        .collect()
}

#[test]
fn appending_rolls_from_the_keccak_tail_into_v3_and_survives_a_crash_at_any_byte() {
    let dir = copy_archive(&fixture(), "append");
    // Appends make the copied sidecar stale, which verify() reports; the
    // sweep below builds its own.
    std::fs::remove_file(dir.join(SIDECAR_FILE)).unwrap();
    let base = replayed(&ArchiveReader::open(&dir).unwrap());

    // First onto the v2 tails themselves (they keep keccak frames), then
    // with small segments, which rolls both sides into v3 segments.
    let into_tail = continuation(&base, 0, 2);
    append(&dir, ArchiveConfig::default(), &into_tail);
    let reader = ArchiveReader::open(&dir).unwrap();
    assert!(reader.verify().is_clean());
    for side in [Side::Eth, Side::Etc] {
        assert_eq!(
            reader.segments(side).len(),
            1,
            "{side:?} stayed in its tail"
        );
        assert_eq!(reader.segments(side)[0].1.superblock.version, 2);
    }
    let rolled = continuation(&base, 2, 12);
    append(
        &dir,
        ArchiveConfig {
            segment_max_bytes: 400,
            ..ArchiveConfig::default()
        },
        &rolled,
    );

    let reader = ArchiveReader::open(&dir).unwrap();
    let verify = reader.verify();
    assert!(verify.is_clean());
    let intended: Vec<ArchiveRecord> = [base, into_tail, rolled].concat();
    assert_eq!(verify.totals().0, intended.len() as u64);
    assert!(
        replayed(&reader) == intended,
        "replay != the appended stream"
    );
    for side in [Side::Eth, Side::Etc] {
        let segs = segment_paths(&reader, side);
        assert!(segs.len() >= 4, "{side:?} rolled only {} times", segs.len());
        for (i, path) in segs.iter().enumerate() {
            assert_eq!(version_byte(path), if i == 0 { 2 } else { 3 });
        }
    }
    assert_eq!(archive_format_version(&reader), 3);

    // A crash can tear each side's byte stream anywhere. Cut ETH's at every
    // offset of its last two segments (one sweep per segment, in parallel):
    // the cut segment keeps `keep` bytes and anything after it was never
    // written.
    let sweep = CrashSweep {
        keys: [Side::Eth, Side::Etc].map(|side| side_keys(&reader, side)),
        tail: segment_paths(&reader, Side::Eth)
            .iter()
            .rev()
            .take(2)
            .rev()
            .map(|p| {
                (
                    p.strip_prefix(&dir).unwrap().to_path_buf(),
                    std::fs::read(p).unwrap(),
                )
            })
            .collect(),
        intact: reader
            .segments(Side::Eth)
            .iter()
            .rev()
            .skip(2)
            .map(|(_, s)| s.frames as usize)
            .sum(),
    };
    drop(reader);
    std::thread::scope(|scope| {
        for cut in 0..2 {
            let (sweep, dir) = (&sweep, &dir);
            scope.spawn(move || sweep.run(dir, cut));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash states of one side's last two segments, checked against the
/// intact archive they were cut from.
struct CrashSweep {
    /// Each side's `(seq, hash)` stream before any cut: `[ETH, ETC]`.
    keys: [Vec<(u64, H256)>; 2],
    /// ETH's last two segments: path relative to the archive, full bytes.
    tail: Vec<(PathBuf, Vec<u8>)>,
    /// ETH records in the segments before them, which no cut may lose.
    intact: usize,
}

impl CrashSweep {
    /// Cuts tail segment `cut` at every offset, on a private copy of `src`.
    fn run(&self, src: &Path, cut: usize) {
        let dir = copy_archive(src, &format!("sweep-{cut}"));
        for keep in 0..self.tail[cut].1.len() {
            for (i, (rel, full)) in self.tail.iter().enumerate() {
                let path = dir.join(rel);
                match i.cmp(&cut) {
                    std::cmp::Ordering::Less => std::fs::write(path, full).unwrap(),
                    std::cmp::Ordering::Equal => std::fs::write(path, &full[..keep]).unwrap(),
                    std::cmp::Ordering::Greater => {
                        let _ = std::fs::remove_file(path);
                    }
                }
            }
            let at = format!("{} cut to {keep} bytes", self.tail[cut].0.display());

            // Before any repair: the reader and the rebuilt sidecar see a
            // prefix of ETH and all of ETC.
            let reader = ArchiveReader::open(&dir).unwrap();
            let (index, _) = HashIndex::load_or_build(&reader);
            let indexed = |side: Side| {
                let mut keys: Vec<(u64, H256)> = index
                    .entries()
                    .iter()
                    .filter(|e| e.side == side)
                    .map(|e| (e.seq, e.hash))
                    .collect();
                keys.sort();
                keys
            };
            self.check(&indexed(Side::Eth), &indexed(Side::Etc), &at);

            // Append-reopen repairs the tear; what is left verifies clean
            // (sidecar included) and reads the same prefix.
            drop(ArchiveWriter::open_append(&dir).unwrap());
            let reader = ArchiveReader::open(&dir).unwrap();
            let verify = reader.verify();
            assert!(verify.is_clean(), "{at}: {verify:?}");
            let eth = side_keys(&reader, Side::Eth);
            self.check(&eth, &side_keys(&reader, Side::Etc), &at);
            assert_eq!(indexed(Side::Eth), eth, "{at}: sidecar and stream disagree");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn check(&self, eth: &[(u64, H256)], etc: &[(u64, H256)], at: &str) {
        assert!(self.keys[0].starts_with(eth), "{at}: ETH is not a prefix");
        assert!(eth.len() >= self.intact, "{at}: lost an intact segment");
        assert_eq!(etc, self.keys[1], "{at}: ETC changed");
    }
}

//! Persistent hash-index sidecar: block/tx hash → frame location.
//!
//! The open-time scan builds sparse *number/time* indexes only; point
//! lookups by hash would otherwise be full scans. [`HashIndex`] maps every
//! record's hash to `(side, segment, frame offset, seq)` and persists next
//! to the archive as a single [`SIDECAR_FILE`]:
//!
//! ```text
//! magic "FARCHHX1" (8) · version u16 LE (2) · reserved u16 (2)
//! · archive fingerprint (4) · entry count u64 LE (8)
//! · count × 54-byte entries, sorted by (hash, seq)
//! · CRC32C (LE) over everything above (4)
//! ```
//!
//! Each entry is `hash (32) · kind u8 · side u8 · segment u32 LE ·
//! offset u64 LE · seq u64 LE`. The **fingerprint** is a truncated-keccak
//! over every segment's `(side, segment id, valid_len)` triple, so an
//! append, a compaction, or a torn-tail truncation all invalidate the
//! sidecar — a stale file is detected and rebuilt, never trusted.
//!
//! The body checksum is [`checksum`] (CRC32C, the same kernel as v3
//! frames) since sidecar version 2; version 1 sealed it with truncated
//! Keccak. Magic and version are checked before the body checksum, so a
//! version-1 file reads as `Corrupt("unsupported sidecar version 1")` and
//! is rebuilt. The fingerprint stays [`keccak_checksum`]: it identifies an
//! archive state, and clients see it. Neither depends on the segments'
//! format version, so the same records give the same sidecar bytes over
//! v2 and v3 segments.
//!
//! The sidecar is a pure accelerator: [`HashIndex::load_or_build`] never
//! fails. A missing, torn, corrupt, or stale file is silently replaced by
//! a fresh scan-built index (persisted best-effort via write-to-temp +
//! rename), and entries only ever point at frames the checksummed read
//! path then re-verifies — a lookup through the index returns exactly the
//! bytes a naive scan would.

use std::path::Path;

use fork_primitives::H256;
use fork_replay::Side;

use crate::format::{
    checksum, keccak_checksum, ArchiveRecord, Codec, CHECKSUM_LEN, CRC32C_VERSION, SUPERBLOCK_LEN,
    VERSION,
};
use crate::reader::ArchiveReader;
use crate::segment::SegmentCursor;

/// Sidecar file name, at the archive root next to `manifest.json`.
pub const SIDECAR_FILE: &str = "hash-index.sidecar";

/// Magic bytes opening the sidecar file.
pub const SIDECAR_MAGIC: &[u8; 8] = b"FARCHHX1";

/// Sidecar format version: 2 seals the body with CRC32C ([`checksum`]);
/// version 1 (truncated Keccak) is no longer read, only rebuilt.
pub const SIDECAR_VERSION: u16 = 2;

/// Fixed header length: magic + version + reserved + fingerprint + count.
const HEADER_LEN: usize = 8 + 2 + 2 + CHECKSUM_LEN + 8;

/// Encoded entry length: hash + kind + side + segment + offset + seq.
const ENTRY_LEN: usize = 32 + 1 + 1 + 4 + 8 + 8;

/// One hash-index entry: where a record with this hash lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// The record's block or tx hash.
    pub hash: H256,
    /// [`KIND_BLOCK`](crate::format::KIND_BLOCK) or
    /// [`KIND_TX`](crate::format::KIND_TX).
    pub kind: u8,
    /// Which side's stream holds the frame.
    pub side: Side,
    /// Segment id (the superblock's `segment` field).
    pub segment: u32,
    /// Frame byte offset within the segment file.
    pub offset: u64,
    /// Global sequence number stamped into the frame.
    pub seq: u64,
}

/// Why [`HashIndex::load_or_build`] could not use the on-disk sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidecarFault {
    /// No sidecar file on disk.
    Missing,
    /// Present but structurally invalid or failing its checksum.
    Corrupt(String),
    /// Internally valid but built from a different archive state (the
    /// archive was appended, truncated, or compacted since).
    Stale,
}

/// How [`HashIndex::load_or_build`] obtained the index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SidecarLoad {
    /// The persisted sidecar was valid and fresh.
    Loaded,
    /// The sidecar was unusable for the contained reason; the index was
    /// rebuilt by a scan (and re-persisted best-effort).
    Rebuilt(SidecarFault),
}

/// Sidecar state as seen by [`ArchiveReader::verify`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SidecarCheck {
    /// No sidecar on disk — legal; one is built on first use.
    #[default]
    Missing,
    /// Present, checksum-valid, and matching the archive fingerprint.
    Valid {
        /// Number of entries in the sidecar.
        entries: u64,
    },
    /// Present but corrupt (regenerated on next load).
    Corrupt {
        /// What failed.
        detail: String,
    },
    /// Present but built from a different archive state.
    Stale,
}

impl SidecarCheck {
    /// Whether the sidecar is in an acceptable state (valid, or simply not
    /// built yet). `Corrupt` and `Stale` are detected-damage states.
    pub fn is_clean(&self) -> bool {
        matches!(self, SidecarCheck::Missing | SidecarCheck::Valid { .. })
    }
}

/// Truncated-keccak fingerprint over every segment's identity and valid
/// length, in side-major scan order. Any append, truncation, or compaction
/// changes it, so it pins a sidecar to one exact archive state.
pub fn archive_fingerprint(reader: &ArchiveReader) -> [u8; CHECKSUM_LEN] {
    let mut buf = Vec::new();
    for side in [Side::Eth, Side::Etc] {
        for (_, scan) in reader.segments(side) {
            buf.push(match side {
                Side::Eth => 0,
                Side::Etc => 1,
            });
            buf.extend_from_slice(&scan.superblock.segment.to_le_bytes());
            buf.extend_from_slice(&scan.valid_len.to_le_bytes());
        }
    }
    keccak_checksum(&buf)
}

/// Format version required to read this archive: the highest version any
/// segment demands, or the current writer version for an empty archive.
/// A v3 segment demands v3 (its frames carry CRC32C checksums); an older
/// one demands what its codec needs (`Delta` frames are a v2 feature;
/// `Raw` reads as v1). Clients key caches on this plus the fingerprint.
pub fn archive_format_version(reader: &ArchiveReader) -> u16 {
    [Side::Eth, Side::Etc]
        .into_iter()
        .flat_map(|side| reader.segments(side))
        .map(|(_, scan)| {
            let sb = scan.superblock;
            if sb.version >= CRC32C_VERSION {
                sb.version
            } else {
                match sb.codec {
                    Codec::Raw => 1,
                    Codec::Delta => 2,
                }
            }
        })
        .max()
        .unwrap_or(VERSION)
}

/// In-memory hash index over one opened archive. See the [module
/// docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashIndex {
    entries: Vec<IndexEntry>,
    fingerprint: [u8; CHECKSUM_LEN],
}

impl HashIndex {
    /// Builds the index by scanning every readable frame. Infallible by
    /// design: unreadable segments or corrupt frames simply contribute
    /// nothing (mirroring what any scan of this archive can deliver).
    pub fn build(reader: &ArchiveReader) -> HashIndex {
        let mut entries = Vec::new();
        for side in [Side::Eth, Side::Etc] {
            for (path, scan) in reader.segments(side) {
                let Ok(mut cursor) = SegmentCursor::open(
                    path,
                    scan.superblock,
                    SUPERBLOCK_LEN as u64,
                    scan.valid_len,
                ) else {
                    continue;
                };
                while let Some(frame) = cursor.next_frame() {
                    let Ok((offset, seq, record)) = frame else {
                        break; // corrupt frame: offsets beyond it are untrustworthy
                    };
                    let (kind, hash) = match &record {
                        ArchiveRecord::Block(b) => (crate::format::KIND_BLOCK, b.hash),
                        ArchiveRecord::Tx(t) => (crate::format::KIND_TX, t.hash),
                    };
                    entries.push(IndexEntry {
                        hash,
                        kind,
                        side,
                        segment: scan.superblock.segment,
                        offset,
                        seq,
                    });
                }
            }
        }
        // `seq` is unique, so an unstable sort gives the one order there is.
        entries.sort_unstable_by(entry_order);
        HashIndex {
            entries,
            fingerprint: archive_fingerprint(reader),
        }
    }

    /// Loads the persisted sidecar if it is valid and fresh, else rebuilds
    /// from a scan and re-persists best-effort (an unwritable directory
    /// still yields a working in-memory index).
    pub fn load_or_build(reader: &ArchiveReader) -> (HashIndex, SidecarLoad) {
        match try_load(reader.dir(), archive_fingerprint(reader)) {
            Ok(index) => (index, SidecarLoad::Loaded),
            Err(fault) => {
                let index = HashIndex::build(reader);
                let _ = index.write_to(reader.dir());
                (index, SidecarLoad::Rebuilt(fault))
            }
        }
    }

    /// All entries whose hash equals `hash`, ascending by seq (possibly
    /// several: hashes are not required to be unique across records).
    pub fn candidates(&self, hash: &H256) -> &[IndexEntry] {
        let lo = self.entries.partition_point(|e| e.hash.0 < hash.0);
        let hi = self.entries.partition_point(|e| e.hash.0 <= hash.0);
        &self.entries[lo..hi]
    }

    /// Every entry, sorted by `(hash, seq)`.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the archive had no readable records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The archive fingerprint this index was built against.
    pub fn fingerprint(&self) -> [u8; CHECKSUM_LEN] {
        self.fingerprint
    }

    /// Serializes and atomically persists the sidecar (write to a temp
    /// file, then rename over [`SIDECAR_FILE`]).
    pub fn write_to(&self, dir: &Path) -> Result<(), crate::ArchiveError> {
        let bytes = self.encode();
        let tmp = dir.join(format!("{SIDECAR_FILE}.tmp"));
        let path = dir.join(SIDECAR_FILE);
        std::fs::write(&tmp, &bytes).map_err(|e| crate::ArchiveError::Io {
            path: tmp.clone(),
            source: e,
        })?;
        std::fs::rename(&tmp, &path).map_err(|e| crate::ArchiveError::Io { path, source: e })
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.entries.len() * ENTRY_LEN + 4);
        out.extend_from_slice(SIDECAR_MAGIC);
        out.extend_from_slice(&SIDECAR_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.fingerprint);
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.hash.0);
            out.push(e.kind);
            out.push(match e.side {
                Side::Eth => 0,
                Side::Etc => 1,
            });
            out.extend_from_slice(&e.segment.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.seq.to_le_bytes());
        }
        let sum = checksum(&out);
        out.extend_from_slice(&sum);
        out
    }
}

/// The index order: by hash, then by `seq`. Compares the hashes in place
/// rather than through a copied `(hash, seq)` key.
fn entry_order(a: &IndexEntry, b: &IndexEntry) -> std::cmp::Ordering {
    a.hash.0.cmp(&b.hash.0).then(a.seq.cmp(&b.seq))
}

/// Validates the on-disk sidecar against the opened archive, for
/// [`ArchiveReader::verify`]. Never touches or rewrites the file.
pub(crate) fn check_sidecar(reader: &ArchiveReader) -> SidecarCheck {
    match try_load(reader.dir(), archive_fingerprint(reader)) {
        Ok(index) => SidecarCheck::Valid {
            entries: index.entries.len() as u64,
        },
        Err(SidecarFault::Missing) => SidecarCheck::Missing,
        Err(SidecarFault::Corrupt(detail)) => SidecarCheck::Corrupt { detail },
        Err(SidecarFault::Stale) => SidecarCheck::Stale,
    }
}

fn try_load(dir: &Path, expect_fingerprint: [u8; CHECKSUM_LEN]) -> Result<HashIndex, SidecarFault> {
    let path = dir.join(SIDECAR_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(SidecarFault::Missing),
        Err(e) => return Err(SidecarFault::Corrupt(format!("unreadable: {e}"))),
    };
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SidecarFault::Corrupt(format!(
            "{} bytes: shorter than a header",
            bytes.len()
        )));
    }
    // Magic and version first: an older version's body checksum is a
    // different function, so checking it would misreport the file.
    if &bytes[0..8] != SIDECAR_MAGIC {
        return Err(SidecarFault::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    if version != SIDECAR_VERSION {
        return Err(SidecarFault::Corrupt(format!(
            "unsupported sidecar version {version}"
        )));
    }
    let (body, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    if checksum(body) != tail {
        return Err(SidecarFault::Corrupt("file checksum mismatch".into()));
    }
    let mut fingerprint = [0u8; CHECKSUM_LEN];
    fingerprint.copy_from_slice(&body[12..12 + CHECKSUM_LEN]);
    let count = u64::from_le_bytes(body[12 + CHECKSUM_LEN..HEADER_LEN].try_into().unwrap());
    let entry_bytes = &body[HEADER_LEN..];
    if entry_bytes.len() % ENTRY_LEN != 0 || count != (entry_bytes.len() / ENTRY_LEN) as u64 {
        return Err(SidecarFault::Corrupt(format!(
            "entry count {count} does not match {} entry bytes",
            entry_bytes.len()
        )));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for chunk in entry_bytes.chunks_exact(ENTRY_LEN) {
        let mut hash = [0u8; 32];
        hash.copy_from_slice(&chunk[0..32]);
        let kind = chunk[32];
        if kind != crate::format::KIND_BLOCK && kind != crate::format::KIND_TX {
            return Err(SidecarFault::Corrupt(format!("unknown record kind {kind}")));
        }
        let side = match chunk[33] {
            0 => Side::Eth,
            1 => Side::Etc,
            b => return Err(SidecarFault::Corrupt(format!("unknown side byte {b}"))),
        };
        entries.push(IndexEntry {
            hash: H256(hash),
            kind,
            side,
            segment: u32::from_le_bytes(chunk[34..38].try_into().unwrap()),
            offset: u64::from_le_bytes(chunk[38..46].try_into().unwrap()),
            seq: u64::from_le_bytes(chunk[46..54].try_into().unwrap()),
        });
    }
    if !entries.is_sorted_by(|a, b| entry_order(a, b).is_le()) {
        return Err(SidecarFault::Corrupt("entries out of order".into()));
    }
    // Freshness last: a structurally sound sidecar for a changed archive is
    // Stale, not Corrupt — callers may want to distinguish.
    if fingerprint != expect_fingerprint {
        return Err(SidecarFault::Stale);
    }
    Ok(HashIndex {
        entries,
        fingerprint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{KIND_BLOCK, KIND_TX};

    fn sample() -> HashIndex {
        let entry = |hash: u8, kind: u8, seq: u64| IndexEntry {
            hash: H256([hash; 32]),
            kind,
            side: if seq.is_multiple_of(2) {
                Side::Eth
            } else {
                Side::Etc
            },
            segment: (seq / 10) as u32,
            offset: 32 + seq * 133,
            seq,
        };
        let mut entries = vec![
            entry(7, KIND_BLOCK, 4),
            entry(7, KIND_TX, 9),
            entry(7, KIND_BLOCK, 12),
            entry(3, KIND_TX, 2),
            entry(200, KIND_BLOCK, 1),
        ];
        entries.sort_unstable_by(entry_order);
        HashIndex {
            entries,
            fingerprint: [0xAA, 0xBB, 0xCC, 0xDD],
        }
    }

    #[test]
    fn roundtrips_through_encode() {
        let index = sample();
        let dir = std::env::temp_dir().join(format!("sidecar-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        index.write_to(&dir).unwrap();
        let loaded = try_load(&dir, index.fingerprint()).unwrap();
        assert_eq!(loaded, index);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn candidates_are_the_hash_run_in_seq_order() {
        let index = sample();
        let hits = index.candidates(&H256([7; 32]));
        assert_eq!(hits.len(), 3);
        assert!(hits.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(index.candidates(&H256([5; 32])).is_empty());
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_stale() {
        let index = sample();
        let clean = index.encode();
        let dir = std::env::temp_dir().join(format!("sidecar-flip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SIDECAR_FILE);
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                try_load(&dir, index.fingerprint()).is_err(),
                "flip at byte {i} of {} accepted",
                clean.len()
            );
        }
        std::fs::write(&path, &clean).unwrap();
        assert!(try_load(&dir, index.fingerprint()).is_ok());
        // A different expected fingerprint is Stale, not Corrupt.
        assert_eq!(
            try_load(&dir, [9, 9, 9, 9]),
            Err(SidecarFault::Stale),
            "fingerprint mismatch must read as stale"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes one segment file per `(side, version, codec)` by hand — the
    /// writer only creates current-version segments — each holding one
    /// block frame sealed with that version's frame checksum.
    fn archive_of(tag: &str, segments: &[(Side, u16, Codec)]) -> std::path::PathBuf {
        use crate::format::{encode_frame_in, segment_file_name, side_dir_name, Superblock};
        let dir = std::env::temp_dir().join(format!("sidecar-ver-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (i, &(side, version, codec)) in segments.iter().enumerate() {
            let sb = Superblock {
                version,
                side,
                codec,
                segment: i as u32,
                first_seq: i as u64,
                base_time: 0,
            };
            let record = ArchiveRecord::Block(fork_analytics::BlockRecord {
                network: side,
                number: i as u64,
                hash: H256([i as u8; 32]),
                timestamp: 1_000 + i as u64,
                difficulty: fork_primitives::U256::from_u64(7),
                beneficiary: fork_primitives::Address([1; 20]),
                gas_used: 0,
                tx_count: 0,
                ommer_count: 0,
            });
            let mut bytes = sb.encode().to_vec();
            bytes.extend_from_slice(&encode_frame_in(&sb, &record, i as u64));
            let side_dir = dir.join(side_dir_name(side));
            std::fs::create_dir_all(&side_dir).unwrap();
            std::fs::write(side_dir.join(segment_file_name(i as u32)), bytes).unwrap();
        }
        dir
    }

    /// One segment per `(side, version, codec)`.
    type Layout = &'static [(Side, u16, Codec)];

    #[test]
    fn format_version_is_the_highest_any_segment_demands() {
        let cases: [(&str, Layout, u16); 6] = [
            ("v1", &[(Side::Eth, 1, Codec::Raw)], 1),
            ("v2-raw", &[(Side::Eth, 2, Codec::Raw)], 1),
            ("v2-delta", &[(Side::Etc, 2, Codec::Delta)], 2),
            ("v3-raw", &[(Side::Eth, 3, Codec::Raw)], 3),
            (
                "mixed-v2",
                &[(Side::Eth, 1, Codec::Raw), (Side::Etc, 2, Codec::Delta)],
                2,
            ),
            (
                "mixed-v3",
                &[
                    (Side::Eth, 2, Codec::Raw),
                    (Side::Eth, 3, Codec::Raw),
                    (Side::Etc, 2, Codec::Delta),
                ],
                3,
            ),
        ];
        for (tag, segments, want) in cases {
            let dir = archive_of(tag, segments);
            let reader = ArchiveReader::open(&dir).unwrap();
            // Every hand-built frame verifies under its own version's
            // checksum, so the fixtures are real archives of that version.
            let (ok, bad, torn) = reader.verify().totals();
            assert_eq!((ok, bad, torn), (segments.len() as u64, 0, 0), "{tag}");
            assert_eq!(archive_format_version(&reader), want, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn truncation_is_detected() {
        let index = sample();
        let clean = index.encode();
        let dir = std::env::temp_dir().join(format!("sidecar-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SIDECAR_FILE);
        for keep in 0..clean.len() {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(
                matches!(
                    try_load(&dir, index.fingerprint()),
                    Err(SidecarFault::Corrupt(_))
                ),
                "truncation to {keep} bytes accepted"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

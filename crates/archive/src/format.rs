//! The on-disk format: superblock, frame layout, record codec.
//!
//! An archive is a directory with one subdirectory per network side
//! (`eth/`, `etc/`), each holding numbered segment files
//! (`seg-00000.seg`, `seg-00001.seg`, …), plus a human-readable
//! `manifest.json` written when the archive is finished. A segment is a
//! fixed-size [`Superblock`] followed by append-only frames:
//!
//! ```text
//! [len: u32 LE][crc: 4 bytes][payload: len bytes]
//! ```
//!
//! `crc` covers the payload. Which function computes it is a property of
//! the segment's superblock version ([`Superblock::frame_checksum`]):
//!
//! - v3 segments (everything this build writes) use [`checksum`]: CRC32C
//!   (Castagnoli, [`fork_crypto::crc32c()`]), stored little-endian — the
//!   same kernel that seals the hash-index sidecar and the net layer's
//!   frames. It catches every single-bit flip and every burst of up to 32
//!   bits, at several times Keccak's speed.
//! - v1/v2 segments use [`keccak_checksum`]: the first [`CHECKSUM_LEN`]
//!   bytes of the payload's Keccak-256 digest.
//!
//! The superblock's own checksum is [`keccak_checksum`] in every version:
//! the version byte is only trusted once that check has passed.
//!
//! Payloads are per-segment-[`Codec`] record encodings (no RLP: records are
//! flat rows):
//!
//! - [`Codec::Raw`] (format v1's only layout) is fixed-layout little-endian,
//!   which lets the open-time scan read a short prefix per frame to build
//!   the sparse index;
//! - [`Codec::Delta`] (format v2) shrinks the integer fields with LEB128
//!   varints, encoding `seq` as a delta against the superblock's
//!   `first_seq` and the timestamp as a zig-zag delta against the
//!   superblock's `base_time`. Deltas are against per-segment *superblock*
//!   anchors, never the previous frame, so a cursor can still start at any
//!   sparse-index offset. The prefix fields (kind, seq, timestamp, number)
//!   come first in either codec, so the index scan reads at most
//!   [`PREFIX_READ_LEN`] bytes per frame.
//!
//! Version-2 superblocks carry the codec byte and `base_time`; version-1
//! segments (all zeroes in those slots) still decode as `Raw`, so archives
//! written before the bump keep opening. Version 3 changes only the frame
//! checksum, so frame lengths and segment sizes are the same in every
//! version.
//!
//! Every record carries a **global sequence number**, monotonically
//! increasing across *both* sides. The analytics pipeline's echo detector is
//! order-sensitive across chains ("which side saw this hash first"), so a
//! replay must reconstruct the exact interleaving of the original stream;
//! merging the two per-side streams by `seq` does exactly that.

use fork_analytics::{BlockRecord, TxRecord};
use fork_crypto::{crc32c, keccak256};
use fork_primitives::{Address, H256, U256};
use fork_replay::Side;

/// Segment-file magic ("Fork ARCHive SeGment v1").
pub const MAGIC: [u8; 8] = *b"FARCHSG1";

/// Format version stamped into every superblock this build writes.
pub const VERSION: u16 = 3;

/// Oldest superblock version this build still reads.
pub const MIN_VERSION: u16 = 1;

/// First version whose frames carry a CRC32C [`checksum`] instead of a
/// [`keccak_checksum`].
pub const CRC32C_VERSION: u16 = 3;

/// Size of the superblock at the start of every segment file.
pub const SUPERBLOCK_LEN: usize = 32;

/// Frame header size: `len: u32` + checksum.
pub const FRAME_HEADER_LEN: usize = 4 + CHECKSUM_LEN;

/// Checksum length in bytes (integrity, not crypto).
pub const CHECKSUM_LEN: usize = 4;

/// Upper bound on a sane frame payload; anything larger is corruption.
pub const MAX_PAYLOAD_LEN: u32 = 1 << 20;

/// Shortest valid [`Codec::Raw`] payload (a tx record); anything shorter is
/// corruption. Codec-aware callers should use [`min_payload_len`].
pub const MIN_PAYLOAD_LEN: u32 = TX_PAYLOAD_LEN as u32;

/// Bytes of [`Codec::Raw`] payload the open-time scan reads to index a
/// frame: `kind + seq + timestamp + number`.
pub const PREFIX_LEN: usize = 25;

/// Bytes of payload the open-time scan reads to index a frame under any
/// codec. A [`Codec::Delta`] prefix is at most 31 bytes (kind + three
/// 10-byte varints), and every delta payload is longer than that, so a
/// 32-byte read always covers the prefix.
pub const PREFIX_READ_LEN: usize = 32;

/// Every `INDEX_STRIDE`-th block frame lands in the sparse index.
pub const INDEX_STRIDE: u64 = 64;

/// Payload kind tag: a [`BlockRecord`].
pub const KIND_BLOCK: u8 = 0;
/// Payload kind tag: a [`TxRecord`].
pub const KIND_TX: u8 = 1;

const BLOCK_PAYLOAD_LEN: usize = 125;
const TX_PAYLOAD_LEN: usize = 82;

/// Shortest delta-coded payload: a tx with one-byte varints and a
/// zero-length value (`kind + seqΔ + tsΔ + len + flags + hash`).
const MIN_DELTA_PAYLOAD_LEN: u32 = 1 + 1 + 1 + 1 + 1 + 32;

/// Payload encoding used within one segment, stamped into its superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Fixed-layout little-endian rows — format v1's only codec.
    #[default]
    Raw = 0,
    /// LEB128 varints with zig-zag deltas against superblock anchors.
    Delta = 1,
}

impl Codec {
    /// The superblock byte for this codec.
    pub fn as_byte(self) -> u8 {
        self as u8
    }

    /// Parses the superblock codec byte.
    pub fn from_byte(b: u8) -> Option<Codec> {
        match b {
            0 => Some(Codec::Raw),
            1 => Some(Codec::Delta),
            _ => None,
        }
    }
}

/// Shortest valid payload for `codec`; anything shorter is corruption.
pub fn min_payload_len(codec: Codec) -> u32 {
    match codec {
        Codec::Raw => TX_PAYLOAD_LEN as u32,
        Codec::Delta => MIN_DELTA_PAYLOAD_LEN,
    }
}

fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| "varint truncated".to_string())?;
        *pos += 1;
        let low = u64::from(b & 0x7f);
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err("varint overflow".into());
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag_encode(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn zigzag_decode(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn read_fixed<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], String> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| format!("field truncated ({N} bytes at {pos})"))?;
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(out)
}

fn read_len_prefixed_u256(buf: &[u8], pos: &mut usize) -> Result<U256, String> {
    let len = *buf.get(*pos).ok_or("length byte truncated")? as usize;
    *pos += 1;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| format!("integer truncated ({len} bytes at {pos})"))?;
    let v = U256::from_be_slice(&buf[*pos..end]).map_err(|e| format!("integer: {e:?}"))?;
    *pos = end;
    Ok(v)
}

/// The frame checksum of format v3: CRC32C of `payload`, little-endian.
pub fn checksum(payload: &[u8]) -> [u8; CHECKSUM_LEN] {
    crc32c(payload).to_le_bytes()
}

/// Truncated-keccak checksum: the first [`CHECKSUM_LEN`] bytes of
/// `bytes`' Keccak-256 digest. Seals superblocks and v1/v2 frames, and
/// fingerprints the archive state and served header chains.
pub fn keccak_checksum(bytes: &[u8]) -> [u8; CHECKSUM_LEN] {
    let digest = keccak256(bytes);
    let mut out = [0u8; CHECKSUM_LEN];
    out.copy_from_slice(&digest.0[..CHECKSUM_LEN]);
    out
}

/// Segment filename for index `i` (`seg-00042.seg`).
pub fn segment_file_name(i: u32) -> String {
    format!("seg-{i:05}.seg")
}

/// Directory name for a side's segments.
pub fn side_dir_name(side: Side) -> &'static str {
    match side {
        Side::Eth => "eth",
        Side::Etc => "etc",
    }
}

fn side_to_byte(side: Side) -> u8 {
    match side {
        Side::Eth => 0,
        Side::Etc => 1,
    }
}

fn side_from_byte(b: u8) -> Option<Side> {
    match b {
        0 => Some(Side::Eth),
        1 => Some(Side::Etc),
        _ => None,
    }
}

/// The fixed-size header at the start of every segment file.
///
/// Layout (32 bytes): magic(8) · version(u16 LE) · side(u8) · codec(u8) ·
/// segment(u32 LE) · first_seq(u64 LE) · base_time(u32 LE) · checksum(4) —
/// the checksum, a [`keccak_checksum`] in every version, covers the first
/// 28 bytes, so a flipped superblock byte marks the whole segment corrupt
/// instead of mis-attributing its records.
///
/// The codec byte and `base_time` occupy slots that were reserved zeroes in
/// format v1, so v1 segments decode as `Raw` with `base_time == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Format version of this segment: [`VERSION`] for segments this build
    /// creates, the decoded value for segments read back. It picks the
    /// frame checksum ([`Superblock::frame_checksum`]).
    pub version: u16,
    /// Which side's stream this segment holds.
    pub side: Side,
    /// Payload encoding for every frame in this segment.
    pub codec: Codec,
    /// Segment index within the side (monotonic; gaps appear after
    /// compaction).
    pub segment: u32,
    /// Global sequence number of the first record written to this segment.
    pub first_seq: u64,
    /// Timestamp anchor for [`Codec::Delta`] zig-zag deltas (the first
    /// record's timestamp, saturated to `u32::MAX`). Zero for `Raw`.
    pub base_time: u32,
}

impl Superblock {
    /// The checksum sealing this segment's frames: CRC32C ([`checksum`])
    /// from [`CRC32C_VERSION`] on, truncated keccak before. The writer and
    /// every frame read go through here.
    pub fn frame_checksum(&self, payload: &[u8]) -> [u8; CHECKSUM_LEN] {
        if self.version >= CRC32C_VERSION {
            checksum(payload)
        } else {
            keccak_checksum(payload)
        }
    }

    /// Serializes to the fixed 32-byte layout, stamping `self.version`.
    pub fn encode(&self) -> [u8; SUPERBLOCK_LEN] {
        let mut out = [0u8; SUPERBLOCK_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..10].copy_from_slice(&self.version.to_le_bytes());
        out[10] = side_to_byte(self.side);
        out[11] = self.codec.as_byte();
        out[12..16].copy_from_slice(&self.segment.to_le_bytes());
        out[16..24].copy_from_slice(&self.first_seq.to_le_bytes());
        out[24..28].copy_from_slice(&self.base_time.to_le_bytes());
        let crc = keccak_checksum(&out[..SUPERBLOCK_LEN - CHECKSUM_LEN]);
        out[SUPERBLOCK_LEN - CHECKSUM_LEN..].copy_from_slice(&crc);
        out
    }

    /// Parses and verifies a superblock; the error string says what failed.
    /// Accepts any version in `[MIN_VERSION, VERSION]`.
    pub fn decode(bytes: &[u8]) -> Result<Superblock, String> {
        if bytes.len() < SUPERBLOCK_LEN {
            return Err(format!("superblock truncated ({} bytes)", bytes.len()));
        }
        let bytes = &bytes[..SUPERBLOCK_LEN];
        let crc = keccak_checksum(&bytes[..SUPERBLOCK_LEN - CHECKSUM_LEN]);
        if crc != bytes[SUPERBLOCK_LEN - CHECKSUM_LEN..] {
            return Err("superblock checksum mismatch".into());
        }
        if bytes[0..8] != MAGIC {
            return Err("bad magic".into());
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(format!("unsupported version {version}"));
        }
        let side = side_from_byte(bytes[10]).ok_or_else(|| format!("bad side {}", bytes[10]))?;
        // v1 wrote zeroes in the codec and base_time slots, which decode as
        // Raw / 0 — exactly the v1 semantics.
        let codec =
            Codec::from_byte(bytes[11]).ok_or_else(|| format!("bad codec {}", bytes[11]))?;
        let segment = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let first_seq = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let base_time = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
        Ok(Superblock {
            version,
            side,
            codec,
            segment,
            first_seq,
            base_time,
        })
    }
}

/// One archived row: a block or a transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchiveRecord {
    /// An exported block row.
    Block(BlockRecord),
    /// An exported transaction row.
    Tx(TxRecord),
}

impl ArchiveRecord {
    /// Timestamp of the record (a tx carries its including block's).
    pub fn timestamp(&self) -> u64 {
        match self {
            ArchiveRecord::Block(b) => b.timestamp,
            ArchiveRecord::Tx(t) => t.timestamp,
        }
    }

    /// Encodes `self` under the segment's codec, stamping the global `seq`.
    pub fn encode_payload_in(&self, sb: &Superblock, seq: u64) -> Vec<u8> {
        match sb.codec {
            Codec::Raw => self.encode_payload(seq),
            Codec::Delta => self.encode_payload_delta(sb, seq),
        }
    }

    /// Decodes a payload under the segment's codec into `(seq, record)`.
    pub fn decode_payload_in(
        sb: &Superblock,
        payload: &[u8],
    ) -> Result<(u64, ArchiveRecord), String> {
        match sb.codec {
            Codec::Raw => Self::decode_payload(sb.side, payload),
            Codec::Delta => Self::decode_payload_delta(sb, payload),
        }
    }

    fn encode_payload_delta(&self, sb: &Superblock, seq: u64) -> Vec<u8> {
        // Prefix fields first (kind, seqΔ, tsΔ, number) so the open-time
        // scan can index a frame from its first PREFIX_READ_LEN bytes.
        match self {
            ArchiveRecord::Block(b) => {
                let mut out = Vec::with_capacity(96);
                out.push(KIND_BLOCK);
                write_uvarint(&mut out, seq.wrapping_sub(sb.first_seq));
                let ts_delta = (b.timestamp as i64).wrapping_sub(i64::from(sb.base_time));
                write_uvarint(&mut out, zigzag_encode(ts_delta));
                write_uvarint(&mut out, b.number);
                write_uvarint(&mut out, b.gas_used);
                write_uvarint(&mut out, u64::from(b.tx_count));
                write_uvarint(&mut out, u64::from(b.ommer_count));
                let diff = b.difficulty.to_be_bytes_trimmed();
                out.push(diff.len() as u8);
                out.extend_from_slice(&diff);
                out.extend_from_slice(&b.hash.0);
                out.extend_from_slice(&b.beneficiary.0);
                out
            }
            ArchiveRecord::Tx(t) => {
                let mut out = Vec::with_capacity(64);
                out.push(KIND_TX);
                write_uvarint(&mut out, seq.wrapping_sub(sb.first_seq));
                let ts_delta = (t.timestamp as i64).wrapping_sub(i64::from(sb.base_time));
                write_uvarint(&mut out, zigzag_encode(ts_delta));
                let val = t.value.to_be_bytes_trimmed();
                out.push(val.len() as u8);
                out.extend_from_slice(&val);
                out.push(u8::from(t.is_contract) | (u8::from(t.has_chain_id) << 1));
                out.extend_from_slice(&t.hash.0);
                out
            }
        }
    }

    fn decode_payload_delta(
        sb: &Superblock,
        payload: &[u8],
    ) -> Result<(u64, ArchiveRecord), String> {
        let mut pos = 0usize;
        let kind = *payload.get(pos).ok_or("empty payload")?;
        pos += 1;
        let seq = sb.first_seq.wrapping_add(read_uvarint(payload, &mut pos)?);
        let ts_delta = zigzag_decode(read_uvarint(payload, &mut pos)?);
        let timestamp = i64::from(sb.base_time).wrapping_add(ts_delta) as u64;
        match kind {
            KIND_BLOCK => {
                let number = read_uvarint(payload, &mut pos)?;
                let gas_used = read_uvarint(payload, &mut pos)?;
                let tx_count = u32::try_from(read_uvarint(payload, &mut pos)?)
                    .map_err(|_| "tx_count overflow".to_string())?;
                let ommer_count = u32::try_from(read_uvarint(payload, &mut pos)?)
                    .map_err(|_| "ommer_count overflow".to_string())?;
                let difficulty = read_len_prefixed_u256(payload, &mut pos)?;
                let hash = read_fixed::<32>(payload, &mut pos)?;
                let beneficiary = read_fixed::<20>(payload, &mut pos)?;
                if pos != payload.len() {
                    return Err(format!(
                        "block payload trailing bytes ({})",
                        payload.len() - pos
                    ));
                }
                Ok((
                    seq,
                    ArchiveRecord::Block(BlockRecord {
                        network: sb.side,
                        number,
                        hash: H256(hash),
                        timestamp,
                        difficulty,
                        beneficiary: Address(beneficiary),
                        gas_used,
                        tx_count,
                        ommer_count,
                    }),
                ))
            }
            KIND_TX => {
                let value = read_len_prefixed_u256(payload, &mut pos)?;
                let flags = *payload.get(pos).ok_or("flags truncated")?;
                pos += 1;
                let hash = read_fixed::<32>(payload, &mut pos)?;
                if pos != payload.len() {
                    return Err(format!(
                        "tx payload trailing bytes ({})",
                        payload.len() - pos
                    ));
                }
                Ok((
                    seq,
                    ArchiveRecord::Tx(TxRecord {
                        network: sb.side,
                        hash: H256(hash),
                        timestamp,
                        is_contract: flags & 1 != 0,
                        has_chain_id: flags & 2 != 0,
                        value,
                    }),
                ))
            }
            k => Err(format!("unknown record kind {k}")),
        }
    }

    /// Encodes `self` into a [`Codec::Raw`] frame payload, stamping the
    /// global `seq`. The side is *not* stored per record — it is the
    /// segment's side.
    pub fn encode_payload(&self, seq: u64) -> Vec<u8> {
        match self {
            ArchiveRecord::Block(b) => {
                let mut out = Vec::with_capacity(BLOCK_PAYLOAD_LEN);
                out.push(KIND_BLOCK);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&b.timestamp.to_le_bytes());
                out.extend_from_slice(&b.number.to_le_bytes());
                out.extend_from_slice(&b.hash.0);
                out.extend_from_slice(&b.difficulty.to_be_bytes());
                out.extend_from_slice(&b.beneficiary.0);
                out.extend_from_slice(&b.gas_used.to_le_bytes());
                out.extend_from_slice(&b.tx_count.to_le_bytes());
                out.extend_from_slice(&b.ommer_count.to_le_bytes());
                debug_assert_eq!(out.len(), BLOCK_PAYLOAD_LEN);
                out
            }
            ArchiveRecord::Tx(t) => {
                let mut out = Vec::with_capacity(TX_PAYLOAD_LEN);
                out.push(KIND_TX);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&t.timestamp.to_le_bytes());
                out.extend_from_slice(&t.hash.0);
                out.extend_from_slice(&t.value.to_be_bytes());
                out.push(u8::from(t.is_contract) | (u8::from(t.has_chain_id) << 1));
                debug_assert_eq!(out.len(), TX_PAYLOAD_LEN);
                out
            }
        }
    }

    /// Decodes a full frame payload into `(seq, record)`, re-attaching the
    /// segment's `side` as the record's network.
    pub fn decode_payload(side: Side, payload: &[u8]) -> Result<(u64, ArchiveRecord), String> {
        let prefix = FramePrefix::decode(payload)?;
        match prefix.kind {
            KIND_BLOCK => {
                if payload.len() != BLOCK_PAYLOAD_LEN {
                    return Err(format!("block payload length {}", payload.len()));
                }
                let mut hash = [0u8; 32];
                hash.copy_from_slice(&payload[25..57]);
                let difficulty = U256::from_be_slice(&payload[57..89])
                    .map_err(|e| format!("difficulty: {e:?}"))?;
                let mut beneficiary = [0u8; 20];
                beneficiary.copy_from_slice(&payload[89..109]);
                let gas_used = u64::from_le_bytes(payload[109..117].try_into().unwrap());
                let tx_count = u32::from_le_bytes(payload[117..121].try_into().unwrap());
                let ommer_count = u32::from_le_bytes(payload[121..125].try_into().unwrap());
                Ok((
                    prefix.seq,
                    ArchiveRecord::Block(BlockRecord {
                        network: side,
                        number: prefix.number,
                        hash: H256(hash),
                        timestamp: prefix.timestamp,
                        difficulty,
                        beneficiary: Address(beneficiary),
                        gas_used,
                        tx_count,
                        ommer_count,
                    }),
                ))
            }
            KIND_TX => {
                if payload.len() != TX_PAYLOAD_LEN {
                    return Err(format!("tx payload length {}", payload.len()));
                }
                let mut hash = [0u8; 32];
                hash.copy_from_slice(&payload[17..49]);
                let value =
                    U256::from_be_slice(&payload[49..81]).map_err(|e| format!("value: {e:?}"))?;
                let flags = payload[81];
                Ok((
                    prefix.seq,
                    ArchiveRecord::Tx(TxRecord {
                        network: side,
                        hash: H256(hash),
                        timestamp: prefix.timestamp,
                        is_contract: flags & 1 != 0,
                        has_chain_id: flags & 2 != 0,
                        value,
                    }),
                ))
            }
            k => Err(format!("unknown record kind {k}")),
        }
    }
}

/// The fixed-offset prefix shared by both payload kinds, enough to build the
/// sparse index without reading (or verifying) whole payloads.
#[derive(Debug, Clone, Copy)]
pub struct FramePrefix {
    /// Record kind tag ([`KIND_BLOCK`] / [`KIND_TX`]).
    pub kind: u8,
    /// Global sequence number.
    pub seq: u64,
    /// Record timestamp.
    pub timestamp: u64,
    /// Block number ([`KIND_BLOCK`] only; 0 for transactions).
    pub number: u64,
}

impl FramePrefix {
    /// Decodes a payload prefix under the segment's codec. `payload` may be
    /// just the first [`PREFIX_READ_LEN`] bytes of a longer frame.
    pub fn decode_in(sb: &Superblock, payload: &[u8]) -> Result<FramePrefix, String> {
        match sb.codec {
            Codec::Raw => Self::decode(payload),
            Codec::Delta => {
                let mut pos = 0usize;
                let kind = *payload.get(pos).ok_or("empty payload")?;
                pos += 1;
                let seq = sb.first_seq.wrapping_add(read_uvarint(payload, &mut pos)?);
                let ts_delta = zigzag_decode(read_uvarint(payload, &mut pos)?);
                let timestamp = i64::from(sb.base_time).wrapping_add(ts_delta) as u64;
                let number = if kind == KIND_BLOCK {
                    read_uvarint(payload, &mut pos)?
                } else {
                    0
                };
                Ok(FramePrefix {
                    kind,
                    seq,
                    timestamp,
                    number,
                })
            }
        }
    }

    /// Decodes the first [`PREFIX_LEN`] bytes of a [`Codec::Raw`] payload.
    pub fn decode(payload: &[u8]) -> Result<FramePrefix, String> {
        if payload.len() < 17 {
            return Err(format!("payload too short ({} bytes)", payload.len()));
        }
        let kind = payload[0];
        let seq = u64::from_le_bytes(payload[1..9].try_into().unwrap());
        let timestamp = u64::from_le_bytes(payload[9..17].try_into().unwrap());
        let number = if kind == KIND_BLOCK {
            if payload.len() < PREFIX_LEN {
                return Err(format!("block payload too short ({} bytes)", payload.len()));
            }
            u64::from_le_bytes(payload[17..25].try_into().unwrap())
        } else {
            0
        };
        Ok(FramePrefix {
            kind,
            seq,
            timestamp,
            number,
        })
    }
}

/// Encodes a full frame (header + payload) for `record` at `seq` under the
/// segment's codec and frame checksum.
pub fn encode_frame_in(sb: &Superblock, record: &ArchiveRecord, seq: u64) -> Vec<u8> {
    let payload = record.encode_payload_in(sb, seq);
    let sum = sb.frame_checksum(&payload);
    frame_from_payload(payload, sum)
}

/// Encodes a full [`Codec::Raw`] frame (header + payload) for `record`,
/// sealed with the current format's [`checksum`].
pub fn encode_frame(record: &ArchiveRecord, seq: u64) -> Vec<u8> {
    let payload = record.encode_payload(seq);
    let sum = checksum(&payload);
    frame_from_payload(payload, sum)
}

fn frame_from_payload(payload: Vec<u8>, sum: [u8; CHECKSUM_LEN]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&sum);
    out.extend_from_slice(&payload);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(n: u64) -> ArchiveRecord {
        ArchiveRecord::Block(BlockRecord {
            network: Side::Eth,
            number: n,
            hash: H256([n as u8; 32]),
            timestamp: 1_000 + n,
            difficulty: U256::from_u128(0xDEAD_BEEF_0000 + n as u128),
            beneficiary: Address([7; 20]),
            gas_used: 21_000 * n,
            tx_count: 3,
            ommer_count: 1,
        })
    }

    fn tx(n: u64) -> ArchiveRecord {
        ArchiveRecord::Tx(TxRecord {
            network: Side::Etc,
            hash: H256([n as u8; 32]),
            timestamp: 2_000 + n,
            is_contract: n.is_multiple_of(2),
            has_chain_id: n.is_multiple_of(3),
            value: U256::from_u64(n * 17),
        })
    }

    fn delta_superblock(first_seq: u64, base_time: u32) -> Superblock {
        Superblock {
            version: VERSION,
            side: Side::Eth,
            codec: Codec::Delta,
            segment: 3,
            first_seq,
            base_time,
        }
    }

    #[test]
    fn superblock_roundtrip() {
        for version in [2, VERSION] {
            for codec in [Codec::Raw, Codec::Delta] {
                let sb = Superblock {
                    version,
                    side: Side::Etc,
                    codec,
                    segment: 42,
                    first_seq: 1_234_567,
                    base_time: 1_469_000_000,
                };
                let bytes = sb.encode();
                assert_eq!(bytes.len(), SUPERBLOCK_LEN);
                assert_eq!(Superblock::decode(&bytes).unwrap(), sb);
            }
        }
    }

    #[test]
    fn superblock_detects_any_flip() {
        for version in [2, VERSION] {
            let bytes = Superblock {
                version,
                side: Side::Eth,
                codec: Codec::Raw,
                segment: 0,
                first_seq: 0,
                base_time: 0,
            }
            .encode();
            for i in 0..bytes.len() * 8 {
                let mut bad = bytes;
                bad[i / 8] ^= 1 << (i % 8);
                assert!(
                    Superblock::decode(&bad).is_err(),
                    "v{version}: flip of bit {i} undetected"
                );
            }
        }
    }

    #[test]
    fn checksum_is_little_endian_crc32c() {
        assert_eq!(checksum(b"123456789"), 0xE306_9283u32.to_le_bytes());
        assert_eq!(checksum(b""), [0; CHECKSUM_LEN]);
    }

    #[test]
    fn frame_checksum_follows_the_superblock_version() {
        let payload = tx(2).encode_payload(5);
        let sb = |version| Superblock {
            version,
            side: Side::Etc,
            codec: Codec::Raw,
            segment: 0,
            first_seq: 0,
            base_time: 0,
        };
        for version in [1, 2] {
            assert_eq!(
                sb(version).frame_checksum(&payload),
                keccak_checksum(&payload)
            );
        }
        assert_eq!(sb(VERSION).frame_checksum(&payload), checksum(&payload));
        assert_ne!(checksum(&payload), keccak_checksum(&payload));
        // A v3 frame is the Raw frame `encode_frame` builds, byte for byte.
        let rec = tx(2);
        assert_eq!(
            encode_frame_in(&sb(VERSION), &rec, 5),
            encode_frame(&rec, 5)
        );
    }

    #[test]
    fn v1_superblock_still_decodes_as_raw() {
        // Hand-build a version-1 superblock: reserved zeroes where v2 puts
        // the codec byte and base_time.
        let mut bytes = [0u8; SUPERBLOCK_LEN];
        bytes[0..8].copy_from_slice(&MAGIC);
        bytes[8..10].copy_from_slice(&1u16.to_le_bytes());
        bytes[10] = 1; // Etc
        bytes[12..16].copy_from_slice(&7u32.to_le_bytes());
        bytes[16..24].copy_from_slice(&99u64.to_le_bytes());
        let crc = keccak_checksum(&bytes[..SUPERBLOCK_LEN - CHECKSUM_LEN]);
        bytes[SUPERBLOCK_LEN - CHECKSUM_LEN..].copy_from_slice(&crc);
        let sb = Superblock::decode(&bytes).unwrap();
        assert_eq!(sb.version, 1);
        assert_eq!(sb.codec, Codec::Raw);
        assert_eq!(sb.base_time, 0);
        assert_eq!((sb.side, sb.segment, sb.first_seq), (Side::Etc, 7, 99));
    }

    #[test]
    fn uvarint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // Truncated and over-long varints error instead of panicking.
        let mut pos = 0;
        assert!(read_uvarint(&[0x80, 0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(read_uvarint(&[0xff; 11], &mut pos).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn delta_payload_roundtrip() {
        let sb = delta_superblock(1_000, 1_469_000_000);
        let recs = [
            (1_000u64, block(0)),
            (1_001, tx(6)),
            (1_700, block(4_500_000)),
            (u64::MAX, tx(1)),
        ];
        for (seq, rec) in recs {
            let payload = rec.encode_payload_in(&sb, seq);
            assert!(payload.len() as u32 >= min_payload_len(Codec::Delta));
            let (got_seq, got) = ArchiveRecord::decode_payload_in(&sb, &payload).unwrap();
            assert_eq!(got_seq, seq);
            // Delta decode re-attaches the segment side.
            let want = match rec {
                ArchiveRecord::Block(b) => ArchiveRecord::Block(BlockRecord {
                    network: sb.side,
                    ..b
                }),
                ArchiveRecord::Tx(t) => ArchiveRecord::Tx(TxRecord {
                    network: sb.side,
                    ..t
                }),
            };
            assert_eq!(got, want);
        }
    }

    #[test]
    fn delta_is_smaller_than_raw_for_typical_records() {
        let sb = delta_superblock(0, 1_469_021_581);
        let b = ArchiveRecord::Block(BlockRecord {
            network: Side::Eth,
            number: 1_920_001,
            hash: H256([9; 32]),
            timestamp: 1_469_021_600,
            difficulty: U256::from_u128(62_413_376_722_602_996_188),
            beneficiary: Address([3; 20]),
            gas_used: 1_500_000,
            tx_count: 12,
            ommer_count: 0,
        });
        let raw = b.encode_payload(5);
        let delta = b.encode_payload_in(&sb, 5);
        assert!(
            delta.len() < raw.len(),
            "delta {} >= raw {}",
            delta.len(),
            raw.len()
        );
    }

    #[test]
    fn delta_prefix_matches_full_decode() {
        let sb = delta_superblock(40, 1_000);
        let rec = block(77);
        let payload = rec.encode_payload_in(&sb, 123);
        let full = ArchiveRecord::decode_payload_in(&sb, &payload).unwrap();
        let read = PREFIX_READ_LEN.min(payload.len());
        let p = FramePrefix::decode_in(&sb, &payload[..read]).unwrap();
        assert_eq!(p.kind, KIND_BLOCK);
        assert_eq!(p.seq, 123);
        assert_eq!(p.seq, full.0);
        assert_eq!(p.timestamp, 1_077);
        assert_eq!(p.number, 77);
    }

    #[test]
    fn delta_truncated_payload_rejected() {
        let sb = delta_superblock(0, 0);
        let payload = block(1).encode_payload_in(&sb, 0);
        for cut in [0, 1, 3, payload.len() - 1] {
            assert!(
                ArchiveRecord::decode_payload_in(&sb, &payload[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
        let mut extra = payload.clone();
        extra.push(0);
        assert!(ArchiveRecord::decode_payload_in(&sb, &extra).is_err());
    }

    #[test]
    fn record_payload_roundtrip() {
        for (seq, rec) in [(0u64, block(5)), (9, tx(6)), (u64::MAX, block(0))] {
            let payload = rec.encode_payload(seq);
            // A record's own network is *not* stored; decoding re-attaches
            // the segment side.
            let want_side = match &rec {
                ArchiveRecord::Block(b) => b.network,
                ArchiveRecord::Tx(t) => t.network,
            };
            let (got_seq, got) = ArchiveRecord::decode_payload(want_side, &payload).unwrap();
            assert_eq!(got_seq, seq);
            assert_eq!(got, rec);
        }
    }

    #[test]
    fn prefix_matches_full_decode() {
        let rec = block(77);
        let payload = rec.encode_payload(123);
        let p = FramePrefix::decode(&payload).unwrap();
        assert_eq!(p.kind, KIND_BLOCK);
        assert_eq!(p.seq, 123);
        assert_eq!(p.timestamp, 1_077);
        assert_eq!(p.number, 77);

        let t = tx(4).encode_payload(9);
        let p = FramePrefix::decode(&t).unwrap();
        assert_eq!(p.kind, KIND_TX);
        assert_eq!((p.seq, p.timestamp, p.number), (9, 2_004, 0));
    }

    #[test]
    fn frame_checksum_covers_payload() {
        let frame = encode_frame(&tx(1), 3);
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        assert_eq!(len + FRAME_HEADER_LEN, frame.len());
        let payload = &frame[FRAME_HEADER_LEN..];
        assert_eq!(checksum(payload), frame[4..8]);
    }

    #[test]
    fn truncated_payload_rejected() {
        let payload = block(1).encode_payload(0);
        assert!(ArchiveRecord::decode_payload(Side::Eth, &payload[..20]).is_err());
        assert!(ArchiveRecord::decode_payload(Side::Eth, &[]).is_err());
        let mut wrong_kind = payload.clone();
        wrong_kind[0] = 9;
        assert!(ArchiveRecord::decode_payload(Side::Eth, &wrong_kind).is_err());
    }
}

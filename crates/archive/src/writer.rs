//! Append-side of the archive: [`ArchiveWriter`].
//!
//! The writer is a [`LedgerSink`], so it slots anywhere a `Pipeline` does —
//! typically as one arm of a `TeeSink` behind the existing `MeteredSink`.
//! Records are routed to per-side segment files and stamped with a global
//! sequence number shared across both sides, which is what lets a replay
//! reconstruct the original interleaving.
//!
//! `LedgerSink` methods cannot return errors, so I/O failures during
//! ingestion are held *stickily* and surfaced by [`ArchiveWriter::finish`]
//! (or [`ArchiveWriter::take_error`]); after the first failure the writer
//! drops further records rather than archiving a stream with holes.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fork_analytics::{BlockRecord, TxRecord};
use fork_replay::Side;
use fork_sim::LedgerSink;
use fork_telemetry::{json::Value, Counter, MetricsRegistry};

use crate::error::ArchiveError;
use crate::format::{
    encode_frame_in, segment_file_name, side_dir_name, ArchiveRecord, Codec, Superblock,
    SUPERBLOCK_LEN, VERSION,
};
use crate::segment::scan_segment;

/// Tunables for the append side.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveConfig {
    /// Roll to a new segment file once the current one would exceed this
    /// many bytes (a segment always holds at least one frame).
    pub segment_max_bytes: u64,
    /// Payload codec for newly opened segments. Appending to an existing
    /// archive keeps each reopened segment's own codec (and format
    /// version).
    pub codec: Codec,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            segment_max_bytes: 4 << 20,
            codec: Codec::Raw,
        }
    }
}

/// Run provenance stored in `manifest.json` by [`ArchiveWriter::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveMeta {
    /// RNG seed of the archived run.
    pub seed: u64,
    /// Simulated start time (unix seconds).
    pub start_unix: u64,
    /// Simulated end time (unix seconds).
    pub end_unix: u64,
}

/// What [`ArchiveWriter::finish`] reports about the completed archive.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Block records written.
    pub blocks: u64,
    /// Tx records written.
    pub txs: u64,
    /// Total frame bytes written (headers + payloads, superblocks excluded).
    pub bytes: u64,
    /// Segment files created across both sides.
    pub segments: u64,
}

/// One side's open segment file.
#[derive(Debug)]
struct SideWriter {
    dir: PathBuf,
    side: Side,
    file: Option<BufWriter<File>>,
    /// Superblock of the open segment (encode anchors live here).
    sb: Option<Superblock>,
    /// Index of the segment `file` writes to (next to create when `None`).
    segment: u32,
    /// Bytes in the current segment, superblock included.
    seg_bytes: u64,
    /// Frames in the current segment.
    seg_frames: u64,
    /// Segments this side has opened in total.
    segments_opened: u64,
}

impl SideWriter {
    fn new(dir: PathBuf, side: Side) -> Self {
        SideWriter {
            dir,
            side,
            file: None,
            sb: None,
            segment: 0,
            seg_bytes: 0,
            seg_frames: 0,
            segments_opened: 0,
        }
    }

    fn seg_path(&self, segment: u32) -> PathBuf {
        self.dir.join(segment_file_name(segment))
    }

    /// Opens the segment file `self.segment` fresh, writing its superblock.
    /// `first_ts` anchors delta timestamps (saturated to `u32::MAX`).
    fn open_segment(
        &mut self,
        first_seq: u64,
        first_ts: u64,
        codec: Codec,
    ) -> Result<(), ArchiveError> {
        let path = self.seg_path(self.segment);
        let file = File::create(&path).map_err(|e| ArchiveError::io(&path, e))?;
        let mut writer = BufWriter::new(file);
        let sb = Superblock {
            version: VERSION,
            side: self.side,
            codec,
            segment: self.segment,
            first_seq,
            base_time: match codec {
                Codec::Raw => 0,
                Codec::Delta => u32::try_from(first_ts).unwrap_or(u32::MAX),
            },
        };
        writer
            .write_all(&sb.encode())
            .map_err(|e| ArchiveError::io(&path, e))?;
        self.file = Some(writer);
        self.sb = Some(sb);
        self.seg_bytes = SUPERBLOCK_LEN as u64;
        self.seg_frames = 0;
        self.segments_opened += 1;
        Ok(())
    }

    /// Encodes and appends one record, rolling segments as needed. Encoding
    /// happens here because the payload depends on the receiving segment's
    /// superblock anchors (codec, `first_seq`, `base_time`); a frame that
    /// triggers a roll is re-encoded against the fresh segment. Returns the
    /// frame's byte length.
    fn append(
        &mut self,
        record: &ArchiveRecord,
        seq: u64,
        config: &ArchiveConfig,
    ) -> Result<u64, ArchiveError> {
        let mut frame = self
            .sb
            .filter(|_| self.file.is_some())
            .map(|sb| encode_frame_in(&sb, record, seq));
        if let Some(f) = &frame {
            if self.seg_frames > 0 && self.seg_bytes + f.len() as u64 > config.segment_max_bytes {
                self.close_current()?;
                self.segment += 1;
                frame = None;
            }
        }
        if self.file.is_none() {
            self.open_segment(seq, record.timestamp(), config.codec)?;
        }
        let frame = match frame {
            Some(f) => f,
            None => {
                let sb = self.sb.expect("segment opened above");
                encode_frame_in(&sb, record, seq)
            }
        };
        let path = self.seg_path(self.segment);
        let writer = self.file.as_mut().expect("segment opened above");
        writer
            .write_all(&frame)
            .map_err(|e| ArchiveError::io(&path, e))?;
        self.seg_bytes += frame.len() as u64;
        self.seg_frames += 1;
        Ok(frame.len() as u64)
    }

    fn flush(&mut self) -> Result<(), ArchiveError> {
        let path = self.seg_path(self.segment);
        if let Some(writer) = self.file.as_mut() {
            writer.flush().map_err(|e| ArchiveError::io(&path, e))?;
        }
        Ok(())
    }

    fn close_current(&mut self) -> Result<(), ArchiveError> {
        if let Some(mut writer) = self.file.take() {
            let path = self.seg_path(self.segment);
            writer.flush().map_err(|e| ArchiveError::io(&path, e))?;
        }
        Ok(())
    }
}

/// Append-only archive writer; see the [module docs](self) for the error
/// model. Create with [`ArchiveWriter::create`] (fresh) or
/// [`ArchiveWriter::open_append`] (resume after a crash or a previous run).
#[derive(Debug)]
pub struct ArchiveWriter {
    dir: PathBuf,
    config: ArchiveConfig,
    sides: [SideWriter; 2],
    next_seq: u64,
    blocks: u64,
    txs: u64,
    bytes: u64,
    error: Option<ArchiveError>,
    // Telemetry (private counters unless attached to a registry).
    bytes_written: Arc<Counter>,
    frames_written: Arc<Counter>,
    flushes: Arc<Counter>,
    segments_opened: Arc<Counter>,
}

impl ArchiveWriter {
    /// Creates a fresh archive at `dir` (created if missing). Existing
    /// segment files and manifest from a previous archive are removed.
    pub fn create(dir: &Path) -> Result<ArchiveWriter, ArchiveError> {
        Self::create_with(dir, ArchiveConfig::default())
    }

    /// [`ArchiveWriter::create`] with explicit tunables.
    pub fn create_with(dir: &Path, config: ArchiveConfig) -> Result<ArchiveWriter, ArchiveError> {
        let mut sides_vec = Vec::with_capacity(2);
        for side in [Side::Eth, Side::Etc] {
            let side_dir = dir.join(side_dir_name(side));
            fs::create_dir_all(&side_dir).map_err(|e| ArchiveError::io(&side_dir, e))?;
            remove_segments(&side_dir)?;
            sides_vec.push(SideWriter::new(side_dir, side));
        }
        let manifest = dir.join("manifest.json");
        if manifest.exists() {
            fs::remove_file(&manifest).map_err(|e| ArchiveError::io(&manifest, e))?;
        }
        let [eth, etc]: [SideWriter; 2] = sides_vec.try_into().expect("two sides");
        Ok(ArchiveWriter {
            dir: dir.to_path_buf(),
            config,
            sides: [eth, etc],
            next_seq: 0,
            blocks: 0,
            txs: 0,
            bytes: 0,
            error: None,
            bytes_written: Arc::new(Counter::new()),
            frames_written: Arc::new(Counter::new()),
            flushes: Arc::new(Counter::new()),
            segments_opened: Arc::new(Counter::new()),
        })
    }

    /// Reopens an existing archive for appending. Torn tails left by a crash
    /// are physically truncated at the last valid frame; sequence numbering
    /// resumes after the highest surviving record.
    pub fn open_append(dir: &Path) -> Result<ArchiveWriter, ArchiveError> {
        Self::open_append_with(dir, ArchiveConfig::default())
    }

    /// [`ArchiveWriter::open_append`] with explicit tunables.
    pub fn open_append_with(
        dir: &Path,
        config: ArchiveConfig,
    ) -> Result<ArchiveWriter, ArchiveError> {
        let mut writer = Self::create_preserving(dir, config)?;
        let mut max_seq: Option<u64> = None;
        for sw in writer.sides.iter_mut() {
            let mut segments = list_segments(&sw.dir)?;
            segments.sort();
            // A crash between a segment roll and the end of the new
            // superblock leaves a zero-length file, or a tail shorter than
            // a superblock. Neither holds a frame; remove it so the
            // previous segment becomes the append tail. (Only the tail may
            // be short — a short-but-nonempty file anywhere else is real
            // corruption and still fails the superblock scan.)
            let mut kept = Vec::with_capacity(segments.len());
            for (i, &seg) in segments.iter().enumerate() {
                let path = sw.dir.join(segment_file_name(seg));
                let len = fs::metadata(&path)
                    .map_err(|e| ArchiveError::io(&path, e))?
                    .len();
                let is_tail = i + 1 == segments.len();
                if len == 0 || (is_tail && len < SUPERBLOCK_LEN as u64) {
                    fs::remove_file(&path).map_err(|e| ArchiveError::io(&path, e))?;
                } else {
                    kept.push(seg);
                }
            }
            let Some(&last) = kept.last() else {
                continue;
            };
            for &seg in &kept {
                let path = sw.dir.join(segment_file_name(seg));
                let scan = scan_segment(&path, sw.side)?;
                if scan.torn_bytes > 0 {
                    truncate_to(&path, scan.valid_len)?;
                }
                writer.blocks += scan.blocks;
                writer.txs += scan.txs;
                writer.bytes += scan.valid_len - SUPERBLOCK_LEN as u64;
                if let Some((_, hi)) = scan.seq_range {
                    max_seq = Some(max_seq.map_or(hi, |m| m.max(hi)));
                }
                if seg == last {
                    // Reopen the tail segment for appending. Its own
                    // superblock keeps supplying the encode anchors and
                    // the frame checksum, so a raw tail stays raw under a
                    // delta config and a v2 tail keeps its keccak frames;
                    // the next roll opens a current-version segment.
                    let file = OpenOptions::new()
                        .append(true)
                        .open(&path)
                        .map_err(|e| ArchiveError::io(&path, e))?;
                    sw.segment = seg;
                    sw.sb = Some(scan.superblock);
                    sw.seg_bytes = scan.valid_len;
                    sw.seg_frames = scan.frames;
                    sw.file = Some(BufWriter::new(file));
                }
            }
        }
        writer.next_seq = max_seq.map_or(0, |m| m + 1);
        Ok(writer)
    }

    /// Like `create_with` but leaves existing segments in place.
    fn create_preserving(dir: &Path, config: ArchiveConfig) -> Result<ArchiveWriter, ArchiveError> {
        let mut sides_vec = Vec::with_capacity(2);
        for side in [Side::Eth, Side::Etc] {
            let side_dir = dir.join(side_dir_name(side));
            fs::create_dir_all(&side_dir).map_err(|e| ArchiveError::io(&side_dir, e))?;
            sides_vec.push(SideWriter::new(side_dir, side));
        }
        let [eth, etc]: [SideWriter; 2] = sides_vec.try_into().expect("two sides");
        Ok(ArchiveWriter {
            dir: dir.to_path_buf(),
            config,
            sides: [eth, etc],
            next_seq: 0,
            blocks: 0,
            txs: 0,
            bytes: 0,
            error: None,
            bytes_written: Arc::new(Counter::new()),
            frames_written: Arc::new(Counter::new()),
            flushes: Arc::new(Counter::new()),
            segments_opened: Arc::new(Counter::new()),
        })
    }

    /// Registers write counters (`archive.bytes_written`, `archive.frames`,
    /// `archive.flushes`, `archive.segments`) in `registry`.
    pub fn with_telemetry(mut self, registry: &MetricsRegistry) -> Self {
        self.bytes_written = registry.counter("archive.bytes_written");
        self.frames_written = registry.counter("archive.frames");
        self.flushes = registry.counter("archive.flushes");
        self.segments_opened = registry.counter("archive.segments");
        self
    }

    /// Archive root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Next global sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records written so far as `(blocks, txs)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.blocks, self.txs)
    }

    /// The first I/O error hit during ingestion, if any, leaving the writer
    /// error-free. After an error the writer stops appending.
    pub fn take_error(&mut self) -> Option<ArchiveError> {
        self.error.take()
    }

    fn side_index(side: Side) -> usize {
        match side {
            Side::Eth => 0,
            Side::Etc => 1,
        }
    }

    fn append(&mut self, side: Side, record: ArchiveRecord) {
        if self.error.is_some() {
            return; // sticky failure: do not archive a stream with holes
        }
        let seq = self.next_seq;
        let sw = &mut self.sides[Self::side_index(side)];
        let opened_before = sw.segments_opened;
        match sw.append(&record, seq, &self.config) {
            Ok(bytes) => {
                self.next_seq += 1;
                self.bytes += bytes;
                self.bytes_written.add(bytes);
                self.frames_written.incr();
                self.segments_opened.add(sw.segments_opened - opened_before);
                match record {
                    ArchiveRecord::Block(_) => self.blocks += 1,
                    ArchiveRecord::Tx(_) => self.txs += 1,
                }
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// Flushes both sides' buffered frames to the OS.
    pub fn flush(&mut self) -> Result<(), ArchiveError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        for sw in self.sides.iter_mut() {
            sw.flush()?;
        }
        self.flushes.incr();
        Ok(())
    }

    /// Flushes and closes all segments, writes `manifest.json`, and returns
    /// whole-archive stats. Surfaces any sticky ingestion error.
    pub fn finish(mut self, meta: Option<ArchiveMeta>) -> Result<ArchiveStats, ArchiveError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut segments = 0;
        for sw in self.sides.iter_mut() {
            sw.close_current()?;
            segments += sw.segments_opened;
        }
        self.flushes.incr();
        write_manifest(&self.dir, meta, self.blocks, self.txs, None)?;
        Ok(ArchiveStats {
            blocks: self.blocks,
            txs: self.txs,
            bytes: self.bytes,
            segments,
        })
    }
}

/// What [`ArchiveWriter::compact_below`] removed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Segment files deleted across both sides.
    pub removed_segments: u64,
    /// Block records that went with them.
    pub removed_blocks: u64,
    /// Tx records that went with them.
    pub removed_txs: u64,
    /// Segment files retained across both sides.
    pub retained_segments: u64,
    /// Block records still readable.
    pub retained_blocks: u64,
    /// Tx records still readable.
    pub retained_txs: u64,
}

impl ArchiveWriter {
    /// Prunes whole segments whose blocks all precede `cutoff` (exclusive)
    /// and rewrites `manifest.json` with the surviving totals.
    ///
    /// Only a *prefix* of each side's segment sequence is removable: block
    /// numbers ascend per side, and tx frames carry no block number, so a
    /// tx-only segment is pruned together with the block segments around it.
    /// The tail segment is never pruned — the archive stays append-able and
    /// never becomes side-less. Retained segments are untouched (their
    /// numbering keeps its gap; readers sort indices, not assume contiguity).
    pub fn compact_below(dir: &Path, cutoff: u64) -> Result<CompactReport, ArchiveError> {
        let mut report = CompactReport::default();
        for side in [Side::Eth, Side::Etc] {
            let side_dir = dir.join(side_dir_name(side));
            if !side_dir.is_dir() {
                continue;
            }
            let mut segments = list_segments(&side_dir)?;
            segments.sort();
            let mut scans = Vec::with_capacity(segments.len());
            for &seg in &segments {
                let path = side_dir.join(segment_file_name(seg));
                let scan = scan_segment(&path, side)?;
                scans.push((path, scan));
            }
            let mut prefix = 0;
            for (i, (_, scan)) in scans.iter().enumerate() {
                if i + 1 == scans.len() {
                    break; // never prune the tail
                }
                if scan.block_range.is_some_and(|(_, hi)| hi >= cutoff) {
                    break;
                }
                prefix = i + 1;
            }
            for (i, (path, scan)) in scans.iter().enumerate() {
                if i < prefix {
                    fs::remove_file(path).map_err(|e| ArchiveError::io(path, e))?;
                    report.removed_segments += 1;
                    report.removed_blocks += scan.blocks;
                    report.removed_txs += scan.txs;
                } else {
                    report.retained_segments += 1;
                    report.retained_blocks += scan.blocks;
                    report.retained_txs += scan.txs;
                }
            }
        }
        let manifest = dir.join("manifest.json");
        let meta = crate::reader::read_manifest(&manifest)?;
        write_manifest(
            dir,
            meta,
            report.retained_blocks,
            report.retained_txs,
            Some(cutoff),
        )?;
        Ok(report)
    }
}

/// Writes `manifest.json`. `compacted_below` records the cutoff of the last
/// [`ArchiveWriter::compact_below`], if any.
fn write_manifest(
    dir: &Path,
    meta: Option<ArchiveMeta>,
    blocks: u64,
    txs: u64,
    compacted_below: Option<u64>,
) -> Result<(), ArchiveError> {
    let mut fields = vec![(
        "schema".to_string(),
        Value::Str("fork-archive/v1".to_string()),
    )];
    if let Some(m) = meta {
        // Seed as a string: JSON numbers are f64 and a 64-bit seed would
        // lose precision past 2^53.
        fields.push(("seed".to_string(), Value::Str(m.seed.to_string())));
        fields.push(("start_unix".to_string(), Value::Num(m.start_unix as f64)));
        fields.push(("end_unix".to_string(), Value::Num(m.end_unix as f64)));
    }
    fields.push(("blocks".to_string(), Value::Num(blocks as f64)));
    fields.push(("txs".to_string(), Value::Num(txs as f64)));
    if let Some(cutoff) = compacted_below {
        fields.push(("compacted_below".to_string(), Value::Num(cutoff as f64)));
    }
    let manifest = dir.join("manifest.json");
    fs::write(&manifest, Value::Obj(fields).to_json_pretty())
        .map_err(|e| ArchiveError::io(&manifest, e))
}

impl LedgerSink for ArchiveWriter {
    fn block(&mut self, record: BlockRecord) {
        self.append(record.network, ArchiveRecord::Block(record));
    }
    fn tx(&mut self, record: TxRecord) {
        self.append(record.network, ArchiveRecord::Tx(record));
    }
}

/// Segment indices present in a side directory.
pub(crate) fn list_segments(side_dir: &Path) -> Result<Vec<u32>, ArchiveError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(side_dir).map_err(|e| ArchiveError::io(side_dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| ArchiveError::io(side_dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u32>().ok())
        {
            out.push(idx);
        }
    }
    Ok(out)
}

fn remove_segments(side_dir: &Path) -> Result<(), ArchiveError> {
    for idx in list_segments(side_dir)? {
        let path = side_dir.join(segment_file_name(idx));
        fs::remove_file(&path).map_err(|e| ArchiveError::io(&path, e))?;
    }
    Ok(())
}

fn truncate_to(path: &Path, len: u64) -> Result<(), ArchiveError> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| ArchiveError::io(path, e))?;
    file.set_len(len).map_err(|e| ArchiveError::io(path, e))?;
    file.sync_all().map_err(|e| ArchiveError::io(path, e))
}

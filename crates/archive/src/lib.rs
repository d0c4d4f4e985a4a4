//! fork-archive: a durable, append-only block/tx archive.
//!
//! The paper's methodology is *archive then re-analyze*: every block and
//! transaction is exported to a separate database and each figure is a query
//! over it. This crate is that layer for the reproduction. An archive is a
//! directory with one segment subdirectory per network side plus a
//! `manifest.json`; records are length-prefixed, checksummed frames (see
//! [`format`]) carrying a global sequence number so a replay reconstructs
//! the exact cross-side interleaving the analytics pipeline saw live.
//!
//! - [`ArchiveWriter`] implements `fork_sim::LedgerSink`: any micro/meso run
//!   streams to disk, typically tee'd alongside the live pipeline.
//! - [`ArchiveReader`] opens with a header-only scan (torn tails recovered,
//!   sparse number/time indexes built), then serves full scans, range
//!   queries, [`ArchiveReader::replay_into`], and a checksum-walking
//!   [`ArchiveReader::verify`].
//!
//! Corruption is a reported condition, never a panic: see [`ArchiveError`],
//! [`OpenReport`], and [`VerifyReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod reader;
pub mod segment;
pub mod sidecar;
pub mod writer;

pub use error::ArchiveError;
pub use format::{ArchiveRecord, Codec};
pub use reader::{
    merge_by_seq, ArchiveReader, OpenReport, RecordStream, SegmentVerify, VerifyReport,
};
pub use segment::{SegmentCursor, SegmentScan};
pub use sidecar::{
    archive_fingerprint, archive_format_version, HashIndex, IndexEntry, SidecarCheck, SidecarFault,
    SidecarLoad, SIDECAR_FILE,
};
pub use writer::{ArchiveConfig, ArchiveMeta, ArchiveStats, ArchiveWriter, CompactReport};

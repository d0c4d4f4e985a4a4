//! The generated archive on disk plus what the benchmark itself knows
//! about it (the hot region and, for spot checks, which record every hot
//! hash must resolve to).

use std::collections::HashMap;
use std::path::Path;

use fork_archive::{ArchiveReader, ArchiveRecord, ArchiveStats};
use fork_primitives::H256;
use fork_query::{
    FoundRecord, FrameCache, Lookup, LookupOutput, QueryError, QueryExecutor, QueryOutput,
    ReaderPool, DEFAULT_CACHE_SHARDS,
};

use crate::gen::{self, Generated, Op};
use crate::harness::Env;
use crate::tempdir::TempDir;

/// A generated archive written under the run's scratch directory.
#[derive(Debug)]
pub struct Fixture {
    /// Scratch directory holding the archive; removed on drop.
    pub dir: TempDir,
    /// The record stream and hot region it was written from.
    pub gen: Generated,
    /// What the writer reported.
    pub stats: ArchiveStats,
}

impl Fixture {
    /// Generates the shared archive for `env` and writes it.
    pub fn build(env: &Env, tag: &str) -> Fixture {
        let gen = gen::generate(env.seed, env.sizes.eth_blocks, env.sizes.hot_blocks);
        let dir = TempDir::under(&env.out, tag);
        let stats = gen::write_archive(dir.path(), &gen.records).expect("write generated archive");
        Fixture { dir, gen, stats }
    }

    /// The archive directory.
    pub fn path(&self) -> &Path {
        self.dir.path()
    }

    /// Records in the archive.
    pub fn records(&self) -> u64 {
        self.gen.records.len() as u64
    }

    /// Bytes on disk (segments, manifest, sidecar if built) per record.
    pub fn bytes_per_record(&self) -> f64 {
        gen::dir_bytes(self.path()) as f64 / self.records().max(1) as f64
    }

    /// A pool over the archive with the run's scaled cache.
    pub fn open_pool(&self, env: &Env) -> ReaderPool {
        let reader = ArchiveReader::open(self.path()).expect("open generated archive");
        ReaderPool::new(
            reader,
            FrameCache::new(env.sizes.cache_bytes, DEFAULT_CACHE_SHARDS),
        )
    }
}

/// What each hot hash must resolve to, known from the generator alone.
#[derive(Debug, Default)]
pub struct Truth {
    first: HashMap<(bool, H256), usize>,
}

impl Truth {
    /// Indexes the first block and first tx carrying each hot hash.
    pub fn of(gen: &Generated) -> Truth {
        let mut first: HashMap<(bool, H256), usize> = gen
            .hot
            .block_hashes
            .iter()
            .map(|h| ((true, *h), usize::MAX))
            .chain(gen.hot.tx_hashes.iter().map(|h| ((false, *h), usize::MAX)))
            .collect();
        for (i, record) in gen.records.iter().enumerate() {
            let key = match record {
                ArchiveRecord::Block(b) => (true, b.hash),
                ArchiveRecord::Tx(t) => (false, t.hash),
            };
            if let Some(slot) = first.get_mut(&key) {
                *slot = (*slot).min(i);
            }
        }
        Truth { first }
    }

    /// The answer a correct hash lookup gives.
    pub fn expected(&self, gen: &Generated, lookup: &Lookup) -> Option<LookupOutput> {
        let key = match lookup {
            Lookup::BlockByHash { hash } => (true, *hash),
            Lookup::TxByHash { hash } => (false, *hash),
            _ => return None,
        };
        let found = self.first.get(&key).map(|&i| {
            let record = gen.records[i].clone();
            let side = match &record {
                ArchiveRecord::Block(b) => b.network,
                ArchiveRecord::Tx(t) => t.network,
            };
            FoundRecord {
                seq: i as u64,
                side,
                record,
            }
        });
        Some(LookupOutput::Found(found))
    }
}

/// What an [`Op`] evaluates to. Answers are made one at a time, compared
/// and dropped, so the lookup variant's size costs nothing worth a `Box`.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Answer {
    /// A lookup's output.
    Lookup(LookupOutput),
    /// A query's output.
    Query(QueryOutput),
}

/// Evaluates `op` through the pooled, cached, indexed path.
pub fn run_local(exec: &QueryExecutor, pool: &ReaderPool, op: &Op) -> Result<Answer, QueryError> {
    match op {
        Op::Lookup(l) => exec.run_lookup(pool, l).map(Answer::Lookup),
        Op::Query(q) => exec.run(pool, q).map(Answer::Query),
    }
}

/// Evaluates `op` by plain full scans: no pool, no cache, no index.
pub fn run_naive(reader: &ArchiveReader, op: &Op) -> Result<Answer, QueryError> {
    match op {
        Op::Lookup(l) => QueryExecutor::run_lookup_naive(reader, l).map(Answer::Lookup),
        Op::Query(q) => QueryExecutor::run_naive(reader, q).map(Answer::Query),
    }
}

//! `ingest`: the write side next to the reads — one in-memory record
//! stream written, opened, verified, indexed, reopened and replayed.

use std::path::Path;
use std::time::{Duration, Instant};

use fork_analytics::Pipeline;
use fork_archive::format::encode_frame;
use fork_archive::{ArchiveReader, ArchiveStats, HashIndex, SidecarLoad, SIDECAR_FILE};
use fork_query::ReaderPool;
use fork_replay::Side;

use crate::gen::{self, Generated};
use crate::harness::{ns_per_call, Env, Layers, Rep, Tally, Workload};
use crate::stats;
use crate::tempdir::TempDir;
use crate::trace::{enter, exit, Lane};

/// Seconds each link of the chain took, and what it left behind.
struct Chain {
    write_s: f64,
    open_s: f64,
    verify_s: f64,
    index_build_s: f64,
    reopen_s: f64,
    index_load_s: f64,
    replay_s: f64,
    stats: ArchiveStats,
    sidecar_bytes: u64,
    index_entries: usize,
    bytes_per_record: f64,
    /// `verify()` clean, the first index pass rebuilt, the second loaded.
    healthy: bool,
    replayed: Pipeline,
}

/// Every series the pipeline exports, as one string to compare.
fn exports(p: &Pipeline) -> String {
    let mut series = Vec::new();
    for side in [Side::Eth, Side::Etc] {
        series.extend([
            p.blocks_per_hour(side),
            p.hourly_difficulty(side),
            p.block_delta(side),
            p.daily_difficulty(side),
            p.txs_per_day(side),
            p.contract_tx_percent(side),
            p.echoes_per_day(side),
            p.echo_percent(side),
            p.pool_top_n(side, 3),
        ]);
    }
    let refs: Vec<_> = series.iter().collect();
    format!(
        "{}{:?}{:?}",
        fork_analytics::to_json(&refs),
        p.totals(Side::Eth),
        p.totals(Side::Etc)
    )
}

fn timed<T>(lane: &mut Option<Lane>, name: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
    enter(lane, name, 1);
    let started = Instant::now();
    let out = f();
    let s = started.elapsed().as_secs_f64();
    exit(lane);
    (s, out)
}

fn chain(dir: &Path, gen: &Generated, lane: &mut Option<Lane>) -> Chain {
    let (write_s, stats) = timed(lane, "archive.write", || {
        gen::write_archive(dir, &gen.records).expect("write")
    });
    let (open_s, reader) = timed(lane, "archive.open", || {
        ArchiveReader::open(dir).expect("open")
    });
    let (verify_s, clean) = timed(lane, "archive.verify", || reader.verify().is_clean());
    let (index_build_s, (index, how)) = timed(lane, "archive.index.build", || {
        HashIndex::load_or_build(&reader)
    });
    let (reopen_s, pool) = timed(lane, "archive.reopen", || {
        ReaderPool::open(dir).expect("reopen")
    });
    let (index_load_s, loaded) = timed(lane, "archive.index.load", || pool.hash_index().len());
    let mut pipeline = Pipeline::new();
    let (replay_s, replayed) = timed(lane, "archive.replay", || {
        pool.reader().replay_into(&mut pipeline)
    });
    Chain {
        write_s,
        open_s,
        verify_s,
        index_build_s,
        reopen_s,
        index_load_s,
        replay_s,
        stats,
        sidecar_bytes: std::fs::metadata(dir.join(SIDECAR_FILE)).map_or(0, |m| m.len()),
        index_entries: index.len(),
        bytes_per_record: gen::dir_bytes(dir) as f64 / gen.records.len().max(1) as f64,
        healthy: clean
            && matches!(how, SidecarLoad::Rebuilt(_))
            && loaded == index.len()
            && replayed.is_ok_and(|n| n == gen.records.len() as u64),
        replayed: pipeline,
    }
}

/// `ingest`.
#[derive(Default)]
pub struct Ingest {
    gen: Option<Generated>,
    bytes_per_record: Option<f64>,
}

impl Ingest {
    fn run_chain(&mut self, env: &Env, trace: Option<Instant>) -> (Chain, f64, Option<Lane>) {
        let gen = self.gen.as_ref().expect("set up");
        let dir = TempDir::under(&env.out, "ingest");
        let mut lane = trace.map(|origin| Lane::new(origin, 0));
        enter(&mut lane, "repetition", 0);
        let started = Instant::now();
        let c = chain(dir.path(), gen, &mut lane);
        let wall_s = started.elapsed().as_secs_f64();
        exit(&mut lane);
        self.bytes_per_record = Some(c.bytes_per_record);
        (c, wall_s, lane)
    }
}

impl Workload for Ingest {
    fn setup(&mut self, env: &Env) {
        self.gen = None;
        self.gen = Some(gen::generate(env.seed, env.sizes.eth_blocks, 0));
    }

    fn check(&mut self, env: &Env) -> Tally {
        let (c, _, _) = self.run_chain(env, None);
        let mut live = Pipeline::new();
        gen::feed(&self.gen.as_ref().expect("set up").records, &mut live);
        let mut tally = Tally::default();
        tally.check(c.healthy);
        tally.check(exports(&c.replayed) == exports(&live));
        tally
    }

    fn rep(&mut self, env: &Env, _budget: Duration, trace: Option<Instant>) -> Rep {
        let (c, wall_s, lane) = self.run_chain(env, trace);
        let records = c.stats.blocks + c.stats.txs;
        Rep {
            wall_s,
            ops: if c.healthy { records } else { 0 },
            attempted: records,
            failed: if c.healthy { 0 } else { records },
            lat_us: Vec::new(),
            lanes: lane.into_iter().collect(),
        }
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        let chains: Vec<Chain> = (0..3).map(|_| self.run_chain(env, None).0).collect();
        let gen = self.gen.as_ref().expect("set up");
        let records = gen.records.len() as f64;
        let med = |f: fn(&Chain) -> f64| stats::median(&chains.iter().map(f).collect::<Vec<_>>());
        let c = &chains[0];
        layers.set("archive.write.records_per_s", records / med(|c| c.write_s));
        layers.set("archive.open_ms", med(|c| c.open_s) * 1e3);
        layers.set(
            "archive.verify.mb_per_s",
            c.stats.bytes as f64 / 1e6 / med(|c| c.verify_s),
        );
        layers.set("archive.index.build_ms", med(|c| c.index_build_s) * 1e3);
        layers.set("archive.reopen_ms", med(|c| c.reopen_s) * 1e3);
        layers.set("archive.index.load_ms", med(|c| c.index_load_s) * 1e3);
        layers.set(
            "archive.replay.records_per_s",
            records / med(|c| c.replay_s),
        );
        layers.set("archive.segments", c.stats.segments as f64);
        layers.set(
            "archive.sidecar.bytes_per_entry",
            c.sidecar_bytes as f64 / c.index_entries.max(1) as f64,
        );

        // Encoding alone, and the pipeline alone, in memory.
        let sample = &gen.records[..gen.records.len().min(20_000)];
        let encode_ns = ns_per_call(Duration::from_millis(150), || {
            for (i, r) in sample.iter().enumerate() {
                std::hint::black_box(encode_frame(r, i as u64).len());
            }
        });
        layers.set(
            "archive.encode.records_per_s",
            sample.len() as f64 / (encode_ns / 1e9),
        );
        let pipeline_ns = ns_per_call(Duration::from_millis(300), || {
            let mut p = Pipeline::new();
            gen::feed(sample, &mut p);
            std::hint::black_box(p.totals(Side::Eth));
        });
        layers.set(
            "analytics.pipeline.records_per_s",
            sample.len() as f64 / (pipeline_ns / 1e9),
        );
    }

    fn bytes_per_record(&self) -> Option<f64> {
        self.bytes_per_record
    }

    fn teardown(&mut self) {
        self.gen = None;
    }
}

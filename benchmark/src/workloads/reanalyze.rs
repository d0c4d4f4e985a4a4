//! `reanalyze-cold` and `reanalyze-hot`: the query layer in process, used
//! the two opposite ways — scans four times the cache, and Zipf reads
//! inside it.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fork_archive::{ArchiveReader, ArchiveRecord};
use fork_query::{
    FrameCache, Lookup, Projection, Query, QueryExecutor, QueryRange, ReaderPool,
    DEFAULT_CACHE_SHARDS,
};
use fork_replay::Side;

use crate::fixture::{run_local, run_naive, Answer, Fixture, Truth};
use crate::gen::{self, Op, OpSampler, HOT_MIX};
use crate::harness::{ns_per_call, secs, Env, Layers, Rep, Tally, Workload};
use crate::stats;
use crate::trace::{enter, exit, Lane};

/// Records streamed by one pass over the 12 cold queries: four per-side
/// projections read their own side, `Echoes` ×3 and `TxRatioPerDay` read
/// both, so every record is evaluated eight times.
const COLD_EVALS_PER_RECORD: u64 = 8;

/// Correctness samples drawn per op class in the hot and served check
/// phases.
const CHECK_SAMPLES: usize = 8;

/// Copies the pool's cache counters into the per-layer table.
pub fn cache_layers(pool: &ReaderPool, layers: &mut Layers) {
    let stats = pool.cache().stats();
    layers.set("query.cache.hit_rate", stats.hit_rate());
    layers.set("query.cache.evictions", stats.evictions as f64);
    layers.set(
        "query.cache.resident_mb",
        stats.resident_bytes as f64 / (1 << 20) as f64,
    );
}

/// `reanalyze-cold`.
#[derive(Default)]
pub struct Cold {
    fx: Option<Fixture>,
    pool: Option<ReaderPool>,
    queries: Vec<Query>,
    naive_checked: u64,
}

impl Workload for Cold {
    fn setup(&mut self, env: &Env) {
        self.pool = None;
        self.fx = None;
        let fx = Fixture::build(env, "cold");
        self.pool = Some(fx.open_pool(env));
        self.fx = Some(fx);
        self.queries = gen::cold_queries();
    }

    fn check(&mut self, env: &Env) -> Tally {
        let pool = self.pool.as_ref().expect("set up");
        let got = QueryExecutor::new(env.n).run_batch(pool, &self.queries);
        let mut tally = Tally::default();
        for (q, out) in self.queries.iter().zip(&got) {
            let want = QueryExecutor::run_naive(pool.reader(), q);
            tally.check(matches!((out, &want), (Ok(a), Ok(b)) if a == b));
        }
        self.naive_checked = tally.attempted;
        tally
    }

    fn rep(&mut self, env: &Env, _budget: Duration, trace: Option<Instant>) -> Rep {
        let pool = self.pool.as_ref().expect("set up");
        let records = self.fx.as_ref().expect("set up").records();
        let exec = QueryExecutor::new(env.n);
        let mut lane = trace.map(|origin| Lane::new(origin, 0));
        let started = Instant::now();
        enter(&mut lane, "repetition", 0);
        enter(&mut lane, "query.run_batch", 1);
        let out = exec.run_batch(pool, &self.queries);
        exit(&mut lane);
        exit(&mut lane);
        let wall_s = started.elapsed().as_secs_f64();
        let failed = out.iter().filter(|r| r.is_err()).count() as u64;
        let per_query = COLD_EVALS_PER_RECORD * records / self.queries.len() as u64;
        Rep {
            wall_s,
            ops: COLD_EVALS_PER_RECORD * records - failed * per_query,
            attempted: COLD_EVALS_PER_RECORD * records,
            failed: failed * per_query,
            lat_us: Vec::new(),
            lanes: lane.into_iter().collect(),
        }
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        let fx = self.fx.as_ref().expect("set up");
        let pool = self.pool.as_ref().expect("set up");
        cache_layers(pool, layers);
        layers.set("query.naive_checked", self.naive_checked as f64);
        layers.set("archive.segments", fx.stats.segments as f64);
        let records = fx.records() as f64;
        let frame_mb = fx.stats.bytes as f64 / 1e6;

        // Nested entry points: verify() ⊂ reader.records() ⊂ pool.records()
        // ⊂ exec.run(); each level's self time is the difference.
        let (open_s, reader) = secs(|| ArchiveReader::open(fx.path()).expect("open"));
        layers.set("archive.open_ms", open_s * 1e3);
        let scan = |r: &ArchiveReader| {
            [Side::Eth, Side::Etc]
                .iter()
                .map(|s| r.records(*s).filter(|x| x.is_ok()).count())
                .sum::<usize>()
        };
        // The decode share is a small difference of two large times, so
        // each is the median of three passes.
        let (mut verify_runs, mut scan_runs) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let (verify_s, report) = secs(|| reader.verify());
            assert!(report.is_clean(), "generated archive verifies clean");
            verify_runs.push(verify_s);
            let (scan_s, n) = secs(|| scan(&reader));
            assert_eq!(n as f64, records);
            scan_runs.push(scan_s);
        }
        let (verify_s, scan_s) = (stats::median(&verify_runs), stats::median(&scan_runs));
        layers.set("archive.verify.mb_per_s", frame_mb / verify_s);
        layers.set("archive.scan.records_per_s", records / scan_s);
        let decode_self_s = (scan_s - verify_s).max(0.0);
        layers.set("archive.decode.self_share", decode_self_s / scan_s);

        // The same two kernels in memory, to cross-check those shares.
        let sample = &fx.gen.records[..fx.gen.records.len().min(20_000)];
        let payloads: Vec<Vec<u8>> = sample
            .iter()
            .enumerate()
            .map(|(i, r)| r.encode_payload(i as u64))
            .collect();
        let sample_mb = payloads.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
        let checksum_s = ns_per_call(Duration::from_millis(150), || {
            for p in &payloads {
                std::hint::black_box(fork_archive::format::checksum(p));
            }
        }) / 1e9;
        layers.set("archive.checksum.mb_per_s", sample_mb / checksum_s);
        let decode_s = ns_per_call(Duration::from_millis(150), || {
            for (p, r) in payloads.iter().zip(sample) {
                let side = match r {
                    ArchiveRecord::Block(b) => b.network,
                    ArchiveRecord::Tx(t) => t.network,
                };
                std::hint::black_box(ArchiveRecord::decode_payload(side, p).is_ok());
            }
        }) / 1e9;
        layers.set(
            "archive.decode.records_per_s",
            sample.len() as f64 / decode_s,
        );
        // Scaled from the sample to the whole archive by record count.
        let whole = records / sample.len() as f64;
        layers.set(
            "archive.verify.checksum_share",
            checksum_s * whole / verify_s,
        );
        // Decode is a few percent of the scan, so on a noisy box the
        // subtraction can come out at nothing; then there is no share to
        // agree with and the ratio reads 0, not a division by almost zero.
        layers.set(
            "archive.decode.kernel_agreement",
            if decode_self_s > 0.0 {
                decode_s * whole / decode_self_s
            } else {
                0.0
            },
        );

        // Cache fill: a cold pooled scan against the plain reader scan,
        // then the same scan again with everything resident.
        let roomy = ReaderPool::new(
            ArchiveReader::open(fx.path()).expect("open"),
            FrameCache::new(1 << 40, DEFAULT_CACHE_SHARDS),
        );
        let pooled = |p: &ReaderPool| {
            [Side::Eth, Side::Etc]
                .iter()
                .map(|s| p.records(*s).filter(|x| x.is_ok()).count())
                .sum::<usize>()
        };
        let (cold_s, _) = secs(|| pooled(&roomy));
        let (warm_s, _) = secs(|| pooled(&roomy));
        layers.set("query.pool.cold.records_per_s", records / cold_s);
        layers.set("query.pool.warm.records_per_s", records / warm_s);
        layers.set("query.cache.fill_cost_ratio", cold_s / scan_s);
        drop(roomy);

        // evaluate() per projection, through the thrashing cache as in the
        // workload. Per-side projections run on ETH, the larger side.
        let exec = QueryExecutor::new(1);
        let eth_records = fx
            .gen
            .records
            .iter()
            .filter(|r| match r {
                ArchiveRecord::Block(b) => b.network == Side::Eth,
                ArchiveRecord::Tx(t) => t.network == Side::Eth,
            })
            .count() as f64;
        for (name, side, projection, streamed) in [
            (
                "query.eval.blocks.records_per_s",
                Some(Side::Eth),
                Projection::Blocks,
                eth_records,
            ),
            (
                "query.eval.txs.records_per_s",
                Some(Side::Eth),
                Projection::Txs,
                eth_records,
            ),
            (
                "query.eval.interarrival.records_per_s",
                Some(Side::Eth),
                Projection::InterArrival,
                eth_records,
            ),
            (
                "query.eval.difficulty.records_per_s",
                Some(Side::Eth),
                Projection::Difficulty,
                eth_records,
            ),
            (
                "query.eval.echoes.records_per_s",
                Some(Side::Eth),
                Projection::Echoes { window_days: 1 },
                records,
            ),
            (
                "query.eval.txratio.records_per_s",
                None,
                Projection::TxRatioPerDay,
                records,
            ),
        ] {
            let q = Query {
                side,
                range: QueryRange::All,
                projection,
            };
            let (s, out) = secs(|| exec.run(pool, &q));
            assert!(out.is_ok());
            layers.set(name, streamed / s);
        }

        // One worker against N on the same batch.
        let (one_s, _) = secs(|| QueryExecutor::new(1).run_batch(pool, &self.queries));
        let (n_s, _) = secs(|| QueryExecutor::new(env.n).run_batch(pool, &self.queries));
        layers.set("query.exec.batch_scaling", one_s / n_s);
    }

    fn bytes_per_record(&self) -> Option<f64> {
        self.fx.as_ref().map(Fixture::bytes_per_record)
    }

    fn teardown(&mut self) {
        self.pool = None;
        self.fx = None;
    }
}

/// Everything the hot and served workloads share: the archive, a warmed
/// local pool, the generator's own truth, and the spot-check routine.
pub struct HotState {
    /// The archive.
    pub fx: Fixture,
    /// A local pool over it (the workload itself in process; the reference
    /// answer on `serve-*`).
    pub pool: ReaderPool,
    /// Executor for the local pool.
    pub exec: QueryExecutor,
    /// What each hot hash resolves to; indexed on first use, which is the
    /// check phase, so set-up does not pay for it.
    truth: OnceLock<Truth>,
}

impl HotState {
    /// Builds the archive and opens a local pool over it. With
    /// `warm_local` (the pool is the system under test) it also builds and
    /// persists the hash index and pulls the hot region into the cache;
    /// without (the pool is only the reference for served answers) that
    /// happens on first use, outside set-up.
    pub fn build(env: &Env, tag: &str, warm_local: bool) -> HotState {
        let fx = Fixture::build(env, tag);
        let pool = fx.open_pool(env);
        let st = HotState {
            fx,
            pool,
            exec: QueryExecutor::new(env.n),
            truth: OnceLock::new(),
        };
        if warm_local {
            st.warm_local();
        }
        st
    }

    /// Loads (first time: builds and persists) the hash index and scans the
    /// hot region into the local pool's cache.
    pub fn warm_local(&self) {
        self.pool.hash_index();
        for op in warm_ops(&self.fx) {
            run_local(&self.exec, &self.pool, &op).expect("warm the hot region");
        }
    }

    /// A sampler over this archive's hot region.
    pub fn sampler(&self, env: &Env, mix: gen::Mix, stream: u64) -> OpSampler<'_> {
        OpSampler::new(
            &self.fx.gen.hot,
            mix,
            env.sizes.day_window_secs,
            env.seed,
            stream,
        )
    }

    /// True unless `op` is a hash lookup whose `answer` differs from the
    /// record the generator itself put under that hash.
    pub fn matches_truth(&self, op: &Op, answer: &Answer) -> bool {
        match (op, answer) {
            (Op::Lookup(l), Answer::Lookup(got)) => {
                let truth = self.truth.get_or_init(|| Truth::of(&self.fx.gen));
                truth.expected(&self.fx.gen, l).as_ref() == Some(got)
            }
            (Op::Query(_), Answer::Query(_)) => true,
            _ => false,
        }
    }

    /// True when the local pool gives the same `answer` (the reference for
    /// served responses).
    pub fn matches_local(&self, op: &Op, answer: &Answer) -> bool {
        run_local(&self.exec, &self.pool, op).ok().as_ref() == Some(answer)
    }

    /// The check phase: [`CHECK_SAMPLES`] ops of each class, answered by
    /// `run`, against naive scans (and hash lookups against the truth too).
    pub fn check_against_naive(
        &self,
        env: &Env,
        mix: gen::Mix,
        mut run: impl FnMut(&Op) -> Option<Answer>,
    ) -> Tally {
        let mut tally = Tally::default();
        let mut sampler = self.sampler(env, mix, 0xC0DE);
        let (mut lookups, mut queries) = (0, 0);
        while lookups < CHECK_SAMPLES || queries < CHECK_SAMPLES {
            let op = sampler.next_op();
            let slot = match op {
                Op::Lookup(_) => &mut lookups,
                Op::Query(_) => &mut queries,
            };
            if *slot >= CHECK_SAMPLES {
                continue;
            }
            *slot += 1;
            let want = run_naive(self.pool.reader(), &op).ok();
            let got = run(&op);
            tally.check(
                got.is_some() && got == want && got.is_some_and(|a| self.matches_truth(&op, &a)),
            );
        }
        tally
    }
}

/// Two time-range scans, one per side, that touch every frame of the hot
/// region.
pub fn warm_ops(fx: &Fixture) -> [Op; 2] {
    let (start, end) = fx.gen.hot.time;
    [Side::Eth, Side::Etc].map(|side| {
        Op::Query(Query {
            side: Some(side),
            range: QueryRange::Time { start, end },
            projection: Projection::Txs,
        })
    })
}

/// `reanalyze-hot`.
#[derive(Default)]
pub struct Hot {
    st: Option<HotState>,
    reps_done: u64,
    naive_checked: u64,
}

impl Workload for Hot {
    fn setup(&mut self, env: &Env) {
        self.st = None;
        self.st = Some(HotState::build(env, "hot", true));
    }

    fn check(&mut self, env: &Env) -> Tally {
        let st = self.st.as_ref().expect("set up");
        let tally =
            st.check_against_naive(env, HOT_MIX, |op| run_local(&st.exec, &st.pool, op).ok());
        self.naive_checked = tally.attempted;
        tally
    }

    fn rep(&mut self, env: &Env, budget: Duration, trace: Option<Instant>) -> Rep {
        let st = self.st.as_ref().expect("set up");
        let base = self.reps_done * env.n as u64;
        self.reps_done += 1;
        closed_loop(
            st,
            env,
            &mut st.local_clients(env, base),
            base,
            budget,
            trace,
        )
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        let st = self.st.as_ref().expect("set up");
        cache_layers(&st.pool, layers);
        layers.set("query.naive_checked", self.naive_checked as f64);
        let mut sampler = st.sampler(env, HOT_MIX, 0xFEED);
        let mut lookups: Vec<Lookup> = Vec::new();
        let mut windows: Vec<Query> = Vec::new();
        while lookups.len() < 256 || windows.len() < 64 {
            match sampler.next_op() {
                Op::Lookup(l) if lookups.len() < 256 => lookups.push(l),
                Op::Query(q)
                    if matches!(q.range, QueryRange::Blocks { .. }) && windows.len() < 64 =>
                {
                    windows.push(q)
                }
                _ => {}
            }
        }
        let mut i = 0;
        let indexed_ns = ns_per_call(Duration::from_millis(200), || {
            i = (i + 1) % lookups.len();
            std::hint::black_box(st.exec.run_lookup(&st.pool, &lookups[i]).is_ok());
        });
        layers.set("query.lookup.indexed_us", indexed_ns / 1e3);
        let window_ns = ns_per_call(Duration::from_millis(300), || {
            i = (i + 1) % windows.len();
            std::hint::black_box(st.exec.run(&st.pool, &windows[i]).is_ok());
        });
        layers.set("query.window256_us", window_ns / 1e3);
        // The control: the same lookups with no index and no cache.
        let reader = st.pool.reader();
        let (naive_s, _) = secs(|| {
            for l in &lookups[..4] {
                std::hint::black_box(QueryExecutor::run_lookup_naive(reader, l).is_ok());
            }
        });
        layers.set("query.lookup.naive_us", naive_s * 1e6 / 4.0);
    }

    fn bytes_per_record(&self) -> Option<f64> {
        self.st.as_ref().map(|st| st.fx.bytes_per_record())
    }

    fn teardown(&mut self) {
        self.st = None;
    }
}

/// One client of a closed loop: where an op of the hot mix gets its answer.
pub trait Client: Send {
    /// The id the next op travels under; unique for this client's lifetime.
    fn next_id(&mut self) -> u64;
    /// Span name of the layer call that answers `op`.
    fn span(&self, op: &Op) -> &'static str;
    /// Answers `op`; `None` when the call failed or was refused.
    fn call(&mut self, id: u64, op: &Op) -> Option<Answer>;
    /// The 1-in-64 spot check of an answer this client returned.
    fn spot_check(&self, st: &HotState, op: &Op, answer: &Answer) -> bool;
}

/// The in-process client: the pooled, cached, indexed path, spot-checked
/// against the generator's own truth.
pub struct Local<'a> {
    st: &'a HotState,
    next: u64,
}

impl HotState {
    /// N in-process clients over this state's pool, for the loop that
    /// draws streams `stream_base..`; the stream number prefixes the op
    /// ids, so no two loops of a trace share one.
    pub fn local_clients(&self, env: &Env, stream_base: u64) -> Vec<Local<'_>> {
        (0..env.n as u64)
            .map(|t| Local {
                st: self,
                next: (stream_base + t + 1) << 32,
            })
            .collect()
    }
}

impl Client for Local<'_> {
    fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    fn span(&self, op: &Op) -> &'static str {
        op.layer_call()
    }

    fn call(&mut self, _id: u64, op: &Op) -> Option<Answer> {
        run_local(&self.st.exec, &self.st.pool, op).ok()
    }

    fn spot_check(&self, st: &HotState, op: &Op, answer: &Answer) -> bool {
        st.matches_truth(op, answer)
    }
}

/// A closed loop of the hot mix for `budget`: one thread per client, each
/// sending its next op only when the previous one has been answered.
pub fn closed_loop<C: Client>(
    st: &HotState,
    env: &Env,
    clients: &mut [C],
    stream_base: u64,
    budget: Duration,
    trace: Option<Instant>,
) -> Rep {
    let started = Instant::now();
    let deadline = started + budget;
    let mut rep = Rep::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                scope.spawn(move || {
                    let mut sampler = st.sampler(env, HOT_MIX, stream_base + t as u64);
                    let mut lane = trace.map(|origin| Lane::new(origin, t as u32));
                    let (mut ops, mut failed) = (0u64, 0u64);
                    let mut lat_us = Vec::with_capacity(1 << 16);
                    enter(&mut lane, "repetition", 0);
                    while Instant::now() < deadline {
                        let op = sampler.next_op();
                        let id = client.next_id();
                        let begun = Instant::now();
                        enter(&mut lane, "op", id);
                        enter(&mut lane, client.span(&op), id);
                        let answer = client.call(id, &op);
                        exit(&mut lane);
                        exit(&mut lane);
                        let lat = begun.elapsed().as_nanos() as f64 / 1e3;
                        let ok = match &answer {
                            Some(a) if id.is_multiple_of(64) => client.spot_check(st, &op, a),
                            Some(_) => true,
                            None => false,
                        };
                        if ok {
                            ops += 1;
                            lat_us.push(lat);
                        } else {
                            failed += 1;
                        }
                    }
                    exit(&mut lane);
                    (ops, failed, lat_us, lane)
                })
            })
            .collect();
        for handle in handles {
            let (ops, failed, mut lat_us, lane) = handle.join().expect("client thread");
            rep.ops += ops;
            rep.failed += failed;
            rep.lat_us.append(&mut lat_us);
            rep.lanes.extend(lane);
        }
    });
    rep.wall_s = started.elapsed().as_secs_f64();
    rep.attempted = rep.ops + rep.failed;
    rep
}

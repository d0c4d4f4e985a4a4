//! The headline API: configure, run, extract figures.

use std::path::Path;

use fork_analytics::{Pipeline, TimeSeries};
use fork_archive::{ArchiveConfig, ArchiveError, ArchiveMeta, ArchiveReader, ArchiveWriter};
use fork_market::PriceSeries;
use fork_primitives::SimTime;
use fork_query::{
    CacheStats, Projection, Query, QueryError, QueryExecutor, QueryOutput, QueryRange, ReaderPool,
};
use fork_replay::Side;
use fork_sim::scenario;
use fork_sim::{MesoConfig, ProgressEvent, RunSummary, SimRng, TeeSink, TwoChainEngine};

use crate::figures::{FigureData, FigurePanel};

/// A configured fork study, ready to run.
///
/// ```
/// use fork_core::ForkStudy;
/// // A fast, test-scale run (seconds); use `fork_month`/`nine_months`
/// // for the paper-scale experiments.
/// let result = ForkStudy::quick(42).run();
/// let fig1 = result.figure1();
/// assert_eq!(fig1.panels.len(), 3);
/// ```
pub struct ForkStudy {
    config: MesoConfig,
    seed: u64,
}

impl ForkStudy {
    /// The Figure 1 window: one month after the fork, full difficulty scale.
    pub fn fork_month(seed: u64) -> Self {
        ForkStudy {
            config: scenario::fork_month(seed),
            seed,
        }
    }

    /// The full nine-month study window (Figures 2–5).
    pub fn nine_months(seed: u64) -> Self {
        ForkStudy {
            config: scenario::nine_months(seed),
            seed,
        }
    }

    /// A custom window of `days` on the calibrated scenario.
    pub fn days(seed: u64, days: u64) -> Self {
        ForkStudy {
            config: scenario::dao_scenario(seed, days),
            seed,
        }
    }

    /// A down-scaled configuration for tests and doc examples: the full
    /// mechanism at toy difficulty over a few simulated hours.
    pub fn quick(seed: u64) -> Self {
        let mut config = scenario::dao_scenario(seed, 17);
        config.end = config.start.plus_secs(6 * 3_600);
        // Shrink difficulty and hashrate together (operating point ~14 s),
        // staying above the protocol's 131,072 difficulty floor.
        config.genesis_difficulty = fork_primitives::U256::from_u64(1_400_000);
        fn scale_series(s: &fork_sim::StepSeries) -> fork_sim::StepSeries {
            fork_sim::StepSeries::from_knots(
                s.knots()
                    .iter()
                    .map(|(t, v)| (*t, v / 4.4e7))
                    .collect::<Vec<_>>(),
            )
        }
        config.eth.hashrate = scale_series(&config.eth.hashrate);
        // Soften ETC's collapse to 8% (instead of 0.5%) so the toy window
        // still produces ETC blocks — the echo and pool mechanisms need an
        // ETC ledger to land in. The paper-scale presets keep the real
        // near-total collapse.
        let etc_level = config.eth.hashrate.at(config.start) * 0.08;
        config.etc.hashrate = fork_sim::StepSeries::constant(etc_level);
        config.users = 60;
        config.retention = 32;
        ForkStudy { config, seed }
    }

    /// Direct access to the underlying configuration (ablation benches
    /// mutate schedules before running).
    pub fn config_mut(&mut self) -> &mut MesoConfig {
        &mut self.config
    }

    /// Runs the simulation and collects the measurement pipeline.
    pub fn run(self) -> StudyResult {
        self.run_with_progress(None)
    }

    /// Like [`run`](Self::run), but forwards a per-simulated-day heartbeat
    /// to `progress` (see [`fork_sim::ProgressEvent`]). The callback is
    /// observation-only: results are byte-identical with or without it.
    pub fn run_with_progress(self, progress: Option<&mut dyn FnMut(ProgressEvent)>) -> StudyResult {
        let mut engine = TwoChainEngine::new(self.config.clone());
        let mut pipeline = Pipeline::new();
        pipeline.attach_telemetry(engine.telemetry());
        let mut sink = fork_sim::MeteredSink::registered(pipeline, engine.telemetry());
        let summary = engine.run_with_progress(&mut sink, progress);
        let telemetry = engine.telemetry().snapshot();
        let pipeline = sink.into_inner();
        // Regenerate the exact price series the scenario's hashpower
        // allocation used (same seed, same fork label).
        let mut price_rng = SimRng::new(self.seed).fork("prices");
        let (eth_usd, etc_usd) = fork_market::calibrated_pair(&mut price_rng);
        StudyResult {
            pipeline,
            summary,
            eth_usd,
            etc_usd,
            start: self.config.start,
            end: self.config.end,
            telemetry,
        }
    }

    /// Runs the simulation exactly as [`run`](Self::run) does while also
    /// streaming every finalized block and transaction into a durable
    /// [`fork_archive`] at `dir`. The archive's manifest records the seed
    /// and study window, so [`StudyResult::from_archive`] can later replay
    /// the run — byte-identical figure exports included — without
    /// re-simulating.
    ///
    /// The directory is created (and any previous archive in it replaced).
    /// Archive I/O rides the engine's telemetry registry, so the returned
    /// snapshot includes `archive.bytes_written`, `archive.frames`, and
    /// friends.
    pub fn archive_to(self, dir: impl AsRef<std::path::Path>) -> Result<StudyResult, ArchiveError> {
        self.archive_to_with(dir, ArchiveConfig::default())
    }

    /// [`archive_to`](Self::archive_to) with an explicit archive
    /// configuration — segment size and on-disk codec (e.g.
    /// [`fork_archive::Codec::Delta`] for the compressed format).
    pub fn archive_to_with(
        self,
        dir: impl AsRef<std::path::Path>,
        config: ArchiveConfig,
    ) -> Result<StudyResult, ArchiveError> {
        let meta = ArchiveMeta {
            seed: self.seed,
            start_unix: self.config.start.as_unix(),
            end_unix: self.config.end.as_unix(),
        };
        let mut engine = TwoChainEngine::new(self.config.clone());
        let mut pipeline = Pipeline::new();
        pipeline.attach_telemetry(engine.telemetry());
        let mut writer =
            ArchiveWriter::create_with(dir.as_ref(), config)?.with_telemetry(engine.telemetry());
        let summary = {
            let tee = TeeSink {
                a: &mut pipeline,
                b: &mut writer,
            };
            let mut sink = fork_sim::MeteredSink::registered(tee, engine.telemetry());
            engine.run(&mut sink)
        };
        writer.finish(Some(meta))?;
        let telemetry = engine.telemetry().snapshot();
        let mut price_rng = SimRng::new(self.seed).fork("prices");
        let (eth_usd, etc_usd) = fork_market::calibrated_pair(&mut price_rng);
        Ok(StudyResult {
            pipeline,
            summary,
            eth_usd,
            etc_usd,
            start: self.config.start,
            end: self.config.end,
            telemetry,
        })
    }
}

/// Rebuilds per-side [`RunSummary`] counters from the archived stream.
///
/// `replay_pushes` is an engine-internal counter that never reaches the
/// ledger stream, so it is not recoverable and stays 0; everything the
/// figures depend on flows through the pipeline, not the summary.
#[derive(Default)]
struct ReplaySummarySink {
    blocks: [u64; 2],
    txs: [u64; 2],
    final_difficulty: [fork_primitives::U256; 2],
}

impl ReplaySummarySink {
    fn side_index(side: Side) -> usize {
        match side {
            Side::Eth => 0,
            Side::Etc => 1,
        }
    }

    fn into_summary(self) -> RunSummary {
        RunSummary {
            blocks: self.blocks,
            txs: self.txs,
            replay_pushes: 0,
            final_difficulty: self.final_difficulty,
        }
    }
}

impl fork_sim::LedgerSink for ReplaySummarySink {
    fn block(&mut self, record: fork_analytics::BlockRecord) {
        let i = Self::side_index(record.network);
        self.blocks[i] += 1;
        self.final_difficulty[i] = record.difficulty;
    }

    fn tx(&mut self, record: fork_analytics::TxRecord) {
        self.txs[Self::side_index(record.network)] += 1;
    }
}

/// The paper aggregates of an archived run, re-derived by the fork-query
/// engine instead of a full pipeline replay. See
/// [`StudyResult::aggregates_from_archive`].
#[derive(Debug, Clone)]
pub struct ArchiveAggregates {
    /// Inter-block arrival histograms for `[ETH, ETC]` — bit-identical to
    /// the live run's `meso.interarrival.{eth,etc}` telemetry histograms.
    pub interarrival: [fork_telemetry::HistogramSnapshot; 2],
    /// Daily mean difficulty for `[ETH, ETC]` — bit-identical to the live
    /// pipeline's `daily_difficulty`.
    pub daily_difficulty: [TimeSeries; 2],
    /// Pointwise ETH:ETC transactions-per-day ratio.
    pub tx_ratio_per_day: TimeSeries,
    /// Daily echo counts into `[ETH, ETC]` — bit-identical to the live
    /// pipeline's `echoes_per_day`.
    pub echoes_per_day: [TimeSeries; 2],
    /// Frame-cache counters after the batch.
    pub cache: CacheStats,
    /// Per-query latency (`query.latency`, microseconds; empty when the
    /// build compiles telemetry out).
    pub latency: fork_telemetry::HistogramSnapshot,
}

fn expect_histogram(out: QueryOutput) -> fork_telemetry::HistogramSnapshot {
    match out {
        QueryOutput::Histogram(h) => *h,
        other => unreachable!("histogram projection returned {other:?}"),
    }
}

fn expect_series(out: QueryOutput) -> TimeSeries {
    match out {
        QueryOutput::Series(s) => s,
        other => unreachable!("series projection returned {other:?}"),
    }
}

/// A completed run: the aggregated pipeline plus market context.
pub struct StudyResult {
    /// The aggregation pipeline (all per-hour/per-day metrics).
    pub pipeline: Pipeline,
    /// Run counters.
    pub summary: RunSummary,
    /// The ETH/USD series in force during the run.
    pub eth_usd: PriceSeries,
    /// The ETC/USD series in force during the run.
    pub etc_usd: PriceSeries,
    /// Window start.
    pub start: SimTime,
    /// Window end.
    pub end: SimTime,
    /// The engine's telemetry at the end of the run: step-phase spans, both
    /// stores' import counters/timings, sink throughput.
    pub telemetry: fork_telemetry::Snapshot,
}

impl StudyResult {
    /// Reconstructs a study from an archive written by
    /// [`ForkStudy::archive_to`], without re-running the simulation.
    ///
    /// The archived record stream is replayed — in its original global
    /// order — through a fresh [`Pipeline`], so every figure export is
    /// byte-identical to the live run's. Prices are regenerated from the
    /// manifest's seed (the same derivation the live run used). The
    /// returned summary is rebuilt from the stream: `replay_pushes` is not
    /// recoverable (always 0), and a side that mined no blocks reports
    /// zero difficulty rather than the genesis difficulty.
    ///
    /// Fails with [`ArchiveError::Manifest`] when the archive carries no
    /// manifest (e.g. it was produced by a raw [`ArchiveWriter`] finished
    /// without [`ArchiveMeta`]).
    pub fn from_archive(dir: impl AsRef<Path>) -> Result<StudyResult, ArchiveError> {
        let dir = dir.as_ref();
        let registry = fork_telemetry::MetricsRegistry::new();
        let reader = ArchiveReader::open_with_telemetry(dir, &registry)?;
        let meta = reader.meta().ok_or_else(|| ArchiveError::Manifest {
            path: dir.join("manifest.json"),
            detail: "no manifest (seed and window unknown); archive studies with \
                     ForkStudy::archive_to, or pass ArchiveMeta to ArchiveWriter::finish"
                .into(),
        })?;
        let mut pipeline = Pipeline::new();
        pipeline.attach_telemetry(&registry);
        let mut recount = ReplaySummarySink::default();
        {
            let mut tee = TeeSink {
                a: &mut pipeline,
                b: &mut recount,
            };
            reader.replay_into_sink(&mut tee)?;
        }
        let mut price_rng = SimRng::new(meta.seed).fork("prices");
        let (eth_usd, etc_usd) = fork_market::calibrated_pair(&mut price_rng);
        Ok(StudyResult {
            pipeline,
            summary: recount.into_summary(),
            eth_usd,
            etc_usd,
            start: SimTime::from_unix(meta.start_unix),
            end: SimTime::from_unix(meta.end_unix),
            telemetry: registry.snapshot(),
        })
    }

    /// Re-derives the paper aggregates straight from an archive through the
    /// fork-query engine — an 8-worker [`QueryExecutor`] over a shared
    /// [`ReaderPool`] — without re-running the simulation *or* replaying
    /// the full pipeline. The batch covers both sides' inter-arrival
    /// histograms, daily difficulty, the ETH:ETC tx-per-day ratio, and
    /// daily echo counts; each result is bit-identical to what the live
    /// run produced (`assert`ed in this crate's tests).
    ///
    /// Unlike [`StudyResult::from_archive`] this works on manifest-less
    /// archives too: the aggregates need only the record stream.
    pub fn aggregates_from_archive(dir: impl AsRef<Path>) -> Result<ArchiveAggregates, QueryError> {
        let pool = ReaderPool::open(dir.as_ref())?;
        let exec = QueryExecutor::new(8);
        let q = |side: Option<Side>, projection| Query {
            side,
            range: QueryRange::All,
            projection,
        };
        let batch = [
            q(Some(Side::Eth), Projection::InterArrival),
            q(Some(Side::Etc), Projection::InterArrival),
            q(Some(Side::Eth), Projection::Difficulty),
            q(Some(Side::Etc), Projection::Difficulty),
            q(None, Projection::TxRatioPerDay),
            q(Some(Side::Eth), Projection::Echoes { window_days: 1 }),
            q(Some(Side::Etc), Projection::Echoes { window_days: 1 }),
        ];
        let mut results = exec.run_batch(&pool, &batch).into_iter();
        let mut next = || results.next().expect("one result per query");
        Ok(ArchiveAggregates {
            interarrival: [expect_histogram(next()?), expect_histogram(next()?)],
            daily_difficulty: [expect_series(next()?), expect_series(next()?)],
            tx_ratio_per_day: expect_series(next()?),
            echoes_per_day: [expect_series(next()?), expect_series(next()?)],
            cache: pool.cache().stats(),
            latency: exec.latency_snapshot(),
        })
    }

    /// Block inter-arrival distributions (`meso.interarrival.{eth,etc}`
    /// telemetry histograms) as figure-style series: x is each occupied
    /// log2 bucket's lower bound in seconds, y its block count. Empty for
    /// archive replays, which carry no engine histograms.
    pub fn interarrival_series(&self) -> Vec<TimeSeries> {
        let mut out = Vec::new();
        for (name, label) in [
            ("meso.interarrival.eth", "ETH inter-arrival (s)"),
            ("meso.interarrival.etc", "ETC inter-arrival (s)"),
        ] {
            if let Some(h) = self.telemetry.histograms.get(name) {
                out.push(fork_analytics::histogram_series(label, h));
            }
        }
        out
    }

    /// Figure 1: blocks/hour, block difficulty, inter-block delta — the
    /// month following the fork.
    pub fn figure1(&self) -> FigureData {
        FigureData {
            id: "fig1",
            caption: "Blocks per hour, block difficulty, and time delta between blocks \
                      the month following the hard fork",
            panels: vec![
                FigurePanel {
                    title: "Blocks per Hour".into(),
                    series: vec![
                        self.pipeline.blocks_per_hour(Side::Eth),
                        self.pipeline.blocks_per_hour(Side::Etc),
                    ],
                    log_scale: false,
                },
                FigurePanel {
                    title: "Block Difficulty".into(),
                    series: vec![
                        self.pipeline.hourly_difficulty(Side::Eth),
                        self.pipeline.hourly_difficulty(Side::Etc),
                    ],
                    log_scale: false,
                },
                FigurePanel {
                    title: "Block Delta (sec)".into(),
                    series: vec![
                        self.pipeline.block_delta(Side::Eth),
                        self.pipeline.block_delta(Side::Etc),
                    ],
                    log_scale: false,
                },
            ],
        }
    }

    /// Figure 2: daily difficulty, transactions per day, percent contract
    /// transactions — the nine months since the fork.
    pub fn figure2(&self) -> FigureData {
        FigureData {
            id: "fig2",
            caption: "Overall difficulty, transactions per day, and fraction of \
                      transactions involving contracts since the fork",
            panels: vec![
                FigurePanel {
                    title: "Block Difficulty".into(),
                    series: vec![
                        self.pipeline.daily_difficulty(Side::Eth),
                        self.pipeline.daily_difficulty(Side::Etc),
                    ],
                    log_scale: false,
                },
                FigurePanel {
                    title: "Transactions per Day".into(),
                    series: vec![
                        self.pipeline.txs_per_day(Side::Eth),
                        self.pipeline.txs_per_day(Side::Etc),
                    ],
                    log_scale: false,
                },
                FigurePanel {
                    title: "Percent Contract Transactions".into(),
                    series: vec![
                        self.pipeline.contract_tx_percent(Side::Eth),
                        self.pipeline.contract_tx_percent(Side::Etc),
                    ],
                    log_scale: false,
                },
            ],
        }
    }

    /// Figure 3: expected hashes per USD for both networks.
    pub fn figure3(&self) -> FigureData {
        FigureData {
            id: "fig3",
            caption: "Expected payoff for mining: hashes needed to earn 1 USD",
            panels: vec![FigurePanel {
                title: "Expected Hashes/USD".into(),
                series: vec![
                    self.pipeline
                        .hashes_per_usd(Side::Eth, |t| self.eth_usd.usd_at(t)),
                    self.pipeline
                        .hashes_per_usd(Side::Etc, |t| self.etc_usd.usd_at(t)),
                ],
                log_scale: false,
            }],
        }
    }

    /// Figure 4: percentage of transactions that are rebroadcasts and the
    /// number of rebroadcast transactions per day (log scale).
    pub fn figure4(&self) -> FigureData {
        FigureData {
            id: "fig4",
            caption: "Rebroadcast (echo) transactions: share of all transactions and \
                      daily counts",
            panels: vec![
                FigurePanel {
                    title: "% Transactions that Are Rebroadcasts".into(),
                    series: vec![
                        self.pipeline.echo_percent(Side::Eth),
                        self.pipeline.echo_percent(Side::Etc),
                    ],
                    log_scale: false,
                },
                FigurePanel {
                    title: "# Rebroadcast Transactions/Day".into(),
                    series: vec![
                        self.pipeline.echoes_per_day(Side::Eth),
                        self.pipeline.echoes_per_day(Side::Etc),
                    ],
                    log_scale: true,
                },
            ],
        }
    }

    /// Figure 5: percent of daily blocks mined by the top 1/3/5 pools.
    pub fn figure5(&self) -> FigureData {
        let mut series = Vec::new();
        for side in [Side::Eth, Side::Etc] {
            for n in [5usize, 3, 1] {
                series.push(self.pipeline.pool_top_n(side, n));
            }
        }
        FigureData {
            id: "fig5",
            caption: "Percent of all mined blocks won by the top 1, 3, and 5 mining \
                      pools in ETH and ETC",
            panels: vec![FigurePanel {
                title: "% All Blocks Mined by Top N".into(),
                series,
                log_scale: false,
            }],
        }
    }

    /// All five figures.
    pub fn all_figures(&self) -> Vec<FigureData> {
        vec![
            self.figure1(),
            self.figure2(),
            self.figure3(),
            self.figure4(),
            self.figure5(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_produces_all_figures() {
        let result = ForkStudy::quick(1).run();
        assert!(result.summary.blocks[0] > 100);
        for fig in result.all_figures() {
            assert!(!fig.panels.is_empty(), "{}", fig.id);
            // Every figure has at least one non-empty ETH series.
            let has_data = fig
                .panels
                .iter()
                .flat_map(|p| &p.series)
                .any(|s| !s.is_empty());
            assert!(has_data, "{} has no data", fig.id);
        }
    }

    #[test]
    fn quick_study_deterministic() {
        let a = ForkStudy::quick(5).run();
        let b = ForkStudy::quick(5).run();
        assert_eq!(a.summary, b.summary);
        assert_eq!(
            a.figure1().panels[0].series[0].points,
            b.figure1().panels[0].series[0].points
        );
    }

    #[test]
    fn figure_ids_are_stable() {
        let result = ForkStudy::quick(2).run();
        let ids: Vec<&str> = result.all_figures().iter().map(|f| f.id).collect();
        assert_eq!(ids, vec!["fig1", "fig2", "fig3", "fig4", "fig5"]);
    }

    #[test]
    fn archived_run_matches_live_run() {
        let dir = std::env::temp_dir().join(format!("fork-core-study-{}", std::process::id()));
        let live = ForkStudy::quick(7).archive_to(&dir).unwrap();
        let replayed = StudyResult::from_archive(&dir).unwrap();
        assert_eq!(live.summary.blocks, replayed.summary.blocks);
        assert_eq!(live.summary.txs, replayed.summary.txs);
        assert_eq!(
            live.summary.final_difficulty,
            replayed.summary.final_difficulty
        );
        assert_eq!(live.start, replayed.start);
        assert_eq!(live.end, replayed.end);
        for (a, b) in live.all_figures().iter().zip(replayed.all_figures().iter()) {
            for (pa, pb) in a.panels.iter().zip(b.panels.iter()) {
                let ca = fork_analytics::to_csv(&pa.series.iter().collect::<Vec<_>>());
                let cb = fork_analytics::to_csv(&pb.series.iter().collect::<Vec<_>>());
                assert_eq!(ca, cb, "{} / {}", a.id, pa.title);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn archive_aggregates_match_live_run() {
        let dir = std::env::temp_dir().join(format!("fork-core-agg-{}", std::process::id()));
        let live = ForkStudy::quick(11)
            .archive_to_with(
                &dir,
                ArchiveConfig {
                    codec: fork_archive::Codec::Delta,
                    ..ArchiveConfig::default()
                },
            )
            .unwrap();
        let agg = StudyResult::aggregates_from_archive(&dir).unwrap();
        for (i, side) in [Side::Eth, Side::Etc].into_iter().enumerate() {
            assert_eq!(
                agg.daily_difficulty[i],
                live.pipeline.daily_difficulty(side),
                "{side:?} daily difficulty"
            );
            assert_eq!(
                agg.echoes_per_day[i],
                live.pipeline.echoes_per_day(side),
                "{side:?} echoes/day"
            );
        }
        assert_eq!(
            agg.tx_ratio_per_day,
            fork_analytics::ratio(
                &live.pipeline.txs_per_day(Side::Eth),
                &live.pipeline.txs_per_day(Side::Etc),
                "ETH:ETC",
            )
        );
        for (i, name) in ["meso.interarrival.eth", "meso.interarrival.etc"]
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                Some(&agg.interarrival[i]),
                live.telemetry.histograms.get(name),
                "{name} must be re-derivable from the archive bit-identically"
            );
        }
        assert_eq!(
            agg.cache.hits + agg.cache.misses,
            0,
            "a full-range batch streams past the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interarrival_series_present_with_telemetry() {
        let result = ForkStudy::quick(3).run();
        let series = result.interarrival_series();
        assert_eq!(series.len(), 2);
        let eth_total: f64 = series[0].points.iter().map(|(_, n)| n).sum();
        // Every block after the first contributes one inter-arrival sample.
        assert_eq!(eth_total as u64 + 1, result.summary.blocks[0]);
    }
}

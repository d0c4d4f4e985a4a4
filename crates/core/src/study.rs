//! The headline API: configure, run, extract figures. One study is one
//! simulated run; Figure 1, the inter-arrival export and the short-term
//! observations read its first month ([`StudyResult::first_month`]).

use std::path::Path;

use fork_analytics::{BlockRecord, Pipeline, TimeSeries, TxRecord};
use fork_archive::{ArchiveConfig, ArchiveError, ArchiveMeta, ArchiveReader, ArchiveWriter};
use fork_market::PriceSeries;
use fork_primitives::SimTime;
use fork_replay::Side;
use fork_sim::scenario;
use fork_sim::{MesoConfig, ProgressEvent, RunSummary, SimRng, TeeSink, TwoChainEngine};
use fork_telemetry::MetricsRegistry;

use crate::figures::{FigureData, FigurePanel};

/// Length of the window Figure 1 and the short-term observations cover:
/// the month following the fork.
pub const FIRST_MONTH_DAYS: u64 = 31;

/// The study's pipelines: one over the whole run (timed under `registry`)
/// and, when the run outlasts its first month, one fed only the records
/// stamped before the cut.
struct StudySink {
    all: Pipeline,
    first_month: Option<(u64, Pipeline)>,
}

impl StudySink {
    fn new(registry: &MetricsRegistry, start: SimTime, end: SimTime) -> Self {
        let mut all = Pipeline::new();
        all.attach_telemetry(registry);
        let month = FIRST_MONTH_DAYS * 86_400;
        let first_month =
            (end.secs_since(start) > month).then(|| (start.as_unix() + month, Pipeline::new()));
        StudySink { all, first_month }
    }

    /// The first-month pipeline, when `timestamp` falls before the cut.
    fn first_month(&mut self, timestamp: u64) -> Option<&mut Pipeline> {
        let (cut, pipeline) = self.first_month.as_mut()?;
        (timestamp < *cut).then_some(pipeline)
    }
}

impl fork_sim::LedgerSink for StudySink {
    fn block(&mut self, record: BlockRecord) {
        if let Some(first_month) = self.first_month(record.timestamp) {
            first_month.ingest_block(&record);
        }
        self.all.ingest_block(&record);
    }

    fn tx(&mut self, record: TxRecord) {
        if let Some(first_month) = self.first_month(record.timestamp) {
            first_month.ingest_tx(&record);
        }
        self.all.ingest_tx(&record);
    }
}

/// A configured fork study, ready to run.
///
/// ```
/// use fork_core::ForkStudy;
/// // A fast, test-scale run (seconds); `ForkStudy::days(seed, 280)` is the
/// // paper-scale study.
/// let result = ForkStudy::quick(42).run();
/// let fig1 = result.figure1();
/// assert_eq!(fig1.panels.len(), 3);
/// ```
pub struct ForkStudy {
    config: MesoConfig,
    seed: u64,
}

impl ForkStudy {
    /// `days` of the calibrated scenario from the fork: 31 is Figure 1's
    /// month, 280 the full study window (Figures 2–5).
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
        let sink = StudySink::new(engine.telemetry(), self.config.start, self.config.end);
        let mut sink = fork_sim::MeteredSink::registered(sink, engine.telemetry());
        let summary = engine.run_with_progress(&mut sink, progress);
        let telemetry = engine.telemetry().snapshot();
        StudyResult::new(
            sink.into_inner(),
            summary,
            self.seed,
            self.config.start,
            self.config.end,
            telemetry,
        )
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
        let mut sink = StudySink::new(engine.telemetry(), self.config.start, self.config.end);
        let mut writer =
            ArchiveWriter::create_with(dir.as_ref(), config)?.with_telemetry(engine.telemetry());
        let summary = {
            let tee = TeeSink {
                a: &mut sink,
                b: &mut writer,
            };
            let mut sink = fork_sim::MeteredSink::registered(tee, engine.telemetry());
            engine.run(&mut sink)
        };
        writer.finish(Some(meta))?;
        let telemetry = engine.telemetry().snapshot();
        Ok(StudyResult::new(
            sink,
            summary,
            self.seed,
            self.config.start,
            self.config.end,
            telemetry,
        ))
    }
}

/// A completed run: the aggregated pipelines plus market context.
pub struct StudyResult {
    /// The aggregation pipeline over the whole run.
    pub pipeline: Pipeline,
    /// The pipeline over the run's first month, when the run is longer.
    first_month: Option<Pipeline>,
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
    fn new(
        sink: StudySink,
        summary: RunSummary,
        seed: u64,
        start: SimTime,
        end: SimTime,
        telemetry: fork_telemetry::Snapshot,
    ) -> Self {
        // Regenerate the exact price series the scenario's hashpower
        // allocation used (same seed, same fork label).
        let mut price_rng = SimRng::new(seed).fork("prices");
        let (eth_usd, etc_usd) = fork_market::calibrated_pair(&mut price_rng);
        StudyResult {
            pipeline: sink.all,
            first_month: sink.first_month.map(|(_, pipeline)| pipeline),
            summary,
            eth_usd,
            etc_usd,
            start,
            end,
            telemetry,
        }
    }

    /// The pipeline over the month following the fork (the whole run when
    /// it is no longer): what Figure 1, the inter-arrival export and the
    /// short-term observations read.
    pub fn first_month(&self) -> &Pipeline {
        self.first_month.as_ref().unwrap_or(&self.pipeline)
    }

    /// Reconstructs a study from an archive written by
    /// [`ForkStudy::archive_to`], without re-running the simulation.
    ///
    /// The archived record stream is replayed — in its original global
    /// order — through fresh pipelines cut as the live run's were, so every
    /// figure export is byte-identical to the live run's. Prices are
    /// regenerated from the manifest's seed (the same derivation the live
    /// run used). The returned summary is rebuilt from the stream:
    /// `replay_pushes` is not recoverable (always 0), and a side that mined
    /// no blocks reports zero difficulty rather than the genesis difficulty.
    ///
    /// Fails with [`ArchiveError::Manifest`] when the archive carries no
    /// manifest (e.g. it was produced by a raw [`ArchiveWriter`] finished
    /// without [`ArchiveMeta`]).
    pub fn from_archive(dir: impl AsRef<Path>) -> Result<StudyResult, ArchiveError> {
        let dir = dir.as_ref();
        let registry = MetricsRegistry::new();
        let reader = ArchiveReader::open_with_telemetry(dir, &registry)?;
        let meta = reader.meta().ok_or_else(|| ArchiveError::Manifest {
            path: dir.join("manifest.json"),
            detail: "no manifest (seed and window unknown); archive studies with \
                     ForkStudy::archive_to, or pass ArchiveMeta to ArchiveWriter::finish"
                .into(),
        })?;
        let (start, end) = (
            SimTime::from_unix(meta.start_unix),
            SimTime::from_unix(meta.end_unix),
        );
        let mut sink = StudySink::new(&registry, start, end);
        reader.replay_into_sink(&mut sink)?;
        let [(eth_blocks, eth_txs, _), (etc_blocks, etc_txs, _)] =
            [Side::Eth, Side::Etc].map(|side| sink.all.totals(side));
        let summary = RunSummary {
            blocks: [eth_blocks, etc_blocks],
            txs: [eth_txs, etc_txs],
            replay_pushes: 0,
            final_difficulty: [Side::Eth, Side::Etc].map(|side| sink.all.last_difficulty(side)),
        };
        Ok(StudyResult::new(
            sink,
            summary,
            meta.seed,
            start,
            end,
            registry.snapshot(),
        ))
    }

    /// The first month's block inter-arrival distributions as figure-style
    /// series: x is each occupied log2 bucket's lower bound in seconds, y
    /// its block count.
    pub fn interarrival_series(&self) -> Vec<TimeSeries> {
        [Side::Eth, Side::Etc]
            .into_iter()
            .map(|side| {
                fork_analytics::histogram_series(
                    format!("{} inter-arrival (s)", side.label()),
                    self.first_month().interarrival(side),
                )
            })
            .collect()
    }

    /// Figure 1: blocks/hour, block difficulty, inter-block delta — the
    /// month following the fork.
    pub fn figure1(&self) -> FigureData {
        let first_month = self.first_month();
        FigureData {
            id: "fig1",
            caption: "Blocks per hour, block difficulty, and time delta between blocks \
                      the month following the hard fork",
            panels: vec![
                FigurePanel {
                    title: "Blocks per Hour".into(),
                    series: vec![
                        first_month.blocks_per_hour(Side::Eth),
                        first_month.blocks_per_hour(Side::Etc),
                    ],
                    log_scale: false,
                },
                FigurePanel {
                    title: "Block Difficulty".into(),
                    series: vec![
                        first_month.hourly_difficulty(Side::Eth),
                        first_month.hourly_difficulty(Side::Etc),
                    ],
                    log_scale: false,
                },
                FigurePanel {
                    title: "Block Delta (sec)".into(),
                    series: vec![
                        first_month.block_delta(Side::Eth),
                        first_month.block_delta(Side::Etc),
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
    use fork_query::{Projection, Query, QueryExecutor, QueryOutput, QueryRange, ReaderPool};

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
        let interarrival = live.interarrival_series();
        assert!(interarrival.iter().all(|s| !s.is_empty()));
        assert_eq!(replayed.interarrival_series(), interarrival);
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
        // One full-range batch through the fork-query engine re-derives the
        // paper aggregates from the archive alone, bit-identical to the
        // live run.
        let q = |side, projection| Query {
            side,
            range: QueryRange::All,
            projection,
        };
        let series = QueryOutput::Series;
        let mut batch = vec![(
            q(None, Projection::TxRatioPerDay),
            series(fork_analytics::ratio(
                &live.pipeline.txs_per_day(Side::Eth),
                &live.pipeline.txs_per_day(Side::Etc),
                "ETH:ETC",
            )),
        )];
        for (side, name) in [
            (Side::Eth, "meso.interarrival.eth"),
            (Side::Etc, "meso.interarrival.etc"),
        ] {
            let live_histogram = live.telemetry.histograms.get(name).expect(name);
            batch.extend([
                (
                    q(Some(side), Projection::InterArrival),
                    QueryOutput::Histogram(Box::new(live_histogram.clone())),
                ),
                (
                    q(Some(side), Projection::Difficulty),
                    series(live.pipeline.daily_difficulty(side)),
                ),
                (
                    q(Some(side), Projection::Echoes { window_days: 1 }),
                    series(live.pipeline.echoes_per_day(side)),
                ),
            ]);
        }
        let (queries, wants): (Vec<Query>, Vec<QueryOutput>) = batch.into_iter().unzip();
        let pool = ReaderPool::open(&dir).unwrap();
        let results = QueryExecutor::new(8).run_batch(&pool, &queries);
        for ((query, got), want) in queries.iter().zip(results).zip(wants) {
            assert_eq!(
                got.unwrap(),
                want,
                "{query:?} must be re-derivable from the archive bit-identically"
            );
        }
        let cache = pool.cache().stats();
        assert_eq!(
            cache.hits + cache.misses,
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
        // The pipeline's fold equals the engine's own histogram.
        for (side, name) in [
            (Side::Eth, "meso.interarrival.eth"),
            (Side::Etc, "meso.interarrival.etc"),
        ] {
            assert_eq!(
                result.first_month().interarrival(side),
                &result.telemetry.histograms[name]
            );
        }
    }

    /// The first-month cut of a longer run equals a run that ends at the
    /// cut. With `retention` 32 the short run flushes its reorg windows at
    /// its end, so this also covers the order records drain in there.
    #[test]
    fn first_month_cut_equals_a_run_ended_at_the_cut() {
        const CUT_SECS: u64 = 3 * 3_600;
        for seed in 1..=3 {
            let config = ForkStudy::quick(seed).config;
            let mut engine = TwoChainEngine::new(config.clone());
            let mut sink = StudySink {
                all: Pipeline::new(),
                first_month: Some((config.start.as_unix() + CUT_SECS, Pipeline::new())),
            };
            let summary = engine.run(&mut sink);
            let telemetry = engine.telemetry().snapshot();
            let long = StudyResult::new(sink, summary, seed, config.start, config.end, telemetry);
            let mut short = ForkStudy::quick(seed);
            short.config.end = short.config.start.plus_secs(CUT_SECS);
            let short = short.run();
            assert!(long.first_month.is_some() && short.first_month.is_none());
            assert!(
                long.pipeline.totals(Side::Eth).0 > long.first_month().totals(Side::Eth).0,
                "seed {seed}: the cut keeps only part of the run"
            );

            let (a, b) = (long.figure1(), short.figure1());
            assert_eq!(a.all_series(), b.all_series(), "seed {seed}: figure 1");
            for side in [Side::Eth, Side::Etc] {
                assert_eq!(
                    long.first_month().interarrival(side),
                    short.pipeline.interarrival(side),
                    "seed {seed}: {side:?} inter-arrival fold"
                );
            }
            assert_eq!(
                crate::observations::short_term(&long).to_markdown(),
                crate::observations::short_term(&short).to_markdown(),
                "seed {seed}: short-term observations"
            );
        }
    }
}

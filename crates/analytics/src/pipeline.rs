//! The streaming aggregation pipeline.
//!
//! Blocks and transactions are ingested as they finalize (the simulator
//! never holds a full nine-month ledger in memory); per-hour and per-day
//! aggregates accumulate here, and each figure's series are extracted at the
//! end. One [`Pipeline`] covers both networks so cross-chain metrics (echo
//! detection, ratios) see a single consistent stream.

use std::collections::BTreeMap;

use fork_pools::DailyWinners;
use fork_primitives::SimTime;
use fork_replay::{EchoDetector, Side};

use crate::aggregate::{count_series, mean_series, MeanCell};
use crate::record::{BlockRecord, TxRecord};
use crate::series::TimeSeries;

/// Aggregates for one network.
#[derive(Debug, Clone, Default)]
struct NetworkAggregates {
    hourly_blocks: BTreeMap<u64, u64>,
    hourly_difficulty: BTreeMap<u64, MeanCell>,
    hourly_delta: BTreeMap<u64, MeanCell>,
    daily_difficulty: BTreeMap<u64, MeanCell>,
    daily_txs: BTreeMap<u64, u64>,
    daily_contract_txs: BTreeMap<u64, u64>,
    daily_winners: BTreeMap<u64, DailyWinners>,
    last_timestamp: Option<u64>,
    total_blocks: u64,
    total_txs: u64,
    total_ommers: u64,
}

impl NetworkAggregates {
    fn ingest_block(&mut self, b: &BlockRecord) {
        let hour = b.hour();
        let day = b.day();
        *self.hourly_blocks.entry(hour).or_default() += 1;
        let d = b.difficulty.to_f64_lossy();
        self.hourly_difficulty.entry(hour).or_default().push(d);
        self.daily_difficulty.entry(day).or_default().push(d);
        if let Some(prev) = self.last_timestamp {
            let delta = b.timestamp.saturating_sub(prev) as f64;
            self.hourly_delta.entry(hour).or_default().push(delta);
        }
        self.last_timestamp = Some(b.timestamp);
        self.daily_winners
            .entry(day)
            .or_default()
            .record(b.beneficiary);
        self.total_blocks += 1;
        self.total_ommers += b.ommer_count as u64;
    }

    fn ingest_tx(&mut self, t: &TxRecord) {
        let day = t.day();
        *self.daily_txs.entry(day).or_default() += 1;
        if t.is_contract {
            *self.daily_contract_txs.entry(day).or_default() += 1;
        }
        self.total_txs += 1;
    }
}

/// Cached ingest span handles.
#[derive(Debug, Clone)]
struct IngestSpans {
    block: std::sync::Arc<fork_telemetry::SpanStats>,
    tx: std::sync::Arc<fork_telemetry::SpanStats>,
}

/// The two-network aggregation pipeline.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    eth: NetworkAggregates,
    etc: NetworkAggregates,
    echo: EchoDetector,
    /// Optional `analytics.ingest.*` spans — attached by study runs and
    /// archive replays so ingestion cost is measurable either way.
    spans: Option<IngestSpans>,
}

impl Pipeline {
    /// Fresh pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times every `ingest_block` / `ingest_tx` under
    /// `analytics.ingest.block` / `analytics.ingest.tx` in `registry`.
    /// Spans never influence the aggregates, so an instrumented pipeline
    /// produces byte-identical figures to a bare one.
    pub fn attach_telemetry(&mut self, registry: &fork_telemetry::MetricsRegistry) {
        self.spans = Some(IngestSpans {
            block: registry.span("analytics.ingest.block"),
            tx: registry.span("analytics.ingest.tx"),
        });
    }

    fn side(&self, side: Side) -> &NetworkAggregates {
        match side {
            Side::Eth => &self.eth,
            Side::Etc => &self.etc,
        }
    }

    fn side_mut(&mut self, side: Side) -> &mut NetworkAggregates {
        match side {
            Side::Eth => &mut self.eth,
            Side::Etc => &mut self.etc,
        }
    }

    /// Ingests one finalized block.
    pub fn ingest_block(&mut self, b: &BlockRecord) {
        let _guard = self.spans.as_ref().map(|s| s.block.enter());
        self.side_mut(b.network).ingest_block(b);
    }

    /// Ingests one included transaction (feeds the echo detector too).
    pub fn ingest_tx(&mut self, t: &TxRecord) {
        let _guard = self.spans.as_ref().map(|s| s.tx.enter());
        self.side_mut(t.network).ingest_tx(t);
        self.echo.observe(t.network, t.hash, t.day());
    }

    /// Blocks per hour — Figure 1 top panel.
    pub fn blocks_per_hour(&self, side: Side) -> TimeSeries {
        count_series(side.label(), &self.side(side).hourly_blocks, 3_600)
    }

    /// Mean block difficulty per hour — Figure 1 middle panel.
    pub fn hourly_difficulty(&self, side: Side) -> TimeSeries {
        mean_series(side.label(), &self.side(side).hourly_difficulty, 3_600)
    }

    /// Mean inter-block delta (seconds) per hour — Figure 1 bottom panel.
    pub fn block_delta(&self, side: Side) -> TimeSeries {
        mean_series(side.label(), &self.side(side).hourly_delta, 3_600)
    }

    /// Mean difficulty per day — Figure 2 top panel.
    pub fn daily_difficulty(&self, side: Side) -> TimeSeries {
        mean_series(side.label(), &self.side(side).daily_difficulty, 86_400)
    }

    /// Transactions per day — Figure 2 middle panel.
    pub fn txs_per_day(&self, side: Side) -> TimeSeries {
        count_series(side.label(), &self.side(side).daily_txs, 86_400)
    }

    /// Percentage of transactions that are contract interactions —
    /// Figure 2 bottom panel.
    pub fn contract_tx_percent(&self, side: Side) -> TimeSeries {
        let agg = self.side(side);
        let mut s = TimeSeries::new(side.label());
        for (day, n) in &agg.daily_txs {
            let c = agg.daily_contract_txs.get(day).copied().unwrap_or(0);
            if *n > 0 {
                s.push(
                    SimTime::from_unix(day * 86_400),
                    100.0 * c as f64 / *n as f64,
                );
            }
        }
        s
    }

    /// Expected hashes per USD — Figure 3: `difficulty / 5 / usd`, sampled
    /// daily against the provided exchange-rate lookup.
    pub fn hashes_per_usd(&self, side: Side, usd_at: impl Fn(SimTime) -> f64) -> TimeSeries {
        let mut s = TimeSeries::new(side.label());
        for (day, cell) in &self.side(side).daily_difficulty {
            let t = SimTime::from_unix(day * 86_400);
            if let Some(v) = fork_primitives::units::hashes_per_usd(
                fork_primitives::U256::from_u128(cell.mean().max(0.0) as u128),
                usd_at(t),
            ) {
                s.push(t, v);
            }
        }
        s
    }

    /// Rebroadcast (echo) transactions per day — Figure 4 bottom panel.
    pub fn echoes_per_day(&self, side: Side) -> TimeSeries {
        let mut s = TimeSeries::new(side.label());
        for (day, stats) in self.echo.daily(side) {
            s.push(SimTime::from_unix(day * 86_400), stats.echoes as f64);
        }
        s
    }

    /// Echoes as % of all transactions — Figure 4 top panel.
    pub fn echo_percent(&self, side: Side) -> TimeSeries {
        let mut s = TimeSeries::new(side.label());
        for (day, stats) in self.echo.daily(side) {
            s.push(SimTime::from_unix(day * 86_400), stats.echo_percent());
        }
        s
    }

    /// % of each day's blocks mined by the day's top-`n` beneficiaries —
    /// Figure 5.
    pub fn pool_top_n(&self, side: Side, n: usize) -> TimeSeries {
        let mut s = TimeSeries::new(format!("{} top {}", side.label(), n));
        for (day, winners) in &self.side(side).daily_winners {
            if let Some(f) = winners.top_n_fraction(n) {
                s.push(SimTime::from_unix(day * 86_400), 100.0 * f);
            }
        }
        s
    }

    /// Totals for the summary report.
    pub fn totals(&self, side: Side) -> (u64, u64, u64) {
        let a = self.side(side);
        (a.total_blocks, a.total_txs, a.total_ommers)
    }

    /// Total echoes observed into `side`.
    pub fn total_echoes(&self, side: Side) -> u64 {
        self.echo.total_echoes(side)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fork_primitives::{Address, H256, U256};

    fn block(network: Side, number: u64, ts: u64, diff: u64, who: u8) -> BlockRecord {
        BlockRecord {
            network,
            number,
            hash: H256([number as u8; 32]),
            timestamp: ts,
            difficulty: U256::from_u64(diff),
            beneficiary: Address([who; 20]),
            gas_used: 21_000,
            tx_count: 1,
            ommer_count: 0,
        }
    }

    fn tx(network: Side, id: u8, ts: u64, contract: bool) -> TxRecord {
        TxRecord {
            network,
            hash: H256([id; 32]),
            timestamp: ts,
            is_contract: contract,
            has_chain_id: false,
            value: U256::ONE,
        }
    }

    #[test]
    fn blocks_per_hour_counts() {
        let mut p = Pipeline::new();
        for i in 0..5 {
            p.ingest_block(&block(Side::Eth, i, 100 + i * 14, 1000, 1));
        }
        p.ingest_block(&block(Side::Eth, 5, 3_700, 1000, 1));
        let s = p.blocks_per_hour(Side::Eth);
        assert_eq!(s.points, vec![(0, 5.0), (3_600, 1.0)]);
    }

    #[test]
    fn delta_needs_two_blocks() {
        let mut p = Pipeline::new();
        p.ingest_block(&block(Side::Etc, 0, 100, 1000, 1));
        assert!(p.block_delta(Side::Etc).is_empty());
        p.ingest_block(&block(Side::Etc, 1, 1_300, 1000, 1));
        let s = p.block_delta(Side::Etc);
        assert_eq!(s.points, vec![(0, 1_200.0)]);
    }

    #[test]
    fn networks_do_not_mix() {
        let mut p = Pipeline::new();
        p.ingest_block(&block(Side::Eth, 0, 100, 5_000, 1));
        p.ingest_block(&block(Side::Etc, 0, 100, 7_000, 2));
        assert_eq!(p.hourly_difficulty(Side::Eth).points[0].1, 5_000.0);
        assert_eq!(p.hourly_difficulty(Side::Etc).points[0].1, 7_000.0);
        assert_eq!(p.totals(Side::Eth).0, 1);
    }

    #[test]
    fn contract_percent() {
        let mut p = Pipeline::new();
        p.ingest_tx(&tx(Side::Eth, 1, 100, true));
        p.ingest_tx(&tx(Side::Eth, 2, 100, false));
        p.ingest_tx(&tx(Side::Eth, 3, 100, false));
        p.ingest_tx(&tx(Side::Eth, 4, 100, true));
        let s = p.contract_tx_percent(Side::Eth);
        assert_eq!(s.points, vec![(0, 50.0)]);
    }

    #[test]
    fn echo_series_from_cross_chain_txs() {
        let mut p = Pipeline::new();
        p.ingest_tx(&tx(Side::Eth, 1, 100, false));
        p.ingest_tx(&tx(Side::Etc, 1, 200, false)); // echo into ETC
        p.ingest_tx(&tx(Side::Etc, 2, 200, false)); // native
        let echoes = p.echoes_per_day(Side::Etc);
        assert_eq!(echoes.points, vec![(0, 1.0)]);
        let pct = p.echo_percent(Side::Etc);
        assert_eq!(pct.points, vec![(0, 50.0)]);
        assert_eq!(p.total_echoes(Side::Etc), 1);
        assert_eq!(p.total_echoes(Side::Eth), 0);
    }

    #[test]
    fn pool_top_n_series() {
        let mut p = Pipeline::new();
        // Day 0: pool 1 wins 3 of 4.
        for i in 0..3 {
            p.ingest_block(&block(Side::Eth, i, 100 + i, 1000, 1));
        }
        p.ingest_block(&block(Side::Eth, 3, 104, 1000, 2));
        let s = p.pool_top_n(Side::Eth, 1);
        assert_eq!(s.points, vec![(0, 75.0)]);
        assert_eq!(p.pool_top_n(Side::Eth, 2).points, vec![(0, 100.0)]);
    }

    #[test]
    fn hashes_per_usd_uses_price_lookup() {
        let mut p = Pipeline::new();
        p.ingest_block(&block(Side::Eth, 0, 100, 60_000, 1));
        let s = p.hashes_per_usd(Side::Eth, |_| 12.0);
        assert_eq!(s.points.len(), 1);
        assert!((s.points[0].1 - 1_000.0).abs() < 1e-9); // 60000/5/12
                                                         // Unlisted market yields an empty series.
        let empty = p.hashes_per_usd(Side::Eth, |_| 0.0);
        assert!(empty.is_empty());
    }
}

//! # fork-analytics
//!
//! The measurement pipeline of the study: export records (the paper's
//! "separate database" rows), streaming per-hour/per-day aggregation for both
//! networks, every figure's metric (blocks/hour, difficulty, inter-block
//! delta, transactions/day, contract-call %, hashes/USD, echo counts and
//! percentages, top-N pool concentration), series utilities (correlation,
//! ratios), ASCII chart rendering and CSV/JSON export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod export;
pub mod pipeline;
pub mod record;
pub mod render;
pub mod series;

pub use aggregate::{
    count_series, echo_windows, mean_series, DailyDifficulty, DailyTxs, InterArrival, MeanCell,
};
pub use export::{histogram_series, to_csv, to_json, write_csv, write_json};
pub use pipeline::Pipeline;
pub use record::{BlockRecord, TxRecord};
pub use render::{ascii_chart, markdown_table};
pub use series::{correlation, ratio, TimeSeries};

#[cfg(test)]
mod proptests {
    use super::*;
    use fork_primitives::{Address, H256, U256};
    use fork_replay::Side;
    use proptest::prelude::*;

    proptest! {
        /// The pipeline's hourly block counts always sum to the number of
        /// ingested blocks, for any timestamp pattern.
        #[test]
        fn block_counts_conserved(timestamps in proptest::collection::vec(0u64..10_000_000, 1..200)) {
            let mut p = Pipeline::new();
            let mut ts_sorted = timestamps.clone();
            ts_sorted.sort_unstable();
            for (i, ts) in ts_sorted.iter().enumerate() {
                p.ingest_block(&BlockRecord {
                    network: Side::Eth,
                    number: i as u64,
                    hash: H256([(i % 251) as u8; 32]),
                    timestamp: *ts,
                    difficulty: U256::from_u64(1_000),
                    beneficiary: Address([1; 20]),
                    gas_used: 0,
                    tx_count: 0,
                    ommer_count: 0,
                });
            }
            let total: f64 = p.blocks_per_hour(Side::Eth).points.iter().map(|(_, v)| v).sum();
            prop_assert_eq!(total as usize, ts_sorted.len());
        }

        /// Contract percentage is always within [0, 100].
        #[test]
        fn contract_percent_bounded(
            flags in proptest::collection::vec(any::<bool>(), 1..100),
        ) {
            let mut p = Pipeline::new();
            for (i, c) in flags.iter().enumerate() {
                p.ingest_tx(&TxRecord {
                    network: Side::Etc,
                    hash: H256([i as u8; 32]),
                    timestamp: 100,
                    is_contract: *c,
                    has_chain_id: false,
                    value: U256::ONE,
                });
            }
            for (_, v) in p.contract_tx_percent(Side::Etc).points {
                prop_assert!((0.0..=100.0).contains(&v));
            }
        }

        /// CSV export parses back to the same number of data cells.
        #[test]
        fn csv_cell_conservation(pts in proptest::collection::vec((0u64..1_000, -100.0f64..100.0), 1..50)) {
            let mut sorted = pts.clone();
            sorted.sort_by_key(|(t, _)| *t);
            sorted.dedup_by_key(|(t, _)| *t);
            let mut ts = TimeSeries::new("s");
            for (t, v) in &sorted {
                ts.push(fork_primitives::SimTime::from_unix(*t), *v);
            }
            let csv = to_csv(&[&ts]);
            let data_rows = csv.lines().count() - 1;
            prop_assert_eq!(data_rows, sorted.len());
        }

        /// Echo percentage series bounded in [0, 100] under arbitrary
        /// cross-chain hash streams.
        #[test]
        fn echo_percent_bounded(events in proptest::collection::vec((any::<bool>(), 0u8..32, 0u64..5), 1..200)) {
            let mut p = Pipeline::new();
            for (eth, id, day) in events {
                p.ingest_tx(&TxRecord {
                    network: if eth { Side::Eth } else { Side::Etc },
                    hash: H256([id; 32]),
                    timestamp: day * 86_400,
                    is_contract: false,
                    has_chain_id: false,
                    value: U256::ONE,
                });
            }
            for side in [Side::Eth, Side::Etc] {
                for (_, v) in p.echo_percent(side).points {
                    prop_assert!((0.0..=100.0).contains(&v));
                }
            }
        }
    }
}

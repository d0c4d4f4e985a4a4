//! Ledger sinks: where finalized blocks stream to.

use std::sync::Arc;

use fork_analytics::{BlockRecord, Pipeline, TxRecord};
use fork_replay::Side;
use fork_telemetry::{Counter, MetricsRegistry};

/// Consumer of the finalized-ledger stream. The analytics [`Pipeline`] is
/// the primary implementation; tests use [`CountingSink`].
pub trait LedgerSink {
    /// One finalized block.
    fn block(&mut self, record: BlockRecord);
    /// One included transaction (emitted after its block's record).
    fn tx(&mut self, record: TxRecord);
}

impl LedgerSink for Pipeline {
    fn block(&mut self, record: BlockRecord) {
        self.ingest_block(&record);
    }
    fn tx(&mut self, record: TxRecord) {
        self.ingest_tx(&record);
    }
}

/// Discards everything (pure-performance benches).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl LedgerSink for NullSink {
    fn block(&mut self, _: BlockRecord) {}
    fn tx(&mut self, _: TxRecord) {}
}

/// Wraps a sink, counting the stream flowing through it — whole-run `u64`
/// totals in the public fields (always live, even with telemetry compiled
/// out), plus per-side registry counters (`sink.blocks.eth`, …) when
/// constructed with [`MeteredSink::registered`].
#[derive(Debug, Clone)]
pub struct MeteredSink<S> {
    /// The wrapped sink; records pass through unchanged.
    pub inner: S,
    /// Blocks seen (both sides).
    pub blocks: u64,
    /// Transactions seen (both sides).
    pub txs: u64,
    side_blocks: [Arc<Counter>; 2],
    side_txs: [Arc<Counter>; 2],
}

/// Counts records without forwarding them anywhere (tests). The historical
/// name for [`MeteredSink`] over a [`NullSink`].
pub type CountingSink = MeteredSink<NullSink>;

impl<S: Default> Default for MeteredSink<S> {
    fn default() -> Self {
        Self::detached(S::default())
    }
}

impl<S> MeteredSink<S> {
    /// Meters `inner` with private (unregistered) per-side counters.
    pub fn detached(inner: S) -> Self {
        MeteredSink {
            inner,
            blocks: 0,
            txs: 0,
            side_blocks: [Arc::new(Counter::new()), Arc::new(Counter::new())],
            side_txs: [Arc::new(Counter::new()), Arc::new(Counter::new())],
        }
    }

    /// Meters `inner` into `registry` under `sink.blocks.{eth,etc}` and
    /// `sink.txs.{eth,etc}`.
    pub fn registered(inner: S, registry: &MetricsRegistry) -> Self {
        MeteredSink {
            inner,
            blocks: 0,
            txs: 0,
            side_blocks: [
                registry.counter("sink.blocks.eth"),
                registry.counter("sink.blocks.etc"),
            ],
            side_txs: [
                registry.counter("sink.txs.eth"),
                registry.counter("sink.txs.etc"),
            ],
        }
    }

    /// Consumes the wrapper, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn side_index(side: Side) -> usize {
        match side {
            Side::Eth => 0,
            Side::Etc => 1,
        }
    }
}

impl<S: LedgerSink> LedgerSink for MeteredSink<S> {
    fn block(&mut self, record: BlockRecord) {
        self.blocks += 1;
        self.side_blocks[Self::side_index(record.network)].incr();
        self.inner.block(record);
    }
    fn tx(&mut self, record: TxRecord) {
        self.txs += 1;
        self.side_txs[Self::side_index(record.network)].incr();
        self.inner.tx(record);
    }
}

/// Fans one stream out to two sinks (e.g. Pipeline + raw CSV logger).
pub struct TeeSink<'a, A: LedgerSink, B: LedgerSink> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<A: LedgerSink, B: LedgerSink> LedgerSink for TeeSink<'_, A, B> {
    fn block(&mut self, record: BlockRecord) {
        self.a.block(record.clone());
        self.b.block(record);
    }
    fn tx(&mut self, record: TxRecord) {
        self.a.tx(record.clone());
        self.b.tx(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fork_primitives::{Address, H256, U256};
    use fork_replay::Side;

    fn rec() -> BlockRecord {
        BlockRecord {
            network: Side::Eth,
            number: 1,
            hash: H256::ZERO,
            timestamp: 0,
            difficulty: U256::ONE,
            beneficiary: Address::ZERO,
            gas_used: 0,
            tx_count: 0,
            ommer_count: 0,
        }
    }

    #[test]
    fn counting_and_tee() {
        let mut a = CountingSink::default();
        let mut b = CountingSink::default();
        {
            let mut tee = TeeSink {
                a: &mut a,
                b: &mut b,
            };
            tee.block(rec());
            tee.block(rec());
        }
        assert_eq!(a.blocks, 2);
        assert_eq!(b.blocks, 2);
    }

    #[test]
    fn pipeline_is_a_sink() {
        let mut p = Pipeline::new();
        LedgerSink::block(&mut p, rec());
        assert_eq!(p.totals(Side::Eth).0, 1);
    }

    #[test]
    fn metered_sink_forwards_and_counts() {
        let mut sink = MeteredSink::detached(Pipeline::new());
        sink.block(rec());
        sink.block(rec());
        assert_eq!(sink.blocks, 2);
        assert_eq!(sink.txs, 0);
        assert_eq!(sink.inner.totals(Side::Eth).0, 2, "records pass through");
    }

    #[test]
    fn metered_sink_feeds_registry_per_side() {
        let reg = fork_telemetry::MetricsRegistry::new();
        let mut sink = MeteredSink::registered(NullSink, &reg);
        sink.block(rec());
        let mut etc = rec();
        etc.network = Side::Etc;
        sink.block(etc);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sink.blocks.eth"], 1);
        assert_eq!(snap.counters["sink.blocks.etc"], 1);
        assert_eq!(sink.blocks, 2);
    }
}

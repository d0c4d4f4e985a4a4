//! Crate-global EVM telemetry: per-[`OpClass`] dispatch counters and a
//! gas-used histogram.
//!
//! The interpreter's inner loop is the hottest code in the workspace, so the
//! counters are crate-level `static`s (one relaxed atomic increment per
//! dispatched instruction when the `telemetry` feature is on, nothing at all
//! when it is off — the no-op [`Counter`] methods are `#[inline(always)]`
//! empty bodies). No signature in the interpreter changes either way.
//!
//! Consumers pull the totals with [`snapshot_into`] (names are prefixed
//! `evm.`) and may [`reset`] between runs.

use crate::opcode::OpClass;
use fork_telemetry::{Counter, Histogram, Snapshot};

/// One dispatch counter per [`OpClass`], indexed by [`OpClass::index`].
static OP_DISPATCH: [Counter; OpClass::ALL.len()] = [
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
    Counter::new(),
];

/// Executed transactions (successful or reverted — anything included).
static TXS_EXECUTED: Counter = Counter::new();

/// Gas used per executed transaction.
static GAS_USED: Histogram = Histogram::new();

/// Counts one dispatched instruction byte (called from the interpreter's
/// fetch loop, before decode, so PUSH/DUP/SWAP and invalid bytes count too).
#[inline]
pub(crate) fn record_dispatch(byte: u8) {
    OP_DISPATCH[OpClass::classify(byte).index()].incr();
}

/// Records the gas consumed by one executed transaction.
#[inline]
pub(crate) fn record_tx_gas(gas_used: u64) {
    TXS_EXECUTED.incr();
    GAS_USED.record(gas_used);
}

/// Copies the crate-global totals into `snap` under `evm.*` names
/// (`evm.ops.<class>` counters and the `evm.gas_used` histogram). Zero-valued
/// counters are skipped so a run that never touched the EVM contributes
/// nothing.
pub fn snapshot_into(snap: &mut Snapshot) {
    for class in OpClass::ALL {
        let n = OP_DISPATCH[class.index()].get();
        if n > 0 {
            snap.counters.insert(format!("evm.ops.{}", class.name()), n);
        }
    }
    let txs = TXS_EXECUTED.get();
    if txs > 0 {
        snap.counters.insert("evm.txs_executed".into(), txs);
    }
    let gas = GAS_USED.snapshot();
    if gas.count > 0 {
        snap.histograms.insert("evm.gas_used".into(), gas);
    }
}

/// Resets every crate-global EVM metric to zero.
pub fn reset() {
    for c in &OP_DISPATCH {
        c.reset();
    }
    TXS_EXECUTED.reset();
    GAS_USED.reset();
}

#[cfg(test)]
#[cfg(feature = "telemetry")]
mod tests {
    use super::*;

    // The statics are process-global, so this single test exercises the whole
    // record → snapshot → reset cycle. Other tests in this crate execute EVM
    // code concurrently, so every assertion is a bound those tests cannot
    // cross: every metric is driven to at least MARK (or MARK_GAS) before the
    // reset and must sit below it afterwards.
    #[test]
    fn dispatch_and_gas_flow_into_snapshot() {
        const MARK: u64 = 1 << 20;
        const MARK_GAS: u64 = 1 << 60;
        for class in OpClass::ALL {
            let byte = (0u8..=255)
                .find(|&b| OpClass::classify(b) == class)
                .expect("every class has a byte");
            for _ in 0..MARK {
                record_dispatch(byte);
            }
        }
        for _ in 0..MARK {
            record_tx_gas(MARK_GAS);
        }
        let mut snap = Snapshot::default();
        snapshot_into(&mut snap);
        for class in OpClass::ALL {
            assert!(snap.counters[&format!("evm.ops.{}", class.name())] >= MARK);
        }
        assert!(snap.counters["evm.txs_executed"] >= MARK);
        assert!(snap.histograms["evm.gas_used"].count >= MARK);
        assert!(snap.histograms["evm.gas_used"].max >= MARK_GAS);
        reset();
        let mut snap = Snapshot::default();
        snapshot_into(&mut snap);
        for (name, &n) in &snap.counters {
            assert!(n < MARK, "reset must clear {name}: {n}");
        }
        if let Some(gas) = snap.histograms.get("evm.gas_used") {
            assert!(
                gas.count < MARK,
                "reset must clear the gas count: {}",
                gas.count
            );
            assert!(
                gas.max < MARK_GAS,
                "reset must clear the gas max: {}",
                gas.max
            );
        }
    }
}

//! Seeded inputs: the synthetic archive every archive-backed workload
//! reads, and the op-mix sampler (Zipf keys, Poisson arrivals).
//!
//! Everything here is a pure function of `(seed, size)`: the product code
//! under test only ever sees the generated records, keys and schedules.

use std::collections::VecDeque;
use std::path::Path;

use fork_analytics::{BlockRecord, TxRecord};
use fork_archive::{ArchiveConfig, ArchiveError, ArchiveRecord, ArchiveStats, ArchiveWriter};
use fork_crypto::keccak256;
use fork_primitives::{Address, H256, U256};
use fork_query::{Lookup, Projection, Query, QueryRange};
use fork_replay::Side;
use fork_sim::LedgerSink;

/// Timestamp of the first generated block (the DAO fork).
pub const FORK_TS: u64 = fork_primitives::time::DAO_FORK_TIMESTAMP;
/// Number of the block before the first generated one.
pub const FORK_BLOCK: u64 = 1_920_000;
/// Seconds between consecutive ETH blocks.
pub const ETH_SPACING_SECS: u64 = 14;
/// One ETC block per this many ETH numbers.
pub const ETC_EVERY: u64 = 4;
/// Share of ETC transactions that reuse an ETH transaction hash.
pub const ECHO_SHARE: f64 = 0.30;

/// xoshiro256** seeded through splitmix64. The benchmark owns its RNG so
/// that no product crate's RNG change can move the inputs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (records, keys, arrivals).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.unit() * n as f64) as u64 % n
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Zipf(s=1) rank in `[0, n)`: rank `r` is drawn with probability
    /// proportional to `1 / (r + 1)` (log-uniform inverse CDF).
    pub fn zipf(&mut self, n: u64) -> u64 {
        (((n + 1) as f64).powf(self.unit()) as u64).clamp(1, n) - 1
    }

    /// Exponential inter-arrival gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

fn derived_hash(seed: u64, tag: u8, side: Side, index: u64) -> H256 {
    let mut buf = [0u8; 18];
    buf[..8].copy_from_slice(&seed.to_le_bytes());
    buf[8] = tag;
    buf[9] = matches!(side, Side::Etc) as u8;
    buf[10..].copy_from_slice(&index.to_le_bytes());
    keccak256(&buf)
}

/// The hot region of a generated archive: a run of consecutive ETH blocks
/// (and everything archived alongside them) small enough to stay cached.
#[derive(Debug, Clone, Default)]
pub struct HotRegion {
    /// Hashes of every block (both sides) inside the region.
    pub block_hashes: Vec<H256>,
    /// Hashes of every transaction (both sides) inside the region.
    pub tx_hashes: Vec<H256>,
    /// Inclusive ETH block-number range.
    pub eth_numbers: (u64, u64),
    /// Inclusive ETC block-number range.
    pub etc_numbers: (u64, u64),
    /// Inclusive timestamp range.
    pub time: (u64, u64),
    /// Records inside the region.
    pub records: u64,
}

/// A generated record stream in archive (global sequence) order.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Every record, in the order a live run would have emitted it.
    pub records: Vec<ArchiveRecord>,
    /// The hot region (empty when `hot_blocks` was 0).
    pub hot: HotRegion,
}

/// Generates `eth_blocks` ETH blocks at 14 s spacing from the fork, one
/// ETC block per four ETH numbers, 0–3 txs per block with the ETH:ETC tx
/// ratio sliding 2.5:1 → 5:1, and [`ECHO_SHARE`] of ETC txs reusing an ETH
/// tx hash. The hot region is `hot_blocks` consecutive ETH blocks starting
/// a quarter of the way in.
pub fn generate(seed: u64, eth_blocks: u64, hot_blocks: u64) -> Generated {
    let mut rng = Rng::new(seed, 1);
    let mut records = Vec::with_capacity((eth_blocks as usize) * 3);
    let hot_first = eth_blocks / 4;
    let hot_last = hot_first + hot_blocks; // exclusive
    let mut hot = HotRegion::default();
    let pools: Vec<Address> = (0..8u64)
        .map(|i| Address::from_hash(derived_hash(seed, b'p', Side::Eth, i)))
        .collect();
    // ETH tx hashes not yet echoed onto ETC, oldest first.
    let mut echo_pool: VecDeque<H256> = VecDeque::with_capacity(256);
    let mut tx_index = [0u64; 2];
    let eth_base = U256::from_u128(62_000_000_000_000);
    let etc_base = U256::from_u128(6_000_000_000_000);

    for i in 0..eth_blocks {
        let ts = FORK_TS + ETH_SPACING_SECS * i;
        let in_hot = (hot_first..hot_last).contains(&i);
        let progress = i as f64 / eth_blocks.max(1) as f64;
        // ETH: uniform 0..=3 txs (mean 1.5). ETC: one block per four ETH
        // blocks, so its per-block mean `c` gives a ratio of 6 / c — 2.4
        // txs for 2.5:1 sliding down to 1.2 txs for 5:1.
        let etc_mean = 2.4 - 1.2 * progress;
        let sides: &[Side] = if i % ETC_EVERY == 0 {
            &[Side::Eth, Side::Etc]
        } else {
            &[Side::Eth]
        };
        for &side in sides {
            let (number, base, txs) = match side {
                Side::Eth => (FORK_BLOCK + 1 + i, eth_base, rng.below(4) as u32),
                Side::Etc => (
                    FORK_BLOCK + 1 + i / ETC_EVERY,
                    etc_base,
                    etc_mean as u32 + rng.chance(etc_mean.fract()) as u32,
                ),
            };
            let hash = derived_hash(seed, b'b', side, number);
            records.push(ArchiveRecord::Block(BlockRecord {
                network: side,
                number,
                hash,
                timestamp: ts,
                difficulty: base.saturating_add(U256::from_u64(rng.below(1 << 40))),
                beneficiary: pools[rng.zipf(pools.len() as u64) as usize],
                gas_used: 21_000 * u64::from(txs),
                tx_count: txs,
                ommer_count: rng.chance(0.07) as u32,
            }));
            if in_hot {
                hot.block_hashes.push(hash);
                hot.records += 1 + u64::from(txs);
            }
            for _ in 0..txs {
                let slot = &mut tx_index[matches!(side, Side::Etc) as usize];
                let fresh = derived_hash(seed, b't', side, *slot);
                *slot += 1;
                let hash = match side {
                    Side::Eth => {
                        if echo_pool.len() == 256 {
                            echo_pool.pop_front();
                        }
                        echo_pool.push_back(fresh);
                        fresh
                    }
                    Side::Etc if rng.chance(ECHO_SHARE) => echo_pool.pop_front().unwrap_or(fresh),
                    Side::Etc => fresh,
                };
                records.push(ArchiveRecord::Tx(TxRecord {
                    network: side,
                    hash,
                    timestamp: ts,
                    is_contract: rng.chance(0.3),
                    has_chain_id: false,
                    value: U256::from_u64(rng.below(1 << 50)),
                }));
                if in_hot {
                    hot.tx_hashes.push(hash);
                }
            }
        }
    }
    if hot_blocks > 0 {
        let hot_end = hot_last.min(eth_blocks) - 1;
        hot.eth_numbers = (FORK_BLOCK + 1 + hot_first, FORK_BLOCK + 1 + hot_end);
        hot.etc_numbers = (
            FORK_BLOCK + 1 + hot_first.div_ceil(ETC_EVERY),
            FORK_BLOCK + 1 + hot_end / ETC_EVERY,
        );
        hot.time = (
            FORK_TS + ETH_SPACING_SECS * hot_first,
            FORK_TS + ETH_SPACING_SECS * hot_end,
        );
    }
    Generated { records, hot }
}

/// Feeds `records` to any ledger sink in stream order.
pub fn feed(records: &[ArchiveRecord], sink: &mut impl LedgerSink) {
    for record in records {
        match record {
            ArchiveRecord::Block(b) => sink.block(b.clone()),
            ArchiveRecord::Tx(t) => sink.tx(t.clone()),
        }
    }
}

/// Writes `records` as a fresh archive at `dir` with the shipped defaults
/// (4 MiB segments, raw codec) and whatever flush policy `finish()` has.
pub fn write_archive(dir: &Path, records: &[ArchiveRecord]) -> Result<ArchiveStats, ArchiveError> {
    let mut writer = ArchiveWriter::create_with(dir, ArchiveConfig::default())?;
    feed(records, &mut writer);
    writer.finish(None)
}

/// Total bytes under `dir` (segments, manifest and sidecar).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One generated operation against the query layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A point lookup.
    Lookup(Lookup),
    /// A range query.
    Query(Query),
}

impl Op {
    /// The query-layer entry point the op goes through (its span name).
    pub fn layer_call(&self) -> &'static str {
        match self {
            Op::Lookup(_) => "query.run_lookup",
            Op::Query(_) => "query.run",
        }
    }
}

/// Shares of an op mix; the remainder after lookups and 256-block windows
/// is the mix's "large" class.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of `BlockByHash`/`TxByHash` lookups.
    pub lookups: f64,
    /// Share of 256-block `Difficulty`/`InterArrival` windows.
    pub windows: f64,
    /// What the remaining share draws.
    pub large: Large,
}

/// The large-op class of a [`Mix`].
#[derive(Debug, Clone, Copy)]
pub enum Large {
    /// One-day `Txs` time windows (scaled with the archive). `Echoes`
    /// windows are left to `reanalyze-cold`: an `Echoes` query scans the
    /// whole archive whatever its range, so it is never a hot op.
    DayWindows,
    /// 4,096-block `Blocks` windows.
    Blocks4096,
}

/// `reanalyze-hot` / `serve-closed`: 70% lookups, 20% 256-block windows,
/// 10% one-day `Txs` windows.
pub const HOT_MIX: Mix = Mix {
    lookups: 0.70,
    windows: 0.20,
    large: Large::DayWindows,
};

/// `serve-open`: 80% lookups, 15% 256-block windows, 5% 4,096-block
/// `Blocks` windows.
pub const OPEN_MIX: Mix = Mix {
    lookups: 0.80,
    windows: 0.15,
    large: Large::Blocks4096,
};

/// Draws ops from a [`Mix`] with every key inside one [`HotRegion`].
#[derive(Debug, Clone)]
pub struct OpSampler<'a> {
    hot: &'a HotRegion,
    mix: Mix,
    day_window_secs: u64,
    rng: Rng,
}

/// Scatters Zipf ranks over `n` keys so the hottest keys are not also
/// neighbours on disk (odd multiplier: a bijection for any `n` coprime to
/// it, and a good-enough scatter otherwise).
fn scatter(rank: u64, n: u64) -> usize {
    (rank.wrapping_mul(0x9E37_79B1) % n) as usize
}

impl<'a> OpSampler<'a> {
    /// A sampler over `hot`; `stream` separates the threads and
    /// repetitions of one run.
    pub fn new(
        hot: &'a HotRegion,
        mix: Mix,
        day_window_secs: u64,
        seed: u64,
        stream: u64,
    ) -> OpSampler<'a> {
        OpSampler {
            hot,
            mix,
            day_window_secs,
            rng: Rng::new(seed, 0x100 + stream),
        }
    }

    fn numbers(&mut self) -> (Side, (u64, u64)) {
        if self.rng.chance(0.5) {
            (Side::Eth, self.hot.eth_numbers)
        } else {
            (Side::Etc, self.hot.etc_numbers)
        }
    }

    fn block_window(&mut self, side: Side, (lo, hi): (u64, u64), width: u64) -> Query {
        let span = (hi - lo + 1).saturating_sub(width).max(1);
        let first = lo + self.rng.below(span);
        let last = (first + width - 1).min(hi);
        let projection = match width {
            256 if self.rng.chance(0.5) => Projection::Difficulty,
            256 => Projection::InterArrival,
            _ => Projection::Blocks,
        };
        Query {
            side: Some(side),
            range: QueryRange::Blocks { first, last },
            projection,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let u = self.rng.unit();
        if u < self.mix.lookups {
            let blocks = self.hot.block_hashes.len() as u64;
            let txs = self.hot.tx_hashes.len() as u64;
            return if self.rng.chance(0.5) || txs == 0 {
                let rank = self.rng.zipf(blocks);
                Op::Lookup(Lookup::BlockByHash {
                    hash: self.hot.block_hashes[scatter(rank, blocks)],
                })
            } else {
                let rank = self.rng.zipf(txs);
                Op::Lookup(Lookup::TxByHash {
                    hash: self.hot.tx_hashes[scatter(rank, txs)],
                })
            };
        }
        if u < self.mix.lookups + self.mix.windows {
            let (side, numbers) = self.numbers();
            return Op::Query(self.block_window(side, numbers, 256));
        }
        match self.mix.large {
            // ETH only: the ETC side of the hot region is shorter than
            // one such window.
            Large::Blocks4096 => {
                Op::Query(self.block_window(Side::Eth, self.hot.eth_numbers, 4_096))
            }
            Large::DayWindows => {
                let (lo, hi) = self.hot.time;
                let day = self.day_window_secs;
                let span = (hi - lo + 1).saturating_sub(day).max(1);
                let start = lo + self.rng.below(span);
                let side = if self.rng.chance(0.5) {
                    Side::Eth
                } else {
                    Side::Etc
                };
                Op::Query(Query {
                    side: Some(side),
                    range: QueryRange::Time {
                        start,
                        end: (start + day - 1).min(hi),
                    },
                    projection: Projection::Txs,
                })
            }
        }
    }
}

/// Poisson arrival offsets (nanoseconds from the schedule's start) at
/// `rate_per_s` for `secs` seconds.
pub fn poisson_arrivals(seed: u64, stream: u64, rate_per_s: f64, secs: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0x200 + stream);
    let mean_gap_ns = 1e9 / rate_per_s;
    let end_ns = secs * 1e9;
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate_per_s * secs * 1.1) as usize + 8);
    loop {
        t += rng.exp(mean_gap_ns);
        if t >= end_ns {
            return out;
        }
        out.push(t as u64);
    }
}

/// The 12 full-range queries of `reanalyze-cold`: per side `Blocks`, `Txs`,
/// `InterArrival`, `Difficulty`, `Echoes{1}`; plus `TxRatioPerDay` and
/// `Echoes{7}` over both.
pub fn cold_queries() -> Vec<Query> {
    let q = |side, projection| Query {
        side,
        range: QueryRange::All,
        projection,
    };
    let mut out = Vec::with_capacity(12);
    for side in [Side::Eth, Side::Etc] {
        for projection in [
            Projection::Blocks,
            Projection::Txs,
            Projection::InterArrival,
            Projection::Difficulty,
            Projection::Echoes { window_days: 1 },
        ] {
            out.push(q(Some(side), projection));
        }
    }
    out.push(q(None, Projection::TxRatioPerDay));
    out.push(q(Some(Side::Eth), Projection::Echoes { window_days: 7 }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn read_tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for e in std::fs::read_dir(&d).unwrap().flatten() {
                let p = e.path();
                if p.is_dir() {
                    stack.push(p);
                } else {
                    let rel = p.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                    out.push((rel, std::fs::read(&p).unwrap()));
                }
            }
        }
        out.sort();
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_archives() {
        let out = crate::tempdir::default_out_dir();
        let (a, b) = (TempDir::under(&out, "gen-a"), TempDir::under(&out, "gen-b"));
        write_archive(a.path(), &generate(7, 2_000, 400).records).unwrap();
        write_archive(b.path(), &generate(7, 2_000, 400).records).unwrap();
        let (ta, tb) = (read_tree(a.path()), read_tree(b.path()));
        assert!(ta.len() >= 3, "two segment dirs and a manifest");
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = generate(7, 500, 100);
        let b = generate(8, 500, 100);
        assert_ne!(a.records, b.records);
        assert_ne!(a.hot.block_hashes, b.hot.block_hashes);
    }

    #[test]
    fn shape_matches_the_spec() {
        let g = generate(3, 40_000, 4_000);
        let (mut eth_b, mut etc_b, mut eth_t, mut etc_t) = (0u64, 0u64, 0u64, 0u64);
        let mut eth_hashes = std::collections::HashSet::new();
        let mut echoes = 0u64;
        for r in &g.records {
            match r {
                ArchiveRecord::Block(b) if b.network == Side::Eth => eth_b += 1,
                ArchiveRecord::Block(_) => etc_b += 1,
                ArchiveRecord::Tx(t) if t.network == Side::Eth => {
                    eth_t += 1;
                    eth_hashes.insert(t.hash);
                }
                ArchiveRecord::Tx(t) => {
                    etc_t += 1;
                    echoes += eth_hashes.contains(&t.hash) as u64;
                }
            }
        }
        assert_eq!(eth_b, 40_000);
        assert_eq!(etc_b, 10_000);
        let ratio = eth_t as f64 / etc_t as f64;
        assert!((3.0..3.8).contains(&ratio), "whole-run tx ratio {ratio}");
        let echo_share = echoes as f64 / etc_t as f64;
        assert!(
            (0.27..0.33).contains(&echo_share),
            "echo share {echo_share}"
        );
        assert_eq!(g.hot.block_hashes.len(), 4_000 + 1_000);
        assert_eq!(g.hot.eth_numbers.1 - g.hot.eth_numbers.0 + 1, 4_000);
        assert_eq!(g.hot.etc_numbers.1 - g.hot.etc_numbers.0 + 1, 1_000);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let mut rng = Rng::new(1, 0);
        let n = 1_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..100_000 {
            counts[rng.zipf(n) as usize] += 1;
        }
        // P(rank 0) = ln 2 / ln 1001 ≈ 0.10; the top decile holds about
        // two thirds of the mass.
        assert!((8_000..12_000).contains(&counts[0]), "{}", counts[0]);
        let top: u32 = counts[..100].iter().sum();
        assert!((60_000..72_000).contains(&top), "{top}");
        assert!(counts[999] < 50);
    }

    #[test]
    fn poisson_schedule_has_the_asked_rate_and_is_sorted() {
        let arrivals = poisson_arrivals(5, 0, 400.0, 25.0);
        assert!(
            (9_500..10_500).contains(&arrivals.len()),
            "{}",
            arrivals.len()
        );
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(*arrivals.last().unwrap() < 25_000_000_000);
        assert_eq!(arrivals, poisson_arrivals(5, 0, 400.0, 25.0));
        assert_ne!(arrivals, poisson_arrivals(5, 1, 400.0, 25.0));
    }

    #[test]
    fn mix_shares_and_keys_stay_inside_the_hot_region() {
        let g = generate(11, 20_000, 8_000);
        let mut sampler = OpSampler::new(&g.hot, HOT_MIX, 86_400, 11, 0);
        let (mut lookups, mut windows, mut large) = (0, 0, 0);
        for _ in 0..20_000 {
            match sampler.next_op() {
                Op::Lookup(_) => lookups += 1,
                Op::Query(q) => match q.range {
                    QueryRange::Blocks { first, last } => {
                        windows += 1;
                        let (lo, hi) = match q.side.unwrap() {
                            Side::Eth => g.hot.eth_numbers,
                            Side::Etc => g.hot.etc_numbers,
                        };
                        assert!(lo <= first && last <= hi && last - first == 255);
                    }
                    QueryRange::Time { start, end } => {
                        large += 1;
                        assert!(g.hot.time.0 <= start && end <= g.hot.time.1);
                    }
                    QueryRange::All => panic!("hot mix never scans everything"),
                },
            }
        }
        assert!((13_600..14_400).contains(&lookups), "{lookups}");
        assert!((3_700..4_300).contains(&windows), "{windows}");
        assert!((1_700..2_300).contains(&large), "{large}");
    }
}

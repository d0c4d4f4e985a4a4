//! `sim-meso`, `sim-micro`, `sim-macro`: the three engines as shipped, plus
//! the hash, chain, EVM and RLP kernels underneath them.

use std::time::{Duration, Instant};

use fork_chain::{ChainSpec, ChainStore, DifficultyConfig, GenesisBuilder, Header, Transaction};
use fork_core::{ForkStudy, StudyResult};
use fork_crypto::{keccak256, Keypair};
use fork_evm::{contracts, transact, BlockContext, GasSchedule, WorldState};
use fork_primitives::{units::ether, Address, U256};
use fork_sim::invariants::check_invariants;
use fork_sim::macroscale::topology;
use fork_sim::scenario::{atlas_presets, chaos_scenario, dao_scenario};
use fork_sim::{
    macro_partition, macro_propagation, MacroConfig, MacroNet, MacroReport, MicroConfig, MicroNet,
    NullSink, SimRng, TwoChainEngine,
};

use crate::gen;
use crate::harness::{ns_per_call, secs, Env, Layers, Rep, Tally, Workload};
use crate::tempdir::TempDir;
use crate::trace::{enter, exit, Lane};

fn one_lane_rep(trace: Option<Instant>, f: impl FnOnce(&mut Option<Lane>) -> Rep) -> Rep {
    let mut lane = trace.map(|origin| Lane::new(origin, 0));
    enter(&mut lane, "repetition", 0);
    let mut rep = f(&mut lane);
    exit(&mut lane);
    rep.lanes = lane.into_iter().collect();
    rep
}

fn figures_json(result: &StudyResult) -> Vec<String> {
    result.all_figures().iter().map(|f| f.to_json()).collect()
}

/// `sim-meso`.
#[derive(Default)]
pub struct Meso {
    bytes_per_record: Option<f64>,
}

impl Meso {
    /// The user-facing path: simulate, archive, render every figure.
    fn study(&mut self, env: &Env, lane: &mut Option<Lane>) -> (StudyResult, Vec<String>, TempDir) {
        let dir = TempDir::under(&env.out, "meso");
        enter(lane, "core.archive_to", 1);
        let result = ForkStudy::days(env.seed, env.sizes.meso_days)
            .archive_to(dir.path())
            .expect("archive the study");
        exit(lane);
        enter(lane, "core.all_figures", 1);
        let figures = figures_json(&result);
        exit(lane);
        let records: u64 = result
            .summary
            .blocks
            .iter()
            .chain(&result.summary.txs)
            .sum();
        self.bytes_per_record = Some(gen::dir_bytes(dir.path()) as f64 / records.max(1) as f64);
        (result, figures, dir)
    }
}

impl Workload for Meso {
    fn check(&mut self, env: &Env) -> Tally {
        let (_, live, dir) = self.study(env, &mut None);
        let replayed = StudyResult::from_archive(dir.path());
        let mut tally = Tally::default();
        tally.check(replayed.is_ok_and(|r| figures_json(&r) == live));
        tally
    }

    fn rep(&mut self, env: &Env, _budget: Duration, trace: Option<Instant>) -> Rep {
        one_lane_rep(trace, |lane| {
            let started = Instant::now();
            let (result, figures, _dir) = self.study(env, lane);
            let wall_s = started.elapsed().as_secs_f64();
            let blocks: u64 = result.summary.blocks.iter().sum();
            let ok = !figures.is_empty() && blocks > 0;
            Rep {
                wall_s,
                ops: if ok { blocks } else { 0 },
                attempted: blocks.max(1),
                failed: if ok { 0 } else { blocks.max(1) },
                ..Rep::default()
            }
        })
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        let days = env.sizes.meso_days;
        let (sink_s, (result, _, dir)) = secs(|| self.study(env, &mut None));
        let blocks: u64 = result.summary.blocks.iter().sum();
        let (null_s, summary) =
            secs(|| TwoChainEngine::new(dao_scenario(env.seed, days)).run(&mut NullSink));
        assert_eq!(
            summary.blocks, result.summary.blocks,
            "the sink never steers the run"
        );
        layers.set("sim.meso.null.blocks_per_s", blocks as f64 / null_s);
        layers.set("sim.meso.sink_cost_ratio", sink_s / null_s);
        let spans = &result.telemetry.spans;
        let step = spans.get("meso.step").map_or(1, |s| s.total_ns.max(1)) as f64;
        for (span, name) in [
            ("meso.step.mine", "sim.meso.step.mine_share"),
            ("meso.step.emit", "sim.meso.step.emit_share"),
            ("meso.step.mempool", "sim.meso.step.mempool_share"),
            ("meso.step.generate", "sim.meso.step.generate_share"),
        ] {
            layers.set(
                name,
                spans.get(span).map_or(0.0, |s| s.total_ns as f64 / step),
            );
        }
        let figures_ns = ns_per_call(Duration::from_millis(200), || {
            std::hint::black_box(result.all_figures().len());
        });
        layers.set("core.figures_ms", figures_ns / 1e6);
        let (from_s, replayed) = secs(|| StudyResult::from_archive(dir.path()));
        assert!(replayed.is_ok());
        layers.set("core.from_archive_ms", from_s * 1e3);

        // The pipeline alone, on the study's own record stream.
        let reader = fork_archive::ArchiveReader::open(dir.path()).expect("open");
        let records: Vec<_> = [fork_replay::Side::Eth, fork_replay::Side::Etc]
            .iter()
            .flat_map(|s| reader.records(*s).flatten().map(|(_, r)| r))
            .collect();
        let pipeline_ns = ns_per_call(Duration::from_millis(300), || {
            let mut p = fork_analytics::Pipeline::new();
            gen::feed(&records, &mut p);
            std::hint::black_box(p.totals(fork_replay::Side::Eth));
        });
        layers.set(
            "analytics.pipeline.records_per_s",
            records.len() as f64 / (pipeline_ns / 1e9),
        );
        kernel_layers(layers);
    }

    fn bytes_per_record(&self) -> Option<f64> {
        self.bytes_per_record
    }
}

/// The kernels under every simulated block, on the inputs of the
/// repository's (never wired in) `micro_kernels` criterion bench.
pub fn kernel_layers(layers: &mut Layers) {
    let budget = Duration::from_millis(60);
    let data = vec![0xA5u8; 4096];
    let ns = ns_per_call(budget, || {
        std::hint::black_box(keccak256(std::hint::black_box(&data)));
    });
    layers.set(
        "crypto.keccak256.mb_per_s",
        data.len() as f64 / 1e6 / (ns / 1e9),
    );

    let kp = Keypair::from_seed("bench", 1);
    let tx = Transaction::transfer(&kp, 7, Address([9; 20]), ether(1), U256::from_u64(20), None);
    let encoded = tx.rlp();
    let ns = ns_per_call(budget, || {
        std::hint::black_box(std::hint::black_box(&tx).sender());
    });
    layers.set("crypto.recover_sender_us", ns / 1e3);
    let ns = ns_per_call(budget, || {
        std::hint::black_box(std::hint::black_box(&tx).rlp().len());
    });
    layers.set("rlp.encode_tx_ns", ns);
    let ns = ns_per_call(budget, || {
        std::hint::black_box(Transaction::decode_bytes(std::hint::black_box(&encoded)).is_ok());
    });
    layers.set("rlp.decode_tx_ns", ns);

    let cfg = DifficultyConfig::default();
    let parent = U256::from_u128(62_000_000_000_000);
    let ns = ns_per_call(budget, || {
        std::hint::black_box(cfg.next_difficulty(
            std::hint::black_box(parent),
            1_000,
            1_140,
            1_920_001,
        ));
    });
    layers.set("chain.difficulty.next_ns", ns);

    let header = Header {
        number: 1,
        difficulty: parent,
        timestamp: gen::FORK_TS,
        ..Header::default()
    };
    let mut nonce = 0u64;
    let ns = ns_per_call(budget, || {
        nonce = nonce.wrapping_add(0x9E37_79B9);
        std::hint::black_box(fork_chain::pow::mine_seal(
            std::hint::black_box(&header),
            4,
            nonce,
        ));
    });
    layers.set("chain.pow.seal_us", ns / 1e3);

    let mut world = WorldState::new();
    world.set_balance(Address([1; 20]), ether(1_000_000));
    world.set_code(Address([0xCC; 20]), contracts::storage_churner());
    world.commit();
    let mut call = |to: Address, value: U256, data: &[u8], gas: u64| {
        transact(
            &mut world,
            GasSchedule::frontier(),
            BlockContext::default(),
            Address([1; 20]),
            Some(to),
            value,
            data,
            gas,
            U256::ONE,
        )
        .is_ok()
    };
    let ns = ns_per_call(budget, || {
        std::hint::black_box(call(Address([2; 20]), U256::from_u64(1), &[], 21_000));
    });
    layers.set("evm.transfer_us", ns / 1e3);
    let calldata = U256::from_u64(7).to_be_bytes().to_vec();
    let ns = ns_per_call(budget, || {
        std::hint::black_box(call(Address([0xCC; 20]), U256::ZERO, &calldata, 120_000));
    });
    layers.set("evm.contract_call_us", ns / 1e3);

    let users: Vec<Keypair> = (0..8).map(|i| Keypair::from_seed("bench", i)).collect();
    let mut genesis = GenesisBuilder::new()
        .difficulty(U256::from_u64(1 << 16))
        .timestamp(gen::FORK_TS);
    for u in &users {
        genesis = genesis.alloc(u.address(), ether(100_000));
    }
    let (genesis, state) = genesis.build();
    let mut store = ChainStore::new(ChainSpec::test(), genesis, state);
    let (mut t, mut round) = (gen::FORK_TS, 0u64);
    let ns = ns_per_call(Duration::from_millis(150), || {
        t += 14;
        let txs: Vec<Transaction> = users
            .iter()
            .map(|u| Transaction::transfer(u, round, Address([9; 20]), U256::ONE, U256::ONE, None))
            .collect();
        round += 1;
        let block = store.propose(Address([0xC0; 20]), t, vec![], &txs);
        std::hint::black_box(store.import(block).is_ok());
    });
    layers.set("chain.propose_import_block_us", ns / 1e3);
}

fn micro_configs(seed: u64) -> Vec<(&'static str, MicroConfig)> {
    let mut out: Vec<(&'static str, MicroConfig)> = atlas_presets(seed)
        .into_iter()
        .map(|p| (p.name, p.config))
        .collect();
    out.push(("chaos", chaos_scenario(seed).config));
    out
}

/// `sim-micro`.
#[derive(Default)]
pub struct Micro;

impl Workload for Micro {
    fn check(&mut self, env: &Env) -> Tally {
        // One preset as the warm-up; every timed run is checked as well.
        let (_, config) = micro_configs(env.seed).swap_remove(0);
        let mut net = MicroNet::new(config);
        let report = net.run();
        let mut tally = Tally::default();
        tally.check(check_invariants(&net).is_ok() && report.delivered > 0);
        tally
    }

    fn rep(&mut self, env: &Env, _budget: Duration, trace: Option<Instant>) -> Rep {
        // Every repetition runs the same five scenarios on the same seed, so
        // two commits' medians, and both halves of a traced pair, cover
        // identical work.
        one_lane_rep(trace, |lane| {
            let mut rep = Rep::default();
            for (i, (name, config)) in micro_configs(env.seed).into_iter().enumerate() {
                enter(lane, name, i as u64 + 1);
                let started = Instant::now();
                let mut net = MicroNet::new(config);
                let report = net.run();
                let ok = check_invariants(&net).is_ok();
                let wall_s = started.elapsed().as_secs_f64();
                exit(lane);
                rep.wall_s += wall_s;
                rep.attempted += report.delivered.max(1);
                if ok && report.delivered > 0 {
                    rep.ops += report.delivered;
                } else {
                    rep.failed += report.delivered.max(1);
                }
            }
            rep
        })
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        for ((_, config), name) in micro_configs(env.seed).into_iter().zip([
            "sim.micro.flash_two_way.run_ms",
            "sim.micro.three_way.run_ms",
            "sim.micro.geo_continents.run_ms",
            "sim.micro.client_split.run_ms",
            "sim.micro.chaos.run_ms",
        ]) {
            let (run_s, net) = secs(|| {
                let mut net = MicroNet::new(config);
                net.run();
                net
            });
            layers.set(name, run_s * 1e3);
            if name == "sim.micro.chaos.run_ms" {
                let census_ns = ns_per_call(Duration::from_millis(50), || {
                    std::hint::black_box(net.partition_census().len());
                });
                layers.set("sim.micro.census_us", census_ns / 1e3);
                let inv_ns = ns_per_call(Duration::from_millis(100), || {
                    std::hint::black_box(check_invariants(&net).is_ok());
                });
                layers.set("sim.micro.invariants_us", inv_ns / 1e3);
            }
        }
        let payload = vec![0x5Au8; 512];
        let ns = ns_per_call(Duration::from_millis(60), || {
            let frame = fork_net::seal_frame(std::hint::black_box(&payload));
            std::hint::black_box(fork_net::open_frame(&frame).is_some());
        });
        layers.set("net.seal_open_frame_ns", ns);
        kernel_layers(layers);
    }
}

/// `sim-macro`.
#[derive(Default)]
pub struct Macro {
    serial: Option<(MacroReport, f64)>,
    last_sharded_s: f64,
}

fn macro_config(env: &Env, n_nodes: usize, n_shards: usize) -> MacroConfig {
    // The preset as shipped: default verify_cost, no spin added.
    MacroConfig {
        n_shards,
        ..macro_propagation(env.seed, n_nodes).config
    }
}

/// `MacroNet::new` + `run()`, timed as one span: what a repetition of the
/// workload times, so every `sim.macro.*` rate and both sides of every
/// `shard_speedup` cover the same work.
fn macro_run(config: MacroConfig) -> (f64, MacroReport, MacroNet) {
    let (run_s, (report, net)) = secs(|| {
        let mut net = MacroNet::new(config).expect("shipped preset is valid");
        (net.run(), net)
    });
    (run_s, report, net)
}

impl Workload for Macro {
    fn check(&mut self, env: &Env) -> Tally {
        // The serial run is the reference every sharded repetition must
        // reproduce exactly.
        let (run_s, report, _) = macro_run(macro_config(env, env.sizes.macro_nodes, 1));
        let mut tally = Tally::default();
        tally.check(report.messages_delivered > 0);
        self.serial = Some((report, run_s));
        tally
    }

    fn rep(&mut self, env: &Env, _budget: Duration, trace: Option<Instant>) -> Rep {
        let reference = self.serial.as_ref().map(|(r, _)| r.clone());
        let config = macro_config(env, env.sizes.macro_nodes, env.n);
        let rep = one_lane_rep(trace, |lane| {
            let started = Instant::now();
            enter(lane, "sim.macro.new", 1);
            let mut net = MacroNet::new(config).expect("shipped preset is valid");
            exit(lane);
            enter(lane, "sim.macro.run", 1);
            let report = net.run();
            exit(lane);
            let wall_s = started.elapsed().as_secs_f64();
            let delivered = report.messages_delivered.max(1);
            let ok = reference.is_some_and(|r| r == report);
            Rep {
                wall_s,
                ops: if ok { delivered } else { 0 },
                attempted: delivered,
                failed: if ok { 0 } else { delivered },
                ..Rep::default()
            }
        });
        self.last_sharded_s = rep.wall_s;
        rep
    }

    fn probes(&mut self, env: &Env, layers: &mut Layers) {
        let (serial, serial_s) = self.serial.as_ref().expect("checked");
        let rounds = serial.rounds_executed as f64;
        layers.set("sim.macro.wl.s1.rounds_per_s", rounds / serial_s);
        layers.set("sim.macro.wl.sN.rounds_per_s", rounds / self.last_sharded_s);
        layers.set("sim.macro.shard_speedup.wl", serial_s / self.last_sharded_s);

        let (s1_s, s1, net) = macro_run(macro_config(env, 1_000, 1));
        let (sn_s, sn, _) = macro_run(macro_config(env, 1_000, env.n));
        assert_eq!(s1, sn, "shard count never changes the report");
        layers.set(
            "sim.macro.n1000.s1.rounds_per_s",
            s1.rounds_executed as f64 / s1_s,
        );
        layers.set(
            "sim.macro.n1000.sN.rounds_per_s",
            sn.rounds_executed as f64 / sn_s,
        );
        layers.set("sim.macro.shard_speedup.n1000", s1_s / sn_s);
        let census_ns = ns_per_call(Duration::from_millis(100), || {
            std::hint::black_box(net.partition_census().len());
        });
        layers.set("sim.macro.census_us", census_ns / 1e3);

        let (part_s, part, _) = macro_run(MacroConfig {
            n_shards: env.n,
            ..macro_partition(env.seed, 1_000).config
        });
        layers.set(
            "sim.macro.partition.n1000.rounds_per_s",
            part.rounds_executed as f64 / part_s,
        );

        let gen_config = macro_config(env, env.sizes.macro_nodes, 1).topology;
        let root = SimRng::new(env.seed);
        let gen_ns = ns_per_call(Duration::from_millis(200), || {
            std::hint::black_box(topology::generate(&gen_config, &root).is_ok());
        });
        layers.set("sim.macro.topology_gen_ms", gen_ns / 1e6);
    }
}

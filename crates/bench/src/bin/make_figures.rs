//! Regenerates every figure and every in-text observation of the paper.
//!
//! ```sh
//! cargo run --release -p fork-bench --bin make-figures -- all
//! cargo run --release -p fork-bench --bin make-figures -- fig1 --days 31
//! cargo run --release -p fork-bench --bin make-figures -- fig2 fig3 --days 280
//! cargo run --release -p fork-bench --bin make-figures -- resolved obs
//! cargo run --release -p fork-bench --bin make-figures -- micro --telemetry-out telemetry.json
//! cargo run --release -p fork-bench --bin make-figures -- chaos
//! cargo run --release -p fork-bench --bin make-figures -- atlas
//! cargo run --release -p fork-bench --bin make-figures -- trace
//! cargo run --release -p fork-bench --bin make-figures -- fig2 --days 280 --progress
//! cargo run --release -p fork-bench --bin make-figures -- archive --quick --archive-dir run.arch
//! cargo run --release -p fork-bench --bin make-figures -- telemetry-diff a.json b.json
//! cargo run --release -p fork-bench --bin make-figures -- interarrival
//! cargo run --release -p fork-bench --bin make-figures -- macro --quick
//! ```
//!
//! The `archive` target runs a study streamed into a durable on-disk
//! archive (or, when `--archive-dir` already holds one, replays it without
//! re-simulating), verifies every frame checksum, and proves the replayed
//! figures byte-identical to the live run's. `telemetry-diff`
//! compares two exported telemetry JSON files metric by metric. The
//! `atlas` target runs the fork atlas — every partition preset across
//! three seeds under the safety and heal-convergence invariants, plus the
//! never-healed negative control — and writes `atlas.md` (partition
//! duration vs minority-branch lifetime vs heal reorg depth, per preset ×
//! seed) including the lifetime-vs-duration scaling curve (a sweep of
//! partition durations × seeds on the flash topology). The `macro` target
//! runs the macro-scale engine: the propagation preset at 100/500/1,000
//! generated-topology nodes (pre/post-fork p50/p90/max into `macro.md`). `interarrival` exports the block inter-arrival histograms
//! as CSV/JSON series. The `trace` target runs the fork-split micro
//! network with the block-lifecycle tracer attached and writes
//! `trace.json` (Chrome trace-event format, loadable in `chrome://tracing`
//! / Perfetto) plus `propagation.md` (per-side time-to-coverage, pre- vs
//! post-fork). `--progress` prints one stderr heartbeat per simulated day
//! on the long meso runs.
//!
//! Writes `figN.csv` / `figN.json` plus `observations.md` into `--out`
//! (default `figures/`), and prints ASCII renderings. With
//! `--telemetry-out <path>`, the merged telemetry of everything that ran —
//! engine step-phase spans, per-chain import counters, EVM opcode-class
//! dispatch counts, gossip/frame counters from the `micro` target — is
//! written as `fork-telemetry/v1` JSON and printed as a table.
//!
//! An unknown target or flag, or a flag missing its value, prints the
//! valid targets and exits with status 2. Timing lives in `forkbench`
//! (`benchmark/`), not here: its `reanalyze-*` workloads time the query
//! engine over an archive, and `tests/query_concurrency.rs` checks it.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use fork_core::{observations, ForkStudy, StudyResult};
use fork_sim::resolved::{run as run_resolved, ResolvedForkConfig};
use fork_sim::{MicroConfig, MicroNet, NetView};
use fork_telemetry::{MetricsRegistry, Snapshot, TimingMode};

/// What `all` (or no target at all) runs.
const ALL_TARGETS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "obs",
    "resolved",
    "micro",
    "chaos",
    "atlas",
    "trace",
    "interarrival",
];

/// Targets that run only when named.
const NAMED_TARGETS: &[&str] = &["archive", "macro", "telemetry-diff", "all"];

fn usage() -> String {
    format!(
        "usage: make-figures [TARGET...] [--days N] [--seed N] [--out DIR] \
         [--telemetry-out PATH] [--archive-dir DIR] [--quick] [--progress]\n\
         targets: {} {} (telemetry-diff takes two JSON paths)",
        ALL_TARGETS.join(" "),
        NAMED_TARGETS.join(" ")
    )
}

#[derive(Debug)]
struct Args {
    targets: HashSet<String>,
    days_short: u64,
    days_long: u64,
    seed: u64,
    out: PathBuf,
    telemetry_out: Option<PathBuf>,
    archive_dir: Option<PathBuf>,
    quick: bool,
    progress: bool,
    diff: Option<(PathBuf, PathBuf)>,
}

/// Parses the arguments after the program name. Any word that is neither
/// a known target nor a known flag, and any flag without its value, is an
/// error rather than a silent no-op.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        targets: HashSet::new(),
        days_short: 31,
        days_long: 280,
        seed: 2016,
        out: PathBuf::from("figures"),
        telemetry_out: None,
        archive_dir: None,
        quick: false,
        progress: false,
        diff: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} takes {what}"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg} takes a number, got `{v}`"))
        };
        match arg.as_str() {
            "--days" => {
                let v = number(value("a number")?)?;
                args.days_short = v.min(31);
                args.days_long = v;
            }
            "--seed" => args.seed = number(value("a number")?)?,
            "--out" => args.out = PathBuf::from(value("a path")?),
            "--telemetry-out" => args.telemetry_out = Some(PathBuf::from(value("a path")?)),
            "--archive-dir" => args.archive_dir = Some(PathBuf::from(value("a path")?)),
            "--quick" => args.quick = true,
            "--progress" => args.progress = true,
            "telemetry-diff" => {
                let a = value("two JSON paths")?;
                let b = value("two JSON paths")?;
                args.diff = Some((PathBuf::from(a), PathBuf::from(b)));
                args.targets.insert(arg.clone());
            }
            t if ALL_TARGETS.contains(&t) || NAMED_TARGETS.contains(&t) => {
                args.targets.insert(arg.clone());
            }
            other => return Err(format!("unknown target or flag `{other}`")),
        }
    }
    if args.targets.is_empty() || args.targets.contains("all") {
        args.targets
            .extend(ALL_TARGETS.iter().map(|t| t.to_string()));
    }
    Ok(args)
}

/// One stderr heartbeat line per simulated day (`--progress`).
fn heartbeat(label: &'static str) -> impl FnMut(fork_sim::ProgressEvent) {
    move |p| {
        eprintln!(
            "  [{label}] day {:>3}: sim t={}s, blocks eth/etc {}/{}, {:.0} events/s",
            p.day, p.sim_unix, p.blocks[0], p.blocks[1], p.events_per_sec
        );
    }
}

/// Steps an atlas preset to its end, checking the safety invariants (and,
/// past the preset's heal-plus-grace deadline, census convergence) at every
/// 60 s window and the reorg-depth bound at the end. The census itself is
/// sampled every 15 s — short partitions cross the census's 8-block
/// agreement cushion only briefly, and 60 s sampling can miss the whole
/// divergent phase. Returns the finished net plus the observed
/// minority-branch lifetime: seconds during which the sampled census was
/// divergent.
fn run_atlas_preset(preset: &fork_sim::AtlasPreset, seed: u64) -> (MicroNet, u64) {
    const SAMPLE_MS: u64 = 15_000;
    let end_ms = preset.config.duration_secs * 1_000;
    let mut net = MicroNet::new(preset.config.clone());
    let mut divergent_ms = 0u64;
    let mut t = 0;
    while t < end_ms {
        t = (t + SAMPLE_MS).min(end_ms);
        net.run_until(t);
        if net.partition_census().len() > 1 {
            divergent_ms += SAMPLE_MS;
        }
        if t % 60_000 != 0 && t != end_ms {
            continue;
        }
        if let Err(v) = fork_sim::check_invariants(&net) {
            panic!(
                "atlas {} seed {seed}: invariant violated at t={}s: {v}",
                preset.name,
                t / 1_000
            );
        }
        if t >= preset.converge_by_ms {
            if let Err(v) = fork_sim::check_heal_convergence(&net, preset.expected_groups) {
                panic!("atlas {} seed {seed}: t={}s: {v}", preset.name, t / 1_000);
            }
        }
    }
    if let Err(v) = fork_sim::check_reorg_depth(&net, preset.reorg_depth_bound) {
        panic!("atlas {} seed {seed}: {v}", preset.name);
    }
    (net, divergent_ms / 1_000)
}

fn write_figure(out: &Path, fig: &fork_core::FigureData) {
    let series = fig.all_series();
    let csv = out.join(format!("{}.csv", fig.id));
    let json = out.join(format!("{}.json", fig.id));
    fork_analytics::write_csv(&csv, &series).expect("write csv");
    fork_analytics::write_json(&json, &series).expect("write json");
    println!("{}", fig.render_ascii(76, 14));
    println!("  -> {} and {}\n", csv.display(), json.display());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("make-figures: {e}\n{}", usage());
        std::process::exit(2);
    });
    std::fs::create_dir_all(&args.out).expect("create output dir");

    // Top-level phase spans for this tool's own runs; merged into the
    // telemetry export alongside the engines' metrics.
    let registry = MetricsRegistry::new();
    let mut telemetry = Snapshot::default();

    let wants = |t: &str| args.targets.contains(t);
    let wants_short = wants("fig1") || wants("interarrival");
    let wants_long =
        wants("fig2") || wants("fig3") || wants("fig4") || wants("fig5") || wants("obs");

    let mut short_result: Option<StudyResult> = None;
    let mut long_result: Option<StudyResult> = None;

    if wants_short {
        eprintln!(
            "Running the fork-month window ({} days, seed {})...",
            args.days_short, args.seed
        );
        let run_span = registry.span("figures.run.fork_month");
        let guard = run_span.enter();
        let study = ForkStudy::days(args.seed, args.days_short);
        short_result = Some(if args.progress {
            let mut beat = heartbeat("fork-month");
            study.run_with_progress(Some(&mut beat))
        } else {
            study.run()
        });
        drop(guard);
        eprintln!(
            "  done in {:.1}s",
            run_span.snapshot().total_ns as f64 / 1e9
        );
    }
    if wants_long {
        eprintln!(
            "Running the nine-month window ({} days, seed {})...",
            args.days_long, args.seed
        );
        let run_span = registry.span("figures.run.nine_months");
        let guard = run_span.enter();
        let study = ForkStudy::days(args.seed, args.days_long);
        long_result = Some(if args.progress {
            let mut beat = heartbeat("nine-months");
            study.run_with_progress(Some(&mut beat))
        } else {
            study.run()
        });
        drop(guard);
        eprintln!(
            "  done in {:.1}s",
            run_span.snapshot().total_ns as f64 / 1e9
        );
    }
    for result in [&short_result, &long_result].into_iter().flatten() {
        telemetry.merge(&result.telemetry);
    }

    if let Some(result) = &short_result {
        if wants("fig1") {
            write_figure(&args.out, &result.figure1());
        }
    }
    if let Some(result) = &long_result {
        if wants("fig2") {
            write_figure(&args.out, &result.figure2());
        }
        if wants("fig3") {
            write_figure(&args.out, &result.figure3());
        }
        if wants("fig4") {
            write_figure(&args.out, &result.figure4());
        }
        if wants("fig5") {
            write_figure(&args.out, &result.figure5());
        }
        if wants("obs") {
            let mut report = observations::long_term(result);
            if let Some(short) = &short_result {
                // The fork-month run measures the short-term observations
                // more sharply; replace the long run's copies of those rows.
                let short_report = observations::short_term(short);
                let n = short_report.observations.len();
                report.observations.splice(0..n, short_report.observations);
            }
            let md = report.to_markdown();
            println!("Observations (paper vs measured)\n{md}");
            std::fs::write(args.out.join("observations.md"), &md).expect("write observations");
            println!("  -> {}\n", args.out.join("observations.md").display());
        }
    }

    if wants("resolved") {
        println!("Resolved forks (in-text T3): minority-branch lengths\n");
        let eth = run_resolved(&ResolvedForkConfig::eth_dos_2016(args.seed));
        let etc = run_resolved(&ResolvedForkConfig::etc_replay_2017(args.seed));
        let rows = vec![
            vec![
                "ETH 2016-11-22".to_string(),
                "86 blocks".to_string(),
                format!(
                    "{} blocks over {:.1} h",
                    eth.minority_branch_len,
                    eth.duration_secs / 3_600.0
                ),
            ],
            vec![
                "ETC 2017-01-13".to_string(),
                "3,583 blocks".to_string(),
                format!(
                    "{} blocks over {:.1} h",
                    etc.minority_branch_len,
                    etc.duration_secs / 3_600.0
                ),
            ],
        ];
        let md = fork_analytics::markdown_table(&["fork", "paper", "measured"], &rows);
        println!("{md}");
        std::fs::write(args.out.join("resolved_forks.md"), &md).expect("write resolved");
        println!("  -> {}\n", args.out.join("resolved_forks.md").display());
    }

    if wants("micro") {
        eprintln!("Running the networked micro-simulation (30 min, 16 nodes)...");
        let run_span = registry.span("figures.run.micro");
        let guard = run_span.enter();
        let mut net = MicroNet::new(MicroConfig {
            seed: args.seed,
            n_nodes: 16,
            n_miners: 6,
            duration_secs: 1_800,
            ..MicroConfig::default()
        });
        let report = net.run();
        drop(guard);
        println!(
            "Micro run: {} blocks mined, {} messages delivered, {} corrupted frames, \
             mean propagation {:.0} ms\n",
            report.mined.iter().sum::<u64>(),
            report.delivered,
            report.corrupted_frames,
            report.mean_propagation_ms,
        );
        telemetry.merge(&net.telemetry_snapshot());
    }

    if wants("chaos") {
        eprintln!("Running the chaos scenario (80 min, 20 nodes, fork split + faults)...");
        let run_span = registry.span("figures.run.chaos");
        let guard = run_span.enter();
        let scenario = fork_sim::scenario::chaos_scenario(args.seed);
        let end_ms = scenario.config.duration_secs * 1_000;
        let mut net = MicroNet::new(scenario.config.clone());
        // A bounded flight recorder (constant memory) so an invariant
        // violation can dump each node's recent lifecycle events.
        net.attach_tracer(std::sync::Arc::new(
            fork_telemetry::TraceSink::recorder_only(64),
        ));
        // Step window by window with the invariant checker engaged, exactly
        // like the chaos integration test.
        let mut t = 0;
        while t < end_ms {
            t = (t + 60_000).min(end_ms);
            net.run_until(t);
            if let Err(v) = fork_sim::check_invariants(&net) {
                let dump = fork_sim::violation_report(&net, &v);
                let dump_path = args.out.join("flight_dump.txt");
                std::fs::write(&dump_path, &dump).expect("write flight dump");
                eprintln!("{dump}");
                panic!(
                    "invariant violated at t={}s: {v} (flight dump at {})",
                    t / 1_000,
                    dump_path.display()
                );
            }
        }
        let report = net.finalize_report();
        drop(guard);

        let fmt_u64s = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(" ");
        let rows: Vec<Vec<String>> = vec![
            vec![
                "crashes / restarts".into(),
                format!("{} / {}", report.crashes, report.restarts),
            ],
            vec!["recovery times (ms)".into(), fmt_u64s(&report.recovery_ms)],
            vec![
                "sync timeouts / retries".into(),
                format!("{} / {}", report.sync_timeouts, report.sync_retries),
            ],
            vec!["peer bans".into(), report.peer_bans.to_string()],
            vec!["equivocations".into(), report.equivocations.to_string()],
            vec![
                "corrupted frames".into(),
                report.corrupted_frames.to_string(),
            ],
            vec![
                "reorgs / side blocks".into(),
                format!("{} / {}", report.reorgs, report.side_blocks),
            ],
            vec![
                "partition groups".into(),
                format!("{:?}", report.partition_groups),
            ],
            vec!["head heights".into(), fmt_u64s(&report.head_numbers)],
        ];
        let md = fork_analytics::markdown_table(&["chaos metric", "value"], &rows);
        println!("{md}");
        std::fs::write(args.out.join("chaos.md"), &md).expect("write chaos");
        println!("  -> {}\n", args.out.join("chaos.md").display());
        telemetry.merge(&net.telemetry_snapshot());
    }

    if wants("atlas") {
        eprintln!("Running the fork atlas (4 partition presets x 3 seeds + negative control)...");
        let run_span = registry.span("figures.run.atlas");
        let guard = run_span.enter();
        let seeds = [args.seed, args.seed + 1, args.seed + 2];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for &seed in &seeds {
            for preset in fork_sim::scenario::atlas_presets(seed) {
                let (net, minority_lifetime_s) = run_atlas_preset(&preset, seed);
                let partition = if preset.partition_secs == 0 {
                    "spec-driven".to_string()
                } else {
                    format!("{} s", preset.partition_secs)
                };
                rows.push(vec![
                    preset.name.to_string(),
                    seed.to_string(),
                    partition,
                    format!("{minority_lifetime_s} s"),
                    format!(
                        "{} (bound {})",
                        net.max_reorg_depth(),
                        preset.reorg_depth_bound
                    ),
                    format!("{:?}", net.partition_census()),
                    "ok".to_string(),
                ]);
            }
        }
        // The lifetime-vs-duration scaling curve: the flash topology swept
        // over partition durations × seeds. Lifetime is expected to track
        // duration roughly linearly once the split outlives the census's
        // 8-block agreement cushion.
        eprintln!("Sweeping the lifetime-vs-duration scaling curve...");
        let durations: &[u64] = if args.quick {
            &[30, 240, 960]
        } else {
            &[30, 60, 120, 240, 480, 720, 960]
        };
        let mut curve_rows: Vec<Vec<String>> = Vec::new();
        for &duration in durations {
            let mut lifetimes = Vec::new();
            let mut depths = Vec::new();
            for &seed in &seeds {
                let preset = fork_sim::scenario::atlas_duration_sweep(seed, duration);
                let (net, lifetime_s) = run_atlas_preset(&preset, seed);
                lifetimes.push(lifetime_s);
                depths.push(net.max_reorg_depth());
            }
            let mean_lifetime = lifetimes.iter().sum::<u64>() as f64 / lifetimes.len() as f64;
            curve_rows.push(vec![
                format!("{duration} s"),
                lifetimes
                    .iter()
                    .map(|l| format!("{l} s"))
                    .collect::<Vec<_>>()
                    .join(" / "),
                format!("{mean_lifetime:.0} s"),
                depths
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(" / "),
                fork_sim::scenario::atlas_reorg_bound(duration).to_string(),
            ]);
        }

        // Negative control: the flash partition without its heal must FAIL
        // the convergence invariant — an atlas whose gate can't reject a
        // stuck partition proves nothing.
        let control = fork_sim::scenario::atlas_never_healed(args.seed);
        let mut net = MicroNet::new(control.config.clone());
        net.run();
        let control_line = match fork_sim::check_heal_convergence(&net, control.expected_groups) {
            Err(v) => format!(
                "Negative control `{}` (heal removed): convergence invariant correctly \
                 rejected it — {v}.",
                control.name
            ),
            Ok(()) => panic!("never-healed control passed convergence — the gate is broken"),
        };
        drop(guard);

        let md = format!(
            "# Fork atlas\n\nEach preset × seed runs under the safety invariants at every \
             60 s window; past its heal-plus-grace deadline the census must hold its \
             expected group count at every window. \"Minority lifetime\" is how long a \
             divergent census persisted (15 s sampling); 0 s means the partition healed \
             before the divergence ever crossed the census's 8-block agreement cushion — \
             a flash partition can be invisible at spec tolerance.\n\n{}\n\
             ## Lifetime vs duration scaling curve\n\nThe flash two-way topology \
             (16 nodes, split at 600 s) swept over partition durations, {} seeds \
             each. Minority-branch lifetime tracks partition duration once the \
             split outlives the census's agreement cushion; the heal reorg depth \
             stays inside the duration-derived bound at every point.\n\n{}\n{}\n",
            fork_analytics::markdown_table(
                &[
                    "preset",
                    "seed",
                    "partition",
                    "minority lifetime",
                    "heal reorg depth (blocks)",
                    "census",
                    "invariants",
                ],
                &rows,
            ),
            seeds.len(),
            fork_analytics::markdown_table(
                &[
                    "partition duration",
                    "minority lifetime (per seed)",
                    "mean lifetime",
                    "heal reorg depth (per seed)",
                    "reorg bound",
                ],
                &curve_rows,
            ),
            control_line,
        );
        println!("{md}");
        std::fs::write(args.out.join("atlas.md"), &md).expect("write atlas");
        println!("  -> {}\n", args.out.join("atlas.md").display());
    }

    if wants("trace") {
        eprintln!(
            "Running the trace scenario (30 min, 20 nodes, fork at block {})...",
            fork_sim::scenario::TRACE_FORK_BLOCK
        );
        let run_span = registry.span("figures.run.trace");
        let guard = run_span.enter();
        let scenario = fork_sim::scenario::trace_scenario(args.seed);
        let mut net = MicroNet::new(scenario.config.clone());
        net.attach_tracer(std::sync::Arc::new(
            fork_telemetry::TraceSink::with_recorder(64),
        ));
        let report = net.run();
        drop(guard);

        let n = scenario.config.n_nodes;
        let mut side_of = vec![0usize; n];
        for &i in &scenario.etc_nodes {
            side_of[i] = 1;
        }
        let labels: Vec<String> = (0..n)
            .map(|i| format!("node{:02} ({})", i, ["eth", "etc"][side_of[i]]))
            .collect();
        let events = net.tracer().events();
        let trace_path = args.out.join("trace.json");
        std::fs::write(
            &trace_path,
            fork_telemetry::chrome_trace_json(&events, &labels),
        )
        .expect("write trace");

        let rows = fork_telemetry::propagation_rows(
            &events,
            &side_of,
            &["eth", "etc"],
            fork_sim::scenario::TRACE_FORK_BLOCK,
        );
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.side.clone(),
                    r.phase.to_string(),
                    r.blocks.to_string(),
                    r.p50_ms.to_string(),
                    r.p90_ms.to_string(),
                    r.max_ms.to_string(),
                ]
            })
            .collect();
        let md = fork_analytics::markdown_table(
            &[
                "side", "phase", "blocks", "p50 (ms)", "p90 (ms)", "max (ms)",
            ],
            &table,
        );
        println!(
            "Trace run: {} blocks mined, {} lifecycle events\n\n\
             Propagation: time from Mined to full same-side coverage\n{md}",
            report.mined.iter().sum::<u64>(),
            events.len(),
        );
        std::fs::write(args.out.join("propagation.md"), &md).expect("write propagation");
        println!(
            "  -> {} and {}\n",
            trace_path.display(),
            args.out.join("propagation.md").display()
        );
        telemetry.merge(&net.telemetry_snapshot());
    }

    if wants("interarrival") {
        if let Some(result) = short_result.as_ref().or(long_result.as_ref()) {
            let series = result.interarrival_series();
            let refs: Vec<&fork_analytics::TimeSeries> = series.iter().collect();
            let csv = args.out.join("interarrival.csv");
            let json = args.out.join("interarrival.json");
            fork_analytics::write_csv(&csv, &refs).expect("write interarrival csv");
            fork_analytics::write_json(&json, &refs).expect("write interarrival json");
            for s in &series {
                let n: f64 = s.points.iter().map(|(_, v)| v).sum();
                println!(
                    "{}: {} samples across {} log2 buckets",
                    s.label,
                    n,
                    s.points.len()
                );
            }
            println!("  -> {} and {}\n", csv.display(), json.display());
        }
    }

    if wants("archive") {
        let dir = args
            .archive_dir
            .clone()
            .unwrap_or_else(|| args.out.join("archive"));
        let replayed = if dir.join("manifest.json").is_file() {
            eprintln!("Replaying archived study from {}...", dir.display());
            StudyResult::from_archive(&dir).expect("replay archive")
        } else {
            let study = if args.quick {
                eprintln!(
                    "Running and archiving a quick-scale study (seed {}) into {}...",
                    args.seed,
                    dir.display()
                );
                ForkStudy::quick(args.seed)
            } else {
                eprintln!(
                    "Running and archiving the fork-month window ({} days, seed {}) into {}...",
                    args.days_short,
                    args.seed,
                    dir.display()
                );
                ForkStudy::days(args.seed, args.days_short)
            };
            let run_span = registry.span("figures.run.archive");
            let guard = run_span.enter();
            let live = study.archive_to(&dir).expect("archive run");
            drop(guard);
            let replayed = StudyResult::from_archive(&dir).expect("replay archive");
            let mut mismatched = Vec::new();
            for (a, b) in live.all_figures().iter().zip(replayed.all_figures().iter()) {
                let csv_live = fork_analytics::to_csv(&a.all_series());
                let csv_replay = fork_analytics::to_csv(&b.all_series());
                if csv_live != csv_replay {
                    mismatched.push(a.id);
                }
            }
            assert!(
                mismatched.is_empty(),
                "archive replay diverged from the live run on {mismatched:?}"
            );
            println!("Archive round-trip: all 5 figures byte-identical to the live run");
            telemetry.merge(&live.telemetry);
            replayed
        };

        let reader = fork_archive::ArchiveReader::open(&dir).expect("reopen archive");
        let report = reader.open_report();
        let verify = reader.verify();
        let (ok, bad, torn) = verify.totals();
        println!(
            "Archive {}: {} segments, {} blocks + {} txs; verify: {} frames ok, \
             {} corrupt, {} torn bytes{}",
            dir.display(),
            report.segments,
            report.blocks,
            report.txs,
            ok,
            bad,
            torn,
            if verify.is_clean() { " (clean)" } else { "" },
        );
        for (path, detail) in &report.skipped {
            eprintln!("  skipped segment {}: {detail}", path.display());
        }

        for fig in replayed.all_figures() {
            write_figure(&args.out, &fig);
        }
    }

    if wants("macro") {
        use fork_sim::macroscale::{macro_propagation, MacroNet};
        eprintln!("Running the macro-scale engine (propagation at 100/500/1,000 nodes)...");
        let run_span = registry.span("figures.run.macro");
        let guard = run_span.enter();

        let mut rows: Vec<Vec<String>> = Vec::new();
        for (label, n) in [
            ("macro-100", 100usize),
            ("macro-500", 500),
            ("macro-1000", 1_000),
        ] {
            let preset = macro_propagation(args.seed, n);
            let mut config = preset.config;
            if args.quick {
                config.duration_secs = 300;
                config.fork_at_secs = Some(150);
            }
            let mut net = MacroNet::new(config).expect("macro propagation preset is valid");
            net.attach_registry(&registry);
            let report = if args.progress {
                // Macro heartbeats tick per simulated *minute*, not day.
                let mut beat = |p: fork_sim::ProgressEvent| {
                    eprintln!(
                        "  [{label}] min {:>3}: sim t={}s, blocks maj/min {}/{}, \
                         {:.0} deliveries/s",
                        p.day, p.sim_unix, p.blocks[0], p.blocks[1], p.events_per_sec
                    );
                };
                net.run_with_progress(Some(&mut beat))
            } else {
                net.run()
            };
            telemetry.merge(&net.telemetry_snapshot());
            for (phase, blocks, stats) in [
                ("pre-fork", report.mined_prefork, report.pre_fork),
                (
                    "post-fork",
                    report.mined_majority + report.mined_minority,
                    report.post_fork,
                ),
            ] {
                rows.push(vec![
                    n.to_string(),
                    phase.to_string(),
                    blocks.to_string(),
                    stats.samples.to_string(),
                    stats.p50_ms.to_string(),
                    stats.p90_ms.to_string(),
                    stats.max_ms.to_string(),
                ]);
            }
        }
        drop(guard);

        // macro.md carries only simulation-derived numbers (no wall-clock),
        // so a double run is byte-identical — CI `cmp`s exactly that.
        let md = format!(
            "# Macro-scale propagation\n\nThe macro propagation preset (generated \
             power-law topology, three geo-latency clusters, client-diversity \
             stances; protocol fork at mid-run) at increasing node counts. \
             Delays are mining-round to remote-import, quantized to engine \
             rounds; post-fork rows cover both sides' blocks.\n\n{}\n",
            fork_analytics::markdown_table(
                &["nodes", "phase", "blocks", "samples", "p50_ms", "p90_ms", "max_ms"],
                &rows,
            ),
        );
        println!("{md}");
        std::fs::write(args.out.join("macro.md"), &md).expect("write macro figure");
        println!("  -> {}\n", args.out.join("macro.md").display());
    }

    if let Some((a_path, b_path)) = &args.diff {
        let parse = |p: &Path| {
            let text =
                std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
            Snapshot::from_json(&text).unwrap_or_else(|e| panic!("parse {}: {e}", p.display()))
        };
        let a = parse(a_path);
        let b = parse(b_path);
        let d = fork_telemetry::diff_snapshots(&a, &b);
        println!(
            "Telemetry diff: {} -> {}\n{}",
            a_path.display(),
            b_path.display(),
            fork_telemetry::render_diff(&d)
        );
    }

    if let Some(path) = &args.telemetry_out {
        // Fold in this binary's own spans plus the process-global crate
        // metrics (EVM dispatch/gas, net frames/gossip).
        telemetry.merge(&registry.snapshot());
        fork_evm::telemetry::snapshot_into(&mut telemetry);
        fork_net::telemetry::snapshot_into(&mut telemetry);
        println!("Telemetry\n{}", telemetry.render_table());
        std::fs::write(path, telemetry.to_json(TimingMode::Wall)).expect("write telemetry");
        println!("  -> {}\n", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse_args(&argv)
    }

    #[test]
    fn targets_and_flags_parse() {
        let args = parse(&[
            "fig1", "macro", "--days", "3", "--seed", "7", "--out", "d", "--quick",
        ])
        .unwrap();
        let want: HashSet<String> = ["fig1", "macro"].iter().map(|t| t.to_string()).collect();
        assert_eq!(args.targets, want);
        assert_eq!((args.days_short, args.days_long, args.seed), (3, 3, 7));
        assert_eq!(args.out, PathBuf::from("d"));
        assert!(args.quick && !args.progress);

        let long = parse(&["fig2", "--days", "280"]).unwrap();
        assert_eq!((long.days_short, long.days_long), (31, 280));
    }

    #[test]
    fn no_target_or_all_expands_to_the_default_set() {
        for words in [&[][..], &["all"][..], &["--seed", "1"][..]] {
            let args = parse(words).unwrap();
            for t in ALL_TARGETS {
                assert!(args.targets.contains(*t), "{words:?} lacks {t}");
            }
            assert!(!args.targets.contains("macro"), "{words:?}");
        }
    }

    #[test]
    fn unknown_words_are_rejected() {
        for words in [
            &["bnech", "--out", "d"][..],
            &["bench", "--quick"][..],
            &["query", "--quick"][..],
            &["fig1", "--bench-out", "x.json"][..],
            &["--verbose"][..],
        ] {
            let err = parse(words).unwrap_err();
            assert!(
                err.starts_with("unknown target or flag"),
                "{words:?}: {err}"
            );
        }
    }

    #[test]
    fn a_flag_missing_its_value_is_an_error_not_a_panic() {
        for flag in [
            "--seed",
            "--days",
            "--out",
            "--telemetry-out",
            "--archive-dir",
        ] {
            let err = parse(&["fig1", flag]).unwrap_err();
            assert!(err.starts_with(flag), "{flag}: {err}");
        }
        assert!(parse(&["--days", "many"]).is_err());
        assert!(parse(&["telemetry-diff", "a.json"]).is_err());
    }

    #[test]
    fn telemetry_diff_takes_two_paths() {
        let args = parse(&["telemetry-diff", "a.json", "b.json"]).unwrap();
        assert_eq!(
            args.diff,
            Some((PathBuf::from("a.json"), PathBuf::from("b.json")))
        );
        assert_eq!(args.targets.len(), 1);
    }

    #[test]
    fn usage_lists_every_target() {
        let text = usage();
        for t in ALL_TARGETS.iter().chain(NAMED_TARGETS) {
            assert!(text.contains(t), "usage lacks {t}");
        }
        assert!(!text.contains("bench"));
    }
}

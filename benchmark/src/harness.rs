//! The part every workload shares: sizes, the set-up / check / timed
//! repetitions / traced slice sequence, and turning repetitions into the
//! end-to-end metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::catalog;
use crate::stats::{self, Summary};
use crate::trace::Lane;

/// Input sizes. `contract` is what the committed baseline and the driver
/// use; `smoke` is 1/50 of the issue's original sizing (`A400k`, a 17-day
/// study, 10,000 macro nodes; see the README) for CI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Label written into results.
    pub label: &'static str,
    /// ETH blocks in the shared archive (ETC adds a quarter as many).
    pub eth_blocks: u64,
    /// Consecutive ETH blocks in the hot region.
    pub hot_blocks: u64,
    /// Frame-cache budget; scaled with the archive so the archive stays
    /// about four times the cache and the hot region about half of it.
    pub cache_bytes: u64,
    /// Width of the hot mix's large time windows (one day at the issue's size).
    pub day_window_secs: u64,
    /// Simulated days of the `sim-meso` study.
    pub meso_days: u64,
    /// Node count of `sim-macro`.
    pub macro_nodes: usize,
    /// At most this many set-ups per run (the median is reported).
    pub setups: usize,
    /// Length of the timed window unless `--seconds` says otherwise.
    pub seconds: f64,
}

impl Sizes {
    /// 1/8 of the issue's archive, a 4-day study, 2,500 macro nodes: the
    /// largest inputs with which one run (its set-ups, each with the
    /// correctness pass, and the timed window) stays inside the driver's
    /// time cap.
    pub const CONTRACT: Sizes = Sizes {
        label: "contract",
        eth_blocks: 50_000,
        hot_blocks: 5_000,
        cache_bytes: fork_query::DEFAULT_CACHE_BYTES / 8,
        day_window_secs: 86_400 / 8,
        meso_days: 4,
        macro_nodes: 2_500,
        setups: 5,
        seconds: catalog::RUN_SECONDS as f64,
    };

    /// 1/50 of the issue's sizing, for `--smoke`.
    pub const SMOKE: Sizes = Sizes {
        label: "smoke",
        eth_blocks: 8_000,
        hot_blocks: 800,
        cache_bytes: fork_query::DEFAULT_CACHE_BYTES / 50,
        day_window_secs: 86_400 / 50,
        meso_days: 1,
        macro_nodes: 200,
        setups: 1,
        seconds: 0.6,
    };
}

/// Everything a workload needs to know about the run it is part of.
#[derive(Debug, Clone)]
pub struct Env {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// `N`: threads and connections the load may use (`nproc`).
    pub n: usize,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where scratch inputs, results and traces go.
    pub out: PathBuf,
    /// Length of the timed window, seconds.
    pub seconds: f64,
}

/// One timed repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Timed wall, seconds.
    pub wall_s: f64,
    /// Ops completed.
    pub ops: u64,
    /// Ops attempted (completed + failed).
    pub attempted: u64,
    /// Ops failed, refused, or failing a correctness check.
    pub failed: u64,
    /// Per-op latencies, µs. Batch workloads, where no single op can be
    /// observed from outside, leave this empty and get `wall ÷ ops`.
    pub lat_us: Vec<f64>,
    /// Spans, when the repetition ran traced.
    pub lanes: Vec<Lane>,
}

/// Correctness outcome of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Checks or ops attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Per-layer values of one traced run, keyed by catalog name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` for the catalogued per-layer metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::layer(name).is_some(),
            "per-layer metric `{name}` is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// All recorded values.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// One benchmark workload. The runner calls `setup` then `check` (together
/// one set-up, repeated while the set-up budget lasts), `rep` until the
/// timed window is used up, and — in a traced run — traced `rep`s and
/// `probes`.
pub trait Workload {
    /// Builds inputs from the seed and opens everything the timed ops run
    /// against, replacing whatever an earlier call built. The simulators
    /// build nothing ahead: their engines are constructed inside the op.
    fn setup(&mut self, _env: &Env) {}
    /// Warm-up with the workload's correctness checks on; the last thing
    /// before the first timed op, and part of `setup_s`.
    fn check(&mut self, env: &Env) -> Tally;
    /// One timed repetition. Time-boxed workloads run for `budget`; batch
    /// workloads run one batch. With `trace` set, spans are recorded
    /// against that origin and returned in [`Rep::lanes`].
    fn rep(&mut self, env: &Env, budget: Duration, trace: Option<Instant>) -> Rep;
    /// Measures the per-layer metrics of the layers this workload
    /// exercises (traced run only).
    fn probes(&mut self, env: &Env, layers: &mut Layers);
    /// Archive bytes (segments + manifest + sidecar) per record, when the
    /// workload has an archive.
    fn bytes_per_record(&self) -> Option<f64> {
        None
    }
    /// Releases threads, sockets and scratch files.
    fn teardown(&mut self) {}
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted, checks included.
    pub attempted: u64,
    /// Ops or checks failed.
    pub failed: u64,
    /// End-to-end metrics by catalog name (untraced runs).
    pub e2e: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics by catalog name (traced runs).
    pub layers: Layers,
    /// The trace file, when one was written.
    pub trace_file: Option<PathBuf>,
}

/// Another set-up starts only while the earlier ones took less than this
/// in total, so a workload whose warm-up is a whole simulation repeats it
/// once or twice and one whose set-up is cheap up to `Sizes::setups` times.
const SETUP_BUDGET_SECS: f64 = 4.0;
/// Fewest pooled latency samples for which a p99 is reported at all: ten
/// samples lie beyond it.
pub const MIN_P99_SAMPLES: usize = 1_000;

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-repetition throughput and pooled latency percentiles.
pub fn summarize_reps(reps: &[Rep]) -> BTreeMap<&'static str, Summary> {
    let mut out = BTreeMap::new();
    let rates: Vec<f64> = reps.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    if let Some(s) = stats::summarize(&rates) {
        out.insert("ops_per_s", s);
    }
    // Latency: pooled over the whole window for the headline value, per
    // repetition for the min/max the compare tool needs.
    let per_rep: Vec<Vec<f64>> = reps
        .iter()
        .map(|r| {
            let mut lat = if r.lat_us.is_empty() && r.ops > 0 {
                vec![r.wall_s * 1e6 / r.ops as f64]
            } else {
                r.lat_us.clone()
            };
            lat.sort_by(f64::total_cmp);
            lat
        })
        .collect();
    let mut pooled: Vec<f64> = per_rep.iter().flatten().copied().collect();
    pooled.sort_by(f64::total_cmp);
    for (name, p) in [("lat_p50_us", 50.0), ("lat_p99_us", 99.0)] {
        if p > 50.0 && pooled.len() < MIN_P99_SAMPLES {
            continue;
        }
        let each: Vec<f64> = per_rep
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| stats::percentile_sorted(l, p))
            .collect();
        if let Some(s) = stats::summarize(&each) {
            out.insert(
                name,
                Summary {
                    median: stats::percentile_sorted(&pooled, p),
                    n: pooled.len(),
                    ..s
                },
            );
        }
    }
    out
}

/// One set-up: everything from nothing to the first timed op — inputs,
/// open, index, daemon start, and the correctness warm-up. Returns its wall
/// time in seconds.
fn set_up(w: &mut dyn Workload, env: &Env, tally: &mut Tally) -> f64 {
    let (s, checked) = secs(|| {
        w.setup(env);
        w.check(env)
    });
    tally.absorb(checked);
    s
}

/// Runs `w` untraced and returns its end-to-end metrics.
///
/// Peak memory is read after one set-up and the timed window. The remaining
/// set-ups (the median of all is `setup_s`) run after that: rebuilding
/// inputs several times in one process leaves the allocator in a different
/// state each run, which would make `peak_rss_mb` a lottery.
pub fn run_untraced(w: &mut dyn Workload, env: &Env) -> Outcome {
    let mut tally = Tally::default();
    let mut setup_times = vec![set_up(w, env, &mut tally)];
    let reps = timed_reps(w, env, env.seconds);
    for r in &reps {
        tally.absorb(Tally {
            attempted: r.attempted,
            failed: r.failed,
        });
    }
    let mut e2e = summarize_reps(&reps);
    if let Some(b) = w.bytes_per_record() {
        e2e.insert("bytes_per_record", Summary::exact(b));
    }
    e2e.insert("peak_rss_mb", Summary::exact(peak_rss_mb()));
    while setup_times.len() < env.sizes.setups
        && setup_times.iter().sum::<f64>() < SETUP_BUDGET_SECS
    {
        w.teardown();
        setup_times.push(set_up(w, env, &mut tally));
    }
    w.teardown();
    e2e.insert(
        "setup_s",
        stats::summarize(&setup_times).expect("at least one set-up"),
    );
    e2e.insert(
        "failed_share",
        Summary::exact(tally.failed as f64 / tally.attempted.max(1) as f64),
    );
    Outcome {
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        e2e,
        layers: Layers::default(),
        trace_file: None,
    }
}

/// Repetitions until `seconds` of timed wall are used: another one starts
/// only while half of a typical repetition still fits.
fn timed_reps(w: &mut dyn Workload, env: &Env, seconds: f64) -> Vec<Rep> {
    let slice = Duration::from_secs_f64(seconds / 3.0);
    let mut reps: Vec<Rep> = Vec::new();
    let mut used = 0.0;
    loop {
        let typical = if reps.is_empty() {
            0.0
        } else {
            used / reps.len() as f64
        };
        if !reps.is_empty() && used + typical / 2.0 > seconds {
            return reps;
        }
        let rep = w.rep(env, slice, None);
        used += rep.wall_s;
        reps.push(rep);
    }
}

/// Runs `w` traced: a short untraced/traced interleave for the tracing
/// overhead, the trace file, and the workload's layer probes.
pub fn run_traced(name: &'static str, w: &mut dyn Workload, env: &Env) -> Outcome {
    w.setup(env);
    let mut tally = w.check(env);
    let slice = Duration::from_secs_f64(env.seconds / 6.0);
    let origin = Instant::now();
    let (mut ratios, mut lanes) = (Vec::new(), Vec::new());
    let mut latencies: Vec<f64> = Vec::new();
    // Untraced/traced pairs, alternating which side goes first so a
    // drifting machine favours neither: three for time-boxed workloads,
    // and for batch workloads, which ignore the slice length, as many as
    // fit the window (the last one may overrun it by half a pair).
    for pair in 0.. {
        let used = origin.elapsed().as_secs_f64();
        if pair > 0 && used + used / pair as f64 / 2.0 > env.seconds {
            break;
        }
        let traced_first = pair % 2 == 1;
        let first = w.rep(env, slice, traced_first.then_some(origin));
        let second = w.rep(env, slice, (!traced_first).then_some(origin));
        let (p, mut t) = if traced_first {
            (second, first)
        } else {
            (first, second)
        };
        for r in [&p, &t] {
            tally.absorb(Tally {
                attempted: r.attempted,
                failed: r.failed,
            });
        }
        ratios.push((t.ops as f64 / t.wall_s) / (p.ops as f64 / p.wall_s));
        lanes.append(&mut t.lanes);
        latencies.extend(p.lat_us);
        latencies.append(&mut t.lat_us);
    }
    crate::trace::add_root(&mut lanes, origin, "workload");
    let mut layers = Layers::default();
    layers.set("trace.overhead_ratio", stats::median(&ratios));
    if latencies.len() >= MIN_P99_SAMPLES {
        layers.set("client.lat_p99_us", stats::percentile(&latencies, 99.0));
    }
    let spans: usize = lanes.iter().map(|l| l.spans().len()).sum();
    layers.set("trace.spans", spans as f64);
    for (name, (calls, self_ns)) in crate::trace::self_times(&lanes) {
        eprintln!(
            "span {name}: {calls} calls, self {:.3} ms",
            self_ns as f64 / 1e6
        );
    }
    w.probes(env, &mut layers);
    if let Some(b) = w.bytes_per_record() {
        layers.set("archive.bytes_per_record", b);
    }
    w.teardown();
    let trace_file = crate::trace::write(&env.out, name, &lanes).ok();
    Outcome {
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        e2e: BTreeMap::new(),
        layers,
        trace_file,
    }
}

/// Nanoseconds per call of `f`: the median over batches, run for about
/// `budget`. Each batch is sized to last at least a millisecond so the
/// clock's own cost disappears.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_nanos().max(1) as f64;
    let per_batch = ((1e6 / once).ceil() as u64).clamp(1, 1_000_000);
    let deadline = Instant::now() + budget;
    let mut batches = Vec::new();
    loop {
        let started = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        batches.push(started.elapsed().as_nanos() as f64 / per_batch as f64);
        if Instant::now() >= deadline {
            return stats::median(&batches);
        }
    }
}

/// Seconds `f` takes, once.
pub fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose answers can be corrupted on purpose.
    struct Stub {
        corrupt: bool,
    }

    impl Workload for Stub {
        fn check(&mut self, _: &Env) -> Tally {
            let mut t = Tally::default();
            t.check(true);
            t
        }
        fn rep(&mut self, _: &Env, _: Duration, _: Option<Instant>) -> Rep {
            let mut tally = Tally::default();
            for i in 0..100u64 {
                let answer = if self.corrupt && i % 10 == 0 {
                    i + 1
                } else {
                    i
                };
                tally.check(answer == i);
            }
            Rep {
                wall_s: 0.5,
                ops: 100 - tally.failed,
                attempted: 100,
                failed: tally.failed,
                lat_us: (1..=100).map(f64::from).collect(),
                lanes: Vec::new(),
            }
        }
        fn probes(&mut self, _: &Env, _: &mut Layers) {}
    }

    fn env() -> Env {
        Env {
            seed: 1,
            n: 2,
            sizes: Sizes::SMOKE,
            out: crate::tempdir::default_out_dir(),
            seconds: 1.0,
        }
    }

    #[test]
    fn a_corrupted_answer_raises_failed_share() {
        let clean = run_untraced(&mut Stub { corrupt: false }, &env());
        assert_eq!(clean.failed, 0);
        assert_eq!(clean.e2e["failed_share"].median, 0.0);
        let bad = run_untraced(&mut Stub { corrupt: true }, &env());
        assert!(bad.failed > 0);
        assert!(bad.e2e["failed_share"].median > 0.05);
        assert!(bad.e2e["ops_per_s"].median < clean.e2e["ops_per_s"].median);
    }

    #[test]
    fn setup_s_covers_the_warm_up_and_is_a_median_of_several() {
        struct Slow;
        impl Workload for Slow {
            fn check(&mut self, _: &Env) -> Tally {
                std::thread::sleep(Duration::from_millis(20));
                Tally {
                    attempted: 1,
                    failed: 0,
                }
            }
            fn rep(&mut self, _: &Env, _: Duration, _: Option<Instant>) -> Rep {
                Rep {
                    wall_s: 1.0,
                    ops: 1,
                    attempted: 1,
                    ..Rep::default()
                }
            }
            fn probes(&mut self, _: &Env, _: &mut Layers) {}
        }
        let mut env = env();
        env.sizes.setups = 3;
        let out = run_untraced(&mut Slow, &env);
        assert_eq!(out.e2e["setup_s"].n, 3);
        assert!(out.e2e["setup_s"].min >= 0.02);
        // Three warm-up checks and one repetition of one op.
        assert_eq!(out.attempted, 4);
    }

    #[test]
    fn reps_become_medians_and_pooled_percentiles() {
        let rep = |wall_s: f64, lat: &[f64]| Rep {
            wall_s,
            ops: 10,
            attempted: 10,
            lat_us: lat.to_vec(),
            ..Rep::default()
        };
        let reps = [
            rep(1.0, &[1.0, 2.0, 3.0]),
            rep(2.0, &[4.0, 5.0, 6.0]),
            rep(4.0, &[7.0, 8.0, 90.0]),
        ];
        let m = summarize_reps(&reps);
        assert_eq!(m["ops_per_s"].median, 5.0);
        assert_eq!((m["ops_per_s"].min, m["ops_per_s"].max), (2.5, 10.0));
        assert_eq!(m["lat_p50_us"].median, 5.0);
        assert_eq!((m["lat_p50_us"].min, m["lat_p50_us"].max), (2.0, 8.0));
        assert_eq!(m["lat_p50_us"].n, 9);
        // Nine samples support no p99.
        assert!(!m.contains_key("lat_p99_us"));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let lat: Vec<f64> = (1..=2_000).map(f64::from).collect();
        let reps = [Rep {
            wall_s: 1.0,
            ops: 2_000,
            attempted: 2_000,
            lat_us: lat,
            ..Rep::default()
        }];
        assert_eq!(summarize_reps(&reps)["lat_p99_us"].median, 1_980.0);
    }

    #[test]
    fn batch_reps_without_samples_get_wall_per_op() {
        let reps = [Rep {
            wall_s: 2.0,
            ops: 1_000,
            attempted: 1_000,
            ..Rep::default()
        }];
        let m = summarize_reps(&reps);
        assert_eq!(m["lat_p50_us"].median, 2_000.0);
        assert!(!m.contains_key("lat_p99_us"));
    }

    #[test]
    fn the_timed_window_bounds_the_repetitions() {
        // 0.5 s reps in a 1 s window: two fit, a third would overshoot.
        let reps = timed_reps(&mut Stub { corrupt: false }, &env(), 1.0);
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn ns_per_call_scales_with_the_work() {
        let mut sink = 0u64;
        let small = ns_per_call(Duration::from_millis(20), || {
            for i in 0..100u64 {
                sink = sink.wrapping_add(std::hint::black_box(i));
            }
        });
        let large = ns_per_call(Duration::from_millis(20), || {
            for i in 0..10_000u64 {
                sink = sink.wrapping_add(std::hint::black_box(i));
            }
        });
        assert!(large > small * 10.0, "{small} vs {large}");
    }
}

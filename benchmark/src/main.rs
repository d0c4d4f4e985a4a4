//! `forkbench`: the repository's one repeatable benchmark.
//!
//! ```text
//! forkbench run [--seed S] [--workload W]… [--trace [0|1]] [--seconds X]
//!               [--out DIR] [--smoke]
//! forkbench compare A.json B.json
//! forkbench noise A.json B.json …
//! forkbench manifest
//! ```
//!
//! `run` with one `--workload` measures it in this process and ends with
//! the driver's one-line JSON result. With none (or several) it runs each
//! workload in a fresh child process, so `peak_rss_mb` is the workload's
//! own, and writes `<out>/results.json`.

mod catalog;
mod compare;
mod fixture;
mod gen;
mod harness;
mod noise;
mod report;
mod stats;
mod tempdir;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{Env, Sizes};
use report::{RunMeta, WorkloadNumbers};

/// Default workload seed.
const DEFAULT_SEED: u64 = 2016;

#[derive(Debug)]
struct RunArgs {
    seed: u64,
    workloads: Vec<String>,
    trace: bool,
    seconds: Option<f64>,
    out: PathBuf,
    sizes: Sizes,
    /// Set by the parent on the children it spawns: write the result file,
    /// print the table, skip the driver line.
    child: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: forkbench run [--seed S] [--workload W]... [--trace [0|1]] [--seconds X] \
         [--out DIR] [--smoke]\n       forkbench compare A.json B.json\n       \
         forkbench noise A.json B.json ...\n       forkbench manifest\nworkloads: {}",
        catalog::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        trace: false,
        seconds: None,
        out: tempdir::default_out_dir(),
        sizes: Sizes::CONTRACT,
        child: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                run.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workload" => {
                let w = value("--workload")?;
                if catalog::workload(&w).is_none() {
                    return Err(format!("unknown workload `{w}`"));
                }
                run.workloads.push(w);
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                run.seconds = Some(s);
            }
            "--out" => run.out = PathBuf::from(value("--out")?),
            "--trace" => {
                // A bare flag for people, `--trace 0|1` for the driver.
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => run.sizes = Sizes::SMOKE,
            "--child" => run.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(run)
}

fn meta_of(run: &RunArgs, env: &Env) -> RunMeta {
    RunMeta {
        seed: run.seed,
        sizes: run.sizes.label.to_string(),
        seconds: env.seconds,
        nproc: env.n,
        cpu: report::cpu_model(),
    }
}

fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "traced" } else { "untraced" };
    out.join(format!("{workload}.{kind}.json"))
}

/// Measures one workload in this process.
fn run_here(run: &RunArgs, env: &Env, name: &str) -> WorkloadNumbers {
    let def = catalog::workload(name).expect("validated");
    let mut w = workloads::make(def.name).expect("every catalogued workload exists");
    let outcome = if run.trace {
        harness::run_traced(def.name, w.as_mut(), env)
    } else {
        harness::run_untraced(w.as_mut(), env)
    };
    if let Some(path) = &outcome.trace_file {
        eprintln!("trace: {}", path.display());
    }
    WorkloadNumbers::of(&outcome)
}

fn write_results(path: &Path, meta: &RunMeta, workloads: &BTreeMap<String, WorkloadNumbers>) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the out dir");
    }
    std::fs::write(path, report::results_json(meta, workloads)).expect("write results");
}

/// Runs one workload in a fresh child and reads its result file back.
fn run_child(run: &RunArgs, env: &Env, name: &str, traced: bool) -> Option<WorkloadNumbers> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", name, "--child"])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &env.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&run.out);
    if run.sizes == Sizes::SMOKE {
        cmd.arg("--smoke");
    }
    let status = cmd.status().expect("spawn child");
    if !status.success() {
        eprintln!("{name}: child exited with {status}");
        return None;
    }
    let text = std::fs::read_to_string(result_path(&run.out, name, traced)).ok()?;
    let (_, mut workloads) = report::parse_results(&text).ok()?;
    workloads.remove(name)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let run = match parse_run(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("forkbench: {e}");
            return usage();
        }
    };
    let env = Env {
        seed: run.seed,
        n: std::thread::available_parallelism().map_or(1, |n| n.get()),
        sizes: run.sizes,
        out: run.out.clone(),
        seconds: run.seconds.unwrap_or(run.sizes.seconds),
    };
    let meta = meta_of(&run, &env);

    if let [name] = run.workloads.as_slice() {
        let numbers = run_here(&run, &env, name);
        report::print_table(name, &numbers);
        let single = BTreeMap::from([(name.clone(), numbers)]);
        write_results(&result_path(&run.out, name, run.trace), &meta, &single);
        let numbers = &single[name];
        if !run.child {
            println!("{}", report::contract_line(numbers, run.trace));
        }
        return exit_for(&run, numbers.failed);
    }

    let names: Vec<String> = if run.workloads.is_empty() {
        catalog::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect()
    } else {
        run.workloads.clone()
    };
    let mut all = BTreeMap::new();
    let mut failed = 0;
    let mut broken = false;
    for name in &names {
        let mut numbers = WorkloadNumbers::default();
        for traced in [false, true] {
            if traced && !run.trace {
                continue;
            }
            match run_child(&run, &env, name, traced) {
                Some(n) => numbers.absorb(n),
                None => broken = true,
            }
        }
        failed += numbers.failed;
        all.insert(name.clone(), numbers);
    }
    let path = run.out.join("results.json");
    write_results(&path, &meta, &all);
    eprintln!("results: {}", path.display());
    if broken {
        return ExitCode::from(1);
    }
    exit_for(&run, failed)
}

/// `--smoke` is a gate: any failed op fails the command. A measuring run
/// reports failures in its numbers and exits 0 so they can be read.
fn exit_for(run: &RunArgs, failed: u64) -> ExitCode {
    if failed > 0 {
        eprintln!("forkbench: {failed} failed ops");
        if run.sizes == Sizes::SMOKE {
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn load_results(paths: &[String]) -> Result<Vec<BTreeMap<String, WorkloadNumbers>>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            let (_, workloads) = report::parse_results(&text).map_err(|e| format!("{p}: {e}"))?;
            Ok(workloads)
        })
        .collect()
}

/// Loads the result files named by `args` (at least `min` of them) and
/// hands them to `f`, whose `true` means "fail the command".
fn with_results(
    args: &[String],
    min: usize,
    f: impl FnOnce(&[BTreeMap<String, WorkloadNumbers>]) -> bool,
) -> ExitCode {
    if args.len() < min {
        return usage();
    }
    match load_results(args) {
        Ok(sets) if f(&sets) => ExitCode::from(1),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("forkbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => with_results(rest, 2, |sets| {
            compare::print(&compare::compare(&sets[0], &sets[1]))
        }),
        Some((cmd, rest)) if cmd == "noise" => with_results(rest, 2, |sets| {
            noise::print(&noise::table(sets));
            false
        }),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", catalog::manifest_json());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let run = parse_run(&args(
            "--workload serve-open --seed 7 --seconds 6 --trace 1",
        ))
        .unwrap();
        assert_eq!(run.workloads, ["serve-open"]);
        assert_eq!((run.seed, run.seconds, run.trace), (7, Some(6.0), true));
        let run = parse_run(&args("--workload ingest --seed 7 --seconds 6 --trace 0")).unwrap();
        assert!(!run.trace);
    }

    #[test]
    fn a_bare_trace_flag_and_the_smoke_preset_parse() {
        let run = parse_run(&args("--trace --smoke --workload ingest")).unwrap();
        assert!(run.trace);
        assert_eq!(run.sizes, Sizes::SMOKE);
        assert_eq!(run.seed, DEFAULT_SEED);
        assert_eq!(parse_run(&args("")).unwrap().sizes, Sizes::CONTRACT);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
        assert!(parse_run(&args("--bogus")).is_err());
    }
}

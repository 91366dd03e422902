//! The repository benchmark: full `OnlineExperiment::run` calls with
//! production defaults on three workloads, plus a traced run that attributes
//! the time to the layers. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload reservoir-mlp256 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Each run executes in a child process
//! (this same binary with `--child`), so a run that panics or hangs is
//! contained, counted as failed and killed at its deadline.

mod child;
mod run;
mod stats;
mod trace;
mod workloads;

use stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Workload;

/// Scratch space for durable directories, relative to the working directory.
const WORK_DIR: &str = ".perfbench_work";
/// No child may outlive this many seconds after the benchmark started, so the
/// whole command ends within its 180-second limit even if a run hangs.
const HARD_LIMIT: Duration = Duration::from_secs(165);
/// Untraced runs per measurement, at least.
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let take = |key: &str| values.get(key).cloned();
    let workload_name = take("workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&workload_name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{workload_name}` (one of {})",
            names.join(", ")
        )
    })?;
    let number = |key: &str, default: u64| -> Result<u64, String> {
        take(key).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key} takes a whole number, got `{v}`"))
        })
    };
    let trace = match number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let seconds = number("seconds", 20)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("seed", 1)?,
        seconds,
        trace,
        child: take("child"),
        dir: take("dir").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    match (args.child.as_deref(), &args.dir) {
        (Some("run"), Some(dir)) => {
            run::untraced(args.workload, args.seed, dir);
            ExitCode::SUCCESS
        }
        (Some("trace"), Some(dir)) => {
            trace::traced(args.workload, args.seed, dir);
            ExitCode::SUCCESS
        }
        (Some(mode), _) => {
            eprintln!("perfbench: unknown child mode `{mode}` or missing --dir");
            ExitCode::from(2)
        }
        (None, _) => drive(&args),
    }
}

/// The seed of the `rep`-th run of one invocation: a pure function of the
/// benchmark seed, so the same `--seed` replays the same campaigns.
fn run_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(rep as u64)
}

/// One reported metric: name, unit and its value in every run.
type Metric = (&'static str, &'static str, Vec<f64>);

/// What one child reported; `None` values mean it crashed or timed out.
struct ChildRun {
    seed: u64,
    operations: usize,
    values: Option<BTreeMap<String, f64>>,
}

impl ChildRun {
    fn get(&self, key: &str) -> Option<f64> {
        self.values.as_ref()?.get(key).copied()
    }

    /// True when the child finished and every check it ran passed.
    fn passed(&self) -> bool {
        self.values.as_ref().is_some_and(|values| {
            let checks: Vec<f64> = values
                .iter()
                .filter(|(key, _)| key.starts_with("check."))
                .map(|(_, value)| *value)
                .collect();
            !checks.is_empty() && checks.iter().all(|&v| v == 1.0)
        })
    }

    /// Operations (time steps) that never reached training. A run that
    /// crashed, hung or failed a check counts all of its operations.
    fn failed_operations(&self) -> usize {
        if !self.passed() {
            return self.operations;
        }
        let trained = self.get("unique_trained").unwrap_or(0.0) as usize;
        self.operations.saturating_sub(trained)
    }
}

/// Runs one child to completion (or its deadline) and parses its output.
fn run_child(
    mode: &str,
    workload: Workload,
    seed: u64,
    work: &Path,
    deadline: Instant,
) -> ChildRun {
    let dir = work.join(format!("{}-{mode}-{seed}", workload.name()));
    let operations = workload.config(seed, &dir).total_unique_samples();
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let spawned = Command::new(exe)
        .args(["--child", mode, "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let Ok(mut child) = spawned else {
        eprintln!("perfbench: could not start a {mode} child");
        return ChildRun {
            seed,
            operations,
            values: None,
        };
    };
    let mut stdout = child.stdout.take().expect("piped stdout");
    let (status, output) = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut output = String::new();
            let _ = stdout.read_to_string(&mut output);
            output
        });
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() >= deadline => {
                    eprintln!("perfbench: a {mode} run passed its deadline; killing it");
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(_) => break None,
            }
        };
        (status, reader.join().unwrap_or_default())
    });
    let _ = std::fs::remove_dir_all(&dir);
    let values = status.filter(|s| s.success()).map(|_| {
        output
            .lines()
            .filter_map(|line| {
                let (key, value) = line.split_once(' ')?;
                Some((key.to_string(), value.trim().parse::<f64>().ok()?))
            })
            .collect()
    });
    if values.is_none() {
        eprintln!("perfbench: a {mode} run did not finish cleanly");
    }
    ChildRun {
        seed,
        operations,
        values,
    }
}

/// Runs children of `mode` until `until` has passed (and at least `min`
/// of them). Seeds are numbered from run 0 in each mode, so the traced runs
/// replay the campaigns of the untraced runs.
fn run_children(
    mode: &str,
    args: &Args,
    work: &Path,
    started: Instant,
    until: Duration,
    min: usize,
) -> Vec<ChildRun> {
    let mut runs = Vec::new();
    while runs.len() < min || started.elapsed() < until {
        let deadline = started + HARD_LIMIT;
        if Instant::now() >= deadline {
            break;
        }
        let seed = run_seed(args.seed, runs.len());
        runs.push(run_child(mode, args.workload, seed, work, deadline));
    }
    runs
}

/// Per-run values of `key` over the runs that produced it.
fn collect(runs: &[ChildRun], key: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(key)).collect()
}

fn drive(args: &Args) -> ExitCode {
    let work = PathBuf::from(WORK_DIR);
    if let Err(error) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {error}");
        return ExitCode::from(2);
    }
    let fs_type = child::filesystem_type(&work);
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let min_untraced = if args.trace { 2 } else { MIN_RUNS };
    let untraced = run_children("run", args, &work, started, untraced_budget, min_untraced);
    let traced = if args.trace {
        run_children("trace", args, &work, started, budget, 1)
    } else {
        Vec::new()
    };

    let config = args.workload.config(args.seed, &work);
    let all_runs = untraced.iter().chain(&traced);
    let attempted: usize = all_runs.clone().map(|r| r.operations).sum();
    let failed: usize = all_runs.clone().map(ChildRun::failed_operations).sum();
    let mut correct = all_runs.clone().all(ChildRun::passed);

    let mut metrics: Vec<Metric> = Vec::new();
    if args.trace {
        let (layer_metrics, consistent) = trace::per_layer(&untraced, &traced);
        correct &= consistent;
        metrics.extend(layer_metrics);
    } else {
        let samples_per_s: Vec<f64> = untraced
            .iter()
            .filter_map(|r| Some(r.get("samples_trained")? / r.get("wall_s")?))
            .collect();
        metrics.push(("wall_s", "s", collect(&untraced, "wall_s")));
        metrics.push(("samples_per_s", "samples/s", samples_per_s));
        metrics.push(("setup_s", "s", collect(&untraced, "setup_s")));
        metrics.push(("peak_rss_mb", "MiB", collect(&untraced, "peak_rss_mb")));
    }
    let _ = std::fs::remove_dir_all(&work);

    let summaries: Vec<(&str, &str, Summary)> = metrics
        .iter()
        .map(|(name, unit, values)| (*name, *unit, summarize(values)))
        .collect();
    // The final validation MSE is a correctness check, not a metric: its
    // median does not repeat within any bound the benchmark could fix (draw
    // order follows thread timing). Its quartiles are still printed.
    let val_mse = summarize(&collect(&untraced, "val_mse"));
    print_metadata(args, &config, untraced.len(), traced.len(), &fs_type);
    print_detail(&summaries, val_mse, &untraced, &traced);
    for (name, unit, summary) in &summaries {
        eprintln!(
            "{:<28} {:>14.6} {:<10} (q1 {:.6}, q3 {:.6}, n {})",
            name, summary.median, unit, summary.q1, summary.q3, summary.n
        );
    }
    let body: Vec<String> = summaries
        .iter()
        .map(|(name, unit, summary)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(summary.median)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no NaN or infinity: a metric that could not be measured is null.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// The settings a reader needs to compare results across machines.
fn print_metadata(
    args: &Args,
    config: &melissa::ExperimentConfig,
    untraced: usize,
    traced: usize,
    fs_type: &str,
) {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"untraced_runs\": {untraced}, \
         \"traced_runs\": {traced}, \"available_parallelism\": {parallelism}, \"isa\": \"{}\", \
         \"effective_gemm_threads\": {}, \"ingest_shards\": {}, \"denormals_flushed\": false, \
         \"rustc\": \"{}\", \"target\": \"{}\", \"durable_fs\": \"{fs_type}\"}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        config.training.kernel_isa.resolve().name(),
        config.training.effective_gemm_threads(),
        config.ingest_shards,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_TARGET"),
    );
}

/// Quartiles and the check results of every run, one line before the result.
fn print_detail(
    summaries: &[(&str, &str, Summary)],
    val_mse: Summary,
    untraced: &[ChildRun],
    traced: &[ChildRun],
) {
    let quartiles: Vec<String> = summaries
        .iter()
        .chain([("val_mse", "normalised-mse", val_mse)].iter())
        .map(|(name, _, s)| {
            format!(
                "\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json_number(s.median),
                json_number(s.q1),
                json_number(s.q3),
                s.n
            )
        })
        .collect();
    let runs: Vec<String> = untraced
        .iter()
        .map(|r| ("run", r))
        .chain(traced.iter().map(|r| ("trace", r)))
        .map(|(mode, r)| {
            let checks: Vec<String> = r
                .values
                .iter()
                .flatten()
                .filter_map(|(key, value)| {
                    let name = key.strip_prefix("check.")?;
                    Some(format!("\"{name}\": {}", *value == 1.0))
                })
                .collect();
            format!(
                "{{\"mode\": \"{mode}\", \"seed\": {}, \"finished\": {}, \"checks\": {{{}}}}}",
                r.seed,
                r.values.is_some(),
                checks.join(", ")
            )
        })
        .collect();
    println!(
        "{{\"detail\": {{{}}}, \"runs\": [{}]}}",
        quartiles.join(", "),
        runs.join(", ")
    );
}

//! The campaign benchmark. See `benchmark/README.md`.
//!
//! ```text
//! campaign-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! campaign-benchmark run    [--seed <n>] [--seconds <s>] [--quick]
//! campaign-benchmark trace  [--seed <n>]
//! campaign-benchmark repeat [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form measures one workload in this process and prints one JSON
//! result as the last line of standard output; the other three run it once
//! per workload as child processes, one after the other, and report.

mod bench;
mod digest;
mod json;
mod ledger;
mod procfs;
mod pulser;
mod spans;
mod stats;
mod suite;
mod workloads;

use json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Workload;

/// Seed the subcommands use when none is given, and the seed of the stored
/// first result.
pub const DEFAULT_SEED: u64 = 11;
/// Seconds of timed repetitions when none are given (`BENCHMARK.json`'s
/// `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 10.0;

/// `benchmark/`, from the environment `cargo run` sets, else as compiled.
pub fn benchmark_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `benchmark/out/`: everything a run writes lands here.
pub fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

/// A directory under `benchmark/out/scratch/` that no other process uses.
pub fn scratch_dir(tag: &str) -> PathBuf {
    out_dir()
        .join("scratch")
        .join(format!("{tag}-{}", std::process::id()))
}

/// Command-line options shared by every form.
pub struct Options {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where a child writes the detail its parent reports from.
    pub detail: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        detail: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                opts.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a u64, got `{value}`"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, got `{value}`"))?;
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                };
            }
            "--detail" => opts.detail = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(opts)
}

/// Measures one workload in this process and prints the result line.
fn measure_one(opts: &Options) -> Result<bool, String> {
    let workload = opts.workload.ok_or("--workload is required")?;
    let others = procfs::other_benchmark_processes();
    if !others.is_empty() {
        return Err(format!(
            "another benchmark process is still alive (pid {others:?}); its load would be \
             measured as this run's"
        ));
    }
    let dir = scratch_dir(&format!("campaign-{}-{}", workload.name(), opts.seed));
    let cfg = bench::RunConfig {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
    };
    let outcome = if opts.trace {
        ledger::run(&cfg, &dir)
    } else {
        bench::run(&cfg, &dir)
    };
    // The directory is removed whatever happened; a failure to remove it
    // must not hide the run's own error.
    let removed = std::fs::remove_dir_all(&dir);
    let outcome = outcome?;
    removed.map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;

    if let Some(path) = &opts.detail {
        std::fs::write(path, outcome.detail.to_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (name, unit, value) in &outcome.metrics {
        println!("{:<18} {name:<40} {value:>18.6} {unit}", workload.name());
    }
    let line = Value::obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "metrics",
            Value::obj(outcome.metrics.iter().map(|(name, unit, value)| {
                (
                    *name,
                    Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
                )
            })),
        ),
    ]);
    println!("{}", line.to_line());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "repeat")) => (Some(c), &args[1..]),
        _ => (None, &args[..]),
    };
    let result = parse_options(rest).and_then(|opts| match command {
        None => measure_one(&opts),
        Some("run") => suite::run(&opts),
        Some("trace") => suite::trace(&opts),
        Some("repeat") => suite::repeat(&opts),
        Some(_) => unreachable!("matched above"),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("campaign-benchmark: an output check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("campaign-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

//! The repository's benchmark: the planarity tester's cold pass and the
//! socket server under open-loop load, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_pass|serve_warm|serve_cold --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, with
//! `--trace 1` the per-layer metrics. It prints the host and run record,
//! every metric with its unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. Any
//! failed check, and any invalid run, exits non-zero. See `README.md`.

mod cold;
mod mix;
mod report;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Ledger, Metrics};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The held-out seed: kept out of tuning, used to confirm claims.
const HELD_OUT_SEED: u64 = 2;

const USAGE: &str = "usage: perfbench --workload cold_pass|serve_warm|serve_cold \
[--seed N (default 1; 2 is held out for claims)] [--seconds S (default 50)] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 50,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The repository root: the benchmark lives one directory below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// The serving workloads' fixed rates and capacity probes. Rates sit
/// well below each workload's knee on a 2-vCPU host, and segment sizes
/// keep each segment's tail percentile away from the tail rule's
/// sample-count boundaries.
fn plan(workload: &str) -> Option<serve::Plan> {
    match workload {
        "serve_warm" => Some(serve::Plan {
            mix: mix::Mix::Warm,
            low_qps: 250.0,
            high_qps: 450.0,
            segments: 9,
            probe_requests: 4500.0,
            probe_start_qps: 1500.0,
        }),
        "serve_cold" => Some(serve::Plan {
            mix: mix::Mix::Cold,
            low_qps: 25.0,
            high_qps: 50.0,
            segments: 2,
            probe_requests: 600.0,
            probe_start_qps: 100.0,
        }),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    println!(
        "{}",
        report::host_record(&root, &args.workload, args.seed, args.seconds, args.trace)
    );
    if args.seed == HELD_OUT_SEED {
        println!(
            "seed {HELD_OUT_SEED} is the held-out seed: use it to confirm a claim, not to tune"
        );
    }

    let mut metrics = Metrics::default();
    let mut ledger = Ledger::default();
    let outcome = match (args.workload.as_str(), plan(&args.workload)) {
        ("cold_pass", _) => {
            cold::run(
                args.seed,
                args.seconds,
                args.trace,
                &mut metrics,
                &mut ledger,
            );
            Ok(())
        }
        (_, Some(p)) => serve::run(
            &root,
            &p,
            args.seed,
            args.seconds,
            args.trace,
            &mut metrics,
            &mut ledger,
        ),
        _ => {
            eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
            return ExitCode::from(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: invalid run: {e}");
        return ExitCode::from(3);
    }

    if args.trace {
        // Layers a workload does not exercise did no work in it.
        let others = if args.workload == "cold_pass" {
            serve::layer_metric_names()
        } else {
            cold::layer_metric_names()
        };
        for (name, unit) in others {
            if metrics.get(&name).is_none() {
                metrics.set(name, 0.0, unit);
            }
        }
    }
    let failed_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    for (name, value, unit) in metrics.iter() {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!(
        "failed_frac {failed_frac} ({} of {})",
        ledger.failed, ledger.attempted
    );
    for e in ledger.errors.iter().take(20) {
        println!("FAILED: {e}");
    }
    let correct = ledger.failed == 0 && ledger.attempted > 0;
    println!("{}", report::result_line(correct, &ledger, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

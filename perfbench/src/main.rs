//! Socket-to-stage benchmark for `tdv`.
//!
//! One command runs one seeded workload against the release `tdv`
//! binary, checks every answer against an in-process reference, and
//! prints the end-to-end metrics (or, with `--trace 1`, the per-layer
//! table) as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-paper-open --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the
//! layer table.

mod cold;
mod inputs;
mod layers;
mod serve;
mod util;

use std::path::{Path, PathBuf};
use std::process::Command;

use util::Metrics;

/// What one run reports: the correctness verdict, the op counts and the
/// metrics of the requested mode.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "serve-paper-open",
    "serve-derive-closed",
    "serve-wide-edit",
    "cli-cold",
];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a number")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be a positive number")?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
    })
}

/// Builds the release `tdv` binary from the checkout in the current
/// directory and returns its path. Honours `CARGO_TARGET_DIR` the same
/// way cargo does (relative to the current directory).
fn build_tdv() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run from the root of a typederive checkout".to_string());
    }
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "td-cli",
            "--bin",
            "tdv",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tdv failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let tdv = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(target)
        .join("release")
        .join("tdv");
    if !tdv.is_file() {
        return Err(format!("no tdv binary at {}", tdv.display()));
    }
    Ok(tdv)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let tdv = build_tdv()?;
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let outcome = match args.workload.as_str() {
        "cli-cold" => cold::run(&tdv, &work, args.seed, args.seconds, args.trace),
        name => {
            let input = inputs::serve_input(name, args.seed);
            serve::run(&tdv, &work, &input, args.seconds, args.trace)
        }
    };
    // Keep only the Chrome trace artifact (written next to the work dir).
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, mode, src, out] = argv.as_slice() {
        if mode == "cold-replay" {
            // The traced cli-cold run's fresh-process layer timings.
            match layers::cold_replay(src, out) {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => println!("{}", util::result_json(&outcome)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

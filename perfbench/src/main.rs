//! The repository benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <exhaust|exhaust-reduced|first-bug|campaign|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds `fair-chess` (for the daemon workload), runs one workload (or
//! each in turn with `all`) for `--seconds` seconds through the public
//! `chess-core` / `chess-kernel` / `chess-workloads` APIs or the
//! daemon's socket, checks every verdict against its known answer and
//! prints one JSON result line per workload (the last line of standard
//! output for a single workload): the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 0
//! only when every verdict was right. See `NOTES.md` for the workloads,
//! the metrics and the statistics behind them.

mod campaign;
mod report;
mod search;
mod searchbench;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::Outcome;
use search::{workload_searches, Run};

const USAGE: &str = "usage: perfbench --workload <exhaust|exhaust-reduced|first-bug|campaign|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["exhaust", "exhaust-reduced", "first-bug", "campaign"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("package has a parent directory")
        .to_path_buf()
}

/// The cargo target directory the checkout builds into.
fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Builds the `fair-chess` binary (a no-op when it is fresh). Done on
/// every run, before anything is timed, so whichever workload runs
/// first in a fresh checkout pays the build.
fn build_fair_chess(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--quiet", "-p", "chess-cli"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of fair-chess failed ({status})"));
    }
    Ok(target_dir(root).join("release").join("fair-chess"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--probe-setup") {
        // A set-up probe: run the workload's first search until its
        // first scheduling decision, where the probe strategy exits 0.
        if let Some(searches) = argv.get(1).and_then(|w| workload_searches(w)) {
            searches[0].search.run(Run::Probe);
        }
        eprintln!("perfbench: set-up probe ended without a scheduling decision");
        return ExitCode::FAILURE;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    let definition = match std::fs::read_to_string(root.join("BENCHMARK.json")) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perfbench: read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bin = match build_fair_chess(&root) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    // `all` runs every workload in turn, each printing its own result.
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut correct = true;
    for workload in workloads {
        let mut out: Outcome = match workload_searches(workload) {
            Some(searches) => searchbench::run(workload, &searches, args.seconds, args.trace),
            None => {
                let work_root = target_dir(&root).join("perfbench");
                campaign::run(&bin, &work_root, args.seed, args.seconds, args.trace)
            }
        };
        let list = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        if out.failures.is_empty() {
            out.check_against_definition(&definition, list);
        }
        print_outcome(workload, &out);
        correct &= out.correct();
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outcome(workload: &str, out: &Outcome) {
    for note in &out.notes {
        println!("# {workload}: {note}");
    }
    for (name, value, unit) in &out.metrics {
        println!("# {workload}: {name} = {value} {unit}");
    }
    let wrong = out.failures.len() as f64 / out.attempted.max(1) as f64;
    println!(
        "# {workload}: wrong_verdicts = {wrong} share ({} of {} checked)",
        out.failures.len(),
        out.attempted
    );
    for f in &out.failures {
        eprintln!("perfbench: FAILED: {workload}: {f}");
    }
    println!("{}", out.json_line());
}

//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. `--workload` and
//! `--seconds` are required; `--seed` and `--trace` default to 0.
//!
//! `perfbench --workload <name> --pin` rewrites `pinned/<name>.txt` from a
//! single pass on the default seed.
//!
//! Run it from the repository root: shard files go to `.perfbench-work/`
//! there and are removed on exit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::gate::SweepPin;
use perfbench::inputs::{sweep_shards, sweep_spec, DEFAULT_SEED};
use perfbench::report::{RunSummary, END_TO_END, PER_LAYER};
use perfbench::sweep;

const PINNED_GRID: &str = include_str!("../pinned/sweep-grid.txt");
const PINNED_CYCLIC: &str = include_str!("../pinned/sweep-cyclic.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.pin {
        args.seed = DEFAULT_SEED;
        args.seconds = Some(0.0);
    }
    match args.seconds {
        Some(s) if s.is_finite() && s >= 0.0 => Ok(args),
        Some(_) => Err("--seconds must be a non-negative number".to_owned()),
        None => Err("--seconds is required".to_owned()),
    }
}

fn pinned_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("pinned")
        .join(format!("{workload}.txt"))
}

fn run(args: &Args, dir: &Path) -> Result<RunSummary, String> {
    let pinned_seed = args.seed == DEFAULT_SEED && !args.pin;
    let text = sweep_spec(&args.workload, args.seed)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let pinned = if args.workload == "sweep-grid" {
        PINNED_GRID
    } else {
        PINNED_CYCLIC
    };
    let pin = pinned_seed.then(|| SweepPin::parse(pinned)).flatten();
    let missing = pinned_seed && pin.is_none();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut summary = if args.trace {
        sweep::run_traced(&text, pin, dir)
    } else {
        let seconds = args.seconds.expect("checked by parse_args");
        sweep::run(&text, sweep_shards(&args.workload), pin, seconds, dir)
    }
    .map_err(|e| e.to_string())?;
    if missing {
        summary
            .problems
            .push(format!("no pinned outputs for {}", args.workload));
    }
    if args.pin {
        let merged =
            std::fs::read_to_string(dir.join("merged.jsonl")).map_err(|e| e.to_string())?;
        let text = SweepPin::of_merged(&merged).to_text(&args.workload, DEFAULT_SEED);
        std::fs::write(pinned_path(&args.workload), text).map_err(|e| e.to_string())?;
    }
    Ok(summary)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let dir =
        Path::new(".perfbench-work").join(format!("{}-{}", args.workload, std::process::id()));
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok(summary) => {
            for problem in &summary.problems {
                eprintln!("perfbench: {problem}");
            }
            let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", summary.to_json(catalogue));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

//! The `sweep` CLI: process-sharded sweep execution with merge-equivalent
//! output.
//!
//! ```text
//! sweep [--spec FILE] [--shards N] [--jobs N] [--out DIR]
//!       [--partition hash|round-robin] [--resume]
//!       [--no-dedup] [--cache-dir DIR]
//! sweep --run-shard I --spec FILE --shards N --out DIR [...]   (internal)
//! sweep --check FILE_A FILE_B
//! ```
//!
//! The parent invocation expands the spec into a manifest, re-invokes **its
//! own executable** once per shard with `--run-shard i` (each child writes
//! `shard-i.jsonl` into the output directory), waits for every child, and
//! merges the shard files into `merged.jsonl` in canonical manifest order.
//! Running with `--shards 1` and `--shards N` produces byte-identical merged
//! files; `--check` compares two merged files and, on mismatch, reports the
//! record lines only one of them holds.
//!
//! **Deduplication is on by default**: each shard clusters its pending units
//! by canonical fingerprint and executes one representative per equivalence
//! class; `--cache-dir DIR` adds a content-addressed result cache shared
//! across shards, runs and specs. `--no-dedup` keeps the honest
//! one-execution-per-unit path; merged output is byte-identical either way
//! (the differential contract pinned by tests and CI). Each shard writes its
//! dedup counters to a `shard-i.stats` sidecar; the parent sums them into
//! `stats.json` and prints the run summary. `--check` reports any
//! `stats.json` found next to the files it compares.
//!
//! `--resume` makes each shard reuse the complete records of an existing
//! shard file (a killed shard's torn tail is discarded), re-running only the
//! missing units.
//!
//! `--jobs N` fans each shard's work over `N` scoped worker threads inside
//! the shard process (with dedup, the representatives are what is fanned
//! out). Output is byte-identical to `--jobs 1` — records are pure functions
//! of their units and are assembled in shard-manifest order — so parallelism
//! is purely a throughput knob.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use anet_sweep::manifest::fnv1a;
use anet_sweep::{
    merge_shard_files, run_shard_to_file_with_opts, DedupStats, Manifest, Partition, SweepOptions,
    SweepSpec,
};

/// The spec used when no `--spec` is given (committed at
/// `crates/sweep/specs/example.spec`).
const EXAMPLE_SPEC: &str = include_str!("../../specs/example.spec");

#[derive(Debug)]
struct Args {
    spec: Option<PathBuf>,
    shards: usize,
    jobs: usize,
    out: Option<PathBuf>,
    partition: Partition,
    resume: bool,
    dedup: bool,
    cache_dir: Option<PathBuf>,
    run_shard: Option<usize>,
    check: Option<(PathBuf, PathBuf)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep [--spec FILE] [--shards N] [--jobs N] [--out DIR] \
         [--partition hash|round-robin] [--resume] [--no-dedup] [--cache-dir DIR]\n       \
         sweep --run-shard I --spec FILE --shards N --out DIR (internal)\n       \
         sweep --check FILE_A FILE_B"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: None,
        shards: 1,
        jobs: 1,
        out: None,
        partition: Partition::Hash,
        resume: false,
        dedup: true,
        cache_dir: None,
        run_shard: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--spec" => args.spec = Some(PathBuf::from(value())),
            "--shards" => {
                args.shards = value().parse().unwrap_or_else(|_| usage());
                if args.shards == 0 {
                    usage();
                }
            }
            "--jobs" => {
                args.jobs = value().parse().unwrap_or_else(|_| usage());
                if args.jobs == 0 {
                    usage();
                }
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--partition" => args.partition = Partition::parse(&value()).unwrap_or_else(|| usage()),
            "--resume" => args.resume = true,
            "--no-dedup" => args.dedup = false,
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value())),
            "--run-shard" => args.run_shard = Some(value().parse().unwrap_or_else(|_| usage())),
            "--check" => {
                let a = PathBuf::from(value());
                let b = PathBuf::from(value());
                args.check = Some((a, b));
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn load_spec(path: &Path) -> SweepSpec {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("sweep: cannot read spec {}: {e}", path.display());
        std::process::exit(1);
    });
    SweepSpec::parse(&text).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        std::process::exit(1);
    })
}

fn shard_path(out: &Path, shard: usize) -> PathBuf {
    out.join(format!("shard-{shard}.jsonl"))
}

/// The dedup-counter sidecar a shard child publishes next to its JSONL file.
fn stats_path(out: &Path, shard: usize) -> PathBuf {
    out.join(format!("shard-{shard}.stats"))
}

fn partition_flag(partition: Partition) -> &'static str {
    match partition {
        Partition::Hash => "hash",
        Partition::RoundRobin => "round-robin",
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some((a, b)) = &args.check {
        return check(a, b);
    }

    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("target/sweep/shards-{}", args.shards)));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("sweep: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    // Resolve the spec: an explicit file, or the embedded example written into
    // the output directory so child processes (and the curious) can read it.
    let spec_path = match &args.spec {
        Some(path) => path.clone(),
        None => {
            let path = out.join("spec.sweep");
            if let Err(e) = std::fs::write(&path, EXAMPLE_SPEC) {
                eprintln!("sweep: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            path
        }
    };
    let spec = load_spec(&spec_path);
    let manifest = Manifest::from_spec(&spec);

    if let Some(shard) = args.run_shard {
        run_child_shard(&args, &spec, &manifest, &out, shard)
    } else {
        run_parent(&args, &manifest, &spec_path, &out)
    }
}

/// Child mode: run one shard, publish its JSONL file and stats sidecar.
fn run_child_shard(
    args: &Args,
    spec: &SweepSpec,
    manifest: &Manifest,
    out: &Path,
    shard: usize,
) -> ExitCode {
    if shard >= args.shards {
        eprintln!(
            "sweep: --run-shard {shard} out of range for {}",
            args.shards
        );
        return ExitCode::FAILURE;
    }
    let path = shard_path(out, shard);
    let opts = SweepOptions {
        jobs: args.jobs,
        resume: args.resume,
        dedup: args.dedup,
        cache_dir: args.cache_dir.clone(),
    };
    match run_shard_to_file_with_opts(
        spec,
        manifest,
        args.shards,
        args.partition,
        shard,
        &path,
        &opts,
    ) {
        Ok(report) => {
            println!(
                "shard {shard}/{}: {} executed, {} reused -> {}",
                args.shards,
                report.outcome.executed,
                report.outcome.reused,
                path.display()
            );
            if let Some(stats) = &report.stats {
                println!("shard {shard}/{} {}", args.shards, stats.summary());
                let sidecar = stats_path(out, shard);
                if let Err(e) = std::fs::write(&sidecar, format!("{}\n", stats.to_json_line())) {
                    eprintln!("sweep: cannot write {}: {e}", sidecar.display());
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep: shard {shard} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parent mode: self-invoke one child process per shard, merge, aggregate
/// dedup stats.
fn run_parent(args: &Args, manifest: &Manifest, spec_path: &Path, out: &Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sweep: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut children = Vec::new();
    for shard in 0..args.shards {
        let mut cmd = Command::new(&exe);
        cmd.arg("--spec")
            .arg(spec_path)
            .arg("--shards")
            .arg(args.shards.to_string())
            .arg("--out")
            .arg(out)
            .arg("--partition")
            .arg(partition_flag(args.partition))
            .arg("--jobs")
            .arg(args.jobs.to_string())
            .arg("--run-shard")
            .arg(shard.to_string());
        if args.resume {
            cmd.arg("--resume");
        }
        if !args.dedup {
            cmd.arg("--no-dedup");
        }
        if let Some(dir) = &args.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        match cmd.spawn() {
            Ok(child) => children.push((shard, child)),
            Err(e) => {
                eprintln!("sweep: cannot spawn shard {shard}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut failed = false;
    for (shard, mut child) in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("sweep: shard {shard} exited with {status}");
                failed = true;
            }
            Err(e) => {
                eprintln!("sweep: cannot wait for shard {shard}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }

    let shard_paths: Vec<PathBuf> = (0..args.shards).map(|s| shard_path(out, s)).collect();
    let merged_path = out.join("merged.jsonl");
    match merge_shard_files(manifest.len(), &shard_paths, &merged_path) {
        Ok(units) => {
            let bytes = std::fs::read(&merged_path).unwrap_or_default();
            println!(
                "merged {units} units from {} shard(s) -> {} (fnv1a {:016x})",
                args.shards,
                merged_path.display(),
                fnv1a(&bytes)
            );
            if args.dedup {
                match aggregate_stats(out, args.shards) {
                    Ok(total) => println!("{}", total.summary()),
                    Err(e) => {
                        eprintln!("sweep: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sums the shard stats sidecars into `stats.json` in the output directory.
fn aggregate_stats(out: &Path, shards: usize) -> Result<DedupStats, String> {
    let mut total = DedupStats::default();
    for shard in 0..shards {
        let path = stats_path(out, shard);
        let contents = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let stats = DedupStats::parse_line(contents.trim_end_matches('\n'))
            .ok_or_else(|| format!("{}: not a canonical stats line", path.display()))?;
        total.add(&stats);
    }
    let path = out.join("stats.json");
    std::fs::write(&path, format!("{}\n", total.to_json_line()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(total)
}

/// Compares two merged JSONL files; on mismatch reports the record lines
/// only one of them holds. Any `stats.json` found next to the inputs is
/// reported alongside.
fn check(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("sweep: cannot read {}: {e}", p.display());
            std::process::exit(1);
        })
    };
    let contents_a = read(a);
    let contents_b = read(b);
    for path in [a, b] {
        let stats_file = path.parent().unwrap_or(Path::new(".")).join("stats.json");
        if let Ok(contents) = std::fs::read_to_string(&stats_file) {
            if let Some(stats) = DedupStats::parse_line(contents.trim_end_matches('\n')) {
                println!("{}: {}", stats_file.display(), stats.summary());
            }
        }
    }
    if contents_a == contents_b {
        println!(
            "byte-identical: {} == {} ({} lines)",
            a.display(),
            b.display(),
            contents_a.lines().count()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("sweep: {} and {} differ", a.display(), b.display());
    // Records are canonical lines, so a set difference names every record
    // that changed.
    let lines_a: BTreeSet<&str> = contents_a.lines().collect();
    let lines_b: BTreeSet<&str> = contents_b.lines().collect();
    for missing in lines_a.difference(&lines_b).take(10) {
        eprintln!("  only in {}: {missing}", a.display());
    }
    for missing in lines_b.difference(&lines_a).take(10) {
        eprintln!("  only in {}: {missing}", b.display());
    }
    if lines_a == lines_b {
        eprintln!("  (same record lines; files differ in order or repetition)");
    }
    ExitCode::FAILURE
}

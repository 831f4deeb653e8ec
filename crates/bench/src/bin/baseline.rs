//! Regenerates and smoke-checks the committed `BENCH_*.json` baselines.
//!
//! Usage, from the workspace root (where the files live):
//!
//! * `baseline NAME…` — regenerate `BENCH_<NAME>.json` at its full effort
//!   (every cross-check runs before any timing), write it and echo it;
//! * `baseline --smoke [NAME…]` — regenerate at smoke effort (one run per
//!   row) and key-diff against the committed files, all of them when no
//!   name is given; exits 1 on drift. The drift covers every row's
//!   deterministic columns, so it also pins every cell of the E1–E9 tables
//!   and the scaling rows' trace digests at n = 10³..10⁶.
//!
//! The names are those of [`anet_bench::baseline::BASELINES`].

use std::process::ExitCode;

use anet_bench::baseline::{keys_match, Entry, SampleConfig, BASELINES};

fn usage() -> ExitCode {
    let names: Vec<&str> = BASELINES.iter().map(|entry| entry.name).collect();
    eprintln!(
        "usage: baseline NAME...\n       baseline --smoke [NAME...]\nnames: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, names) = match args.first().map(String::as_str) {
        None => return usage(),
        Some("--smoke") => (true, &args[1..]),
        Some(_) => (false, &args[..]),
    };
    let entries: Option<Vec<&Entry>> = if smoke && names.is_empty() {
        Some(BASELINES.iter().collect())
    } else {
        names
            .iter()
            .map(|name| BASELINES.iter().find(|entry| entry.name == name))
            .collect()
    };
    let Some(entries) = entries else {
        return usage();
    };

    let mut ok = true;
    for entry in entries {
        let path = entry.path();
        if smoke {
            let generated = (entry.generate)(&SampleConfig::smoke()).to_json();
            match std::fs::read_to_string(&path) {
                Ok(committed) => ok &= keys_match(entry, &generated, &committed),
                Err(err) => {
                    eprintln!("FAIL {path}: cannot read committed baseline: {err}");
                    ok = false;
                }
            }
        } else {
            let json = (entry.generate)(&entry.full).to_json();
            if let Err(err) = std::fs::write(&path, &json) {
                eprintln!("baseline: cannot write {path}: {err}");
                return ExitCode::FAILURE;
            }
            print!("{json}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

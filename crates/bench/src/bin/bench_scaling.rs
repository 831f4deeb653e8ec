//! Scaling baseline for the flat engine core: `BENCH_scaling.json`.
//!
//! The grid runs the full protocol battery (labelling, general broadcast,
//! topology mapping) on full grounded trees of n ∈ {10³, 10⁴, 10⁵, 10⁶}
//! nodes under a depth-first schedule, on three engines: the flat CSR + message
//! arena core, the retained queue-forest reference, and (on the cells where
//! it finishes in sensible time) the O(E · deliveries) full-scan reference.
//! Rows carry deterministic outcome and wire columns, so the smoke key diff
//! also pins run determinism across engine changes.
//!
//! Usage, from the workspace root (where `BENCH_scaling.json` lives):
//!
//! * no arguments — regenerate `BENCH_scaling.json` at full effort
//!   ([`SampleConfig::scaling`]: 5 one-run samples per cell, engines
//!   cross-checked bit-identical before timing);
//! * `--smoke` — single-run regeneration and a key diff against the
//!   committed file; exits non-zero on drift (the CI `scaling_smoke` step);
//! * `--verify-large` — no timing: pins flat vs queue-forest bit-identity
//!   (outcome, metrics, states) for all three protocols at n ≈ 10⁵.

use anet_bench::baseline::{result_keys, scaling_json, verify_scaling_large, SampleConfig};

const BASELINE: &str = "BENCH_scaling.json";

fn main() {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        None => {
            let json = scaling_json(&SampleConfig::scaling());
            std::fs::write(BASELINE, &json).expect("write BENCH_scaling.json");
            print!("{json}");
        }
        Some("--smoke") => {
            let generated = scaling_json(&SampleConfig::smoke());
            let committed = std::fs::read_to_string(BASELINE)
                .unwrap_or_else(|err| panic!("cannot read committed {BASELINE}: {err}"));
            let expected = result_keys(&generated);
            let actual = result_keys(&committed);
            if expected == actual {
                println!("ok   {BASELINE}: {} benchmark keys match", expected.len());
                return;
            }
            eprintln!("FAIL {BASELINE}: benchmark keys drifted from the committed baseline");
            for missing in expected.difference(&actual) {
                eprintln!("  bench grid has, baseline lacks: {missing}");
            }
            for stale in actual.difference(&expected) {
                eprintln!("  baseline has, bench grid lacks: {stale}");
            }
            eprintln!("  regenerate with: cargo run --release -p anet-bench --bin bench_scaling");
            std::process::exit(1);
        }
        Some("--verify-large") => verify_scaling_large(),
        Some(other) => {
            eprintln!("unknown argument {other:?}; expected --smoke, --verify-large or nothing");
            std::process::exit(2);
        }
    }
}

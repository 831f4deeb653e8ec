//! The committed specs' merged JSONL, pinned across commits.
//!
//! The other sweep suites compare runs of one build with each other (shards
//! against one shard, jobs against sequential, dedup against honest
//! execution). This one pins the bytes themselves: the FNV-1a 64 of each
//! committed spec's merged output and its line count, as `sweep --spec …
//! --shards 1` writes them to `merged.jsonl`. An engine or protocol change
//! that moves any record, trace digest included, fails here.

use anet_num::Fnv1a;
use anet_sweep::{run_sweep_in_process, Partition, SweepSpec};

fn assert_merged_output(spec_text: &str, name: &str, digest: &str, lines: usize) {
    let spec = SweepSpec::parse(spec_text).expect("committed spec parses");
    let merged = run_sweep_in_process(&spec, 1, Partition::Hash).expect("sweep runs");
    let mut hash = Fnv1a::new();
    hash.write(merged.as_bytes());
    assert_eq!(
        (format!("{:016x}", hash.finish()), merged.lines().count()),
        (digest.to_owned(), lines),
        "merged JSONL of {name}.spec (FNV-1a 64, line count)"
    );
}

#[test]
fn example_spec_output_is_pinned() {
    let spec = include_str!("../specs/example.spec");
    assert_merged_output(spec, "example", "e7ebee7516cd58a8", 216);
}

#[test]
fn faults_spec_output_is_pinned() {
    let spec = include_str!("../specs/faults.spec");
    assert_merged_output(spec, "faults", "4270f7fa625d202b", 360);
}

#[test]
fn recovery_spec_output_is_pinned() {
    let spec = include_str!("../specs/recovery.spec");
    assert_merged_output(spec, "recovery", "868b1aa84d8c8d7d", 300);
}
